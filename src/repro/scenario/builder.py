"""The scenario-builder DSL.

A :class:`ScenarioBuilder` composes a named what-if experiment out of
chained, *eagerly validating* steps — the SystemBuilder idiom: each step
returns a typed sub-builder whose methods refine one entity, a bad step
raises :class:`~repro.world.overlay.ScenarioError` at the call site (not
at run time three layers down), and :meth:`ScenarioBuilder.compile`
freezes the whole description into plain data.

The compilation target is deliberately boring: a
:class:`~repro.world.config.SimulationConfig` whose ``scenario`` tuple
carries the overlay ops, plus the extra-workload callables for the
campaigns.  Nothing downstream knows the DSL exists — serial, parallel,
columnar, and checkpointed execution all consume the config they already
understand, which is how the builder inherits byte-for-byte parity
instead of having to re-earn it.

::

    spf = (
        ScenarioBuilder("spf-epidemic", scale=0.05, seed=1107)
        .describe("SPF misconfiguration epidemic")
    )
    spf.zone("spf.broken-provider.example")          # no SPF record at all
    esp = spf.sender(0).spf(
        "v=spf1 include:spf.broken-provider.example -all", drop_dkim=True)
    strict = spf.receiver(0).enforce_auth()
    spf.campaign("broken-include", sender=esp,
                 to=["gmail.com", strict], per_day=12, days=(0, 60))
    compiled = spf.compile()
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.world.config import SimulationConfig
from repro.world.domains import NAMED_MAJORS
from repro.world.overlay import (
    CampaignOp,
    MxOutageOp,
    MxTopologyOp,
    PublishZoneOp,
    ReceiverAuthOp,
    ScenarioError,
    SenderSpfOp,
)

_MAJOR_NAMES = frozenset(major.name for major in NAMED_MAJORS)

__all__ = [
    "CompiledScenario",
    "ReceiverBuilder",
    "ScenarioBuilder",
    "ScenarioError",
    "SenderBuilder",
]


@dataclass(frozen=True)
class CompiledScenario:
    """A frozen scenario: a config carrying ops, plus campaign workloads."""

    name: str
    description: str
    config: SimulationConfig
    workloads: tuple

    def run(self, workers: int = 1):
        """Deliver the scenario; returns an iterable of DeliveryRecords.

        ``workers=1`` streams in-process; more workers delegate to the
        parallel runner, whose shards are removed once the records are
        drained.  Output is byte-identical either way.
        """
        if workers > 1:
            from repro.parallel.runner import iter_parallel_simulation

            return iter_parallel_simulation(
                self.config, workers, extra_workloads=list(self.workloads)
            )
        from repro.stream.runner import stream_simulation

        return stream_simulation(self.config, extra_workloads=list(self.workloads))


class SenderBuilder:
    """Refines one benign sender domain (selected by stable index)."""

    def __init__(self, parent: "ScenarioBuilder", index: int) -> None:
        if index < 0:
            raise ScenarioError(f"sender index must be >= 0, got {index}")
        self._parent = parent
        self.index = index

    def spf(self, record: str | None, drop_dkim: bool = False) -> "SenderBuilder":
        """Replace the domain's SPF deployment (``None`` deletes it)."""
        self._parent._push(SenderSpfOp(self.index, record, drop_dkim=drop_dkim))
        return self

    def campaign(self, name: str, to, **kwargs) -> "SenderBuilder":
        """Shorthand for ``parent.campaign(name, sender=self, to=to)``."""
        self._parent.campaign(name, sender=self, to=to, **kwargs)
        return self


class ReceiverBuilder:
    """Refines one long-tail receiver domain (selected by stable index)."""

    def __init__(self, parent: "ScenarioBuilder", index: int) -> None:
        if index < 0:
            raise ScenarioError(f"receiver index must be >= 0, got {index}")
        self._parent = parent
        self.index = index
        self._mx_labels: tuple[str, ...] = ()

    def enforce_auth(self, enforce: bool = True) -> "ReceiverBuilder":
        """Make this receiver reject unauthenticated senders (T3)."""
        self._parent._push(ReceiverAuthOp(self.index, enforce))
        return self

    def mx(self, *hosts: tuple[str, int]) -> "ReceiverBuilder":
        """Publish a preference-tiered MX fleet: ``.mx(("mx1", 10), ...)``."""
        op = MxTopologyOp(self.index, tuple(hosts))
        self._parent._push(op)
        self._mx_labels = tuple(label for label, _ in op.hosts)
        return self

    def outage(self, host: str, start_day: float, end_day: float) -> "ReceiverBuilder":
        """Take one declared MX host down for ``[start_day, end_day)``."""
        if host not in self._mx_labels:
            raise ScenarioError(
                f"outage({host!r}): declare the host with .mx() first "
                f"(declared: {list(self._mx_labels) or 'none'})"
            )
        self._parent._push(MxOutageOp(self.index, host, start_day, end_day))
        return self

    def blackout(self, start_day: float, end_day: float) -> "ReceiverBuilder":
        """Correlated outage of *every* declared MX host — the T14 maker."""
        if not self._mx_labels:
            raise ScenarioError("blackout(): declare the topology with .mx() first")
        for host in self._mx_labels:
            self._parent._push(MxOutageOp(self.index, host, start_day, end_day))
        return self


class ScenarioBuilder:
    """Chained, validating builder for one scenario (see module docs)."""

    def __init__(
        self,
        name: str,
        scale: float | None = None,
        seed: int | None = None,
        base: SimulationConfig | None = None,
    ) -> None:
        if not name or not name.replace("-", "").replace("_", "").isalnum():
            raise ScenarioError(
                f"scenario name must be a non-empty slug, got {name!r}"
            )
        self.name = name
        self.description = ""
        overrides = {}
        if scale is not None:
            overrides["scale"] = scale
        if seed is not None:
            overrides["seed"] = seed
        # replace() re-runs __post_init__ → validate(), so a bad scale
        # fails here, on the constructor line.
        self._config = replace(base or SimulationConfig(), **overrides)
        self._ops: list = []
        self._zones: set[str] = set()

    # -- internal ----------------------------------------------------------

    def _push(self, op) -> None:
        op.validate()
        self._ops.append(op)

    # -- steps -------------------------------------------------------------

    def describe(self, text: str) -> "ScenarioBuilder":
        self.description = text
        return self

    def configure(self, **overrides) -> "ScenarioBuilder":
        """Override base :class:`SimulationConfig` fields (validates now)."""
        if "scenario" in overrides:
            raise ScenarioError("configure(): 'scenario' is built, not configured")
        try:
            self._config = replace(self._config, **overrides)
        except TypeError as exc:
            raise ScenarioError(f"configure(): {exc}") from exc
        return self

    def zone(self, domain: str, spf: str | None = None) -> "ScenarioBuilder":
        """Publish a brand-new DNS zone (e.g. an SPF include target)."""
        if domain in self._zones:
            raise ScenarioError(f"zone({domain!r}): already declared")
        self._push(PublishZoneOp(domain, spf=spf))
        self._zones.add(domain)
        return self

    def include_chain(
        self, stem: str, length: int, loop: bool = True
    ) -> str:
        """Publish ``length`` zones, each SPF-including the next.

        ``loop=True`` closes the cycle, so walking the chain never
        terminates and the RFC 7208 §4.6.4 lookup budget overruns —
        PERMERROR by construction.  Returns the chain's entry domain.
        """
        if length < 1:
            raise ScenarioError("include_chain: length must be >= 1")
        names = [f"chain-{i}.{stem}" for i in range(length)]
        for i, name in enumerate(names):
            if loop or i + 1 < length:
                target = names[(i + 1) % length]
                self.zone(name, spf=f"v=spf1 include:{target} -all")
            else:
                self.zone(name, spf="v=spf1 -all")
        return names[0]

    def sender(self, index: int) -> SenderBuilder:
        return SenderBuilder(self, index)

    def receiver(self, index: int) -> ReceiverBuilder:
        return ReceiverBuilder(self, index)

    def campaign(
        self,
        name: str,
        sender: int | SenderBuilder,
        to,
        per_day: int = 20,
        days: tuple[int, int] = (0, 10**9),
        spamminess: float = 0.08,
    ) -> "ScenarioBuilder":
        """Add a traffic campaign.

        ``to`` mixes named majors (``"gmail.com"``), tail-receiver
        builders, and raw tail indices.  Majors are checked against
        :data:`~repro.world.domains.NAMED_MAJORS` now, not at run time.
        """
        sender_index = sender.index if isinstance(sender, SenderBuilder) else sender
        domains: list[str] = []
        indices: list[int] = []
        for target in to:
            if isinstance(target, ReceiverBuilder):
                indices.append(target.index)
            elif isinstance(target, int):
                indices.append(target)
            elif isinstance(target, str):
                if target not in _MAJOR_NAMES:
                    raise ScenarioError(
                        f"campaign {name!r}: {target!r} is not a named major; "
                        f"address tail receivers via .receiver(index)"
                    )
                domains.append(target)
            else:
                raise ScenarioError(
                    f"campaign {name!r}: bad target {target!r} "
                    "(expected major name, receiver builder, or index)"
                )
        self._push(CampaignOp(
            name=name,
            sender_index=sender_index,
            receiver_domains=tuple(domains),
            receiver_indices=tuple(indices),
            per_day=per_day,
            start_day=days[0],
            end_day=days[1],
            spamminess=spamminess,
        ))
        return self

    # -- compilation -------------------------------------------------------

    def compile(self) -> CompiledScenario:
        """Freeze the scenario into config + workloads.

        Re-validates the whole op tuple through ``SimulationConfig`` (the
        same gate parallel workers apply when they unpickle the config).
        """
        from repro.workload.campaigns import scenario_workloads

        if not any(isinstance(op, CampaignOp) for op in self._ops):
            raise ScenarioError(
                f"scenario {self.name!r} has no campaigns: nothing would "
                "exercise the configured failures"
            )
        config = replace(self._config, scenario=tuple(self._ops))
        return CompiledScenario(
            name=self.name,
            description=self.description,
            config=config,
            workloads=tuple(scenario_workloads(config)),
        )
