"""Scenario overlay: declarative world mutations carried on the config.

A scenario is a tuple of frozen, picklable, JSON-able *ops* stored in
:attr:`repro.world.config.SimulationConfig.scenario`.  Keeping the ops on
the config — instead of mutating a built world imperatively — is what
preserves every execution-parity guarantee for free:

* parallel workers rebuild their world from the config alone, so the
  ops replay identically in every process;
* ``config_digest`` hashes ``asdict(config)``, so two runs differ in
  fingerprint exactly when their scenarios differ (resume/checkpoint
  safety);
* :func:`apply_scenario` runs at the very end of
  :func:`repro.world.model.build_world` with its own named child stream,
  so the base world's draw history is untouched — a config with an empty
  scenario builds a byte-identical world to one without the field.

Ops address existing domains by *index* into deterministically sorted
name lists (:func:`benign_sender_names`, :func:`tail_receiver_names`)
rather than by generated name, so a scenario is portable across scales
and seeds.  :class:`CampaignOp` is carried here too but performs no
world mutation — :mod:`repro.workload.campaigns` compiles it into an
extra workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dnssim.records import RecordType
from repro.util.clock import DAY_SECONDS, Window
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (model -> overlay)
    from repro.dnssim.zone import Zone
    from repro.world.model import WorldModel


class ScenarioError(ValueError):
    """A scenario op or builder step that cannot be honoured."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


# -- ops ------------------------------------------------------------------------


@dataclass(frozen=True)
class PublishZoneOp:
    """Register a brand-new DNS zone (include targets, provider records).

    ``spf=None`` publishes the zone with *no* SPF record — an ``include``
    of it evaluates to NONE, which RFC 7208 §5.2 turns into PERMERROR.
    """

    domain: str
    spf: str | None = None
    kind: str = field(default="publish_zone", init=False)

    def validate(self) -> None:
        _require(bool(self.domain) and "." in self.domain,
                 f"publish_zone: {self.domain!r} is not a domain name")
        _require(self.domain == self.domain.lower(),
                 f"publish_zone: domain must be lowercase, got {self.domain!r}")
        if self.spf is not None:
            _require(self.spf.startswith("v=spf1"),
                     f"publish_zone {self.domain}: SPF text must start with v=spf1")


@dataclass(frozen=True)
class SenderSpfOp:
    """Rewrite the SPF deployment of the ``sender_index``-th benign sender.

    ``spf=None`` deletes the record entirely; ``drop_dkim`` removes the
    DKIM key too, so authentication stands or falls with SPF alone (the
    "Lazy Gatekeepers" SPF-only deployment).  The domain's stochastic
    auth-misconfiguration windows are cleared so the scenario owns the
    whole story.
    """

    sender_index: int
    spf: str | None
    drop_dkim: bool = False
    kind: str = field(default="sender_spf", init=False)

    def validate(self) -> None:
        _require(self.sender_index >= 0, "sender_spf: sender_index must be >= 0")
        if self.spf is not None:
            _require(self.spf.startswith("v=spf1"),
                     "sender_spf: SPF text must start with v=spf1")


@dataclass(frozen=True)
class ReceiverAuthOp:
    """Set sender-authentication enforcement on a tail receiver."""

    receiver_index: int
    enforce: bool = True
    kind: str = field(default="receiver_auth", init=False)

    def validate(self) -> None:
        _require(self.receiver_index >= 0, "receiver_auth: receiver_index must be >= 0")


@dataclass(frozen=True)
class MxTopologyOp:
    """Replace a tail receiver's MX set with a preference-tiered fleet.

    ``hosts`` are ``(label, priority)`` pairs; the published hostname is
    ``{label}.{domain}``.  Lower priority = preferred, matching
    ``best_mx``.
    """

    receiver_index: int
    hosts: tuple[tuple[str, int], ...]
    kind: str = field(default="mx_topology", init=False)

    def validate(self) -> None:
        _require(self.receiver_index >= 0, "mx_topology: receiver_index must be >= 0")
        _require(len(self.hosts) >= 1, "mx_topology: need at least one MX host")
        labels = [label for label, _ in self.hosts]
        _require(len(set(labels)) == len(labels),
                 f"mx_topology: duplicate host labels in {labels}")
        for label, priority in self.hosts:
            _require(bool(label), "mx_topology: empty host label")
            _require(priority >= 0, f"mx_topology: negative priority for {label!r}")


@dataclass(frozen=True)
class MxOutageOp:
    """Take one MX host of a tail receiver down for ``[start_day, end_day)``.

    DNS keeps serving the record; the *SMTP host* is unreachable, so the
    sender fails over to the next preference tier — or times out (T14)
    when a correlated outage covers every host.
    """

    receiver_index: int
    host: str
    start_day: float
    end_day: float
    kind: str = field(default="mx_outage", init=False)

    def validate(self) -> None:
        _require(self.receiver_index >= 0, "mx_outage: receiver_index must be >= 0")
        _require(bool(self.host), "mx_outage: empty host label")
        _require(self.end_day > self.start_day >= 0,
                 f"mx_outage: bad window [{self.start_day}, {self.end_day})")


@dataclass(frozen=True)
class CampaignOp:
    """A deterministic scenario traffic campaign (no world mutation).

    Compiled by :func:`repro.workload.campaigns.campaign_workload` into
    an extra workload: ``per_day`` emails per day over ``[start_day,
    end_day)`` from users of the ``sender_index``-th benign sender domain
    to real mailboxes at the named majors and/or indexed tail receivers.
    """

    name: str
    sender_index: int
    receiver_domains: tuple[str, ...] = ()
    receiver_indices: tuple[int, ...] = ()
    per_day: int = 20
    start_day: int = 0
    end_day: int = 10**9  # clamped to the window at materialisation
    spamminess: float = 0.08
    kind: str = field(default="campaign", init=False)

    def validate(self) -> None:
        _require(bool(self.name), "campaign: empty name")
        _require(self.sender_index >= 0, "campaign: sender_index must be >= 0")
        _require(self.receiver_domains or self.receiver_indices,
                 f"campaign {self.name!r}: no receivers selected")
        _require(self.per_day >= 1, f"campaign {self.name!r}: per_day must be >= 1")
        _require(self.end_day > self.start_day >= 0,
                 f"campaign {self.name!r}: bad day range "
                 f"[{self.start_day}, {self.end_day})")
        _require(0.0 <= self.spamminess <= 1.0,
                 f"campaign {self.name!r}: spamminess must be in [0, 1]")
        for index in self.receiver_indices:
            _require(index >= 0, f"campaign {self.name!r}: negative receiver index")


#: Every op class, for isinstance gating and docs.
SCENARIO_OPS = (
    PublishZoneOp, SenderSpfOp, ReceiverAuthOp, MxTopologyOp, MxOutageOp, CampaignOp,
)


# -- selectors ------------------------------------------------------------------


def benign_sender_names(world: "WorldModel") -> list[str]:
    """Sorted benign sender domain names — the ``sender_index`` space."""
    return sorted(d.name for d in world.benign_sender_domains())


def tail_receiver_names(world: "WorldModel") -> list[str]:
    """Sorted non-major receiver domain names — the ``receiver_index`` space."""
    return sorted(
        name for name, d in world.receiver_domains.items() if not d.is_named_major
    )


def resolve_sender(world: "WorldModel", index: int) -> str:
    names = benign_sender_names(world)
    _require(bool(names), "scenario: world has no benign sender domains")
    return names[index % len(names)]


def resolve_receiver(world: "WorldModel", index: int) -> str:
    names = tail_receiver_names(world)
    _require(bool(names), "scenario: world has no tail receiver domains")
    return names[index % len(names)]


# -- application ----------------------------------------------------------------


def apply_scenario(world: "WorldModel", ops, rng: RandomSource) -> None:
    """Apply every world-mutating op, in order, to a freshly built world.

    Runs at the very end of ``build_world`` under ``rng.child("scenario")``
    semantics: the ops themselves draw nothing today (``rng`` is reserved
    for future stochastic ops), so the base world is byte-identical with
    or without an empty scenario.
    """
    for op in ops:
        op.validate()
        if isinstance(op, PublishZoneOp):
            _apply_publish_zone(world, op)
        elif isinstance(op, SenderSpfOp):
            _apply_sender_spf(world, op)
        elif isinstance(op, ReceiverAuthOp):
            _apply_receiver_auth(world, op)
        elif isinstance(op, MxTopologyOp):
            _apply_mx_topology(world, op)
        elif isinstance(op, MxOutageOp):
            _apply_mx_outage(world, op)
        elif isinstance(op, CampaignOp):
            pass  # traffic, not world state: repro.workload.campaigns
        else:  # pragma: no cover - config.validate rejects foreign entries
            raise ScenarioError(f"unknown scenario op {op!r}")


def _zone_of(world: "WorldModel", domain: str, what: str) -> "Zone":
    zone = world.resolver.zone(domain)
    _require(zone is not None, f"{what}: no zone for {domain!r}")
    return zone


def _apply_publish_zone(world: "WorldModel", op: PublishZoneOp) -> None:
    from repro.dnssim.zone import Zone

    _require(op.domain not in world.resolver,
             f"publish_zone: {op.domain!r} already exists")
    clock = world.clock
    zone = Zone(domain=op.domain)
    zone.registrations = [
        Window(clock.start_ts - 365 * DAY_SECONDS, clock.end_ts + 365 * DAY_SECONDS)
    ]
    zone.registrants = [f"scenario-{op.domain}"]
    if op.spf is not None:
        zone.add_record(RecordType.TXT_SPF, op.spf)
    world.resolver.register_zone(zone)


def _apply_sender_spf(world: "WorldModel", op: SenderSpfOp) -> None:
    domain = resolve_sender(world, op.sender_index)
    zone = _zone_of(world, domain, "sender_spf")
    drop = {RecordType.TXT_SPF}
    if op.drop_dkim:
        drop.add(RecordType.TXT_DKIM)
    zone.records = [r for r in zone.records if r.rtype not in drop]
    if op.spf is not None:
        zone.add_record(RecordType.TXT_SPF, op.spf)
    # The scenario owns this domain's deliverability story: stochastic
    # auth-misconfiguration and sender-DNS-outage windows would blur the
    # misdeployment signal with unrelated T1/T3 noise.
    zone.auth_error_windows = []
    zone.spf_error_windows = []
    zone.dns_error_windows = []
    if op.drop_dkim:
        zone.dkim_error_windows = []


def _apply_receiver_auth(world: "WorldModel", op: ReceiverAuthOp) -> None:
    domain = resolve_receiver(world, op.receiver_index)
    mta = world.receiver_mtas.get(domain)
    _require(mta is not None, f"receiver_auth: no MTA for {domain!r}")
    mta.policy.enforces_auth = op.enforce


def _apply_mx_topology(world: "WorldModel", op: MxTopologyOp) -> None:
    domain = resolve_receiver(world, op.receiver_index)
    zone = _zone_of(world, domain, "mx_topology")
    zone.records = [r for r in zone.records if r.rtype is not RecordType.MX]
    for label, priority in op.hosts:
        zone.add_record(RecordType.MX, f"{label}.{domain}", priority=priority)


def _apply_mx_outage(world: "WorldModel", op: MxOutageOp) -> None:
    domain = resolve_receiver(world, op.receiver_index)
    zone = _zone_of(world, domain, "mx_outage")
    host = f"{op.host}.{domain}"
    _require(
        any(r.rtype is RecordType.MX and r.value == host for r in zone.records),
        f"mx_outage: {host!r} is not an MX host of {domain!r} "
        "(declare the topology first)",
    )
    clock = world.clock
    window = Window(
        clock.start_ts + op.start_day * DAY_SECONDS,
        clock.start_ts + op.end_day * DAY_SECONDS,
    )
    zone.mx_host_down_windows.setdefault(host, []).append(window)
    # In-place dict/list mutation is invisible to the zone's epoch.
    zone.invalidate()
