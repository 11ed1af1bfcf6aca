"""Workload partitioning for the parallel runtime.

A simulation decomposes into disjoint **slices**, each of which can be
generated and delivered with no knowledge of any other slice:

* ``traffic`` slices — contiguous day ranges of the benign stream.  Every
  day draws all of its randomness (send times, sender picks, typos,
  content) from its own named child stream, so a day range is a pure
  function of ``(config, day_start, day_end)``.
* ``campaign`` slices — one attacker domain's full campaign.  Campaigns
  already use per-domain child streams (``child(domain.name)``).
* ``extra`` slices — caller-injected workloads, shipped as materialised
  spec lists (the workload *callables* are often closures and need not be
  picklable; :class:`~repro.workload.spec.EmailSpec` always is).

The slice plan is a pure function of the config — **never** of the worker
count — which is the first half of the determinism guarantee.  The second
half is that each slice's delivery engine is seeded from
``child(f"engine/{slice.key}")``, so the records inside a slice don't
depend on which process runs it or in what order.

``plan_slices`` is computable *without building the world* (day count
from the clock, campaign count from the builder's sizing formula), so the
parent process can plan and dispatch immediately; the workers of a config
source build their own world copy.  ``tests/test_parallel.py`` asserts the
plan agrees with a built world.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.util.clock import SimClock
from repro.workload.spec import EmailSpec
from repro.world.config import SimulationConfig

#: Days of benign traffic per slice.  Coarse on purpose: engine-local
#: adaptive state (TLS learning, greylist retries) cold-starts once per
#: slice, and ~8 restarts across a 15-month window keeps that distortion
#: far below the shipped regime tolerances while still giving the runtime
#: enough slices to balance across workers.
TRAFFIC_SLICE_DAYS = 56


@dataclass(frozen=True)
class SimSlice:
    """One independently executable partition of a simulation.

    Plain, picklable data: with its progress entry, the slice is what a
    worker process is dealt.
    """

    kind: str  #: "traffic" | "campaign" | "extra"
    index: int  #: position in the canonical merge order
    key: str  #: stable name; also seeds the slice's engine stream
    day_start: int = 0  #: traffic slices: first day (inclusive)
    day_end: int = 0  #: traffic slices: last day (exclusive)
    campaign_index: int = -1  #: campaign slices: attacker-domain position
    extra_index: int = -1  #: extra slices: workload position
    #: Extra slices shipped to workers carry their materialised specs.
    specs: tuple[EmailSpec, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("traffic", "campaign", "extra"):
            raise ValueError(f"unknown slice kind {self.kind!r}")

    def with_specs(self, specs: Sequence[EmailSpec]) -> "SimSlice":
        return replace(self, specs=tuple(specs))


def count_attacker_campaigns(config: SimulationConfig) -> int:
    """Number of attacker campaigns the world builder will create.

    Mirrors the sizing formula in the sender builder
    (:mod:`repro.world.model`); ``tests/test_parallel.py`` keeps the two
    in sync by comparing against a built world.
    """
    n_total = config.scaled(config.n_sender_domains)
    n_guess = min(max(2, config.scaled(config.n_guessing_campaigns)), n_total // 6 + 1)
    n_spam = min(max(2, config.scaled(config.n_bulk_spam_domains)), n_total // 6 + 1)
    return n_guess + n_spam


def plan_slices(config: SimulationConfig, n_extra: int = 0) -> list[SimSlice]:
    """The canonical slice plan for ``config``: traffic day ranges, then
    attacker campaigns, then extra workloads.

    The order is the merge order (ties between slices resolve by slice
    index, matching the serial runner's stable heap merge), and the plan
    depends only on the config — running with 1 worker or 64 yields the
    same slices.
    """
    slices: list[SimSlice] = []
    n_days = SimClock(config.start, config.end).n_days
    for day_start in range(0, n_days, TRAFFIC_SLICE_DAYS):
        day_end = min(day_start + TRAFFIC_SLICE_DAYS, n_days)
        slices.append(
            SimSlice(
                kind="traffic",
                index=len(slices),
                key=f"traffic/days-{day_start:03d}-{day_end:03d}",
                day_start=day_start,
                day_end=day_end,
            )
        )
    for campaign in range(count_attacker_campaigns(config)):
        slices.append(
            SimSlice(
                kind="campaign",
                index=len(slices),
                key=f"campaign/{campaign}",
                campaign_index=campaign,
            )
        )
    for extra in range(n_extra):
        slices.append(
            SimSlice(
                kind="extra",
                index=len(slices),
                key=f"extra/{extra}",
                extra_index=extra,
            )
        )
    return slices


def assign_slices(slices: Sequence[SimSlice], workers: int) -> list[list[SimSlice]]:
    """Deal slices round-robin across ``workers`` buckets.

    Round-robin interleaves the heavy traffic slices across workers (they
    dominate wall time and appear first in the plan); empty buckets are
    dropped, so asking for more workers than slices just uses fewer.
    Assignment affects only *where* a slice runs — the merged output is
    invariant to it.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    buckets: list[list[SimSlice]] = [[] for _ in range(workers)]
    for i, item in enumerate(slices):
        buckets[i % workers].append(item)
    return [b for b in buckets if b]
