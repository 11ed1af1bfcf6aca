"""Streaming simulation runner.

The batch runner (:func:`repro.simulate.run_simulation`) materialises every
:class:`~repro.workload.spec.EmailSpec` and every
:class:`~repro.delivery.records.DeliveryRecord` before anything downstream
runs.  This module is the bounded-memory alternative: the world is built
once, the workload is decomposed into independent **slices** (see
:mod:`repro.parallel.partition`), and each slice's delivery records are
lazily k-way merged back into one time-ordered stream.

The slice discipline is what makes the record sequence *canonical* — the
same for the in-process runner here and for
:func:`repro.parallel.run_parallel_simulation` at any worker count:

* every slice's spec stream is yielded pre-sorted by send time (benign
  traffic one day at a time, attacker campaigns per domain),
* every random stream is a *named* child of the run seed
  (:meth:`repro.util.rng.RandomSource.child`) — per-day generation
  streams, per-campaign streams, and a per-slice delivery engine seeded
  from ``child(f"engine/{slice.key}")`` — so no slice's randomness
  depends on any other slice, on generation order, or on which process
  runs it,
* ``heapq.merge`` is stable across its input iterables, which makes a
  merge of sorted streams equal to concat-then-stable-sort; merging
  per-slice record streams in slice-plan order therefore fixes the order
  of simultaneous records once, for every execution strategy.

Every run is a *segment*: days ``[from, until)`` of every slice, starting
from per-slice *progress* (:func:`fresh_progress`).  An uninterrupted run
is the segment ``[0, n_days)`` from fresh progress; a checkpointed run
(:mod:`repro.checkpoint`) cuts at a day boundary and resumes from the
progress the cut left, and the worker processes of
:mod:`repro.parallel` run the same :func:`run_slice`.

Peak memory is O(one day of specs per traffic slice + attacker campaigns
+ the world), never O(total records).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from repro.delivery.engine import DeliveryEngine
from repro.delivery.records import DeliveryRecord
from repro.obs import profile as obs_profile
from repro.parallel.partition import SimSlice, plan_slices
from repro.util.rng import RandomSource
from repro.workload.attackers import AttackerGenerator
from repro.workload.spec import EmailSpec
from repro.workload.traffic import TrafficGenerator
from repro.world.config import SimulationConfig
from repro.world.model import WorldModel, build_world

#: A pluggable workload: receives the built world and a dedicated random
#: stream, returns extra EmailSpecs to deliver alongside the built-ins.
WorkloadFn = Callable[[WorldModel, RandomSource], Iterable[EmailSpec]]


def materialize_extra_workloads(
    world: WorldModel,
    rng: RandomSource,
    extra_workloads: list[WorkloadFn] | None,
) -> list[list[EmailSpec]]:
    """Run every extra workload eagerly, validate, and sort.

    Extra workloads must stay inside the measurement window, so a bad
    workload raises before any delivery happens — same contract as the
    batch path.  Each gets its own named stream (``extra/<i>``).
    """
    out: list[list[EmailSpec]] = []
    for i, workload in enumerate(extra_workloads or []):
        extra = list(workload(world, rng.child(f"extra/{i}")))
        for spec in extra:
            if not world.clock.contains(spec.t):
                raise ValueError(
                    f"extra workload {i} produced a spec outside the "
                    f"measurement window (t={spec.t})"
                )
        extra.sort(key=lambda s: s.t)
        out.append(extra)
    return out


def merge_spec_streams(
    world: WorldModel,
    rng: RandomSource,
    extra_workloads: list[WorkloadFn] | None = None,
) -> Iterator[EmailSpec]:
    """Lazily merge all workload streams into one time-ordered spec stream
    (the spec-level view; delivery uses the per-slice streams below)."""
    traffic = TrafficGenerator(world, rng.child("traffic"))
    attackers = AttackerGenerator(world, rng.child("attackers"))
    streams: list[Iterator[EmailSpec]] = [
        traffic.iter_specs(),
        attackers.iter_specs(),
    ]
    streams.extend(
        iter(extra)
        for extra in materialize_extra_workloads(world, rng, extra_workloads)
    )
    return heapq.merge(*streams, key=attrgetter("t"))


def iter_slice_specs(
    world: WorldModel,
    rng: RandomSource,
    sim_slice: SimSlice,
    extra_specs: list[list[EmailSpec]] | None = None,
) -> Iterator[EmailSpec]:
    """One slice's spec stream, sorted by send time.

    ``rng`` is the run-level stream (``RandomSource(seed, name="sim")``);
    the per-kind child streams derived here are exactly the ones the
    serial generators use, so slice-wise generation reproduces the serial
    spec sequence slice by slice.
    """
    if sim_slice.kind == "traffic":
        traffic = TrafficGenerator(world, rng.child("traffic"))
        yield from traffic.iter_day_range(sim_slice.day_start, sim_slice.day_end)
        return
    if sim_slice.kind == "campaign":
        attackers = AttackerGenerator(world, rng.child("attackers"))
        domains = world.attacker_domains()
        if not 0 <= sim_slice.campaign_index < len(domains):
            raise ValueError(
                f"slice {sim_slice.key}: campaign index out of range "
                f"(world has {len(domains)} attacker domains)"
            )
        yield from attackers.domain_specs(domains[sim_slice.campaign_index])
        return
    # extra: shipped specs (workers) or the parent's materialised lists.
    if sim_slice.specs is not None:
        yield from sim_slice.specs
        return
    if extra_specs is None or not 0 <= sim_slice.extra_index < len(extra_specs):
        raise ValueError(f"slice {sim_slice.key}: extra workload specs unavailable")
    yield from extra_specs[sim_slice.extra_index]


def fresh_progress(config: SimulationConfig, n_extra: int = 0) -> dict[str, dict]:
    """Progress of a run that has not delivered anything.

    Progress is a dict keyed by slice key (the slice plan is a pure
    function of the config).  Each entry is one of:

    ``{"status": "fresh", "n_delivered": 0}``
        The slice has not started; a fresh engine picks it up from the top.

    ``{"status": "partial", "n_delivered": N, "engine": ..., ["resume_day": D]}``
        The slice delivered its first ``N`` specs; ``engine`` is the
        :meth:`repro.delivery.engine.DeliveryEngine.state_snapshot` payload
        (RNG cursors, greylist tuples, learned STARTTLS).  Traffic slices
        also record ``resume_day``.

    ``{"status": "done", "n_delivered": N}``
        The slice is exhausted; later segments skip it.
    """
    return {
        s.key: {"status": "fresh", "n_delivered": 0}
        for s in plan_slices(config, n_extra)
    }


def validate_progress(
    progress: dict, slices: list[SimSlice], until_day: int, n_days: int
) -> None:
    """Raise :class:`ValueError` unless a segment can run: the cut must lie
    inside the measurement window, and the progress keys must match the
    slice plan exactly — a mismatch means the progress belongs to a
    different config (or extra-workload set)."""
    if until_day > n_days:
        raise ValueError(
            f"until_day {until_day} is past the measurement window "
            f"({n_days} days)"
        )
    expected = {s.key for s in slices}
    got = set(progress)
    if expected != got:
        missing = sorted(expected - got)
        surplus = sorted(got - expected)
        raise ValueError(
            f"progress does not match the slice plan "
            f"(missing: {missing[:3]}, unknown: {surplus[:3]})"
        )


def run_slice(
    world: WorldModel,
    rng: RandomSource,
    sim_slice: SimSlice,
    entry: dict,
    until_day: int,
    out: dict[str, dict],
    extra_specs: list[list[EmailSpec]] | None = None,
) -> Iterator[DeliveryRecord]:
    """Deliver one slice from its progress ``entry`` up to day
    ``until_day`` (exclusive).  Once the stream is drained, ``out[key]``
    holds the slice's progress entry after this segment.  A fresh entry
    cut at ``n_days`` delivers the whole slice.

    The engine stream is ``child(f"engine/{slice.key}")``, so delivery
    randomness (proxy picks, retry gaps, NDR renderings) is a pure
    function of the run seed and the slice — independent of every other
    slice and of the process running it.  Engine construction consumes
    no draws, so restoring a partial entry's engine snapshot continues
    every draw sequence where the previous segment stopped.
    """
    key = sim_slice.key
    n = entry["n_delivered"]
    if entry["status"] == "done":
        out[key] = entry
        return
    if sim_slice.kind == "traffic":
        # Send times never cross a day boundary, so traffic resumes by
        # generating days [resume_day, stop) with nothing regenerated.
        start = entry.get("resume_day", sim_slice.day_start)
        stop = min(sim_slice.day_end, until_day)
        traffic = TrafficGenerator(world, rng.child("traffic"))
        specs = obs_profile.profiled_iter(
            "workload-gen", traffic.iter_day_range(start, stop)
        )
        done = stop >= sim_slice.day_end
        resume = {"resume_day": stop}
    else:
        # Campaign and extra slices regenerate their (cheap, deterministic)
        # time-sorted spec list, skip what earlier segments delivered and
        # stop at the first spec past the cut.
        every = list(obs_profile.profiled_iter(
            "workload-gen", iter_slice_specs(world, rng, sim_slice, extra_specs)
        ))
        start, stop = n, len(every)
        if until_day < world.clock.n_days:
            cut = world.clock.day_start(until_day)
            stop = max(start, bisect_left(every, cut, key=attrgetter("t")))
        specs = islice(every, start, stop)
        done = stop >= len(every)
        resume = {}
    if start >= stop:
        out[key] = {"status": "done", "n_delivered": n} if done else entry
        return
    engine = DeliveryEngine(world, rng.child(f"engine/{key}"))
    if entry["status"] == "partial":
        engine.restore_state(entry["engine"])
    for record in engine.deliver_all(specs):
        n += 1
        yield record
    if done:
        out[key] = {"status": "done", "n_delivered": n}
    else:
        out[key] = {
            "status": "partial",
            "n_delivered": n,
            **resume,
            "engine": engine.state_snapshot(),
        }


def merge_record_streams(
    streams: Iterable[Iterator[DeliveryRecord]],
) -> Iterator[DeliveryRecord]:
    """Stable k-way merge of per-slice record streams by start time.

    Records inside a slice are already time-ordered (specs are sorted and
    ``start_time`` is the spec's send time), and ``heapq.merge``'s
    stability resolves cross-slice ties by input position — which is why
    every consumer must pass streams in slice-plan order.
    """
    streams = list(streams)
    if len(streams) == 1:
        return iter(streams[0])
    return heapq.merge(*streams, key=attrgetter("start_time"))


@dataclass
class StreamingSimulation:
    """A running simulation segment: the world plus a lazy record
    iterator.  Iterate it (once) to drive delivery; :meth:`finish`
    returns the per-slice progress the segment reached."""

    world: WorldModel
    records: Iterator[DeliveryRecord]
    _out: dict[str, dict] = field(default_factory=dict, repr=False)
    _plan_keys: list[str] = field(default_factory=list, repr=False)

    @property
    def config(self) -> SimulationConfig:
        return self.world.config

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self.records

    def finish(self) -> dict[str, dict]:
        """Drain any records left (each slice writes its progress entry
        when its stream ends) and return the progress in slice-plan
        order."""
        for _ in self.records:
            pass
        return {key: self._out[key] for key in self._plan_keys}

    @property
    def progress(self) -> dict[str, dict]:
        return self.finish()


def run_segment(
    world: WorldModel,
    progress: dict[str, dict],
    until_day: int,
    extra_workloads: list[WorkloadFn] | None = None,
) -> StreamingSimulation:
    """Run every slice from ``progress`` up to (exclusive) ``until_day``.

    ``run_segment(world, p, clock.n_days)`` finishes the run; a cut past
    the measurement window raises :class:`ValueError`.  A stable merge of
    per-slice prefixes is a prefix of the full merge, so chained segments
    concatenate to the bytes of one uninterrupted run.
    """
    config = world.config
    rng = RandomSource(config.seed, name="sim")
    extra_specs = materialize_extra_workloads(world, rng, extra_workloads)
    slices = plan_slices(config, n_extra=len(extra_specs))
    validate_progress(progress, slices, until_day, world.clock.n_days)
    out: dict[str, dict] = {}
    # Traffic slices are contiguous, disjoint day ranges at the head of
    # the plan, so their record streams concatenate into one sorted
    # stream: chaining them keeps the k-way heap at (1 + campaigns +
    # extras) streams instead of one per day range.  Order is untouched —
    # cross-slice ties are impossible between day-disjoint traffic
    # slices, and the chain keeps the traffic stream in merge position 0,
    # which is exactly where stability would resolve its ties anyway.
    streams: list[Iterator[DeliveryRecord]] = []
    traffic: list[Iterator[DeliveryRecord]] = []
    for s in slices:
        stream = run_slice(world, rng, s, progress[s.key], until_day, out, extra_specs)
        (traffic if s.kind == "traffic" else streams).append(stream)
    if traffic:
        head = chain.from_iterable(traffic) if len(traffic) > 1 else traffic[0]
        streams.insert(0, head)
    return StreamingSimulation(
        world=world,
        records=merge_record_streams(streams),
        _out=out,
        _plan_keys=[s.key for s in slices],
    )


def stream_simulation(
    config: SimulationConfig | None = None,
    extra_workloads: list[WorkloadFn] | None = None,
) -> StreamingSimulation:
    """Build the world and return a lazy, time-ordered record stream: the
    segment ``[0, n_days)`` from fresh progress."""
    config = config or SimulationConfig()
    with obs_profile.stage("world-build"):
        world = build_world(config)
    progress = fresh_progress(config, n_extra=len(extra_workloads or ()))
    return run_segment(world, progress, world.clock.n_days, extra_workloads)


def iter_simulation(
    config: SimulationConfig | None = None,
    extra_workloads: list[WorkloadFn] | None = None,
) -> Iterator[DeliveryRecord]:
    """Yield delivery records incrementally, byte-identical (same JSON, same
    order) to ``run_simulation(config).dataset`` for the same seed."""
    return stream_simulation(config, extra_workloads).records


def iter_chunks(
    records: Iterable[DeliveryRecord], size: int
) -> Iterator[list[DeliveryRecord]]:
    """Group a record stream into lists of at most ``size`` records."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    chunk: list[DeliveryRecord] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
