"""Parent-side orchestration of a parallel simulation.

The lifecycle:

1. :func:`repro.parallel.partition.plan_slices` fixes the slice plan (a
   pure function of the config — never of the worker count).
2. :func:`repro.parallel.partition.assign_slices` deals slices to ``N``
   worker processes (``spawn`` context: everything crossing the boundary
   is pickled, nothing is inherited by accident).
3. Each worker runs its slices serially and writes one checksummed shard
   directory per slice (:mod:`repro.parallel.worker`).
4. The parent k-way merges the slice directories **in slice-plan order**
   by record start time (:class:`repro.stream.sink.MultiShardReader`
   with ``order="time"``) — the same stable-merge discipline the serial
   runner uses in process, so the record stream is byte-identical to
   :func:`repro.stream.runner.iter_simulation` at every worker count.
5. Per-worker telemetry snapshots are folded into the parent's registry
   in worker-index order (:meth:`repro.obs.metrics.MetricsRegistry.merge`).

Failure semantics: a worker that raises writes an error file naming the
slice, and the parent raises :class:`SliceExecutionError` with that text;
a worker that dies silently (signal, OOM) raises
:class:`WorkerCrashError` naming the slices it held; a run that exceeds
``timeout`` terminates every worker and raises
:class:`ParallelTimeoutError` naming the unfinished slices.  In every
case all remaining workers are terminated first — no hung pools.  A
worker whose echoed mode switches (fastpath, columnar, telemetry) differ
from the parent's raises :class:`WorkerModeError`.

A run is a segment of simulated time: :func:`run_parallel_simulation`
runs the segment ``[0, n_days)`` from fresh progress, and
:func:`run_segment_parallel` runs a checkpoint's slices from their
recorded progress up to a day boundary.  Both go through the same
workers (:func:`repro.parallel.worker.run_worker`) and the same
supervision (:func:`_run_workers`).

``workers <= 1`` falls back to plain in-process streaming (no processes,
no shard round-trip) and yields the same records.

Resume (``resume=True`` with a persistent ``shard_root``) turns a killed
run into a warm start: slice directories with a final, fingerprint-
matching, checksum-clean manifest are reused; everything else is wiped
and re-executed.  See :mod:`repro.parallel.resume` and
docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.delivery.records import DeliveryRecord
from repro.parallel.errors import (
    ParallelTimeoutError,
    ResumeError,
    SliceExecutionError,
    WorkerCrashError,
)
from repro.parallel.partition import SimSlice, assign_slices, plan_slices
from repro.parallel.worker import (
    check_modes,
    error_path,
    result_path,
    run_worker,
    slice_dir,
    worker_options,
)
from repro.stream.runner import (
    fresh_progress,
    materialize_extra_workloads,
    stream_simulation,
    validate_progress,
)
from repro.util.clock import SimClock
from repro.world.config import SimulationConfig
from repro.world.model import WorldModel, build_world

#: How often the parent polls worker liveness (seconds).  Short enough
#: that crash/timeout surfacing feels immediate, long enough to stay off
#: the profiler's radar.
_POLL_S = 0.05


@dataclass
class ParallelSimulation:
    """A finished parallel run or segment: the slices it merges, their
    shard directories, the per-slice progress and the merged telemetry.

    Iterate :meth:`iter_records` (or the object itself) for the canonical
    record stream.  Usable as a context manager; exiting (or
    :meth:`close`) removes the shard root if it was runtime-created
    (``owns_shards``).
    """

    config: SimulationConfig
    workers: int
    #: The slices whose shard directories make up the output, in
    #: slice-plan order (a segment leaves out slices already done).
    slices: list[SimSlice]
    shard_root: Path | None
    #: Per-worker result payloads (worker-index order).
    worker_results: list[dict] = field(default_factory=list)
    #: True when the runtime created (and should remove) ``shard_root``.
    owns_shards: bool = False
    elapsed_s: float = 0.0
    #: Resume bookkeeping: slice keys whose directories were verified
    #: complete and reused, and those that were (re-)executed.
    resumed_slices: list[str] = field(default_factory=list)
    rerun_slices: list[str] = field(default_factory=list)
    #: Merged streaming table suite (``analytics=True`` runs only):
    #: per-worker partials folded in worker-index order, exactly like
    #: telemetry snapshots.
    analytics: object | None = None
    #: Per-slice progress after the run, in slice-plan order (see
    #: :func:`repro.stream.runner.fresh_progress`); empty for the
    #: in-process ``workers <= 1`` fallback.
    progress: dict[str, dict] = field(default_factory=dict)
    _world: WorldModel | None = field(default=None, repr=False)
    _inline_records: Iterator[DeliveryRecord] | None = field(default=None, repr=False)

    @property
    def world(self) -> WorldModel:
        """The world model (built on first access; workers build their
        own copies, so the parent only pays for this when asked)."""
        if self._world is None:
            self._world = build_world(self.config)
        return self._world

    @property
    def n_records(self) -> int:
        if self.shard_root is None:
            raise RuntimeError("record count unavailable for an in-process run")
        return sum(
            sum(result["n_records"].values()) for result in self.worker_results
        )

    def iter_records(self, verify: bool = False) -> Iterator[DeliveryRecord]:
        """The canonical time-ordered record stream (identical to the
        serial runner's).  ``verify=True`` re-hashes every shard payload
        against its manifest while reading."""
        if self._inline_records is not None:
            records, self._inline_records = self._inline_records, None
            return records
        if self.shard_root is None:
            raise RuntimeError("records of an in-process run can be read once")
        if not self.slices:
            return iter(())
        from repro.stream.sink import MultiShardReader

        reader = MultiShardReader(
            [slice_dir(self.shard_root, s.index) for s in self.slices],
            order="time",
        )
        return reader.iter_records(verify=verify)

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self.iter_records()

    def close(self) -> None:
        if self.owns_shards and self.shard_root is not None:
            shutil.rmtree(self.shard_root, ignore_errors=True)
            self.owns_shards = False

    def __enter__(self) -> "ParallelSimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def run_parallel_simulation(
    config: SimulationConfig,
    workers: int,
    shard_root: str | Path | None = None,
    extra_workloads: list[Callable] | None = None,
    timeout: float | None = None,
    shard_size: int = 100_000,
    compress: bool = False,
    resume: bool = False,
    verify_resume: bool = True,
    analytics: bool = False,
) -> ParallelSimulation:
    """Run ``config`` across ``workers`` processes; byte-identical output
    to the serial runner for every worker count.

    ``shard_root`` keeps the per-slice shard directories for later reads
    (e.g. the ``stream`` CLI); when omitted, a temporary directory is
    created and owned by the returned object (use it as a context
    manager, or call :meth:`ParallelSimulation.close`).

    ``extra_workloads`` are materialised in the parent (their callables
    are often closures and need not be picklable) and shipped to workers
    as spec lists.

    ``resume=True`` reuses ``shard_root`` from a previous (killed) run:
    every slice directory holding a final manifest whose fingerprint
    matches this run — re-hashed against its checksums unless
    ``verify_resume=False`` — is skipped; missing, partial, mismatched
    or corrupt directories are wiped and re-executed.  The merged stream
    is byte-identical to an uninterrupted run (docs/ROBUSTNESS.md).
    Requires a persistent ``shard_root`` and always uses the
    process-based runtime, even at ``workers=1``.

    ``analytics=True`` additionally folds every record into a
    :class:`repro.analytics.TableSuite` inside each worker and merges the
    per-worker partials — in worker-index order, like telemetry — into
    :attr:`ParallelSimulation.analytics`.  Slices *reused* on resume are
    streamed back from their shard directories in the parent, so the
    merged suite always covers the full corpus.  The option never enters
    the slice fingerprint: analytics on/off cannot invalidate resumable
    directories.  It also forces the process-based runtime (the inline
    ``workers <= 1`` fast path yields records lazily, so there is no
    stream to fold).
    """
    t0 = time.perf_counter()
    if resume and shard_root is None:
        raise ResumeError(
            "resume=True needs a persistent shard_root: a temporary, "
            "runtime-owned directory cannot outlive the run being resumed"
        )
    if workers <= 1 and not resume and not analytics:
        run = stream_simulation(config, extra_workloads=extra_workloads)
        return ParallelSimulation(
            config=config,
            workers=1,
            slices=plan_slices(config, n_extra=len(extra_workloads or [])),
            shard_root=None,
            _world=run.world,
            _inline_records=run.records,
            elapsed_s=time.perf_counter() - t0,
        )

    parent_world: WorldModel | None = None
    extra_specs: list[list] = []
    if extra_workloads:
        from repro.util.rng import RandomSource

        parent_world = build_world(config)
        extra_specs = materialize_extra_workloads(
            parent_world, RandomSource(config.seed, name="sim"), extra_workloads
        )

    slices = plan_slices(config, n_extra=len(extra_specs))
    shipped = [
        s.with_specs(extra_specs[s.extra_index]) if s.kind == "extra" else s
        for s in slices
    ]
    progress = fresh_progress(config, n_extra=len(extra_specs))

    owns = shard_root is None
    root = Path(
        tempfile.mkdtemp(prefix="repro-parallel-") if owns else shard_root
    )
    root.mkdir(parents=True, exist_ok=True)
    options = worker_options(
        SimClock(config.start, config.end).n_days, shard_size, compress, analytics
    )

    to_run = shipped
    skipped: list[tuple[SimSlice, int]] = []  # (slice, on-disk record count)
    if resume:
        from repro.obs import metrics as obs_metrics
        from repro.parallel.resume import (
            clean_stale_run_files,
            load_completed_slice,
            slice_fingerprint,
        )

        to_run = []
        for s in shipped:
            directory = slice_dir(root, s.index)
            manifest = load_completed_slice(
                directory,
                slice_fingerprint(config, s, options, progress[s.key]["n_delivered"]),
                verify_payload=verify_resume,
            )
            if manifest is not None:
                skipped.append((s, manifest.n_records))
            else:
                # Wipe partial/stale state so the re-run starts clean.
                shutil.rmtree(directory, ignore_errors=True)
                to_run.append(s)
        clean_stale_run_files(root)
        obs_metrics.counter(
            "repro_resume_slices_skipped_total",
            "Slices whose shard directories were verified and reused on resume",
        ).inc(len(skipped))
        obs_metrics.counter(
            "repro_resume_slices_rerun_total",
            "Slices re-executed on resume (missing, partial, or corrupt)",
        ).inc(len(to_run))

    worker_results = _run_workers(
        config, to_run, progress, root, owns, options, workers, timeout
    )
    n_workers = max(len(worker_results), 1)
    for s, n in skipped:
        progress[s.key] = {"status": "done", "n_delivered": n}
    for result in worker_results:
        progress.update(result["progress"])
    analytics_suite = None
    if analytics:
        from repro.analytics.suite import TableSuite

        analytics_suite = TableSuite(SimClock(config.start, config.end))
        for result in worker_results:
            if result.get("analytics"):
                analytics_suite.merge_snapshot(result["analytics"])
        if skipped:
            # Reused slices never re-ran, so their workers left no
            # partial; stream their shard directories back instead.
            from repro.stream.sink import ShardReader

            for s, _ in skipped:
                analytics_suite.observe_many(
                    ShardReader(slice_dir(root, s.index)).iter_records()
                )
    if skipped:
        # Synthetic result for the reused slices, so n_records and the
        # result log stay complete under resume.
        worker_results.insert(0, {
            "worker": None,
            "slices": [s.key for s, _ in skipped],
            "n_records": {s.key: n for s, n in skipped},
            "elapsed_s": 0.0,
            "snapshot": None,
            "resumed": True,
        })

    return ParallelSimulation(
        config=config,
        workers=n_workers,
        slices=slices,
        shard_root=root,
        worker_results=worker_results,
        owns_shards=owns,
        resumed_slices=[s.key for s, _ in skipped],
        rerun_slices=[s.key for s in to_run] if resume else [],
        analytics=analytics_suite,
        progress=progress,
        _world=parent_world,
        elapsed_s=time.perf_counter() - t0,
    )


def run_segment_parallel(
    world: WorldModel,
    progress: dict[str, dict],
    until_day: int,
    workers: int,
    *,
    checkpoint_path: str | Path | None = None,
    shard_root: str | Path | None = None,
    shard_size: int = 100_000,
    compress: bool = False,
    timeout: float | None = None,
) -> ParallelSimulation:
    """Run one segment — every slice from ``progress`` up to (exclusive)
    ``until_day`` — across ``workers`` processes; byte-identical to
    :func:`repro.stream.runner.run_segment` at every worker count.

    ``checkpoint_path`` tells workers to restore the world from that
    directory instead of rebuilding it from the config — required for
    branched checkpoints, whose worlds carry interventions the config
    knows nothing about.  Slices already done get no worker and no
    shard directory; :attr:`ParallelSimulation.progress` holds every
    slice's entry after the segment.
    """
    t0 = time.perf_counter()
    config = world.config
    slices = plan_slices(config)
    validate_progress(progress, slices, until_day, world.clock.n_days)
    owns = shard_root is None
    root = Path(tempfile.mkdtemp(prefix="repro-ckpt-") if owns else shard_root)
    root.mkdir(parents=True, exist_ok=True)
    active = [s for s in slices if progress[s.key]["status"] != "done"]
    options = worker_options(until_day, shard_size, compress)
    source = config if checkpoint_path is None else str(checkpoint_path)
    worker_results = _run_workers(
        source, active, progress, root, owns, options, workers, timeout
    )
    after = {s.key: progress[s.key] for s in slices}
    for result in worker_results:
        after.update(result["progress"])
    return ParallelSimulation(
        config=config,
        workers=max(len(worker_results), 1),
        slices=active,
        shard_root=root,
        worker_results=worker_results,
        owns_shards=owns,
        progress=after,
        _world=world,
        elapsed_s=time.perf_counter() - t0,
    )


def iter_parallel_simulation(
    config: SimulationConfig,
    workers: int,
    extra_workloads: list[Callable] | None = None,
    timeout: float | None = None,
) -> Iterator[DeliveryRecord]:
    """Generator form: run in parallel, yield the canonical record
    stream, then remove the runtime-owned shard directory."""
    run = run_parallel_simulation(
        config, workers, extra_workloads=extra_workloads, timeout=timeout
    )
    with run:
        yield from run.iter_records()


def _run_workers(
    source: SimulationConfig | str,
    slices: list[SimSlice],
    progress: dict[str, dict],
    root: Path,
    owns: bool,
    options: dict,
    workers: int,
    timeout: float | None,
) -> list[dict]:
    """Run ``slices`` from their ``progress`` entries across ``workers``
    spawned processes; return the workers' results in worker-index order.

    The workers start inside the failure guard: any failure — a failed
    ``start()``, a worker error, crash or timeout, a missing result file
    or a :class:`WorkerModeError` — terminates every worker and removes
    ``root`` if the runtime owns it before re-raising.  Telemetry
    snapshots merge into this process's registry in worker-index order.
    """
    buckets = assign_slices(slices, max(workers, 1)) if slices else []
    ctx = multiprocessing.get_context("spawn")
    procs: list = []
    try:
        for i, bucket in enumerate(buckets):
            proc = ctx.Process(
                target=run_worker,
                args=(i, source, [(s, progress[s.key]) for s in bucket],
                      str(root), options),
                name=f"repro-parallel-{i}",
                daemon=True,
            )
            procs.append(proc)
            proc.start()
        _join_workers(procs, buckets, root, timeout)
        results = [
            _load_result(root, i, bucket) for i, bucket in enumerate(buckets)
        ]
        check_modes(options, results, buckets)
    except BaseException:
        _terminate(procs)
        if owns:
            shutil.rmtree(root, ignore_errors=True)
        raise
    if options["metrics"]:
        from repro.obs.export import merge_snapshot

        for result in results:
            merge_snapshot(result["snapshot"])
    return results


# -- worker supervision --------------------------------------------------------------


def _bucket_keys(bucket: list[SimSlice]) -> str:
    return ", ".join(s.key for s in bucket)


def _load_result(root: Path, worker_index: int, bucket: list[SimSlice]) -> dict:
    import json

    path = result_path(root, worker_index)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WorkerCrashError(
            f"worker {worker_index} (slices: {_bucket_keys(bucket)}) exited "
            f"cleanly but left no readable result file: {exc}"
        ) from exc


def _terminate(procs: list) -> None:
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        if proc.is_alive():
            proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout=5.0)


def _join_workers(
    procs: list,
    buckets: list[list[SimSlice]],
    root: Path,
    timeout: float | None,
) -> None:
    """Wait for every worker, surfacing the first failure immediately.

    Raises :class:`SliceExecutionError` (worker reported an error file),
    :class:`WorkerCrashError` (worker died silently), or
    :class:`ParallelTimeoutError` (deadline passed; names the slices of
    the workers still running).  Siblings are terminated by the caller.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    pending = set(range(len(procs)))
    while pending:
        for i in sorted(pending):
            # Check the deadline per worker, not per sweep: joining every
            # pending worker for _POLL_S each would let the overshoot grow
            # with the worker count (~1.6s/loop at 32 workers).
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _raise_timeout(buckets, pending, timeout)
                join_s = min(_POLL_S, remaining)
            else:
                join_s = _POLL_S
            proc = procs[i]
            proc.join(timeout=join_s)
            if proc.is_alive():
                continue
            pending.discard(i)
            if proc.exitcode == 0 and result_path(root, i).exists():
                continue
            err = error_path(root, i)
            if err.exists():
                raise SliceExecutionError(err.read_text(encoding="utf-8").strip())
            raise WorkerCrashError(
                f"worker {i} (slices: {_bucket_keys(buckets[i])}) died with "
                f"exit code {proc.exitcode} and no result"
            )
        if deadline is not None and pending and time.monotonic() > deadline:
            _raise_timeout(buckets, pending, timeout)


def _raise_timeout(
    buckets: list[list[SimSlice]], pending: set, timeout: float
) -> None:
    unfinished = ", ".join(_bucket_keys(buckets[i]) for i in sorted(pending))
    raise ParallelTimeoutError(
        f"parallel run exceeded {timeout:.1f}s; terminated "
        f"{len(pending)} worker(s) still holding: {unfinished}"
    )
