"""Parent-side orchestration of a parallel simulation, and the one
supervisor of every worker process the package starts.

The lifecycle of :func:`run_parallel_simulation`:

1. :func:`repro.parallel.partition.plan_slices` fixes the slice plan (a
   pure function of the config — never of the worker count).
2. :func:`repro.parallel.partition.assign_slices` deals the slices that
   are not done yet to up to ``N`` worker processes, forked from the
   parent (:func:`run_workers`).
3. Each worker runs its slices serially and writes one checksummed shard
   directory per slice (:mod:`repro.parallel.worker`).
4. The parent k-way merges the slice directories **in slice-plan order**
   by record start time (:class:`repro.stream.sink.MultiShardReader`
   with ``order="time"``) — the same stable-merge discipline the serial
   runner uses in process, so the record stream is byte-identical to
   :func:`repro.stream.runner.run_segment` at every worker count.
   The merge reads each line's start time and checks each shard's
   checksum; records decode only when a caller reads their fields.
5. Per-worker telemetry snapshots are folded into the parent's registry
   in worker-index order (:meth:`repro.obs.metrics.MetricsRegistry.merge`).

A run is a segment of simulated time: days ``[from, until_day)`` of
every slice, from fresh progress (a config source) or from a
checkpoint's progress (a checkpoint source, whose restored world the
forked workers inherit).  An uninterrupted run is the segment
``[0, n_days)`` from a config.

Supervision (:func:`run_workers`, shared with the report workers of
:mod:`repro.analytics.parallel`): a worker that raises writes an error
file naming what it held, and the parent raises
:class:`SliceExecutionError` with that text; a worker that dies silently
(signal, OOM) raises :class:`WorkerCrashError` naming what it held; a
run that exceeds ``timeout`` raises :class:`ParallelTimeoutError`
naming the unfinished workers.  In every case all remaining workers are
terminated first — no hung pools.

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
from typing import TYPE_CHECKING, Callable, Iterator

from repro.delivery.records import DeliveryRecord
from repro.obs import metrics as obs_metrics
from repro.parallel.errors import (
    ParallelTimeoutError,
    ResumeError,
    SliceExecutionError,
    WorkerCrashError,
)
from repro.parallel.partition import SimSlice, assign_slices, plan_slices
from repro.parallel.worker import error_path, result_path, run_worker, slice_dir
from repro.stream.runner import (
    fresh_progress,
    materialize_extra_workloads,
    validate_progress,
)
from repro.util.clock import SimClock
from repro.world.config import SimulationConfig
from repro.world.model import WorldModel, build_world

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.store import Checkpoint

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
    #: Worker processes started (0 when a resume reused every slice).
    workers: int
    #: The slices whose shard directories make up the output, in
    #: slice-plan order (slices already done before the run are left out).
    slices: list[SimSlice]
    shard_root: Path
    #: Result payloads of the started workers, in worker-index order.
    worker_results: list[dict] = field(default_factory=list)
    #: True when the runtime created (and should remove) ``shard_root``.
    owns_shards: bool = False
    elapsed_s: float = 0.0
    #: Resume bookkeeping: slice keys whose directories were verified
    #: complete and reused, and those that were (re-)executed.
    resumed_slices: list[str] = field(default_factory=list)
    rerun_slices: list[str] = field(default_factory=list)
    #: Per-slice progress after the run, in slice-plan order (see
    #: :func:`repro.stream.runner.fresh_progress`).
    progress: dict[str, dict] = field(default_factory=dict)
    _world: WorldModel | None = field(default=None, repr=False)

    @property
    def world(self) -> WorldModel:
        """The world model: a checkpoint source's restored world, or one
        built from the config on first access (workers build their own
        copies, so the parent only pays for this when asked)."""
        if self._world is None:
            self._world = build_world(self.config)
        return self._world

    def iter_records(self) -> Iterator[DeliveryRecord]:
        """The canonical time-ordered record stream (identical to the
        serial runner's).  Records are line-backed
        (:class:`repro.stream.sink.MultiShardReader`), and every shard
        payload is re-hashed against its manifest while reading."""
        if not self.slices:
            return iter(())
        from repro.stream.sink import MultiShardReader

        reader = MultiShardReader(
            [slice_dir(self.shard_root, s.index) for s in self.slices],
            order="time",
        )
        return reader.iter_records()

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self.iter_records()

    def close(self) -> None:
        if self.owns_shards:
            shutil.rmtree(self.shard_root, ignore_errors=True)
            self.owns_shards = False

    def __enter__(self) -> "ParallelSimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def run_parallel_simulation(
    source: SimulationConfig | Checkpoint,
    workers: int,
    *,
    shard_root: str | Path | None = None,
    extra_workloads: list[Callable] | None = None,
    timeout: float | None = None,
    resume: bool = False,
    until_day: int | None = None,
) -> ParallelSimulation:
    """Run days ``[from, until_day)`` of ``source`` across up to
    ``workers`` processes; byte-identical to
    :func:`repro.stream.runner.run_segment` at every worker count.

    ``source`` is a :class:`SimulationConfig` — the run starts from
    fresh progress and workers build the world — or a loaded
    :class:`repro.checkpoint.Checkpoint` — the run starts from its
    progress and the forked workers run its restored world, so a
    branched world runs with its interventions.  ``until_day`` defaults
    to the end of the window.  Slices already done get no worker and no
    shard directory; :attr:`ParallelSimulation.progress` holds every
    slice's entry afterwards.

    ``shard_root`` keeps the per-slice shard directories for later reads;
    when omitted, a temporary directory is created and owned by the
    returned object (use it as a context manager, or call
    :meth:`ParallelSimulation.close`).

    ``extra_workloads`` are materialised in the parent (their callables
    are often closures and need not be picklable) and shipped to workers
    as spec lists.

    ``resume=True`` reuses ``shard_root`` from a previous (killed) run of
    the same config: every slice directory holding a final manifest whose
    fingerprint matches this run and whose shards re-hash to their
    checksums is skipped; missing, partial, mismatched or corrupt
    directories are wiped and re-executed.  The merged stream is
    byte-identical to an uninterrupted run (docs/ROBUSTNESS.md).  It
    needs a config source, a persistent ``shard_root`` and a run to the
    end of the window; anything else raises :class:`ResumeError`.
    """
    t0 = time.perf_counter()
    fresh = isinstance(source, SimulationConfig)
    config = source if fresh else source.config
    n_days = SimClock(config.start, config.end).n_days
    until_day = n_days if until_day is None else until_day
    if resume and (shard_root is None or not fresh or until_day < n_days):
        raise ResumeError(
            "resume=True needs a config source, a persistent shard_root and "
            "a run to the end of the window: it reuses the slice directories "
            "of an earlier whole run, which a temporary directory cannot "
            "outlive"
        )
    world = None if fresh else source.world
    extra_specs: list[list] = []
    if extra_workloads:
        from repro.util.rng import RandomSource

        if world is None:
            world = build_world(config)
        extra_specs = materialize_extra_workloads(
            world, RandomSource(config.seed, name="sim"), extra_workloads
        )
    slices = plan_slices(config, n_extra=len(extra_specs))
    progress = (
        fresh_progress(config, n_extra=len(extra_specs)) if fresh
        else source.progress
    )
    validate_progress(progress, slices, until_day, n_days)
    progress = {s.key: progress[s.key] for s in slices}
    active = [
        s.with_specs(extra_specs[s.extra_index]) if s.kind == "extra" else s
        for s in slices
        if progress[s.key]["status"] != "done"
    ]

    owns = shard_root is None
    root = Path(
        tempfile.mkdtemp(prefix="repro-parallel-") if owns else shard_root
    )
    root.mkdir(parents=True, exist_ok=True)

    to_run = active
    reused: list[tuple[SimSlice, int]] = []  # (slice, on-disk record count)
    if resume:
        from repro.parallel.resume import (
            clean_stale_run_files,
            load_completed_slice,
            slice_fingerprint,
        )

        to_run = []
        for s in active:
            directory = slice_dir(root, s.index)
            manifest = load_completed_slice(
                directory,
                slice_fingerprint(config, s, until_day, progress[s.key]["n_delivered"]),
            )
            if manifest is not None:
                reused.append((s, manifest.n_records))
            else:
                # Wipe partial/stale state so the re-run starts clean.
                shutil.rmtree(directory, ignore_errors=True)
                to_run.append(s)
        clean_stale_run_files(root)
        obs_metrics.counter(
            "repro_resume_slices_skipped_total",
            "Slices whose shard directories were verified and reused on resume",
        ).inc(len(reused))
        obs_metrics.counter(
            "repro_resume_slices_rerun_total",
            "Slices re-executed on resume (missing, partial, or corrupt)",
        ).inc(len(to_run))

    buckets = assign_slices(to_run, max(workers, 1)) if to_run else []
    labels = ["slices: " + ", ".join(s.key for s in bucket) for bucket in buckets]
    worker_source = config if fresh else world
    try:
        results = run_workers(
            run_worker,
            [
                (i, worker_source, [(s, progress[s.key]) for s in bucket],
                 str(root), until_day)
                for i, bucket in enumerate(buckets)
            ],
            labels,
            root,
            timeout,
        )
    except BaseException:
        if owns:
            shutil.rmtree(root, ignore_errors=True)
        raise
    if obs_metrics.enabled():
        from repro.obs.export import merge_snapshot

        for result in results:
            merge_snapshot(result["snapshot"])
    for s, n in reused:
        progress[s.key] = {"status": "done", "n_delivered": n}
    for result in results:
        progress.update(result["progress"])

    return ParallelSimulation(
        config=config,
        workers=len(buckets),
        slices=active,
        shard_root=root,
        worker_results=results,
        owns_shards=owns,
        resumed_slices=[s.key for s, _ in reused],
        rerun_slices=[s.key for s in to_run] if resume else [],
        progress=progress,
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


# -- worker supervision --------------------------------------------------------------


def run_workers(
    target: Callable,
    worker_args: list[tuple],
    labels: list[str],
    root: Path,
    timeout: float | None = None,
) -> list:
    """Run ``target(*worker_args[i])`` in worker process ``i`` and
    return the workers' result files, decoded, in worker-index order.

    Workers are forked: each starts with the modules, and the memory,
    its parent holds, so it imports nothing the parent already imported
    and runs with the parent's mode switches and fault plan.  Call this
    from a process with no other live threads (``os.fork``'s own rule: a
    lock another thread holds at the fork stays held in the child).

    ``target`` keeps the protocol of :mod:`repro.parallel.worker`: worker
    ``i`` leaves ``root/worker-NN.json`` (:func:`finish_worker`) or
    ``root/worker-NN.error.txt`` (:func:`fail_worker`).  ``labels[i]``
    names what worker ``i`` holds (its slices, its shard files) in every
    error.  The workers start inside the failure guard: any failure — a
    failed ``start()``, a worker error, crash or timeout, or a missing
    result file — terminates every worker before re-raising.
    """
    ctx = multiprocessing.get_context("fork")
    procs: list = []
    try:
        for i, args in enumerate(worker_args):
            proc = ctx.Process(
                target=target, args=args, name=f"repro-parallel-{i}", daemon=True
            )
            procs.append(proc)
            proc.start()
        _join_workers(procs, labels, root, timeout)
        return [_load_result(root, i, label) for i, label in enumerate(labels)]
    except BaseException:
        _terminate(procs)
        raise


def _load_result(root: Path, worker_index: int, label: str):
    import json

    path = result_path(root, worker_index)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WorkerCrashError(
            f"worker {worker_index} ({label}) exited cleanly but left no "
            f"readable result file: {exc}"
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
    labels: list[str],
    root: Path,
    timeout: float | None,
) -> None:
    """Wait for every worker, surfacing the first failure immediately.

    Raises :class:`SliceExecutionError` (worker reported an error file),
    :class:`WorkerCrashError` (worker died silently), or
    :class:`ParallelTimeoutError` (deadline passed; names the workers
    still running).  Siblings are terminated by the caller.
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
                    _raise_timeout(labels, pending, timeout)
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
                f"worker {i} ({labels[i]}) died with exit code "
                f"{proc.exitcode} and no result"
            )
        if deadline is not None and pending and time.monotonic() > deadline:
            _raise_timeout(labels, pending, timeout)


def _raise_timeout(labels: list[str], pending: set, timeout: float) -> None:
    unfinished = "; ".join(f"worker {i} ({labels[i]})" for i in sorted(pending))
    raise ParallelTimeoutError(
        f"parallel run exceeded {timeout:.1f}s; terminated "
        f"{len(pending)} worker(s) still running: {unfinished}"
    )
