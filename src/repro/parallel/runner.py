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
worker whose echoed fastpath/columnar switches differ from the parent's
raises :class:`WorkerModeError`.

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
    current_modes,
    error_path,
    result_path,
    run_worker,
    slice_dir,
)
from repro.world.config import SimulationConfig
from repro.world.model import WorldModel, build_world

#: How often the parent polls worker liveness (seconds).  Short enough
#: that crash/timeout surfacing feels immediate, long enough to stay off
#: the profiler's radar.
_POLL_S = 0.05


@dataclass
class ParallelSimulation:
    """A finished parallel run: the slice plan, the per-slice shard
    directories, and the merged telemetry.

    Iterate :meth:`iter_records` (or the object itself) for the canonical
    record stream.  Usable as a context manager; exiting cleans up the
    shard root if it was runtime-created (``owns_shards``).
    """

    config: SimulationConfig
    workers: int
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
        from repro.stream.sink import MultiShardReader

        reader = MultiShardReader(
            [slice_dir(self.shard_root, s.index) for s in self.slices],
            order="time",
        )
        return reader.iter_records(verify=verify)

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self.iter_records()

    def cleanup(self) -> None:
        if self.owns_shards and self.shard_root is not None:
            shutil.rmtree(self.shard_root, ignore_errors=True)
            self.owns_shards = False

    def __enter__(self) -> "ParallelSimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.cleanup()
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
    manager, or call :meth:`ParallelSimulation.cleanup`).

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
        from repro.stream.runner import stream_simulation

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
        from repro.stream.runner import materialize_extra_workloads
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

    owns = shard_root is None
    root = Path(
        tempfile.mkdtemp(prefix="repro-parallel-") if owns else shard_root
    )
    root.mkdir(parents=True, exist_ok=True)

    from repro.obs import metrics as obs_metrics

    options = {
        "shard_size": shard_size,
        "compress": compress,
        "metrics": obs_metrics.enabled(),
        "analytics": analytics,
        **current_modes(),
    }

    to_run = shipped
    skipped: list[tuple[SimSlice, int]] = []  # (slice, on-disk record count)
    if resume:
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
                slice_fingerprint(config, s, options),
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

    buckets = assign_slices(to_run, max(workers, 1)) if to_run else []
    procs = []
    worker_results: list[dict] = []
    if buckets:
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=run_worker,
                args=(i, config, bucket, str(root), options),
                name=f"repro-parallel-{i}",
                daemon=True,
            )
            for i, bucket in enumerate(buckets)
        ]
        try:
            for proc in procs:
                proc.start()
            _join_workers(procs, buckets, root, timeout)
            worker_results = [
                _load_result(root, i, bucket) for i, bucket in enumerate(buckets)
            ]
            check_modes(options, worker_results, buckets)
        except BaseException:
            _terminate(procs)
            if owns:
                shutil.rmtree(root, ignore_errors=True)
            raise

    if options["metrics"]:
        from repro.obs.export import merge_snapshot

        for result in worker_results:
            if result.get("snapshot"):
                merge_snapshot(result["snapshot"])
    analytics_suite = None
    if analytics:
        from repro.analytics.suite import TableSuite
        from repro.util.clock import SimClock

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
        workers=max(len(buckets), 1),
        slices=slices,
        shard_root=root,
        worker_results=worker_results,
        owns_shards=owns,
        resumed_slices=[s.key for s, _ in skipped],
        rerun_slices=[s.key for s in to_run] if resume else [],
        analytics=analytics_suite,
        _world=parent_world,
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
