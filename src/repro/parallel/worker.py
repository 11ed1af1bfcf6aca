"""Worker-process side of the parallel runtime.

Workers are forked (:func:`repro.parallel.runner.run_workers`), so a
worker starts as a copy of its parent: it runs with the parent's mode
switches (fastpath, columnar, telemetry) and its installed fault plan,
and nothing ships them.  A simulation worker receives ``(worker_index,
source, bucket, shard_root, until_day)``.  ``source`` is the config, or
the world a checkpoint source restored in the parent (a branched world
cannot be rebuilt from its config); ``bucket`` pairs each assigned
slice with its progress entry.  The worker builds its own world from a
config, or takes the restored one it inherited, and runs each slice up
to the cut through the ordinary serial machinery
(:func:`repro.stream.runner.run_slice`), writing every slice's records
into its own checksummed shard directory ``shard_root/slice-NNNN/``.
One directory per *slice* (not per worker) is what lets the parent merge
the streams back in slice-plan order, independent of how slices were
dealt to workers.

Results travel over the filesystem, not a queue: a worker that finishes
writes ``worker-NN.json`` and exits 0 at once (:func:`finish_worker`); a
worker that fails writes ``worker-NN.error.txt`` (where it failed +
flattened traceback) and exits 1 (:func:`fail_worker`).  Every process
the supervisor (:func:`repro.parallel.runner.run_workers`) starts keeps
this protocol — the simulation worker here and the report workers of
:mod:`repro.analytics.parallel` — so the parent never blocks on a pipe,
and a crashed or killed worker cannot hang the run: its exit code and
the absence of a result file are the signal.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from repro import faults
from repro.parallel.partition import SimSlice
from repro.world.config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.world.model import WorldModel


def result_path(shard_root: Path, worker_index: int) -> Path:
    return Path(shard_root) / f"worker-{worker_index:02d}.json"


def error_path(shard_root: Path, worker_index: int) -> Path:
    return Path(shard_root) / f"worker-{worker_index:02d}.error.txt"


def slice_dir(shard_root: Path, slice_index: int) -> Path:
    return Path(shard_root) / f"slice-{slice_index:04d}"


def finish_worker(shard_root: str | Path, worker_index: int, result: dict) -> NoReturn:
    """Worker side: write ``result`` as this worker's result file, then
    exit 0 at once.

    The write is atomic: the parent treats the result file's existence
    as "this worker finished", so it must never observe a torn one.  The
    exit skips interpreter finalisation (module teardown and garbage
    collection, tens of milliseconds that the parent would wait out in
    ``join``).  Nothing is lost: a worker registers no ``atexit`` hooks
    or finalizers, fault plans do nothing at exit, and every shard and
    manifest is closed before the result is written.  Only the standard
    streams still hold buffered output."""
    from repro.stream.sink import atomic_write_text

    atomic_write_text(result_path(shard_root, worker_index), json.dumps(result))
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def fail_worker(shard_root: str | Path, worker_index: int, where: str) -> NoReturn:
    """Worker side, inside an ``except`` block: write this worker's error
    file — one line naming where it failed and the exception, then the
    flattened traceback; the text the parent raises as
    :class:`SliceExecutionError` — and exit 1."""
    exc = sys.exc_info()[1]
    error_path(shard_root, worker_index).write_text(
        f"worker {worker_index} failed in {where}: {type(exc).__name__}: {exc}\n"
        + traceback.format_exc(),
        encoding="utf-8",
    )
    sys.exit(1)


def run_worker(
    worker_index: int,
    source: SimulationConfig | WorldModel,
    bucket: list[tuple[SimSlice, dict]],
    shard_root: str,
    until_day: int,
) -> None:
    """Process entry point: run each ``(slice, progress entry)`` of
    ``bucket`` up to ``until_day`` and write results under ``shard_root``.
    Exits 0 through :func:`finish_worker` on success, 1 through
    :func:`fail_worker`.

    ``source`` is the config, whose world the worker builds, or the
    world a checkpoint source restored (and verified) in the parent,
    which the forked worker already holds.
    """
    root = Path(shard_root)
    current: str | None = None
    try:
        from repro.core import fastpath
        from repro.obs import export as obs_export
        from repro.obs import metrics as obs_metrics
        from repro.obs import profile as obs_profile
        from repro.parallel.resume import slice_fingerprint
        from repro.stream.runner import run_slice
        from repro.stream.sink import ShardWriter
        from repro.util.rng import RandomSource

        # Start from empty telemetry: replace the metrics registry and
        # stage profiler inherited from the parent, so this worker's
        # snapshot holds only its own work, and rebind the module-level
        # memos' counters to the new registry.
        obs_metrics.reset()
        obs_profile.reset()
        fastpath.reset()
        fault_plan = faults.active_plan()
        t0 = time.perf_counter()
        if isinstance(source, SimulationConfig):
            from repro.world.model import build_world

            with obs_profile.stage("world-build"):
                world = build_world(source)
        else:
            world = source
            # Drop the parent's caches and bind the resolver and MTA
            # counters to this worker's registry.
            world.rebind_runtime()
        # The world lives until the worker exits: keep the collector's
        # full passes during delivery from rescanning it.
        gc.freeze()
        config = world.config
        rng = RandomSource(config.seed, name="sim")
        progress: dict[str, dict] = {}
        counts: dict[str, int] = {}
        for sim_slice, entry in bucket:
            current = sim_slice.key
            if fault_plan is not None:
                fault_plan.on_slice_start(sim_slice.key)
            with ShardWriter(
                slice_dir(root, sim_slice.index),
                fingerprint=slice_fingerprint(
                    config, sim_slice, until_day, entry["n_delivered"]
                ),
            ) as writer:
                for record in run_slice(
                    world, rng, sim_slice, entry, until_day, progress
                ):
                    writer.write(record)
            counts[sim_slice.key] = writer.n_written
        current = None
        finish_worker(root, worker_index, {
            "worker": worker_index,
            "slices": [s.key for s, _ in bucket],
            "n_records": counts,
            "progress": progress,
            "elapsed_s": time.perf_counter() - t0,
            "snapshot": obs_export.build_snapshot() if obs_metrics.enabled() else None,
        })
    except BaseException:
        fail_worker(root, worker_index, f"slice {current}" if current else "setup")
