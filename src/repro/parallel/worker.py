"""Worker-process side of the parallel runtime.

A simulation worker receives ``(worker_index, source, bucket, shard_root,
options)`` — all picklable by construction.  ``source`` is the config,
or the directory of a checkpoint to restore (a branched world cannot be
rebuilt from its config); ``bucket`` pairs each assigned slice with its
progress entry; ``options`` comes from :func:`worker_options`.  The
worker builds or restores its own copy of the world and runs each slice
up to the cut through the ordinary serial machinery
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
from typing import NoReturn

from repro import faults
from repro.parallel.partition import SimSlice
from repro.world.config import SimulationConfig


def result_path(shard_root: Path, worker_index: int) -> Path:
    return Path(shard_root) / f"worker-{worker_index:02d}.json"


def error_path(shard_root: Path, worker_index: int) -> Path:
    return Path(shard_root) / f"worker-{worker_index:02d}.error.txt"


def slice_dir(shard_root: Path, slice_index: int) -> Path:
    return Path(shard_root) / f"slice-{slice_index:04d}"


def current_modes() -> dict:
    """This process's mode switches: the acceleration switches and
    telemetry.  :func:`worker_options` adds them to a worker's options,
    so a ``--no-cache`` / ``--no-columnar`` differential run exercises the
    reference code in every process and ``--metrics-out`` collects from
    every process; the worker echoes its own in its result file.  They
    never enter a shard fingerprint: the record bytes are identical
    either way."""
    from repro.core import fastpath
    from repro.obs import metrics as obs_metrics

    return {
        "fastpath": fastpath.enabled(),
        "columnar": fastpath.columnar_enabled(),
        "metrics": obs_metrics.enabled(),
    }


def worker_options(until_day: int) -> dict:
    """Everything a worker needs besides its slices: the cut and this
    process's modes."""
    return {"until_day": until_day, **current_modes()}


def apply_modes(options: dict) -> None:
    """Worker side: start from empty telemetry, switch it on and switch
    off the accelerations as the parent's options say.  Runs before the
    world is built, because instrumented objects read the telemetry flag
    at construction.

    A forked worker inherits the parent's metrics registry and stage
    profiler, so it replaces both: its snapshot holds only its own work.
    The module-level memos then rebind their counters
    (:func:`repro.core.fastpath.reset`), as the CLI does after switching
    telemetry on."""
    from repro.core import fastpath
    from repro.obs import metrics as obs_metrics
    from repro.obs import profile as obs_profile

    obs_metrics.reset()
    obs_profile.reset()
    if options["metrics"]:
        obs_metrics.enable()
    if not options["fastpath"]:
        fastpath.disable()
    if not options["columnar"]:
        fastpath.disable_columnar()
    fastpath.reset()


def check_modes(options: dict, results: list[dict], labels: list[str]) -> None:
    """Parent side: raise :class:`WorkerModeError` for the first worker
    whose echoed switches differ from the ones ``options`` requested."""
    from repro.parallel.errors import WorkerModeError

    for i, (result, label) in enumerate(zip(results, labels)):
        for mode in ("fastpath", "columnar", "metrics"):
            if result.get(mode) != options[mode]:
                raise WorkerModeError(
                    f"worker {i} ({label}) ran with "
                    f"{mode}={result.get(mode)!r}, requested "
                    f"{mode}={options[mode]!r}"
                )


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
    source: SimulationConfig | str,
    bucket: list[tuple[SimSlice, dict]],
    shard_root: str,
    options: dict,
) -> None:
    """Process entry point: run each ``(slice, progress entry)`` of
    ``bucket`` up to the cut and write results under ``shard_root``.
    Exits 0 through :func:`finish_worker` on success, 1 through
    :func:`fail_worker`.

    ``source`` is the config, or a checkpoint directory to restore the
    world from (the parent verified its deep digest once, so workers
    skip it).  ``options`` is a :func:`worker_options` dict: the cut
    (``until_day``) and the parent's :func:`current_modes`, which the
    result file echoes.
    """
    root = Path(shard_root)
    current: str | None = None
    try:
        from repro.obs import export as obs_export
        from repro.obs import profile as obs_profile
        from repro.parallel.resume import slice_fingerprint
        from repro.stream.runner import run_slice
        from repro.stream.sink import ShardWriter
        from repro.util.rng import RandomSource

        apply_modes(options)
        fault_plan = faults.active_plan()
        t0 = time.perf_counter()
        with obs_profile.stage("world-build"):
            if isinstance(source, SimulationConfig):
                from repro.world.model import build_world

                world = build_world(source)
            else:
                from repro.checkpoint.store import load_checkpoint

                world = load_checkpoint(source, verify=False).world
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
                    config, sim_slice, options, entry["n_delivered"]
                ),
            ) as writer:
                for record in run_slice(
                    world, rng, sim_slice, entry, options["until_day"], progress
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
            **current_modes(),
            "snapshot": obs_export.build_snapshot() if options["metrics"] else None,
        })
    except BaseException:
        fail_worker(root, worker_index, f"slice {current}" if current else "setup")
