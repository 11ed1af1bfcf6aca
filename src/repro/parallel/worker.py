"""Worker-process side of the parallel runtime.

A worker receives ``(worker_index, source, bucket, shard_root, options)``
— all picklable by construction.  ``source`` is the config, or the
directory of a checkpoint to restore (a branched world cannot be rebuilt
from its config); ``bucket`` pairs each assigned slice with its progress
entry; ``options`` comes from :func:`worker_options`.  The worker builds
or restores its own copy of the world and runs each slice up to the cut
through the ordinary serial machinery
(:func:`repro.stream.runner.run_slice`), writing every slice's records
into its own checksummed shard directory ``shard_root/slice-NNNN/``.
One directory per *slice* (not per worker) is what lets the parent merge
the streams back in slice-plan order, independent of how slices were
dealt to workers.

Results travel over the filesystem, not a queue: a worker that finishes
writes ``worker-NN.json`` (slice keys, record counts, per-slice progress,
telemetry snapshots, echoed modes) and exits 0 at once
(:func:`exit_worker`); a worker that fails writes ``worker-NN.error.txt``
(slice key + flattened traceback) and exits 1.  The parent never blocks
on a pipe, so a crashed or killed worker cannot hang the run — its exit
code and the absence of a result file are the signal.

The module also hosts the classification pool worker (the fitted EBRC is
loaded once per process from a JSON payload file and cached in a module
global — the "template cache shipped once per worker" of the runtime).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

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


def worker_options(
    until_day: int, shard_size: int, compress: bool, analytics: bool = False
) -> dict:
    """Everything a worker needs besides its slices: the cut, the shard
    options, whether to fold analytics, and this process's modes."""
    return {
        "until_day": until_day,
        "shard_size": shard_size,
        "compress": compress,
        "analytics": analytics,
        **current_modes(),
    }


def apply_modes(options: dict) -> None:
    """Worker side: switch on telemetry and switch off the accelerations
    as the parent's options say.  Runs before the world is built, because
    instrumented objects read the telemetry flag at construction."""
    from repro.core import fastpath
    from repro.obs import metrics as obs_metrics

    if options["metrics"]:
        obs_metrics.enable()
    if not options["fastpath"]:
        fastpath.disable()
    if not options["columnar"]:
        fastpath.disable_columnar()


def check_modes(options: dict, results: list[dict], buckets: list) -> None:
    """Parent side: raise :class:`WorkerModeError` for the first worker
    whose echoed switches differ from the ones ``options`` requested."""
    from repro.parallel.errors import WorkerModeError

    for i, (result, bucket) in enumerate(zip(results, buckets)):
        for mode in ("fastpath", "columnar", "metrics"):
            if result.get(mode) != options[mode]:
                keys = ", ".join(s.key for s in bucket)
                raise WorkerModeError(
                    f"worker {i} (slices: {keys}) ran with "
                    f"{mode}={result.get(mode)!r}, requested "
                    f"{mode}={options[mode]!r}"
                )


def exit_worker() -> None:
    """Worker side: exit 0 now that the result file is durable.

    Skips interpreter finalisation (module teardown and garbage
    collection, tens of milliseconds that the parent would wait out in
    ``join``).  Nothing is lost: a worker registers no ``atexit`` hooks
    or finalizers, fault plans do nothing at exit, and every shard and
    manifest is closed before the result is written.  Only the standard
    streams still hold buffered output."""
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def run_worker(
    worker_index: int,
    source: SimulationConfig | str,
    bucket: list[tuple[SimSlice, dict]],
    shard_root: str,
    options: dict,
) -> None:
    """Process entry point: run each ``(slice, progress entry)`` of
    ``bucket`` up to the cut and write results under ``shard_root``.
    Exits 0 through :func:`exit_worker` on success, 1 after writing an
    error file.

    ``source`` is the config, or a checkpoint directory to restore the
    world from (the parent verified its deep digest once, so workers
    skip it).  ``options`` is a :func:`worker_options` dict: the cut
    (``until_day``), ``shard_size``, ``compress``, ``analytics`` (fold
    every record into a :class:`repro.analytics.TableSuite` and snapshot
    the partial into the result file, like telemetry) and the parent's
    :func:`current_modes`, which the result file echoes.
    """
    root = Path(shard_root)
    current: str | None = None
    try:
        from repro.obs import export as obs_export
        from repro.obs import profile as obs_profile
        from repro.parallel.resume import slice_fingerprint
        from repro.stream.runner import run_slice
        from repro.stream.sink import ShardWriter, atomic_write_text
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
        suite = None
        if options["analytics"]:
            from repro.analytics.suite import TableSuite

            suite = TableSuite(world.clock)
        progress: dict[str, dict] = {}
        counts: dict[str, int] = {}
        for sim_slice, entry in bucket:
            current = sim_slice.key
            if fault_plan is not None:
                fault_plan.on_slice_start(sim_slice.key)
            with ShardWriter(
                slice_dir(root, sim_slice.index),
                shard_size=options["shard_size"],
                compress=options["compress"],
                fingerprint=slice_fingerprint(
                    config, sim_slice, options, entry["n_delivered"]
                ),
            ) as writer:
                for record in run_slice(
                    world, rng, sim_slice, entry, options["until_day"], progress
                ):
                    writer.write(record)
                    if suite is not None:
                        suite.observe(record)
            counts[sim_slice.key] = writer.n_written
        current = None
        result = {
            "worker": worker_index,
            "slices": [s.key for s, _ in bucket],
            "n_records": counts,
            "progress": progress,
            "elapsed_s": time.perf_counter() - t0,
            **current_modes(),
            "snapshot": obs_export.build_snapshot() if options["metrics"] else None,
            "analytics": suite.snapshot() if suite is not None else None,
        }
        # Atomic: the parent treats the result file's existence as "this
        # worker finished", so it must never observe a torn one.
        atomic_write_text(result_path(root, worker_index), json.dumps(result))
    except BaseException:
        where = f"slice {current}" if current else "setup"
        error_path(root, worker_index).write_text(
            f"worker {worker_index} failed in {where}\n"
            + traceback.format_exc(),
            encoding="utf-8",
        )
        sys.exit(1)
    exit_worker()


# -- classification pool ------------------------------------------------------------

#: Per-process fitted classifier, loaded once by :func:`init_classifier`.
_CLASSIFIER = None


def init_classifier(payload_path: str) -> None:
    """Pool initializer: load the fitted EBRC (templates, vocabulary,
    weights) from ``payload_path`` into this process, once."""
    global _CLASSIFIER
    from repro.core.ebrc import EBRC

    _CLASSIFIER = EBRC.load(payload_path)


def classify_chunk(messages: list[str]) -> list:
    """Classify one chunk with the process-cached EBRC."""
    if _CLASSIFIER is None:
        raise RuntimeError("classification worker used before init_classifier")
    return _CLASSIFIER.classify_many(messages)
