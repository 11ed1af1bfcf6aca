"""Worker-process side of the parallel runtime.

A worker receives ``(worker_index, config, slices, shard_root, options)``
— all picklable by construction — builds its own copy of the world,
and runs each assigned slice through the ordinary serial machinery
(:func:`repro.stream.runner.run_slice`), writing every slice's records
into its own checksummed shard directory ``shard_root/slice-NNNN/``.
One directory per *slice* (not per worker) is what lets the parent merge
the streams back in slice-plan order, independent of how slices were
dealt to workers.

Results travel over the filesystem, not a queue: a worker that finishes
writes ``worker-NN.json`` (slice keys, record counts, telemetry
snapshots) and exits 0 at once (:func:`exit_worker`); a worker that
fails writes ``worker-NN.error.txt`` (slice key + flattened traceback)
and exits 1.  The parent never blocks on a pipe, so a crashed or killed
worker cannot hang the run — its exit code and the absence of a result
file are the signal.

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
from repro.world.config import SimulationConfig

#: Environment hook for the failure-path tests: ``"<slice-key-substring>:<mode>"``
#: where mode is ``raise`` (worker reports a SliceExecutionError), ``crash``
#: (process dies without reporting), or ``hang`` (worker sleeps past any
#: deadline).  Ignored — and harmless — outside the test suite.
FAIL_HOOK_ENV = "REPRO_PARALLEL_TEST_FAIL"


def result_path(shard_root: Path, worker_index: int) -> Path:
    return Path(shard_root) / f"worker-{worker_index:02d}.json"


def error_path(shard_root: Path, worker_index: int) -> Path:
    return Path(shard_root) / f"worker-{worker_index:02d}.error.txt"


def slice_dir(shard_root: Path, slice_index: int) -> Path:
    return Path(shard_root) / f"slice-{slice_index:04d}"


def current_modes() -> dict:
    """This process's acceleration switches.  The parent adds them to a
    worker's options, so a ``--no-cache`` / ``--no-columnar``
    differential run exercises the reference code in every process; the
    worker echoes its own in its result file.  They never enter a shard
    fingerprint: the record bytes are identical either way."""
    from repro.core import fastpath

    return {
        "fastpath": fastpath.enabled(),
        "columnar": fastpath.columnar_enabled(),
    }


def apply_modes(options: dict) -> None:
    """Worker side: switch off what the parent's options switch off."""
    from repro.core import fastpath

    if not options.get("fastpath", True):
        fastpath.disable()
    if not options.get("columnar", True):
        fastpath.disable_columnar()


def check_modes(options: dict, results: list[dict], buckets: list) -> None:
    """Parent side: raise :class:`WorkerModeError` for the first worker
    whose echoed switches differ from the ones ``options`` requested."""
    from repro.parallel.errors import WorkerModeError

    for i, (result, bucket) in enumerate(zip(results, buckets)):
        for mode in ("fastpath", "columnar"):
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


def _apply_fail_hook(slice_key: str) -> None:
    hook = os.environ.get(FAIL_HOOK_ENV)
    if not hook or ":" not in hook:
        return
    needle, mode = hook.rsplit(":", 1)
    if needle not in slice_key:
        return
    if mode == "raise":
        raise RuntimeError(f"injected failure for slice {slice_key}")
    if mode == "crash":
        os._exit(17)
    if mode == "hang":
        time.sleep(3600)


def run_worker(
    worker_index: int,
    config: SimulationConfig,
    slices: list,
    shard_root: str,
    options: dict,
) -> None:
    """Process entry point: run ``slices`` and write results under
    ``shard_root``.  Exits 0 through :func:`exit_worker` on success, 1
    after writing an error file.

    ``options`` keys: ``compress`` (bool), ``shard_size`` (int),
    ``metrics`` (bool — enable :mod:`repro.obs` in this process and
    snapshot it into the result file), ``analytics`` (bool — fold every
    record into a :class:`repro.analytics.TableSuite` while writing and
    snapshot the partial into the result file, exactly like telemetry),
    ``fastpath`` and ``columnar`` (bool — the parent's acceleration
    switches; the result file echoes the effective values).
    """
    root = Path(shard_root)
    current: str | None = None
    try:
        from repro.obs import export as obs_export
        from repro.obs import metrics as obs_metrics
        from repro.obs import profile as obs_profile
        from repro.parallel.resume import slice_fingerprint
        from repro.stream.runner import run_slice
        from repro.stream.sink import ShardWriter, atomic_write_text
        from repro.util.rng import RandomSource
        from repro.world.model import build_world

        if options.get("metrics"):
            obs_metrics.enable()
        apply_modes(options)
        fault_plan = faults.active_plan()
        t0 = time.perf_counter()
        with obs_profile.stage("world-build"):
            world = build_world(config)
        # The world lives until the worker exits: keep the collector's
        # full passes during delivery from rescanning it.
        gc.freeze()
        rng = RandomSource(config.seed, name="sim")
        suite = None
        if options.get("analytics"):
            from repro.analytics.suite import TableSuite

            suite = TableSuite(world.clock)
        counts: dict[str, int] = {}
        for sim_slice in slices:
            current = sim_slice.key
            _apply_fail_hook(sim_slice.key)
            if fault_plan is not None:
                fault_plan.on_slice_start(sim_slice.key)
            with ShardWriter(
                slice_dir(root, sim_slice.index),
                shard_size=options.get("shard_size", 100_000),
                compress=options.get("compress", False),
                fingerprint=slice_fingerprint(config, sim_slice, options),
            ) as writer:
                for record in run_slice(world, rng, sim_slice):
                    writer.write(record)
                    if suite is not None:
                        suite.observe(record)
            counts[sim_slice.key] = writer.n_written
        current = None
        result = {
            "worker": worker_index,
            "slices": [s.key for s in slices],
            "n_records": counts,
            "elapsed_s": time.perf_counter() - t0,
            **current_modes(),
            "snapshot": obs_export.build_snapshot() if options.get("metrics") else None,
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
