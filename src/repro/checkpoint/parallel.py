"""Parallel segment execution: the PR 3 worker protocol, cut at a day.

Workers receive their slices *with* per-slice progress payloads, rebuild
the world (from the config, or from the checkpoint directory when
resuming a branch — a branched world is no longer derivable from its
config), run each slice's segment through the ordinary serial machinery
(:func:`repro.checkpoint.state.run_slice_segment`), and write one
checksummed shard directory per slice.  Results return over the
filesystem exactly like :mod:`repro.parallel.worker`: ``worker-NN.json``
carries record counts plus every slice's post-segment progress payload,
``worker-NN.error.txt`` plus exit 1 reports failures.

The parent merges the per-slice directories with
``MultiShardReader(order="time")`` in slice-plan order — the same stable
tie-breaking as the serial heap merge — so segments are byte-identical
at 1, 2, or any number of workers.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.delivery.records import DeliveryRecord
from repro.parallel.partition import SimSlice, assign_slices, plan_slices
from repro.parallel.runner import _join_workers, _load_result, _terminate
from repro.parallel.worker import (
    apply_modes,
    check_modes,
    current_modes,
    error_path,
    exit_worker,
    result_path,
    slice_dir,
)
from repro.world.config import SimulationConfig
from repro.world.model import WorldModel


def segment_fingerprint(
    config: SimulationConfig, sim_slice: SimSlice, until_day: int, options: dict
) -> dict:
    """Integrity tag for one slice's segment shard directory."""
    from repro.parallel.resume import config_digest

    return {
        "kind": "checkpoint-segment",
        "config": config_digest(config),
        "slice": sim_slice.key,
        "until_day": until_day,
        "shard_size": options.get("shard_size", 100_000),
        "compress": options.get("compress", False),
    }


def run_segment_worker(
    worker_index: int,
    source: tuple[str, object],
    bucket: list[tuple[SimSlice, dict]],
    shard_root: str,
    options: dict,
) -> None:
    """Process entry point: run each ``(slice, progress)`` up to the cut.

    ``source`` is ``("config", SimulationConfig)`` for a fresh or
    config-derivable world and ``("checkpoint", path)`` for a branched
    one (workers skip the deep-digest verify — the parent did it once).
    ``options`` carries the cut, the shard options and the parent's
    acceleration switches, which the result file echoes.
    """
    root = Path(shard_root)
    current: str | None = None
    try:
        from repro.checkpoint.state import run_slice_segment
        from repro.parallel.worker import _apply_fail_hook
        from repro.stream.sink import ShardWriter, atomic_write_text
        from repro.util.rng import RandomSource
        from repro.world.model import build_world

        until_day = options["until_day"]
        apply_modes(options)
        t0 = time.perf_counter()
        kind, payload = source
        if kind == "config":
            world = build_world(payload)
        else:
            from repro.checkpoint.store import load_checkpoint

            world = load_checkpoint(payload, verify=False).world
        # As in run_worker: the world lives until exit, so the
        # collector's full passes need not rescan it.
        gc.freeze()
        rng = RandomSource(world.config.seed, name="sim")
        out: dict[str, dict] = {}
        counts: dict[str, int] = {}
        for sim_slice, entry in bucket:
            current = sim_slice.key
            _apply_fail_hook(sim_slice.key)
            stream = run_slice_segment(
                world, rng, sim_slice, entry, until_day, out
            )
            with ShardWriter(
                slice_dir(root, sim_slice.index),
                shard_size=options.get("shard_size", 100_000),
                compress=options.get("compress", False),
                fingerprint=segment_fingerprint(
                    world.config, sim_slice, until_day, options
                ),
            ) as writer:
                if stream is not None:
                    for record in stream:
                        writer.write(record)
            counts[sim_slice.key] = writer.n_written
        current = None
        result = {
            "worker": worker_index,
            "slices": [s.key for s, _ in bucket],
            "n_records": counts,
            "progress": out,
            "elapsed_s": time.perf_counter() - t0,
            **current_modes(),
        }
        atomic_write_text(result_path(root, worker_index), json.dumps(result))
    except BaseException:
        where = f"slice {current}" if current else "setup"
        error_path(root, worker_index).write_text(
            f"worker {worker_index} failed in {where}\n" + traceback.format_exc(),
            encoding="utf-8",
        )
        sys.exit(1)
    exit_worker()


@dataclass
class ParallelSegment:
    """A parallel segment's merged record stream and progress."""

    world: WorldModel
    until_day: int
    shard_root: Path
    progress: dict[str, dict]
    n_records: int
    elapsed_s: float
    owns_shards: bool
    #: Per-worker result payloads (worker-index order).
    worker_results: list[dict] = field(default_factory=list)
    _active: list[SimSlice] = field(default_factory=list)

    def iter_records(self, verify: bool = False) -> Iterator[DeliveryRecord]:
        """The segment's records, canonically merged (empty segment-wide
        output yields nothing)."""
        if not self._active:
            return iter(())
        from repro.stream.sink import MultiShardReader

        reader = MultiShardReader(
            [slice_dir(self.shard_root, s.index) for s in self._active],
            order="time",
        )
        return reader.iter_records(verify=verify)

    def close(self) -> None:
        if self.owns_shards and self.shard_root.exists():
            shutil.rmtree(self.shard_root, ignore_errors=True)

    def __enter__(self) -> "ParallelSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
) -> ParallelSegment:
    """Run one segment across ``workers`` processes.

    ``checkpoint_path`` tells workers to restore the world from that
    directory instead of rebuilding it from the config — required for
    branched checkpoints, whose worlds carry interventions the config
    knows nothing about.
    """
    from repro.checkpoint.state import validate_progress

    clock = world.clock
    if until_day > clock.n_days:
        raise ValueError(
            f"until_day {until_day} is past the measurement window "
            f"({clock.n_days} days)"
        )
    config = world.config
    slices = plan_slices(config)
    validate_progress(progress, slices)
    owns = shard_root is None
    root = Path(tempfile.mkdtemp(prefix="repro-ckpt-") if owns else shard_root)
    root.mkdir(parents=True, exist_ok=True)

    active = [s for s in slices if progress[s.key]["status"] != "done"]
    new_progress = dict(progress)
    options = {
        "until_day": until_day,
        "shard_size": shard_size,
        "compress": compress,
        **current_modes(),
    }
    source: tuple[str, object] = (
        ("checkpoint", str(checkpoint_path))
        if checkpoint_path is not None
        else ("config", config)
    )
    t0 = time.perf_counter()
    buckets = assign_slices(active, workers)
    worker_results: list[dict] = []
    if buckets:
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=run_segment_worker,
                args=(i, source, [(s, progress[s.key]) for s in bucket],
                      str(root), options),
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
        for result in worker_results:
            new_progress.update(result["progress"])
    ordered = {s.key: new_progress[s.key] for s in slices}
    return ParallelSegment(
        world=world,
        until_day=until_day,
        shard_root=root,
        progress=ordered,
        n_records=sum(
            sum(result["n_records"].values()) for result in worker_results
        ),
        elapsed_s=time.perf_counter() - t0,
        owns_shards=owns,
        worker_results=worker_results,
        _active=active,
    )
