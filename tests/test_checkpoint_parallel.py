"""Parallel segment execution: byte-identity at 1/2/4 workers.

The cut discipline makes worker count irrelevant to the output: each
worker runs whole slices up to the day boundary, and the parent's
``MultiShardReader(order="time")`` merge breaks ties by slice-plan
position exactly like the serial heap merge.  Both segments of a
2-segment chain are exercised at every worker count, with the second
segment restoring the world from the checkpoint directory (the same
path a branched run takes).
"""

from datetime import timedelta

import pytest

from repro import SimulationConfig
from repro.checkpoint import (
    fresh_progress,
    load_checkpoint,
    run_segment,
    run_segment_parallel,
    save_checkpoint,
)
from repro.stream.runner import stream_simulation
from repro.util.clock import DEFAULT_START
from repro.world.model import build_world

SCALE = 0.06
SEED = 11
N_DAYS = 20
CUT = 9


def _config() -> SimulationConfig:
    return SimulationConfig(
        scale=SCALE,
        seed=SEED,
        start=DEFAULT_START,
        end=DEFAULT_START + timedelta(days=N_DAYS),
    )


@pytest.fixture(scope="module")
def oracle():
    run = stream_simulation(_config())
    return [record.to_json() for record in run.records]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A serial head segment checkpointed at the cut, plus its lines."""
    path = tmp_path_factory.mktemp("ckpt-par") / "cut"
    config = _config()
    world = build_world(config)
    segment = run_segment(world, fresh_progress(config), CUT)
    head = [record.to_json() for record in segment.records]
    save_checkpoint(path, world, CUT, segment.finish())
    return path, head


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestParallelChain:
    def test_head_segment_matches_serial(self, oracle, checkpoint, workers):
        _, head = checkpoint
        config = _config()
        world = build_world(config)
        with run_segment_parallel(
            world, fresh_progress(config), CUT, workers
        ) as segment:
            lines = [r.to_json() for r in segment.iter_records()]
        assert lines == head == oracle[: len(head)]

    def test_tail_segment_from_checkpoint_path(self, oracle, checkpoint, workers):
        path, head = checkpoint
        ckpt = load_checkpoint(path)
        with run_segment_parallel(
            ckpt.world, ckpt.progress, N_DAYS, workers, checkpoint_path=path
        ) as segment:
            tail = [r.to_json() for r in segment.iter_records()]
            progress = segment.progress
        assert head + tail == oracle
        assert all(entry["status"] == "done" for entry in progress.values())


class TestParallelSegmentLifecycle:
    def test_owned_shard_root_removed_on_close(self):
        config = _config()
        world = build_world(config)
        segment = run_segment_parallel(world, fresh_progress(config), CUT, 2)
        root = segment.shard_root
        assert root.exists()
        n = sum(1 for _ in segment.iter_records())
        assert n > 0
        segment.close()
        assert not root.exists()

    def test_explicit_shard_root_kept(self, tmp_path):
        config = _config()
        world = build_world(config)
        root = tmp_path / "shards"
        with run_segment_parallel(
            world, fresh_progress(config), CUT, 2, shard_root=root
        ) as segment:
            assert sum(1 for _ in segment.iter_records()) > 0
        assert root.exists()

    def test_until_day_validation(self):
        config = _config()
        world = build_world(config)
        with pytest.raises(ValueError, match="past the measurement window"):
            run_segment_parallel(world, fresh_progress(config), N_DAYS + 1, 2)

    def test_worker_failure_surfaces(self, monkeypatch):
        from repro import faults
        from repro.parallel.errors import SliceExecutionError

        config = _config()
        world = build_world(config)
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan([faults.FaultSpec(
            kind="raise", site="slice-start", match="campaign/0")]).to_json())
        with pytest.raises(SliceExecutionError, match="campaign/0"):
            run_segment_parallel(world, fresh_progress(config), CUT, 2)

    def test_worker_crash_surfaces(self, monkeypatch, tmp_path):
        # Segment workers honour an installed fault plan: a crash at the
        # start of a slice fails the segment and leaves no owned root.
        import tempfile

        from repro import faults
        from repro.parallel.errors import WorkerCrashError

        config = _config()
        world = build_world(config)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan([faults.FaultSpec(
            kind="crash", site="slice-start", match="campaign/0")]).to_json())
        with pytest.raises(WorkerCrashError, match="campaign/0"):
            run_segment_parallel(world, fresh_progress(config), CUT, 2)
        assert list(tmp_path.glob("repro-ckpt-*")) == []

    def test_failed_start_stops_started_workers(self, monkeypatch, tmp_path):
        # Starting worker 1 fails while worker 0 runs: the failure guard
        # must stop worker 0 and remove the owned shard root.
        import multiprocessing.context
        import tempfile

        from repro import faults

        config = _config()
        world = build_world(config)
        # Every slice hangs, so a worker nobody stops stays alive.
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan([faults.FaultSpec(
            kind="hang", site="slice-start", match="/")]).to_json())
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        real_start = multiprocessing.context.SpawnProcess.start
        started = []

        def start(self):
            if started:
                raise OSError("injected start failure")
            started.append(self)
            real_start(self)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", start)
        try:
            with pytest.raises(OSError, match="injected start failure"):
                run_segment_parallel(world, fresh_progress(config), CUT, 2)
            started[0].join(timeout=5.0)
            assert not started[0].is_alive()
            assert list(tmp_path.glob("repro-ckpt-*")) == []
        finally:
            for proc in started:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
