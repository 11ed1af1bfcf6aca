"""Parallel segment execution: byte-identity at 1/2/4 workers.

The cut discipline makes worker count irrelevant to the output: each
worker runs whole slices up to the day boundary, and the parent's
``MultiShardReader(order="time")`` merge breaks ties by slice-plan
position exactly like the serial heap merge.  Both segments of a
2-segment chain are exercised at every worker count: the head from the
config, the tail from the loaded checkpoint, whose directory the workers
restore (the same path a branched run takes).
"""

from datetime import timedelta

import pytest

from repro import SimulationConfig
from repro.checkpoint import (
    fresh_progress,
    load_checkpoint,
    run_segment,
    save_checkpoint,
)
from repro.parallel import ResumeError, run_parallel_simulation
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
        with run_parallel_simulation(
            _config(), workers, until_day=CUT
        ) as segment:
            lines = [r.to_json() for r in segment.iter_records()]
        assert lines == head == oracle[: len(head)]

    def test_tail_segment_from_checkpoint_path(self, oracle, checkpoint, workers):
        path, head = checkpoint
        with run_parallel_simulation(load_checkpoint(path), workers) as segment:
            tail = [r.to_json() for r in segment.iter_records()]
            progress = segment.progress
        assert head + tail == oracle
        assert all(entry["status"] == "done" for entry in progress.values())


class TestParallelSegmentLifecycle:
    def test_owned_shard_root_removed_on_close(self):
        segment = run_parallel_simulation(_config(), 2, until_day=CUT)
        root = segment.shard_root
        assert root.exists()
        n = sum(1 for _ in segment.iter_records())
        assert n > 0
        segment.close()
        assert not root.exists()

    def test_explicit_shard_root_kept(self, tmp_path):
        root = tmp_path / "shards"
        with run_parallel_simulation(
            _config(), 2, shard_root=root, until_day=CUT
        ) as segment:
            assert sum(1 for _ in segment.iter_records()) > 0
        assert root.exists()

    def test_until_day_validation(self):
        with pytest.raises(ValueError, match="past the measurement window"):
            run_parallel_simulation(_config(), 2, until_day=N_DAYS + 1)

    def test_resume_needs_a_whole_run_of_a_config(self, checkpoint, tmp_path):
        path, _ = checkpoint
        with pytest.raises(ResumeError):
            run_parallel_simulation(
                load_checkpoint(path), 2, shard_root=tmp_path, resume=True
            )
        with pytest.raises(ResumeError):
            run_parallel_simulation(
                _config(), 2, shard_root=tmp_path, resume=True, until_day=CUT
            )
        assert list(tmp_path.iterdir()) == []

    def test_worker_failure_surfaces(self, monkeypatch):
        from repro import faults
        from repro.parallel.errors import SliceExecutionError

        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan([faults.FaultSpec(
            kind="raise", site="slice-start", match="campaign/0")]).to_json())
        with pytest.raises(SliceExecutionError, match="campaign/0"):
            run_parallel_simulation(_config(), 2, until_day=CUT)

    def test_worker_crash_surfaces(self, monkeypatch, tmp_path):
        # Segment workers honour an installed fault plan: a crash at the
        # start of a slice fails the segment and leaves no owned root.
        import tempfile

        from repro import faults
        from repro.parallel.errors import WorkerCrashError

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan([faults.FaultSpec(
            kind="crash", site="slice-start", match="campaign/0")]).to_json())
        with pytest.raises(WorkerCrashError, match="campaign/0"):
            run_parallel_simulation(_config(), 2, until_day=CUT)
        assert list(tmp_path.glob("repro-parallel-*")) == []

    def test_failed_start_stops_started_workers(self, monkeypatch, tmp_path):
        # Starting worker 1 fails while worker 0 runs: the failure guard
        # must stop worker 0 and remove the owned shard root.
        import multiprocessing.context
        import tempfile

        from repro import faults

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
                run_parallel_simulation(_config(), 2, until_day=CUT)
            started[0].join(timeout=5.0)
            assert not started[0].is_alive()
            assert list(tmp_path.glob("repro-parallel-*")) == []
        finally:
            for proc in started:
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
