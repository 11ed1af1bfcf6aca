"""Chaos tests: injected faults against the parallel runtime, then
recovery and resume.

Each test kills a real parallel run in a specific way — disk-full
mid-shard, worker hard-crash, hang past the deadline, silent bit rot,
torn manifest — and then asserts the load-bearing property of the
robustness layer: a resumed run re-executes only the damaged slices and
its merged stream is byte-identical to an uninterrupted serial run.

Forked workers inherit the fault plan installed in the parent
(:mod:`repro.faults`), so every test clears the plan before resuming —
otherwise the fault would simply fire again.
"""

import json
import re

import pytest

from repro import faults
from repro.delivery.records import DeliveryRecord
from repro.faults import CRASH_EXIT_CODE, FaultPlan, FaultSpec
from repro.parallel import (
    ParallelTimeoutError,
    ResumeError,
    SliceExecutionError,
    WorkerCrashError,
    run_parallel_simulation,
)
from repro.stream.runner import iter_simulation
from repro.stream.sink import (
    MANIFEST_NAME,
    PARTIAL_MANIFEST_NAME,
    ShardDecodeError,
    ShardIntegrityError,
)
from repro.world.config import SimulationConfig

SMALL = SimulationConfig(scale=0.005, seed=3)


def _lines(records):
    return [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]


@pytest.fixture(scope="module")
def serial_lines():
    return _lines(iter_simulation(SMALL))


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _resume(root, workers):
    """Clear faults and resume the crashed run under ``root``."""
    faults.clear_plan()
    return run_parallel_simulation(
        SMALL, workers=workers, shard_root=root, resume=True
    )


class TestDiskFullMidShard:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_crash_recover_resume_byte_identical(
        self, tmp_path, serial_lines, workers
    ):
        root = tmp_path / "slices"
        faults.install_plan(FaultPlan(specs=(
            FaultSpec(kind="oserror", match="slice-0006", at_write=3),
        )))
        with pytest.raises(SliceExecutionError, match="InjectedDiskFull"):
            run_parallel_simulation(SMALL, workers=2, shard_root=root)

        # The dying writer aborted: progress is recorded, but nothing
        # may look complete.
        victim = root / "slice-0006"
        assert (victim / PARTIAL_MANIFEST_NAME).exists()
        assert not (victim / MANIFEST_NAME).exists()

        run = _resume(root, workers)
        assert run.resumed_slices and run.rerun_slices
        assert "slice" not in run.resumed_slices  # keys, not dir names
        assert _lines(run.iter_records()) == serial_lines

    def test_resumed_run_is_idempotent(self, tmp_path, serial_lines):
        root = tmp_path / "slices"
        faults.install_plan(FaultPlan(specs=(
            FaultSpec(kind="oserror", match="slice-0004", at_write=1),
        )))
        with pytest.raises(SliceExecutionError):
            run_parallel_simulation(SMALL, workers=2, shard_root=root)
        _resume(root, 2)
        # A second resume finds everything complete and runs no workers.
        again = _resume(root, 2)
        assert not again.rerun_slices
        assert len(again.resumed_slices) == len(again.slices)
        assert _lines(again.iter_records()) == serial_lines


class TestWorkerHardCrash:
    def test_crash_then_resume(self, tmp_path, serial_lines):
        root = tmp_path / "slices"
        faults.install_plan(FaultPlan(specs=(
            FaultSpec(kind="crash", site="slice-start", match="campaign/1"),
        )))
        with pytest.raises(
            WorkerCrashError, match=f"exit code {CRASH_EXIT_CODE}"
        ):
            run_parallel_simulation(SMALL, workers=2, shard_root=root)
        run = _resume(root, 2)
        assert "campaign/1" in run.rerun_slices
        assert _lines(run.iter_records()) == serial_lines


class TestWorkerHang:
    def test_timeout_then_resume(self, tmp_path, serial_lines):
        root = tmp_path / "slices"
        faults.install_plan(FaultPlan(specs=(
            FaultSpec(kind="hang", site="slice-start", match="campaign/0",
                      hang_s=120.0),
        )))
        with pytest.raises(ParallelTimeoutError, match="campaign/0"):
            run_parallel_simulation(
                SMALL, workers=2, shard_root=root, timeout=8.0
            )
        run = _resume(root, 2)
        assert "campaign/0" in run.rerun_slices
        assert _lines(run.iter_records()) == serial_lines


class TestSilentCorruption:
    def test_resume_repairs_bit_rot(self, tmp_path, serial_lines):
        root = tmp_path / "slices"
        faults.install_plan(FaultPlan(specs=(
            FaultSpec(kind="corrupt", match="slice-0002"),
        ), seed=5))
        # Corruption is silent: the run itself succeeds...
        run = run_parallel_simulation(SMALL, workers=2, shard_root=root)
        with pytest.raises(ShardIntegrityError):
            for _ in run.iter_records():
                pass
        # ...but resume re-hashes every reused directory, catches the rot,
        # and re-runs exactly the damaged slice.
        resumed = _resume(root, 2)
        assert len(resumed.rerun_slices) == 1
        assert _lines(resumed.iter_records()) == serial_lines

    def test_default_merge_catches_a_flip_that_stays_valid_json(self, tmp_path):
        run = run_parallel_simulation(SMALL, workers=2, shard_root=tmp_path)
        shard = tmp_path / "slice-0002" / "shard-00000.jsonl"
        data = shard.read_bytes()
        shard.write_bytes(data.replace(b"@", b"#", 1))
        assert DeliveryRecord.from_json(shard.read_text().splitlines()[0])
        with pytest.raises(ShardIntegrityError, match="checksum mismatch"):
            for _ in run.iter_records():
                pass

    def test_line_without_start_time_names_file_and_record(self, tmp_path):
        run = run_parallel_simulation(SMALL, workers=2, shard_root=tmp_path)
        shard = tmp_path / "slice-0002" / "shard-00000.jsonl"
        lines = shard.read_text().splitlines(keepends=True)
        lines[2] = re.sub(r',"start_time":[^,]*', "", lines[2], count=1)
        shard.write_text("".join(lines))
        with pytest.raises(
            ShardDecodeError, match=r"slice-0002/shard-00000\.jsonl: record 3: "
        ):
            for _ in run.iter_records():
                pass


class TestTornManifest:
    def test_truncated_manifest_reruns_that_slice(self, tmp_path, serial_lines):
        root = tmp_path / "slices"
        run_parallel_simulation(SMALL, workers=2, shard_root=root)
        manifest = root / "slice-0003" / MANIFEST_NAME
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])  # torn mid-write
        run = _resume(root, 2)
        assert len(run.rerun_slices) == 1
        assert _lines(run.iter_records()) == serial_lines


class TestResumeSemantics:
    def test_resume_needs_persistent_root(self):
        with pytest.raises(ResumeError, match="shard_root"):
            run_parallel_simulation(SMALL, workers=2, resume=True)

    def test_fresh_resume_runs_everything(self, tmp_path, serial_lines):
        run = run_parallel_simulation(
            SMALL, workers=2, shard_root=tmp_path / "slices", resume=True
        )
        assert not run.resumed_slices
        assert len(run.rerun_slices) == len(run.slices)
        assert _lines(run.iter_records()) == serial_lines

    def test_whole_reuse_starts_no_worker(self, tmp_path, serial_lines):
        root = tmp_path / "slices"
        run_parallel_simulation(SMALL, workers=2, shard_root=root)
        run = _resume(root, 2)
        assert run.workers == 0
        assert run.worker_results == []
        assert run.resumed_slices == [s.key for s in run.slices]
        assert not run.rerun_slices
        assert _lines(run.iter_records()) == serial_lines

    def test_partial_reuse_has_one_result_per_started_worker(self, tmp_path):
        root = tmp_path / "slices"
        run_parallel_simulation(SMALL, workers=2, shard_root=root)
        (root / "slice-0001" / MANIFEST_NAME).unlink()
        (root / "slice-0003" / MANIFEST_NAME).unlink()
        run = _resume(root, 2)
        assert len(run.rerun_slices) == 2
        assert [r["worker"] for r in run.worker_results] == [0, 1]
        assert sorted(
            key for r in run.worker_results for key in r["slices"]
        ) == sorted(run.rerun_slices)

    def test_changed_config_invalidates_slices(self, tmp_path):
        root = tmp_path / "slices"
        run_parallel_simulation(SMALL, workers=2, shard_root=root)
        other = SimulationConfig(scale=0.005, seed=4)
        run = run_parallel_simulation(
            other, workers=2, shard_root=root, resume=True
        )
        # Same slice plan shape, different seed: fingerprints differ, so
        # nothing of the seed-3 run may be reused.
        assert not run.resumed_slices

    def test_resume_counters(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        root = tmp_path / "slices"
        run_parallel_simulation(SMALL, workers=2, shard_root=root)
        (root / "slice-0001" / MANIFEST_NAME).unlink()
        obs_metrics.enable()
        try:
            obs_metrics.reset()
            run = run_parallel_simulation(
                SMALL, workers=2, shard_root=root, resume=True
            )
            snap = {
                f["name"]: f for f in obs_metrics.get_registry().snapshot()
            }
            assert snap["repro_resume_slices_skipped_total"]["value"] > 0
            assert snap["repro_resume_slices_skipped_total"]["value"] == len(
                run.resumed_slices
            )
            assert snap["repro_resume_slices_rerun_total"]["value"] == 1.0
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
