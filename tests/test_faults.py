"""Tests for the deterministic fault-injection harness (repro.faults).

The harness is only useful if it is *boringly* deterministic: a spec
fires on an exact write ordinal, a corruption flips the same byte every
run, and the installed plan is the one hook sites find (forked workers
inherit it with the rest of the parent's memory).  These tests pin that
down; the end-to-end behaviour of injected faults lives in
test_chaos.py.
"""

import pytest

from repro import faults
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedDiskFull,
    InjectedFaultError,
    corrupt_one_byte,
)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(kind="explode")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="fault site"):
            FaultSpec(kind="raise", site="teardown")

    def test_at_write_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(kind="raise", at_write=0)

    def test_empty_match_hits_everything(self):
        assert FaultSpec(kind="raise").matches("anything/at/all")
        assert not FaultSpec(kind="raise", match="xyz").matches("abc")


class TestPlan:
    def test_install_round_trips_to_active(self):
        plan = faults.install_plan(
            FaultPlan(specs=(FaultSpec(kind="raise", at_write=3),))
        )
        assert faults.active_plan() == plan
        faults.clear_plan()
        assert faults.active_plan() is None

    def test_oserror_fires_on_exact_write_only(self):
        plan = FaultPlan(specs=(FaultSpec(kind="oserror", at_write=3),))
        plan.on_shard_write("anywhere", 1)
        plan.on_shard_write("anywhere", 2)
        with pytest.raises(InjectedDiskFull) as exc:
            plan.on_shard_write("anywhere", 3)
        assert exc.value.errno == 28  # ENOSPC
        plan.on_shard_write("anywhere", 4)  # one-shot by ordinal

    def test_match_filter_scopes_the_fault(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="raise", match="slice-0003", at_write=1),)
        )
        plan.on_shard_write("root/slice-0001", 1)  # no fire
        with pytest.raises(InjectedFaultError, match="slice-0003"):
            plan.on_shard_write("root/slice-0003", 1)

    def test_slice_start_site(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="raise", site="slice-start", match="campaign/1"),
            )
        )
        plan.on_slice_start("traffic/days-000-056")
        with pytest.raises(InjectedFaultError, match="campaign/1"):
            plan.on_slice_start("campaign/1")

    def test_corrupt_specs_ignore_write_hook(self):
        plan = FaultPlan(specs=(FaultSpec(kind="corrupt"),))
        plan.on_shard_write("anywhere", 1)  # must not fire

    def test_crash_exit_code_is_distinctive(self):
        # The code itself matters: chaos tests and CI logs key off it.
        assert CRASH_EXIT_CODE == 23


class TestCorruptOneByte:
    def test_offset_is_deterministic(self, tmp_path):
        path = tmp_path / "shard-00000.jsonl"
        payload = b'{"a": 1}\n' * 100
        path.write_bytes(payload)
        offset = corrupt_one_byte(path, seed=7)
        assert 0 <= offset < len(payload)
        mutated = path.read_bytes()
        assert mutated != payload
        # Exactly one byte differs, and flipping again restores it.
        diffs = [i for i, (a, b) in enumerate(zip(payload, mutated)) if a != b]
        assert diffs == [offset]
        assert corrupt_one_byte(path, seed=7) == offset
        assert path.read_bytes() == payload

    def test_different_seed_different_offset(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b"x" * 4096)
        offsets = {corrupt_one_byte(path, seed=s) for s in range(8)}
        assert len(offsets) > 1

    def test_empty_file_is_a_noop(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert corrupt_one_byte(path) is None


class TestWriterIntegration:
    def test_writer_caches_plan_at_construction(self, tmp_path, dataset):
        from repro.stream.sink import ShardWriter

        faults.install_plan(
            FaultPlan(specs=(FaultSpec(kind="oserror", at_write=2),))
        )
        writer = ShardWriter(tmp_path / "shards")
        faults.clear_plan()  # too late: the writer already holds the plan
        writer.write(dataset[0])
        with pytest.raises(InjectedDiskFull):
            writer.write(dataset[1])
        writer.abort()

    def test_corruption_is_caught_by_verification(self, tmp_path, dataset):
        from repro.stream.sink import ShardIntegrityError, ShardReader, ShardWriter

        faults.install_plan(FaultPlan(specs=(FaultSpec(kind="corrupt"),)))
        with ShardWriter(tmp_path / "shards", shard_size=50) as writer:
            for record in dataset[:120]:
                writer.write(record)
        faults.clear_plan()
        reader = ShardReader(tmp_path / "shards")
        with pytest.raises(ShardIntegrityError, match="checksum mismatch"):
            reader.verify()
