"""Tests for the deterministic multiprocess runtime (repro.parallel).

The load-bearing property is byte-level determinism: for a fixed seed
and config, the merged record stream of a parallel run is identical to
the serial streaming runner's at every worker count — and parallel EBRC
classification returns exactly the serial results.  The failure-path
tests drive real child processes through an installed ``repro.faults``
plan (raise / crash / hang at slice start) and assert the parent
surfaces the dying slice by name without hanging.
"""

import json
import os
import pickle

import pytest

from repro.parallel import (
    ParallelTimeoutError,
    SimSlice,
    SliceExecutionError,
    WorkerCrashError,
    WorkerModeError,
    assign_slices,
    classify_many_parallel,
    count_attacker_campaigns,
    iter_parallel_simulation,
    plan_slices,
    run_parallel_simulation,
)
from repro import faults
from repro.stream.runner import iter_simulation
from repro.world.config import SimulationConfig

SMALL = SimulationConfig(scale=0.005, seed=3)


def _lines(records):
    return [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]


# -- slice planning -----------------------------------------------------------------


class TestPlan:
    def test_plan_is_pure_function_of_config(self):
        assert plan_slices(SMALL) == plan_slices(SimulationConfig(scale=0.005, seed=3))

    def test_plan_covers_every_day_once(self):
        from repro.util.clock import SimClock

        slices = plan_slices(SMALL)
        traffic = [s for s in slices if s.kind == "traffic"]
        days = [d for s in traffic for d in range(s.day_start, s.day_end)]
        assert days == list(range(SimClock(SMALL.start, SMALL.end).n_days))

    def test_campaign_count_matches_built_world(self, world):
        """The sizing formula mirrored in count_attacker_campaigns must
        agree with what the world builder actually creates."""
        assert count_attacker_campaigns(world.config) == len(
            world.attacker_domains()
        )

    def test_indices_are_canonical_merge_order(self):
        slices = plan_slices(SMALL, n_extra=2)
        assert [s.index for s in slices] == list(range(len(slices)))
        kinds = [s.kind for s in slices]
        assert kinds == sorted(
            kinds, key=["traffic", "campaign", "extra"].index
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SimSlice(kind="nope", index=0, key="x")


class TestAssign:
    def test_round_robin_partition(self):
        slices = plan_slices(SMALL)
        buckets = assign_slices(slices, 3)
        dealt = sorted(s.index for b in buckets for s in b)
        assert dealt == [s.index for s in slices]
        assert all(len(b) >= len(slices) // 3 for b in buckets)

    def test_more_workers_than_slices_drops_empty_buckets(self):
        slices = plan_slices(SMALL)[:2]
        buckets = assign_slices(slices, 8)
        assert len(buckets) == 2

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            assign_slices([], 0)


# -- determinism --------------------------------------------------------------------


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_lines(self):
        return _lines(iter_simulation(SMALL))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_serial(self, serial_lines, workers):
        with run_parallel_simulation(SMALL, workers=workers) as run:
            assert _lines(run.iter_records(verify=True)) == serial_lines

    def test_workers_one_falls_back_in_process(self, serial_lines):
        run = run_parallel_simulation(SMALL, workers=1)
        assert run.shard_root is None  # no processes, no shard round-trip
        assert _lines(run.iter_records()) == serial_lines

    def test_iter_parallel_simulation_cleans_up(self, serial_lines):
        stream = iter_parallel_simulation(SMALL, workers=2)
        assert _lines(stream) == serial_lines

    def test_extra_workloads_ship_as_specs(self, serial_lines):
        from repro.workload.spec import EmailSpec

        def workload(world, rng):
            domain = world.benign_sender_domains()[0]
            user = domain.users[0]
            t0 = world.clock.start_ts + 3 * 86_400
            return [
                EmailSpec(t=t0 + i * 600.0, sender=user.address,
                          receiver="someone@gmail.com", spamminess=0.1,
                          size_bytes=2048, recipient_count=1, tags=("extra",))
                for i in range(5)
            ]

        serial = _lines(iter_simulation(SMALL, extra_workloads=[workload]))
        assert serial != serial_lines  # the workload actually adds records
        with run_parallel_simulation(
            SMALL, workers=2, extra_workloads=[workload]
        ) as run:
            assert _lines(run.iter_records()) == serial


# -- failure surfacing --------------------------------------------------------------


@pytest.fixture()
def fail_hook():
    def arm(value):
        needle, mode = value.rsplit(":", 1)
        faults.install_plan(faults.FaultPlan(
            [faults.FaultSpec(kind=mode, site="slice-start", match=needle)]
        ))

    yield arm
    faults.clear_plan()


class TestFailures:
    def test_worker_exception_names_slice(self, fail_hook):
        fail_hook("campaign/0:raise")
        with pytest.raises(SliceExecutionError, match="campaign/0"):
            run_parallel_simulation(SMALL, workers=2)

    def test_worker_crash_names_slices(self, fail_hook):
        fail_hook("campaign/0:crash")
        with pytest.raises(WorkerCrashError, match="campaign/0"):
            run_parallel_simulation(SMALL, workers=2)

    def test_timeout_terminates_and_names_pending(self, fail_hook):
        fail_hook("traffic/days-000:hang")
        with pytest.raises(ParallelTimeoutError, match="traffic/days-000"):
            run_parallel_simulation(SMALL, workers=2, timeout=5.0)

    def test_deadline_overshoot_bounded_by_poll_not_worker_count(self, tmp_path):
        """The join loop must honour the deadline per worker: pre-fix, a
        full sweep joined every pending worker for the poll interval each
        before consulting the deadline, so 32 stuck workers overran a
        0.3s timeout by ~1.6s per loop."""
        import time
        from types import SimpleNamespace

        from repro.parallel.runner import _join_workers

        class StuckProc:
            exitcode = None

            def join(self, timeout=None):
                if timeout:
                    time.sleep(timeout)

            def is_alive(self):
                return True

        procs = [StuckProc() for _ in range(32)]
        buckets = [[SimpleNamespace(key=f"stuck/{i}")] for i in range(32)]
        t0 = time.monotonic()
        with pytest.raises(ParallelTimeoutError, match="stuck/"):
            _join_workers(procs, buckets, tmp_path, timeout=0.3)
        assert time.monotonic() - t0 < 1.0

    def test_failed_run_removes_owned_shards(self, fail_hook):
        import tempfile

        fail_hook("campaign/0:raise")
        before = set(os.listdir(tempfile.gettempdir()))
        with pytest.raises(SliceExecutionError):
            run_parallel_simulation(SMALL, workers=2)
        leaked = {
            name
            for name in set(os.listdir(tempfile.gettempdir())) - before
            if name.startswith("repro-parallel-")
        }
        assert not leaked

    def test_worker_mode_mismatch_raises_and_cleans_up(self, monkeypatch):
        """A worker whose echoed switches differ from the request fails
        the run; the result is doctored in the parent, where it is read."""
        import tempfile

        from repro.parallel import runner

        real = runner._load_result
        monkeypatch.setattr(
            runner, "_load_result", lambda *args: {**real(*args), "columnar": None}
        )
        before = set(os.listdir(tempfile.gettempdir()))
        with pytest.raises(WorkerModeError, match="columnar=None, requested columnar=True"):
            run_parallel_simulation(SMALL, workers=2)
        leaked = {
            name
            for name in set(os.listdir(tempfile.gettempdir())) - before
            if name.startswith("repro-parallel-")
        }
        assert not leaked


# -- telemetry ----------------------------------------------------------------------


class TestWorkerTelemetry:
    def test_worker_metrics_merge_equals_serial(self):
        from repro.obs import metrics as obs_metrics

        def families():
            snap = obs_metrics.get_registry().snapshot()
            return {
                f["name"]: f for f in snap
                if f["name"].startswith("repro_delivery")
            }

        obs_metrics.enable()
        try:
            obs_metrics.reset()
            for _ in iter_simulation(SMALL):
                pass
            serial = families()
            obs_metrics.reset()
            with run_parallel_simulation(SMALL, workers=2) as run:
                for _ in run.iter_records():
                    pass
            parallel = families()
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
        assert serial == parallel

    def test_segment_worker_metrics_merge_equals_serial(self):
        """Segment workers collect telemetry too, and the parent merges
        it: a 2-worker segment reports the serial segment's families."""
        from repro.checkpoint import fresh_progress, run_segment, run_segment_parallel
        from repro.obs import metrics as obs_metrics
        from repro.world.model import build_world

        def families():
            snap = obs_metrics.get_registry().snapshot()
            return {
                f["name"]: f for f in snap
                if f["name"].startswith("repro_delivery")
            }

        cut = 200
        obs_metrics.enable()
        try:
            obs_metrics.reset()
            for _ in run_segment(build_world(SMALL), fresh_progress(SMALL), cut):
                pass
            serial = families()
            obs_metrics.reset()
            with run_segment_parallel(
                build_world(SMALL), fresh_progress(SMALL), cut, 2
            ) as run:
                for _ in run.iter_records():
                    pass
            parallel = families()
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
        assert serial
        assert serial == parallel


# -- parallel classification --------------------------------------------------------


class TestClassifyParallel:
    @pytest.fixture(scope="class")
    def corpus_and_ebrc(self):
        from repro.core.ebrc import EBRC, EBRCConfig
        from repro.core.taxonomy import BounceType
        from repro.smtp.templates import NDRTemplateBank, TemplateDialect
        from repro.util.rng import RandomSource

        bank = NDRTemplateBank()
        rng = RandomSource(53)
        types = [t for t in BounceType if t is not BounceType.T16]
        dialects = list(TemplateDialect)
        messages = []
        for i in range(4000):
            t = rng.choice(types)
            ndr = bank.render(
                t, rng.choice(dialects), rng,
                context={"address": f"u{i}@d{i % 31}.com",
                         "ip": f"10.2.{i % 251}.7"},
                ambiguity=0.05,
            )
            messages.append(ndr.text)
        ebrc = EBRC(EBRCConfig(n_labeled_templates=120,
                               samples_per_type=300)).fit(messages)
        return messages, ebrc

    def test_results_identical_to_serial(self, corpus_and_ebrc):
        messages, ebrc = corpus_and_ebrc
        serial = ebrc.classify_many(messages)
        parallel = classify_many_parallel(
            ebrc, messages, workers=2, chunk_size=500
        )
        assert parallel == serial

    def test_small_input_short_circuits(self, corpus_and_ebrc):
        messages, ebrc = corpus_and_ebrc
        few = messages[:10]
        assert classify_many_parallel(
            ebrc, few, workers=4
        ) == ebrc.classify_many(few)

    def test_invalid_chunk_size(self, corpus_and_ebrc):
        _, ebrc = corpus_and_ebrc
        with pytest.raises(ValueError):
            classify_many_parallel(ebrc, ["x"], workers=2, chunk_size=0)


# -- pickle safety ------------------------------------------------------------------


class TestPickleSafety:
    """Everything shipped across the process boundary must survive
    pickling (the spawn context pickles all worker args)."""

    def test_config_round_trips(self):
        config = SimulationConfig(scale=0.25, seed=99, proxy_policy="sticky")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_slices_round_trip(self):
        slices = plan_slices(SMALL, n_extra=1)
        restored = pickle.loads(pickle.dumps(slices))
        assert restored == slices

    def test_slice_with_specs_round_trips(self):
        from repro.workload.spec import EmailSpec

        spec = EmailSpec(t=1.0, sender="a@b.com", receiver="c@d.com",
                         spamminess=0.5, size_bytes=1024, recipient_count=1,
                         tags=("x",))
        shipped = plan_slices(SMALL, n_extra=1)[-1].with_specs([spec])
        restored = pickle.loads(pickle.dumps(shipped))
        assert restored.specs == (spec,)

    def test_worker_args_round_trip(self):
        """The exact tuple Process(target=run_worker) pickles."""
        from repro.parallel.worker import worker_options
        from repro.stream.runner import fresh_progress

        buckets = assign_slices(plan_slices(SMALL), 2)
        progress = fresh_progress(SMALL)
        bucket = [(s, progress[s.key]) for s in buckets[0]]
        args = (0, SMALL, bucket, "/tmp/x", worker_options(100, 100_000, False))
        assert pickle.loads(pickle.dumps(args))[1] == SMALL

    def test_delivery_record_round_trips(self, dataset):
        record = dataset.records[0]
        restored = pickle.loads(pickle.dumps(record))
        assert restored.to_json_dict() == record.to_json_dict()
