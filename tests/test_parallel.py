"""Tests for the deterministic multiprocess runtime (repro.parallel).

The load-bearing property is byte-level determinism: for a fixed seed
and config, the merged record stream of a parallel run is identical to
the serial streaming runner's at every worker count.  The failure-path
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
    assign_slices,
    count_attacker_campaigns,
    iter_parallel_simulation,
    plan_slices,
    run_parallel_simulation,
)
from repro.stream.runner import iter_simulation
from repro.world.config import SimulationConfig

SMALL = SimulationConfig(scale=0.005, seed=3)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """``SMALL`` saved at day 200 by a serial head segment."""
    from repro.checkpoint import fresh_progress, run_segment, save_checkpoint
    from repro.world.model import build_world

    cut, path = 200, tmp_path_factory.mktemp("parallel-ckpt") / "cut"
    world = build_world(SMALL)
    head = run_segment(world, fresh_progress(SMALL), cut)
    for _ in head:
        pass
    save_checkpoint(path, world, cut, head.finish())
    return path


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
            assert _lines(run.iter_records()) == serial_lines

    def test_workers_one_runs_one_worker_process(self, serial_lines):
        with run_parallel_simulation(SMALL, workers=1) as run:
            assert len(run.worker_results) == 1
            assert run.shard_root.is_dir()
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


class TestLineMerge:
    def test_rewriting_records_decodes_nothing(self, monkeypatch):
        """The merge hands out line-backed records: a consumer that reads
        only what the CLI reads (``to_json``, ``start_time``,
        ``bounce_degree``) never runs the field decoder."""
        from repro.delivery import records

        decode = records._decoded_fields
        calls = []

        def counting(data):
            calls.append(1)
            return decode(data)

        monkeypatch.setattr(records, "_decoded_fields", counting)
        with run_parallel_simulation(SMALL, workers=2) as run:
            lines = []
            for record in run.iter_records():
                lines.append(record.to_json())
                assert record.start_time > 0
                record.bounce_degree
            assert calls == []
            record.sender  # the counter sees a real decode
            assert calls == [1]
        assert lines == [r.to_json() for r in iter_simulation(SMALL)]


# -- failure surfacing --------------------------------------------------------------


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

        from repro.parallel.runner import _join_workers

        class StuckProc:
            exitcode = None

            def join(self, timeout=None):
                if timeout:
                    time.sleep(timeout)

            def is_alive(self):
                return True

        procs = [StuckProc() for _ in range(32)]
        labels = [f"slices: stuck/{i}" for i in range(32)]
        t0 = time.monotonic()
        with pytest.raises(ParallelTimeoutError, match="stuck/"):
            _join_workers(procs, labels, tmp_path, timeout=0.3)
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
        from repro.checkpoint import fresh_progress, run_segment
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
            with run_parallel_simulation(SMALL, 2, until_day=cut) as run:
                for _ in run.iter_records():
                    pass
            parallel = families()
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
        assert serial
        assert serial == parallel

    def test_checkpoint_worker_metrics_merge_equals_serial(self, checkpoint):
        """Workers of a checkpoint source run the world the parent
        restored.  A 2-worker tail reports the serial tail's delivery,
        DNS and receiver families, so the resolver and the MTAs count
        into each worker's own registry, not the one inherited."""
        from repro.checkpoint import load_checkpoint, run_segment
        from repro.obs import metrics as obs_metrics

        names = (
            "repro_delivery_", "repro_dns_queries_total",
            "repro_receiver_verdicts_total",
        )

        def families():
            snap = obs_metrics.get_registry().snapshot()
            return {f["name"]: f for f in snap if f["name"].startswith(names)}

        obs_metrics.enable()
        try:
            obs_metrics.reset()
            ckpt = load_checkpoint(checkpoint)
            for _ in run_segment(ckpt.world, ckpt.progress, ckpt.world.clock.n_days):
                pass
            serial = families()
            obs_metrics.reset()
            with run_parallel_simulation(load_checkpoint(checkpoint), 2) as run:
                for _ in run.iter_records():
                    pass
            parallel = families()
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
        assert set(names[1:]) <= set(serial)
        assert serial == parallel

    def test_worker_memo_lookups_are_counted(self):
        """The module-level memos count their lookups in workers too.
        Every cache the serial run looks up is looked up by 2 workers.
        The parse memos see one lookup per parse, and the parses happen
        below the world's auth evaluator, which each process builds for
        its own world: the 2-worker totals are those of the workers'
        slice buckets, each run in process on a world of its own."""
        from repro.core import fastpath
        from repro.obs import metrics as obs_metrics
        from repro.stream.runner import run_slice
        from repro.util.rng import RandomSource
        from repro.world.model import build_world

        def lookups():
            totals: dict[str, float] = {}
            for family in obs_metrics.get_registry().snapshot():
                if family["name"] == "repro_fastpath_cache_events_total":
                    for key, value in family["series"].items():
                        name = key.rsplit("-", 1)[0]
                        totals[name] = totals.get(name, 0) + value
            return totals

        config = SimulationConfig(scale=0.03, seed=9)
        parse_memos = ("spf-parse", "dkim-parse", "dmarc-parse")
        obs_metrics.enable()
        try:
            obs_metrics.reset()
            fastpath.reset()
            for _ in iter_simulation(config):
                pass
            serial = lookups()
            obs_metrics.reset()
            fastpath.reset()
            with run_parallel_simulation(config, workers=2):
                pass
            parallel = lookups()
            grouped: dict[str, float] = {}
            for bucket in assign_slices(plan_slices(config), 2):
                obs_metrics.reset()
                fastpath.reset()
                world = build_world(config)
                rng = RandomSource(config.seed, name="sim")
                for sim_slice in bucket:
                    fresh = {"status": "fresh", "n_delivered": 0}
                    for _ in run_slice(world, rng, sim_slice, fresh,
                                       world.clock.n_days, {}):
                        pass
                for name, n in lookups().items():
                    grouped[name] = grouped.get(name, 0) + n
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
            fastpath.reset()
        used = {name for name, n in serial.items() if n}
        assert set(parse_memos) <= used
        assert {name for name in used if parallel.get(name)} == used
        assert {m: parallel[m] for m in parse_memos} == {
            m: grouped[m] for m in parse_memos
        }


# -- mode switches ------------------------------------------------------------------


class TestWorkerSwitches:
    """Every worker runs with the parent's mode switches, which it
    inherits at the fork.  A wrapper around ``DeliveryEngine.__init__``,
    installed in the parent and so inherited by the workers, writes down
    the switches each engine captured: what a worker ran with is seen
    inside the worker, not taken from its word."""

    MODES = ("default", "no-columnar", "no-cache", "metrics")

    @pytest.mark.parametrize("source", ["config", "checkpoint"])
    @pytest.mark.parametrize("mode", MODES)
    def test_worker_engines_run_the_parents_switches(
        self, mode, source, checkpoint, tmp_path, monkeypatch
    ):
        from repro.checkpoint import load_checkpoint
        from repro.core import fastpath
        from repro.delivery.engine import DeliveryEngine
        from repro.obs import metrics as obs_metrics

        rows = tmp_path / "engines.jsonl"
        real_init = DeliveryEngine.__init__

        def init(engine, *args, **kwargs):
            real_init(engine, *args, **kwargs)
            row = [os.getpid(), engine._fast, engine._batch is not None,
                   engine._obs_on]
            with open(rows, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")

        switch = {
            "no-columnar": fastpath.disable_columnar,
            "no-cache": fastpath.disable,
            "metrics": obs_metrics.enable,
        }.get(mode)
        try:
            if switch is not None:
                switch()
            parent = [fastpath.enabled(), fastpath.columnar_enabled(),
                      obs_metrics.enabled()]
            run_source = SMALL if source == "config" else load_checkpoint(checkpoint)
            monkeypatch.setattr(DeliveryEngine, "__init__", init)
            with run_parallel_simulation(run_source, workers=2):
                pass
        finally:
            fastpath.enable()
            fastpath.enable_columnar()
            obs_metrics.disable()
            obs_metrics.reset()
            fastpath.reset()
        seen = [json.loads(line) for line in rows.read_text().splitlines()]
        pids = {row[0] for row in seen}
        assert len(pids) == 2 and os.getpid() not in pids
        assert [row[1:] for row in seen] == [parent] * len(seen)


# -- pickle safety ------------------------------------------------------------------


class TestPickleSafety:
    """Configs, slices and records survive a pickle round trip: they
    stay plain data, although a forked worker receives its arguments
    without pickling."""

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

    def test_delivery_record_round_trips(self, dataset):
        from repro.delivery.records import line_record

        record = dataset.records[0]
        for sent in (record, line_record(record.to_json())):
            restored = pickle.loads(pickle.dumps(sent))
            assert restored.to_json_dict() == record.to_json_dict()
            assert restored.to_json() == record.to_json()
