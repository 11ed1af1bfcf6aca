"""Differential tests for the columnar batch delivery engine.

The load-bearing property is byte-identity: for any spec stream, the
chunked plan-and-replay executor (:mod:`repro.delivery.columnar`) must
produce the same records *and* leave every RNG cursor in the same state
as the per-email reference path — chunk by chunk, not just at the end.
On top of the chunk-level oracle, the full matrix the CLI exposes is
diffed here: serial on/off, ``--no-cache``, parallel workers, and a
checkpointed chain resumed mid-window.
"""

import json
from datetime import timedelta

import pytest

from repro.checkpoint import (
    fresh_progress,
    load_checkpoint,
    run_segment,
    save_checkpoint,
)
from repro.core import fastpath
from repro.core.taxonomy import BounceType
from repro.delivery.columnar import ColumnarExecutor
from repro.delivery.engine import DeliveryEngine, _require_budget
from repro.obs import metrics as obs_metrics
from repro.parallel import run_parallel_simulation
from repro.stream.runner import iter_simulation
from repro.util.clock import DAY_SECONDS, DEFAULT_START
from repro.util.rng import RandomSource
from repro.world.config import SimulationConfig
from repro.world.model import build_world
from repro.workload.spec import EmailSpec

#: Short-window serial config: big enough to hit every gauntlet branch,
#: small enough that the module runs the full diff matrix quickly.
def _serial_config() -> SimulationConfig:
    return SimulationConfig(
        scale=0.05,
        seed=3,
        start=DEFAULT_START,
        end=DEFAULT_START + timedelta(days=10),
    )


#: Full-window tiny config for the multiprocess diffs (mirrors the
#: parallel suite's own fixture scale).
PARALLEL_CONFIG = SimulationConfig(scale=0.005, seed=3)


def _lines(records):
    return [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]


def _make_specs(world, n, seed=5, days=40.0):
    """A deterministic adversarial spec mix: real mailboxes, unknown
    users, unknown domains, oversized envelopes, multi-recipient sends,
    and the whole spamminess range — the executor must agree with the
    reference on every one of them."""
    rng = RandomSource(seed, name="columnar-specs")
    domains = sorted(world.receiver_domains)
    senders = [d.users[0].address for d in world.benign_sender_domains()]
    start = world.clock.start_ts
    specs = []
    for i in range(n):
        roll = rng.uniform(0.0, 1.0)
        if roll < 0.05:
            receiver = f"user{i}@doesnotexist-zz-{i}.com"
        else:
            domain = rng.choice(domains)
            boxes = world.receiver_domains[domain].mailboxes
            if boxes and roll < 0.80:
                receiver = f"{rng.choice(sorted(boxes))}@{domain}"
            else:
                receiver = f"ghost{i}@{domain}"
        specs.append(
            EmailSpec(
                t=start + rng.uniform(0.0, days) * DAY_SECONDS,
                sender=rng.choice(senders),
                receiver=receiver,
                spamminess=rng.uniform(0.0, 1.0),
                size_bytes=int(rng.uniform(500, 2_000_000)),
                recipient_count=1 + int(rng.uniform(0, 60)),
                tags=(),
            )
        )
    return specs


@pytest.fixture(autouse=True)
def _fastpath_restored():
    """Whatever a test toggles, leave the process fully accelerated."""
    yield
    fastpath.enable_columnar()
    fastpath.enable()


@pytest.fixture(scope="module")
def small_world():
    """Module-owned world (mutable config allowed, unlike the session
    ``world`` fixture shared with the analysis tests)."""
    return build_world(SimulationConfig(scale=0.005, seed=3))


def _engine_pair(world, seed=99):
    """Two draw-identical engines over one world: the reference path and
    a columnar executor bound to its twin."""
    reference = DeliveryEngine(world, RandomSource(seed))
    batched = DeliveryEngine(world, RandomSource(seed))
    executor = batched._batch
    assert isinstance(executor, ColumnarExecutor)
    return reference, batched, executor


class TestChunkDifferential:
    """Records AND RNG cursors must match after every chunk."""

    @pytest.mark.parametrize("chunk_size", [40, 200])
    def test_records_and_cursors_match(self, world, chunk_size):
        # 40 and 200 sit either side of the 64-row size where the prepass
        # once switched to numpy; both replay against the same reference
        # engine.
        reference, batched, executor = _engine_pair(world)
        specs = _make_specs(world, 3 * chunk_size)
        for lo in range(0, len(specs), chunk_size):
            chunk = specs[lo:lo + chunk_size]
            got = executor.deliver_chunk(chunk)
            want = [reference.deliver(spec) for spec in chunk]
            assert _lines(got) == _lines(want)
            assert batched.rng.getstate() == reference.rng.getstate()
            assert batched._fleet_rng.getstate() == reference._fleet_rng.getstate()

    def test_engine_state_matches_after_stream(self, world):
        reference, batched, executor = _engine_pair(world, seed=101)
        specs = sorted(_make_specs(world, 250, seed=6), key=lambda s: s.t)
        got = list(executor.deliver_stream(iter(specs)))
        want = [reference.deliver(spec) for spec in specs]
        assert _lines(got) == _lines(want)
        # The learned-TLS set and greylist stores evolved identically,
        # so a checkpoint snapshot of either engine is interchangeable.
        assert batched.state_snapshot() == reference.state_snapshot()

    def test_chunks_never_cross_day_boundaries(self, world, monkeypatch):
        engine = DeliveryEngine(world, RandomSource(7))
        executor = ColumnarExecutor(engine, chunk_size=10_000)
        seen: list[list[EmailSpec]] = []
        real = ColumnarExecutor.deliver_chunk

        def spy(self, chunk):
            seen.append(list(chunk))
            return real(self, chunk)

        monkeypatch.setattr(ColumnarExecutor, "deliver_chunk", spy)
        specs = sorted(_make_specs(world, 300, seed=8, days=5.0), key=lambda s: s.t)
        list(executor.deliver_stream(iter(specs)))
        assert sum(len(c) for c in seen) == len(specs)
        start = world.clock.start_ts
        for chunk in seen:
            days = {(spec.t - start) // DAY_SECONDS for spec in chunk}
            assert len(days) == 1, "chunk spans a simulated day boundary"

    def test_chunk_size_cap_respected(self, world):
        engine = DeliveryEngine(world, RandomSource(9))
        executor = ColumnarExecutor(engine, chunk_size=16)
        specs = sorted(_make_specs(world, 80, seed=10, days=1.0), key=lambda s: s.t)
        out = list(executor.deliver_stream(iter(specs)))
        assert len(out) == len(specs)

    def test_chunk_size_validation(self, world):
        engine = DeliveryEngine(world, RandomSource(11))
        with pytest.raises(ValueError, match="chunk_size"):
            ColumnarExecutor(engine, chunk_size=0)


class TestFullRunParity:
    """The CLI's diff matrix, as library calls: serial on/off,
    --no-cache, parallel workers, and a checkpointed chain."""

    @pytest.fixture(scope="class")
    def oracle(self):
        """Uninterrupted serial run with every acceleration on."""
        return _lines(iter_simulation(_serial_config()))

    def test_no_columnar_matches(self, oracle):
        fastpath.disable_columnar()
        try:
            assert _lines(iter_simulation(_serial_config())) == oracle
        finally:
            fastpath.enable_columnar()

    def test_no_cache_matches(self, oracle):
        fastpath.disable()
        try:
            assert _lines(iter_simulation(_serial_config())) == oracle
        finally:
            fastpath.enable()

    @pytest.fixture(scope="class")
    def parallel_oracle(self):
        return _lines(iter_simulation(PARALLEL_CONFIG))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_columnar_matches_serial(self, parallel_oracle, workers):
        with run_parallel_simulation(PARALLEL_CONFIG, workers=workers) as run:
            assert _lines(run.iter_records()) == parallel_oracle

    def test_parallel_no_columnar_matches_serial(self, parallel_oracle):
        # Reference delivery in 2 workers merges to the columnar oracle.
        # The bytes are the same in every mode, so this cannot see
        # whether a worker took the switch; tests/test_parallel.py::
        # TestWorkerSwitches observes the switches inside the workers.
        fastpath.disable_columnar()
        try:
            with run_parallel_simulation(PARALLEL_CONFIG, workers=2) as run:
                assert _lines(run.iter_records()) == parallel_oracle
        finally:
            fastpath.enable_columnar()

    def test_parallel_no_cache_matches_serial(self, parallel_oracle):
        # The same bytes under --no-cache in 2 workers; the switch itself
        # is observed in tests/test_parallel.py::TestWorkerSwitches.
        fastpath.disable()
        try:
            with run_parallel_simulation(PARALLEL_CONFIG, workers=2) as run:
                assert _lines(run.iter_records()) == parallel_oracle
        finally:
            fastpath.enable()

    def test_segment_no_cache_matches_serial(self):
        # A 2-worker segment under --no-cache gives the serial segment's
        # bytes; tests/test_parallel.py::TestWorkerSwitches observes the
        # switches inside the workers.
        config = _serial_config()
        cut = 6
        serial = run_segment(build_world(config), fresh_progress(config), cut)
        oracle = _lines(serial.records)
        fastpath.disable()
        try:
            with run_parallel_simulation(config, 2, until_day=cut) as segment:
                lines = _lines(segment.iter_records())
        finally:
            fastpath.enable()
        assert lines == oracle

    @staticmethod
    def _worker_cache_events() -> float:
        """Fast-path cache events a 2-worker run merges from its workers."""
        obs_metrics.enable()
        obs_metrics.reset()
        fastpath.reset()
        try:
            with run_parallel_simulation(PARALLEL_CONFIG, workers=2) as run:
                for _ in run.iter_records():
                    pass
            family = obs_metrics.get_registry().get(
                "repro_fastpath_cache_events_total"
            )
            return 0.0 if family is None else family.total
        finally:
            obs_metrics.disable()
            obs_metrics.reset()
            fastpath.reset()

    def test_no_cache_reaches_worker_caches(self):
        # --no-cache must switch the caches off, not just the flag: both
        # sides of the differential, with the fastpath on and off.
        assert self._worker_cache_events() > 0
        fastpath.disable()
        try:
            assert self._worker_cache_events() == 0
        finally:
            fastpath.enable()

    def test_checkpointed_chain_matches_reference(self, tmp_path):
        config = _serial_config()
        cut, n_days = 6, 10
        # Reference truth: per-email delivery, uninterrupted.
        fastpath.disable_columnar()
        try:
            oracle = _lines(iter_simulation(_serial_config()))
        finally:
            fastpath.enable_columnar()
        # Columnar chain: run to the cut, checkpoint, restore, resume.
        world = build_world(config)
        segment = run_segment(world, fresh_progress(config), cut)
        head = [record.to_json() for record in segment.records]
        progress = segment.finish()
        save_checkpoint(tmp_path / "cut", world, cut, progress)
        ckpt = load_checkpoint(tmp_path / "cut")
        segment = run_segment(ckpt.world, ckpt.progress, n_days)
        tail = [record.to_json() for record in segment.records]
        oracle_json = [json.dumps(json.loads(line), sort_keys=True)
                       for line in head + tail]
        assert oracle_json == [
            json.dumps(json.loads(line), sort_keys=True) for line in oracle
        ]


class TestSwitch:
    def test_columnar_enabled_default_and_toggle(self):
        assert fastpath.columnar_enabled()
        fastpath.disable_columnar()
        assert not fastpath.columnar_enabled()
        fastpath.enable_columnar()
        assert fastpath.columnar_enabled()

    def test_no_cache_implies_reference_delivery(self):
        fastpath.disable()
        try:
            assert not fastpath.columnar_enabled()
        finally:
            fastpath.enable()

    def test_engine_skips_executor_when_disabled(self, small_world):
        fastpath.disable_columnar()
        try:
            engine = DeliveryEngine(small_world, RandomSource(1))
        finally:
            fastpath.enable_columnar()
        assert engine._batch is None

    def test_cli_no_columnar_flag_is_byte_identical(self, tmp_path):
        from repro.cli import main

        plain, off = tmp_path / "plain.jsonl", tmp_path / "off.jsonl"
        base = ["simulate", "--scale", "0.02", "--seed", "3",
                "--until", "8", "--quiet"]
        assert main(base + ["--out", str(plain)]) == 0
        assert fastpath.columnar_enabled()
        assert main(base + ["--no-columnar", "--out", str(off)]) == 0
        # The flag is scoped to the command: the process-wide switch is
        # restored even though the run disabled it.
        assert fastpath.columnar_enabled()
        assert plain.read_bytes() == off.read_bytes()


class TestBudgetGuards:
    def test_config_rejects_zero_nonretryable_attempts(self):
        with pytest.raises(ValueError, match="nonretryable_attempts"):
            SimulationConfig(nonretryable_attempts=0)

    def test_require_budget_rejects_zero(self):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            _require_budget(0)

    def test_reference_path_guards_mutated_budget(self, small_world):
        engine = DeliveryEngine(small_world, RandomSource(3))
        # Zero spamminess: the Coremail verdict is Normal, so the
        # (mutated) max_attempts budget is the one consulted.
        spec = EmailSpec(
            t=small_world.clock.start_ts + 3600.0,
            sender=small_world.benign_sender_domains()[0].users[0].address,
            receiver="anyone@gmail.com",
            spamminess=0.0,
            size_bytes=1_000,
            recipient_count=1,
            tags=(),
        )
        original = small_world.config.max_attempts
        small_world.config.max_attempts = 0
        try:
            with pytest.raises(ValueError, match="budget must be >= 1"):
                engine.deliver(spec)
        finally:
            small_world.config.max_attempts = original

    def test_columnar_path_guards_mutated_budget(self, small_world):
        engine = DeliveryEngine(small_world, RandomSource(4))
        assert isinstance(engine._batch, ColumnarExecutor)
        # Low-spamminess specs take the Normal budget (max_attempts).
        specs = [
            EmailSpec(
                t=small_world.clock.start_ts + 3600.0,
                sender=small_world.benign_sender_domains()[0].users[0].address,
                receiver="anyone@gmail.com",
                spamminess=0.0,
                size_bytes=1_000,
                recipient_count=1,
                tags=(),
            )
        ]
        original = small_world.config.max_attempts
        small_world.config.max_attempts = 0
        try:
            with pytest.raises(ValueError, match="budget must be >= 1"):
                list(engine.deliver_all(specs))
        finally:
            small_world.config.max_attempts = original


class TestReferencePaths:
    """The rare branches the executor must route exactly like the
    reference: unknown-service T8 and the non-retryable early break."""

    def _squat_domain(self, world):
        for zone in world.resolver.all_zones():
            if any(str(r).startswith("squatter-") for r in zone.registrants):
                return zone.domain
        pytest.skip("no squatted typo domain in this world")

    def test_unknown_service_bounces_t8(self, small_world):
        # Squatted typo domains resolve (registered, MX present) but have
        # no modelled mail service: both paths must answer T8 with an
        # empty to_ip, and stay draw-identical doing it.
        domain = self._squat_domain(small_world)
        reference, batched, executor = _engine_pair(small_world, seed=55)
        spec = EmailSpec(
            t=small_world.clock.start_ts + 5 * DAY_SECONDS,
            sender=small_world.benign_sender_domains()[0].users[0].address,
            receiver=f"mistyped@{domain}",
            spamminess=0.0,
            size_bytes=2_048,
            recipient_count=1,
            tags=(),
        )
        got = executor.deliver_chunk([spec])
        want = [reference.deliver(spec)]
        assert _lines(got) == _lines(want)
        record = got[0]
        assert not record.delivered
        assert record.attempts[0].truth_type == BounceType.T8.value
        assert record.attempts[0].to_ip == ""
        assert batched.rng.getstate() == reference.rng.getstate()

    def test_nonretryable_early_break(self, small_world):
        # An unknown user is non-retryable: the engine stops after the
        # confirmation budget, not the full retry budget.
        config = small_world.config
        engine = DeliveryEngine(small_world, RandomSource(56))
        assert isinstance(engine._batch, ColumnarExecutor)
        spec = EmailSpec(
            t=small_world.clock.start_ts + 2 * DAY_SECONDS,
            sender=small_world.benign_sender_domains()[0].users[0].address,
            receiver="zz-no-such-user@gmail.com",
            spamminess=0.0,
            size_bytes=2_048,
            recipient_count=1,
            tags=(),
        )
        for _ in range(10):
            (record,) = list(engine.deliver_all([spec]))
            if record.email_flag == "Normal" and not record.delivered:
                assert record.n_attempts <= config.nonretryable_attempts
                assert record.n_attempts < config.max_attempts
                return
        pytest.fail("never saw a Normal-flagged non-delivery")


class TestWorldScopedTables:
    """The pure tables slice objects derive from the world (auth verdicts,
    domain rows, network plans, domain snapshots, contact weights and
    address splits) live on the world: every engine and traffic generator
    of a process shares them, the world's purge drops them, and neither
    the digest nor a checkpoint sees them."""

    @staticmethod
    def _tables(world) -> dict:
        return {
            "domain_rows": world._domain_rows,
            "domain_snap": world._domain_snap,
            "net_probs": world._net_probs,
            "contact_cum": world._contact_cum,
            "split_cache": world._split_cache,
        }

    @staticmethod
    def _fill(world, cut=4):
        """Run ``cut`` days, then some reference deliveries (the engine's
        own snapshots only fill off the columnar path)."""
        config = world.config
        for _ in run_segment(world, fresh_progress(config), cut):
            pass
        fastpath.disable_columnar()
        try:
            engine = DeliveryEngine(world, RandomSource(17))
        finally:
            fastpath.enable_columnar()
        for spec in sorted(_make_specs(world, 60, days=cut), key=lambda s: s.t):
            engine.deliver(spec)

    def test_second_engine_reuses_the_first_engines_entries(self, monkeypatch):
        from repro.auth.evaluator import AuthEvaluator

        # Both engines draw from the same stream, so the second picks the
        # first one's proxies and asks for the same (domain, IP) verdicts.
        world = build_world(_serial_config())
        specs = sorted(_make_specs(world, 600, seed=8, days=8.0),
                       key=lambda s: s.t)
        list(DeliveryEngine(world, RandomSource(41)).deliver_all(specs))
        rows = dict(world._domain_rows)
        verdicts = dict(world.auth_evaluator()._cache)
        assert rows and verdicts

        first_rows: dict = {}
        first_verdicts: dict = {}
        row_for = ColumnarExecutor._row_for
        evaluate = AuthEvaluator.evaluate

        def spy_row_for(self, domain, t):
            row = row_for(self, domain, t)
            first_rows.setdefault(domain, (t, row))
            return row

        def spy_evaluate(self, domain, ip, t):
            result = evaluate(self, domain, ip, t)
            first_verdicts.setdefault((domain, ip), (t, result))
            return result

        monkeypatch.setattr(ColumnarExecutor, "_row_for", spy_row_for)
        monkeypatch.setattr(AuthEvaluator, "evaluate", spy_evaluate)
        list(DeliveryEngine(world, RandomSource(41)).deliver_all(specs))

        # Every first lookup the second engine makes inside the validity
        # of an entry the first engine left returns that very entry.
        reused_rows = [
            domain for domain, (t, row) in first_rows.items()
            if domain in rows and rows[domain].start <= t < rows[domain].end
        ]
        reused_verdicts = [
            key for key, (t, result) in first_verdicts.items()
            if key in verdicts and verdicts[key].start <= t < verdicts[key].end
        ]
        assert len(reused_rows) >= 10 and len(reused_verdicts) >= 10
        assert all(first_rows[d][1] is rows[d] for d in reused_rows)
        assert all(first_verdicts[k][1] is verdicts[k].result
                   for k in reused_verdicts)

    def test_purge_empties_every_table(self):
        world = build_world(_serial_config())
        self._fill(world)
        tables = self._tables(world)
        assert all(tables.values()), {k for k, v in tables.items() if not v}
        assert world.auth_evaluator()._cache
        world.purge_caches()
        assert not any(tables.values())
        assert world._auth is None

    def test_world_digest_ignores_the_tables(self):
        # A run also fills the template bank's pool cache, which the
        # digest covers, so the filled world is digested with and
        # without its tables rather than before and after the run.
        from repro.world.inspect import world_digest

        world = build_world(_serial_config())
        self._fill(world)
        tables = self._tables(world)
        assert all(tables.values()) and world._auth is not None
        filled = world_digest(world)
        for table in tables.values():
            table.clear()
        world._auth = None
        assert world_digest(world) == filled

    def test_checkpoint_pickles_no_table(self, tmp_path):
        import pickle

        from repro.checkpoint.store import WORLD_NAME

        world = build_world(_serial_config())
        self._fill(world)
        save_checkpoint(tmp_path / "cut", world, 4, fresh_progress(world.config))
        saved = pickle.loads((tmp_path / "cut" / WORLD_NAME).read_bytes())
        assert not any(self._tables(saved).values())
        assert saved._auth is None
