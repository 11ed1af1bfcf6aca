"""Tests for records, the dataset container, and the delivery engine."""

import pytest

from repro.core.taxonomy import BounceDegree, BounceType
from repro.delivery.dataset import DeliveryDataset, RecordDecodeError
from repro.delivery.engine import DeliveryEngine
from repro.delivery.records import AttemptRecord, DeliveryRecord
from repro.util.rng import RandomSource
from repro.workload.spec import EmailSpec


def attempt(result="250 OK", t=0.0, truth=None, latency=1000, from_ip="10.0.0.1", to_ip="10.0.0.2"):
    return AttemptRecord(
        t=t, from_ip=from_ip, to_ip=to_ip, result=result, latency_ms=latency, truth_type=truth
    )


def record(attempts, sender="a@s.cn", receiver="b@r.com", flag="Normal"):
    return DeliveryRecord(
        sender=sender,
        receiver=receiver,
        start_time=attempts[0].t,
        end_time=attempts[-1].t + 1,
        email_flag=flag,
        attempts=attempts,
    )


class TestRecords:
    def test_degrees(self):
        assert record([attempt()]).bounce_degree is BounceDegree.NON_BOUNCED
        assert record(
            [attempt("550 5.1.1 no user", truth="T8"), attempt()]
        ).bounce_degree is BounceDegree.SOFT_BOUNCED
        assert record(
            [attempt("550 5.1.1 no user", truth="T8")] * 2
        ).bounce_degree is BounceDegree.HARD_BOUNCED

    def test_empty_record_raises(self):
        empty = DeliveryRecord(
            sender="a@s.cn", receiver="b@r.com", start_time=0.0, end_time=0.0,
            email_flag="Normal", attempts=[],
        )
        with pytest.raises(ValueError):
            empty.bounce_degree  # noqa: B018

    def test_helpers(self):
        r = record([attempt("451 greylisted", truth="T6", t=0.0), attempt(t=500.0)])
        assert r.sender_domain == "s.cn"
        assert r.receiver_domain == "r.com"
        assert r.receiver_user == "b"
        assert r.n_attempts == 2
        assert r.delivered
        assert r.first_failure().truth_type == "T6"
        assert r.successful_latency_ms() == 1000
        assert len(r.failed_attempts()) == 1

    def test_json_roundtrip(self):
        r = record([attempt("550 nope", truth="T8"), attempt()])
        back = DeliveryRecord.from_json(r.to_json())
        assert back.sender == r.sender
        assert back.receiver == r.receiver
        assert [a.result for a in back.attempts] == [a.result for a in r.attempts]
        assert [a.truth_type for a in back.attempts] == [a.truth_type for a in r.attempts]
        assert back.bounce_degree == r.bounce_degree

    def test_json_format_fields(self):
        d = record([attempt()]).to_json_dict()
        # The Figure 3 field names.
        for field in ("from", "to", "start_time", "end_time", "from_ip", "to_ip",
                      "delivery_result", "delivery_latency", "email_flag"):
            assert field in d


class TestDataset:
    def make(self):
        return DeliveryDataset(
            [
                record([attempt()]),
                record([attempt("550 5.1.1 no", truth="T8")] * 2, receiver="x@r2.com"),
                record([attempt("451 grey", truth="T6"), attempt()], receiver="y@r3.com"),
            ]
        )

    def test_summary(self):
        summary = self.make().summary()
        assert summary.n_emails == 3
        assert summary.n_non_bounced == 1
        assert summary.n_soft_bounced == 1
        assert summary.n_hard_bounced == 1
        assert summary.first_attempt_failure_rate == pytest.approx(2 / 3)
        assert summary.soft_recovery_rate == pytest.approx(0.5)

    def test_filters(self):
        ds = self.make()
        assert len(ds.bounced()) == 2
        assert len(ds.hard_bounced()) == 1
        assert len(ds.soft_bounced()) == 1
        assert len(ds.to_domain("r2.com")) == 1

    def test_ndr_messages(self):
        msgs = self.make().ndr_messages()
        assert len(msgs) == 3  # two T8 attempts + one T6 attempt
        assert all("250" not in m for m in msgs)

    def test_jsonl_roundtrip(self, tmp_path):
        ds = self.make()
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        back = DeliveryDataset.read_jsonl(path)
        assert len(back) == len(ds)
        assert back[1].receiver == ds[1].receiver

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [r.to_json() for r in self.make()] * 2
        lines[4] = '{"torn": '
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RecordDecodeError, match="bad.jsonl: line 5: ") as info:
            list(DeliveryDataset.iter_jsonl(path))
        assert info.value.line_no == 5

    def test_volume_counter(self):
        volume = self.make().receiver_domain_volume()
        assert volume["r.com"] == 1 and volume["r2.com"] == 1


class TestEngine:
    def spec(self, world, receiver, t=None, spamminess=0.02, tags=()):
        sender_domain = world.benign_sender_domains()[0]
        return EmailSpec(
            t=t if t is not None else world.clock.start_ts + 50 * 86_400,
            sender=sender_domain.users[0].address,
            receiver=receiver,
            spamminess=spamminess,
            size_bytes=10_000,
            recipient_count=1,
            tags=tuple(tags),
        )

    def test_deliver_to_existing_mailbox(self, world):
        engine = DeliveryEngine(world, RandomSource(20))
        gmail = world.receiver_domains["gmail.com"]
        username = next(
            u for u, b in gmail.mailboxes.items()
            if b.deleted_at is None and not b.full_windows and not b.inactive_windows
            and not b.high_volume
        )
        results = [
            engine.deliver(self.spec(world, f"{username}@gmail.com")) for _ in range(25)
        ]
        assert any(r.delivered for r in results)

    def test_unknown_domain_is_t2_hard(self, world):
        engine = DeliveryEngine(world, RandomSource(21))
        r = engine.deliver(self.spec(world, "user@doesnotexist-zz.com"))
        assert r.bounce_degree is BounceDegree.HARD_BOUNCED
        assert r.attempts[0].truth_type == BounceType.T2.value
        assert r.attempts[0].to_ip == ""

    def test_nonexistent_user_limited_retries(self, world):
        engine = DeliveryEngine(world, RandomSource(22))
        r = engine.deliver(self.spec(world, "zz-no-such-user@gmail.com"))
        assert not r.delivered
        assert r.n_attempts <= world.config.nonretryable_attempts

    def test_spam_gets_one_attempt(self, world):
        engine = DeliveryEngine(world, RandomSource(23))
        for _ in range(30):
            r = engine.deliver(self.spec(world, "zz-no-such-user@gmail.com", spamminess=0.97))
            if r.email_flag == "Spam":
                assert r.n_attempts == 1
                break
        else:
            pytest.fail("no email was flagged Spam")

    def test_retry_budget_respected(self, world):
        engine = DeliveryEngine(world, RandomSource(24))
        for _ in range(100):
            r = engine.deliver(self.spec(world, "zz@gmail.com"))
            assert r.n_attempts <= world.config.max_attempts

    def test_attempt_arrays_parallel(self, world):
        engine = DeliveryEngine(world, RandomSource(25))
        r = engine.deliver(self.spec(world, "user@doesnotexist-zz.com"))
        d = r.to_json_dict()
        n = len(d["delivery_result"])
        assert len(d["from_ip"]) == len(d["to_ip"]) == len(d["delivery_latency"]) == n

    def test_tls_learning(self, world):
        """The first plaintext attempt at a mandatory-TLS domain bounces T4;
        the same proxy then learns to use STARTTLS."""
        from repro.mta.policies import TLSRequirement

        tls_domains = [
            name
            for name, mta in world.receiver_mtas.items()
            if mta.policy.tls is TLSRequirement.MANDATORY
            and world.receiver_domains[name].mailboxes
            and not world.receiver_domains[name].dead_server
        ]
        if not tls_domains:
            pytest.skip("no mandatory-TLS domain in this world")
        domain = tls_domains[0]
        username = next(iter(world.receiver_domains[domain].mailboxes))
        engine = DeliveryEngine(world, RandomSource(26))
        results = [
            engine.deliver(self.spec(world, f"{username}@{domain}")) for _ in range(40)
        ]
        early_t4 = sum(
            1 for r in results[:10] if r.attempts[0].truth_type == BounceType.T4.value
        )
        late_t4 = sum(
            1 for r in results[-10:] if r.attempts[0].truth_type == BounceType.T4.value
        )
        assert early_t4 > 0, "expected initial T4 bounces at a mandatory-TLS domain"
        # Learning: later emails hit far fewer unlearned proxies.
        assert late_t4 <= early_t4
        assert any(
            r.attempts[0].truth_type != BounceType.T4.value for r in results[-10:]
        )

    def test_dead_server_times_out(self, world):
        dead = [d for d in world.receiver_domains.values() if d.dead_server]
        engine = DeliveryEngine(world, RandomSource(27))
        domain = dead[0]
        r = engine.deliver(self.spec(world, f"anyone@{domain.name}"))
        assert not r.delivered
        assert all(a.truth_type == BounceType.T14.value for a in r.attempts)
        assert all(a.latency_ms > 200_000 for a in r.attempts)

    def test_engine_deterministic(self, world):
        spec = self.spec(world, "user@doesnotexist-zz.com")
        a = DeliveryEngine(world, RandomSource(28)).deliver(spec)
        b = DeliveryEngine(world, RandomSource(28)).deliver(spec)
        assert [x.result for x in a.attempts] == [x.result for x in b.attempts]

    def test_sticky_proxy_policy(self, world):
        from dataclasses import replace

        sticky_config = replace(world.config, proxy_policy="sticky")
        original = world.config
        world.config = sticky_config
        try:
            engine = DeliveryEngine(world, RandomSource(29))
            r = engine.deliver(self.spec(world, "zz-no-user@gmail.com"))
            assert len({a.from_ip for a in r.attempts}) == 1
        finally:
            world.config = original


class TestRetryBackoff:
    def test_backoff_increases_gaps(self, world):
        from dataclasses import replace

        original = world.config
        world.config = replace(original, retry_backoff_multiplier=4.0)
        try:
            engine = DeliveryEngine(world, RandomSource(61))
            sender = world.benign_sender_domains()[0].users[0].address
            # Pick a dead-server domain: every attempt fails -> full budget.
            dead = next(d for d in world.receiver_domains.values() if d.dead_server)
            gaps_sum = 0.0
            first_gaps = 0.0
            n = 0
            for i in range(30):
                r = engine.deliver(EmailSpec(
                    t=world.clock.start_ts + 86_400 + i,
                    sender=sender,
                    receiver=f"x@{dead.name}",
                    spamminess=0.02,
                    size_bytes=1_000,
                    recipient_count=1,
                ))
                if r.n_attempts >= 3:
                    times = [a.t for a in r.attempts]
                    first_gaps += times[1] - times[0]
                    gaps_sum += times[2] - times[1]
                    n += 1
            assert n > 5
            # Second gap is ~4x the first on average.
            assert gaps_sum / n > 2.0 * (first_gaps / n)
        finally:
            world.config = original

    def test_backoff_validation(self):
        from repro import SimulationConfig

        with pytest.raises(ValueError):
            SimulationConfig(retry_backoff_multiplier=0.5)
