"""Tests for delivery tracing (repro.obs.trace)."""

import json

import pytest

from repro.delivery.records import AttemptRecord, DeliveryRecord, compute_message_id
from repro.obs.trace import Span, span_tree_from_record

T0 = 1_655_000_000.0


def _record(*attempt_specs, sender="a@x.com.cn", receiver="b@example.com",
            to_ip="198.51.100.2"):
    """Build a DeliveryRecord from (result, truth_type, latency_ms) triples."""
    t = T0
    attempts = []
    for result, truth, latency in attempt_specs:
        attempts.append(AttemptRecord(
            t=t, from_ip="10.0.0.1", to_ip=to_ip,
            result=result, latency_ms=latency, truth_type=truth,
        ))
        t += 600
    return DeliveryRecord(
        sender=sender, receiver=receiver,
        start_time=T0, end_time=attempts[-1].t + attempts[-1].latency_ms / 1000.0,
        email_flag="Normal", attempts=attempts,
    )


class TestSpan:
    def test_child_end_set(self):
        root = Span("email", T0)
        child = root.child("attempt", T0 + 1, index=0)
        child.end(T0 + 2, status="error")
        root.set(degree="hard")
        assert root.children == [child]
        assert child.duration == pytest.approx(1.0)
        assert root.attrs["degree"] == "hard"

    def test_walk_and_find(self):
        root = Span("email", T0)
        a = root.child("attempt", T0)
        a.child("mx_resolve", T0)
        root.child("retry_wait", T0)
        assert [s.name for s in root.walk()] == [
            "email", "attempt", "mx_resolve", "retry_wait"
        ]
        assert len(root.find("attempt")) == 1

    def test_dict_round_trip(self):
        root = Span("email", T0, attrs={"message_id": "abc"})
        root.child("attempt", T0, index=0).end(T0 + 1, status="error")
        root.end(T0 + 2)
        clone = Span.from_dict(json.loads(root.to_json()))
        assert clone.to_dict() == root.to_dict()

    def test_render_contains_structure(self):
        root = Span("email", T0)
        root.child("attempt", T0).end(T0 + 1, status="error")
        root.end(T0 + 2)
        text = root.render()
        assert "email" in text
        assert "  attempt" in text
        assert "[error]" in text


class TestMessageId:
    def test_deterministic(self):
        a = compute_message_id("a@x.com", "b@y.com", T0)
        b = compute_message_id("a@x.com", "b@y.com", T0)
        assert a == b
        assert len(a) == 16

    def test_distinct_inputs_distinct_ids(self):
        assert compute_message_id("a@x.com", "b@y.com", T0) != \
            compute_message_id("a@x.com", "b@y.com", T0 + 1)

    def test_record_property_matches(self):
        record = _record(("250 2.0.0 ok", None, 40))
        assert record.message_id == compute_message_id(
            record.sender, record.receiver, record.start_time
        )


class TestReconstruction:
    def test_delivered_first_try(self):
        record = _record(("250 2.0.0 ok", None, 40))
        tree = span_tree_from_record(record)
        assert tree.status == "ok"
        assert tree.attrs["degree"] == "non-bounced"
        (attempt,) = tree.find("attempt")
        (verdict,) = tree.find("policy_verdict")
        assert verdict.attrs["verdict"] == "accepted"
        (session,) = tree.find("smtp_session")
        assert session.attrs["stage"] == "done"
        assert not tree.find("retry_wait")

    def test_sender_side_t2_has_no_session(self):
        record = _record(("unrouteable mail domain", "T2", 900))
        tree = span_tree_from_record(record)
        (mx,) = tree.find("mx_resolve")
        assert mx.status == "error"
        assert not tree.find("smtp_session")
        (verdict,) = tree.find("policy_verdict")
        assert verdict.attrs["origin"] == "sender"

    def test_transport_timeout_status(self):
        record = _record(("connection timed out", "T14", 30_000))
        tree = span_tree_from_record(record)
        (session,) = tree.find("smtp_session")
        assert session.status == "timeout"
        assert session.attrs["stage"] == "connect"
        (verdict,) = tree.find("policy_verdict")
        assert verdict.attrs["origin"] == "transport"

    def test_timeout_at_a_reached_host_names_the_primary_mx(self):
        record = _record(("connection timed out", "T14", 30_000))
        (mx,) = span_tree_from_record(record).find("mx_resolve")
        assert mx.attrs == {"mx": "mx1.example.com"}
        assert mx.status == "ok"

    def test_timeout_with_every_mx_down_names_no_host(self):
        """Every MX host inside an outage window: DNS answered, the
        connects timed out, and the attempt has no receiver IP."""
        record = _record(("connection timed out", "T14", 300_000), to_ip="")
        tree = span_tree_from_record(record)
        (mx,) = tree.find("mx_resolve")
        assert mx.attrs == {"mx": None}
        assert mx.status == "ok"
        (session,) = tree.find("smtp_session")
        assert session.status == "timeout"

    def test_unknown_service_without_ip_keeps_the_primary_mx(self):
        """A T8 from a domain without a modelled mail service also has no
        receiver IP, but routing reached a host."""
        record = _record(("550 5.1.1 user unknown", "T8", 1_200), to_ip="")
        (mx,) = span_tree_from_record(record).find("mx_resolve")
        assert mx.attrs == {"mx": "mx1.example.com"}

    def test_receiver_rejection_stage(self):
        record = _record(("550 5.1.1 user unknown", "T8", 1_200))
        tree = span_tree_from_record(record)
        (session,) = tree.find("smtp_session")
        assert session.status == "rejected"
        assert session.attrs["stage"] == "rcpt_to"
        (verdict,) = tree.find("policy_verdict")
        assert verdict.attrs["verdict"] == "T8"
        assert verdict.attrs["origin"] == "receiver"

    def test_retry_wait_spans_between_attempts(self):
        record = _record(
            ("451 greylisted", "T6", 500),
            ("451 greylisted", "T6", 500),
            ("250 2.0.0 ok", None, 40),
        )
        tree = span_tree_from_record(record)
        names = [c.name for c in tree.children]
        assert names == [
            "attempt", "retry_wait", "attempt", "retry_wait", "attempt"
        ]
        waits = tree.find("retry_wait")
        # each wait runs from the previous attempt's end to the next start
        assert waits[0].t0 == pytest.approx(T0 + 0.5)
        assert waits[0].t1 == pytest.approx(T0 + 600)
        assert tree.attrs["n_attempts"] == 3
        assert tree.status == "ok"
