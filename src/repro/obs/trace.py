"""Delivery tracing: per-email span trees over the delivery pipeline.

A traced email becomes a tree of :class:`Span` objects mirroring the
pipeline stages of Figure 2:

.. code-block:: text

    email (message_id, sender, receiver, degree)
    ├── attempt #1
    │   ├── proxy_select   (proxy ip)
    │   ├── mx_resolve     (mx host | error)
    │   ├── smtp_session   (stage reached, outcome)
    │   └── policy_verdict (accepted | T1..T16, ambiguous)
    ├── retry_wait         (scheduled backoff gap)
    └── attempt #2 ...

Spans carry **simulation** timestamps (POSIX seconds), not wall time —
they describe where in the delivery path an email failed, which is the
question every analysis in the paper reduces to.

A tree comes from the record stream: :func:`span_tree_from_record`
rebuilds it from any :class:`DeliveryRecord`, because every stage outcome
is recoverable from the attempt's result line, receiver IP and truth
type.  ``simulate``/``stream``/``watch --trace-sample N``, ``repro
trace`` and the daemon's ``/traces`` all trace this way, so a log traces
the same whichever run, worker count or replay produced it; the 1-in-N
subset is :func:`sample_hit` over the message id.

Message identity is :func:`compute_message_id` over
``(sender, receiver, start_time)`` — deterministic, so traces and shard
records agree on ids.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.delivery.records import compute_message_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delivery.records import AttemptRecord, DeliveryRecord

__all__ = [
    "Span",
    "compute_message_id",
    "sample_hit",
    "span_tree_from_record",
]


def sample_hit(message_id: str, sample_every: int) -> bool:
    """Deterministic 1-in-N sampling decision, keyed on content.

    CRC32 of the message id (stable across processes and Python
    versions, unlike the seeded builtin ``hash``) modulo ``sample_every``.
    Because the decision depends only on the id, a serial run, a
    parallel run at any worker count, and an offline replay of the same
    records all sample the *same* emails.
    """
    if sample_every <= 1:
        return True
    return zlib.crc32(message_id.encode("utf-8")) % sample_every == 0


# -- spans -------------------------------------------------------------------------


@dataclass
class Span:
    """One timed node of a delivery trace (simulation seconds)."""

    name: str
    t0: float
    t1: float | None = None
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def child(self, name: str, t0: float, **attrs) -> "Span":
        span = Span(name=name, t0=t0, attrs=attrs)
        self.children.append(span)
        return span

    def end(self, t1: float, status: str | None = None) -> "Span":
        self.t1 = t1
        if status is not None:
            self.status = status
        return self

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        return [s for s in self.walk() if s.name == name]

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "t0": self.t0, "t1": self.t1,
                      "status": self.status}
        if self.attrs:
            data["attrs"] = self.attrs
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            t0=data["t0"],
            t1=data.get("t1"),
            status=data.get("status", "ok"),
            attrs=dict(data.get("attrs", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    # -- display -------------------------------------------------------------------

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        bits = [f"{pad}{self.name}"]
        if self.t1 is not None and self.t1 > self.t0:
            bits.append(f"+{self.duration:.3f}s")
        if self.status != "ok":
            bits.append(f"[{self.status}]")
        if self.attrs:
            bits.append(
                " ".join(f"{k}={v}" for k, v in self.attrs.items())
            )
        lines = [" ".join(bits)]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


# -- stage reconstruction -----------------------------------------------------------

#: truth types decided on the sender/transport side (never reached a
#: receiver policy verdict).
_SENDER_SIDE = {"T2"}
_TRANSPORT_STATUS = {"T14": "timeout", "T15": "interrupted"}


def _add_attempt_spans(
    parent: Span, attempt: "AttemptRecord", index: int, domain: str
) -> None:
    """Append the stage spans of one attempt at ``domain`` under ``parent``."""
    from repro.core.taxonomy import BounceType
    from repro.smtp.session import REJECTION_STAGE, SmtpStage

    t0 = attempt.t
    t1 = attempt.t + attempt.latency_ms / 1000.0
    truth = attempt.truth_type
    span = parent.child("attempt", t0, index=index, proxy=attempt.from_ip)
    if attempt.to_ip:
        span.attrs["to_ip"] = attempt.to_ip
    span.end(t1, status="ok" if attempt.succeeded else "error")

    span.child("proxy_select", t0, proxy=attempt.from_ip).end(t0)

    mx = span.child("mx_resolve", t0)
    if truth in _SENDER_SIDE:
        mx.end(t0, status="error")
        span.child("policy_verdict", t1, verdict=truth, origin="sender").end(t1)
        return
    # The record keeps no MX host name: a routed attempt names the
    # primary.  A T14 without a receiver IP reached no host — DNS
    # answered, but every MX host was inside an outage window.
    routed = truth != "T14" or attempt.to_ip
    mx.set(mx=f"mx1.{domain}" if routed else None).end(t0)

    session = span.child("smtp_session", t0)
    if truth in _TRANSPORT_STATUS:
        stage = REJECTION_STAGE[BounceType(truth)]
        session.set(stage=stage.value).end(t1, status=_TRANSPORT_STATUS[truth])
        span.child(
            "policy_verdict", t1, verdict=truth, origin="transport"
        ).end(t1)
        return
    if truth is None:
        session.set(stage=SmtpStage.DONE.value).end(t1)
        span.child("policy_verdict", t1, verdict="accepted").end(t1)
        return

    try:
        stage = REJECTION_STAGE[BounceType(truth)]
    except ValueError:
        stage = SmtpStage.DATA
    session.set(stage=stage.value).end(t1, status="rejected")
    verdict = span.child(
        "policy_verdict", t1, verdict=truth, origin="receiver"
    )
    if attempt.ambiguous:
        verdict.attrs["ambiguous"] = True
    verdict.end(t1)


def span_tree_from_record(record: "DeliveryRecord") -> Span:
    """Rebuild the full span tree of one stored delivery record."""
    root = Span(
        name="email",
        t0=record.start_time,
        attrs={
            "message_id": record.message_id,
            "sender": record.sender,
            "receiver": record.receiver,
            "flag": record.email_flag,
        },
    )
    domain = record.receiver_domain
    previous = None
    for i, attempt in enumerate(record.attempts):
        if previous is not None:
            root.child("retry_wait", previous.t + previous.latency_ms / 1000.0).end(
                attempt.t
            )
        _add_attempt_spans(root, attempt, i, domain)
        previous = attempt
    degree = record.bounce_degree
    root.set(degree=degree.value, n_attempts=record.n_attempts)
    root.end(record.end_time, status="ok" if record.delivered else "error")
    return root
