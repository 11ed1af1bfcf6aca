"""Delivery records: the dataset format of the paper's Figure 3.

One :class:`DeliveryRecord` per email, with parallel per-attempt arrays
(``from_ip``, ``to_ip``, ``delivery_result``, ``delivery_latency``) exactly
as the paper's JSON example shows, plus Coremail's content verdict
(``email_flag``).

Simulator-side ground truth (the true bounce type per attempt, scenario
tags such as ``username_typo``) is carried in clearly-marked ``truth_*``
fields.  Analysis code must not read them; they exist so the EBRC and the
detection pipelines can be *scored*.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from repro.core.taxonomy import BounceDegree
from repro.smtp.ndr import is_success

# The number primitives json.dumps applies to finite floats and to ints.
# Called unbound they also type-check: a value of any other type raises
# TypeError, which sends the record to the json.dumps fallback.
_float_text = float.__repr__
_int_text = int.__repr__


class _OutsideSchema(Exception):
    """A record value the one-pass encoder leaves to ``json.dumps``."""


def compute_message_id(sender: str, receiver: str, start_time: float) -> str:
    """Deterministic 16-hex id of one email.

    Derived from the record's identity fields only, so live traces,
    reconstructed traces, and shard records agree on ids across runs and
    replays without widening the Figure 3 serialisation format.
    """
    payload = f"{sender}|{receiver}|{start_time:.6f}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class AttemptRecord:
    t: float
    from_ip: str
    to_ip: str
    result: str
    latency_ms: int
    #: Ground truth: the bounce type the policy engine decided (None for
    #: accepted attempts).
    truth_type: str | None = None
    #: Whether the rendered NDR came from the ambiguous pool.
    ambiguous: bool = False

    @property
    def succeeded(self) -> bool:
        return is_success(self.result)


@dataclass(slots=True)
class DeliveryRecord:
    sender: str
    receiver: str
    start_time: float
    end_time: float
    email_flag: str
    attempts: list[AttemptRecord]
    #: Scenario tags: how the workload generator produced this email
    #: (ground truth for evaluation only).
    truth_tags: tuple[str, ...] = ()
    #: Latent content spamminess (ground truth).
    truth_spamminess: float = 0.0

    # -- identity helpers -----------------------------------------------------

    @property
    def sender_domain(self) -> str:
        return self.sender.rsplit("@", 1)[-1]

    @property
    def receiver_domain(self) -> str:
        return self.receiver.rsplit("@", 1)[-1]

    @property
    def receiver_user(self) -> str:
        return self.receiver.split("@", 1)[0]

    @property
    def message_id(self) -> str:
        """Deterministic trace/lookup id (see :func:`compute_message_id`)."""
        return compute_message_id(self.sender, self.receiver, self.start_time)

    # -- outcome helpers ---------------------------------------------------------

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def delivered(self) -> bool:
        return any(a.succeeded for a in self.attempts)

    @property
    def bounce_degree(self) -> BounceDegree:
        if not self.attempts:
            raise ValueError("record has no attempts")
        if self.attempts[0].succeeded:
            return BounceDegree.NON_BOUNCED
        if self.delivered:
            return BounceDegree.SOFT_BOUNCED
        return BounceDegree.HARD_BOUNCED

    @property
    def bounced(self) -> bool:
        return self.bounce_degree is not BounceDegree.NON_BOUNCED

    def failed_attempts(self) -> list[AttemptRecord]:
        return [a for a in self.attempts if not a.succeeded]

    def final_attempt(self) -> AttemptRecord:
        return self.attempts[-1]

    def first_failure(self) -> AttemptRecord | None:
        for a in self.attempts:
            if not a.succeeded:
                return a
        return None

    def successful_latency_ms(self) -> int | None:
        for a in self.attempts:
            if a.succeeded:
                return a.latency_ms
        return None

    # -- serialisation -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The Figure 3 format plus ``truth_*`` extension fields."""
        return {
            "from": self.sender,
            "to": self.receiver,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "from_ip": [a.from_ip for a in self.attempts],
            "to_ip": [a.to_ip for a in self.attempts],
            "delivery_result": [a.result for a in self.attempts],
            "delivery_latency": [a.latency_ms for a in self.attempts],
            "email_flag": self.email_flag,
            "truth_types": [a.truth_type for a in self.attempts],
            "truth_ambiguous": [a.ambiguous for a in self.attempts],
            "truth_tags": list(self.truth_tags),
            "truth_spamminess": self.truth_spamminess,
            "attempt_times": [a.t for a in self.attempts],
        }

    def to_json(self) -> str:
        """One line of the log: exactly the bytes of
        ``json.dumps(self.to_json_dict(), separators=(",", ":"))``.

        The line is built in one pass, in the Figure 3 key order, from the
        primitives ``json.dumps`` uses: ``encode_basestring_ascii`` for
        strings, ``float.__repr__`` and ``int.__repr__`` for numbers, and
        the literals ``null``, ``true`` and ``false``.  A value outside
        the schema — a non-finite float, an int time, a bool latency, a
        non-bool ``ambiguous``, a text field that is not a str — makes the
        one pass raise, and ``json.dumps`` writes the line instead.
        """
        start = self.start_time
        try:
            start_text = _float_text(start)
            end_text = _float_text(self.end_time)
            spam_text = _float_text(self.truth_spamminess)
            from_ips, to_ips, results, latencies = [], [], [], []
            truth_types, ambiguous, times = [], [], []
            for a in self.attempts:
                from_ips.append(_json_str(a.from_ip))
                to_ips.append(_json_str(a.to_ip))
                results.append(_json_str(a.result))
                latency = a.latency_ms
                if latency.__class__ is bool:
                    raise _OutsideSchema
                latencies.append(_int_text(latency))
                truth_type = a.truth_type
                truth_types.append(
                    "null" if truth_type is None else _json_str(truth_type)
                )
                if a.ambiguous is True:
                    ambiguous.append("true")
                elif a.ambiguous is False:
                    ambiguous.append("false")
                else:
                    raise _OutsideSchema
                t = a.t
                # Equal floats share a repr, except 0.0 and -0.0; an int
                # equal to start_time is spelled differently.
                if t == start and start and t.__class__ is float:
                    times.append(start_text)
                else:
                    times.append(_float_text(t))
            times_text = ",".join(times)
            # Finite reprs hold digits, ".", "e", "+" and "-"; only "inf"
            # and "nan", which json.dumps spells differently, hold an "n".
            if "n" in f"{start_text}{end_text}{spam_text}{times_text}":
                raise _OutsideSchema
            return (
                f'{{"from":{_json_str(self.sender)},'
                f'"to":{_json_str(self.receiver)},'
                f'"start_time":{start_text},"end_time":{end_text},'
                f'"from_ip":[{",".join(from_ips)}],'
                f'"to_ip":[{",".join(to_ips)}],'
                f'"delivery_result":[{",".join(results)}],'
                f'"delivery_latency":[{",".join(latencies)}],'
                f'"email_flag":{_json_str(self.email_flag)},'
                f'"truth_types":[{",".join(truth_types)}],'
                f'"truth_ambiguous":[{",".join(ambiguous)}],'
                f'"truth_tags":[{",".join(map(_json_str, self.truth_tags))}],'
                f'"truth_spamminess":{spam_text},'
                f'"attempt_times":[{times_text}]}}'
            )
        except (TypeError, _OutsideSchema):
            return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeliveryRecord":
        """Inverse of :meth:`to_json_dict`.  The per-attempt arrays must
        all have the same length; a mismatch raises ``ValueError``."""
        results = data["delivery_result"]
        n = len(results)
        attempts = [
            AttemptRecord(t, from_ip, to_ip, result, latency, truth_type,
                          bool(ambiguous))
            for t, from_ip, to_ip, result, latency, truth_type, ambiguous in zip(
                data.get("attempt_times") or [data["start_time"]] * n,
                data["from_ip"],
                data["to_ip"],
                results,
                data["delivery_latency"],
                data.get("truth_types") or [None] * n,
                data.get("truth_ambiguous") or [False] * n,
                strict=True,
            )
        ]
        return cls(
            sender=data["from"],
            receiver=data["to"],
            start_time=data["start_time"],
            end_time=data["end_time"],
            email_flag=data["email_flag"],
            attempts=attempts,
            truth_tags=tuple(data.get("truth_tags", ())),
            truth_spamminess=float(data.get("truth_spamminess", 0.0)),
        )

    @classmethod
    def from_json(cls, line: str) -> "DeliveryRecord":
        return cls.from_json_dict(json.loads(line))
