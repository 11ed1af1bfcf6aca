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
import re
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


# The default decoder's scanner: json.loads(text) is one call of it plus
# Python-level checks for a BOM, whitespace around the value and data
# after it, none of which a line that to_json wrote holds.
_scan_once = json.JSONDecoder().scan_once


def load_json(text: str):
    """``json.loads(text)``, in one scanner call when a JSON value spans
    all of ``text``.

    Any other text — whitespace around the value, a BOM, trailing data,
    malformed JSON, bytes — goes to ``json.loads``, so it returns or
    raises exactly what ``json.loads`` does.
    """
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError, TypeError):
        return json.loads(text)
    return value if end == len(text) else json.loads(text)


def compute_message_id(sender: str, receiver: str, start_time: float) -> str:
    """Deterministic 16-hex id of one email.

    Derived from the record's identity fields only, so traces and shard
    records agree on ids across runs and replays without widening the
    Figure 3 serialisation format.
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
        return _degree([a.result for a in self.attempts])

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
        return cls(*_decoded_fields(data))

    @classmethod
    def from_json(cls, line: str) -> "DeliveryRecord":
        return cls.from_json_dict(load_json(line))


def _degree(results: list) -> BounceDegree:
    """The bounce degree of an email whose attempts got ``results``."""
    if not results:
        raise ValueError("record has no attempts")
    if is_success(results[0]):
        return BounceDegree.NON_BOUNCED
    if any(map(is_success, results[1:])):
        return BounceDegree.SOFT_BOUNCED
    return BounceDegree.HARD_BOUNCED


def _decoded_fields(data: dict) -> tuple:
    """The field values, in field order, of the record ``data`` holds:
    the one decoder behind :meth:`DeliveryRecord.from_json_dict` and
    line-backed records."""
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
    return (
        data["from"],
        data["to"],
        data["start_time"],
        data["end_time"],
        data["email_flag"],
        attempts,
        tuple(data.get("truth_tags", ())),
        float(data.get("truth_spamminess", 0.0)),
    )


# -- line-backed records ---------------------------------------------------------

# Keys of the line layout that to_json writes.  Inside a string value a
# quote is always escaped, so ',"' can only open a key.
_START_KEY = ',"start_time":'
_RESULTS_KEY = ',"delivery_result":'
_LATENCY_KEY = ',"delivery_latency":'
# A results array whose first result opens with a 2xx reply code and its
# separator (repro.smtp.codes.parse_reply_code): the first attempt was
# accepted, so the email did not bounce.  Any other array, leading
# whitespace, escapes and non-ASCII digits included, takes the parse.
_FIRST_ACCEPTED = re.compile(r'\["2[0-9][0-9][ -]')

_set_class = object.__dict__["__class__"].__set__
_set_start = DeliveryRecord.start_time.__set__
_line_of = DeliveryRecord.email_flag.__get__
_set_line = DeliveryRecord.email_flag.__set__


def line_record(line: str) -> DeliveryRecord:
    """A :class:`DeliveryRecord` backed by ``line``, a line that
    :meth:`DeliveryRecord.to_json` wrote.

    Only ``start_time`` is read now.  Until a caller reads another field,
    ``to_json()`` returns ``line`` and ``bounce_degree`` reads the first
    reply code of the ``delivery_result`` array, or parses just that
    array; the first read or assignment of another field decodes the
    line through the decoder ``from_json`` uses.  A line with no
    readable ``start_time`` raises ``ValueError``.
    """
    try:
        at = line.index(_START_KEY) + len(_START_KEY)
        text = line[at:line.index(",", at)]
        # float() gives back the float that float.__repr__ spelled; the
        # spellings json.dumps writes for other values (ints, NaN,
        # Infinity) are read as json.loads reads them.
        start = float(text) if "." in text or "e" in text else json.loads(text)
    except ValueError as exc:
        raise ValueError(f"no readable start_time ({exc})") from None
    record = object.__new__(_LineRecord)
    _set_start(record, start)
    _set_line(record, line)
    return record


class _LineRecord(DeliveryRecord):
    """A record still held as its line (see :func:`line_record`).

    The ``start_time`` slot holds the start time and the ``email_flag``
    slot holds the line; the other slots are empty.  Reading or assigning
    any field but ``start_time`` decodes the line into the slots and turns
    the object into a plain :class:`DeliveryRecord`, in place: this class
    adds no slots, so the two share one layout.
    """

    __slots__ = ()

    # dataclass __eq__ and __repr__ and dataclasses.replace() go by
    # __class__, so they treat an undecoded record as the plain one.
    __class__ = property(lambda self: DeliveryRecord)

    @property
    def email_flag(self) -> str:
        return self._decode().email_flag

    def __getattr__(self, name: str):
        # Python gets here when plain lookup fails: an empty slot (any
        # field but start_time) or a name no record has.
        return getattr(self._decode(), name)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self._decode(), name, value)

    def __reduce__(self):
        return line_record, (_line_of(self),)

    def to_json(self) -> str:
        return _line_of(self)

    @property
    def bounce_degree(self) -> BounceDegree:
        line = _line_of(self)
        at = line.index(_RESULTS_KEY) + len(_RESULTS_KEY)
        if _FIRST_ACCEPTED.match(line, at):
            return BounceDegree.NON_BOUNCED
        return _degree(load_json(line[at:line.index(_LATENCY_KEY, at)]))

    def _decode(self) -> DeliveryRecord:
        fields = _decoded_fields(load_json(_line_of(self)))
        _set_class(self, DeliveryRecord)
        DeliveryRecord.__init__(self, *fields)
        return self
