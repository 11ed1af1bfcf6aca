"""The one-pass record encoder against its oracle.

``DeliveryRecord.to_json`` builds each line itself; the contract is that
the line equals ``json.dumps(record.to_json_dict(), separators=(",", ":"))``
byte for byte, for every record, inside the schema or not.  Values
outside the schema (non-finite floats, int times, bool latencies,
non-bool ``ambiguous``, text fields that are not str) take the
``json.dumps`` path, so they are generated here too.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.delivery.records import AttemptRecord, DeliveryRecord


def _oracle(record: DeliveryRecord) -> str:
    return json.dumps(record.to_json_dict(), separators=(",", ":"))


#: Quotes, backslashes, control characters, DEL, a JavaScript line
#: separator, and non-ASCII and non-BMP characters, mixed with anything.
_tricky = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "é", "中", "😀", "\U0010ffff"]
)
_text = st.text(alphabet=st.one_of(_tricky, st.characters()), max_size=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_zeros = st.sampled_from([0.0, -0.0])


def _attempts(t, latency, truth_type, ambiguous, text):
    return st.builds(
        AttemptRecord,
        t=t,
        from_ip=text,
        to_ip=st.one_of(st.just(""), text),
        result=text,
        latency_ms=latency,
        truth_type=truth_type,
        ambiguous=ambiguous,
    )


def _records(times, spam, latency, truth_type, ambiguous, text, tags):
    return st.builds(
        DeliveryRecord,
        sender=text,
        receiver=text,
        start_time=times,
        end_time=times,
        email_flag=text,
        attempts=st.lists(
            _attempts(times, latency, truth_type, ambiguous, text), max_size=5
        ),
        truth_tags=tags,
        truth_spamminess=spam,
    )


#: Records whose every value has its schema type: finite float times and
#: spamminess, int latencies, bool ``ambiguous``, str text.
_schema_records = _records(
    times=st.one_of(_finite, _zeros),
    spam=st.one_of(_finite, _zeros),
    latency=st.integers(min_value=-(2**70), max_value=2**70),
    truth_type=st.one_of(st.none(), _text),
    ambiguous=st.booleans(),
    text=_text,
    tags=st.lists(_text, max_size=3).map(tuple),
)

#: Values outside the schema, per field (finite floats may come up too).
_RECORD_OUTSIDE = {
    "start_time": st.one_of(st.floats(), st.integers()),
    "end_time": st.one_of(st.floats(), st.integers()),
    "truth_spamminess": st.one_of(st.floats(), st.integers()),
    "sender": st.one_of(st.none(), st.integers()),
    "receiver": st.one_of(st.none(), st.integers()),
    "email_flag": st.one_of(st.none(), st.booleans()),
    "truth_tags": st.lists(st.one_of(_text, st.none()), min_size=1).map(tuple),
}
_ATTEMPT_OUTSIDE = {
    "t": st.one_of(st.floats(), st.integers()),
    "latency_ms": st.one_of(st.booleans(), st.floats(), st.none()),
    "ambiguous": st.one_of(st.integers(0, 2), st.none(), _text),
    "truth_type": st.one_of(st.booleans(), st.integers()),
    "from_ip": st.one_of(st.none(), st.integers()),
    "to_ip": st.one_of(st.none(), st.integers()),
    "result": st.one_of(st.none(), st.integers()),
}


@st.composite
def _near_schema_records(draw):
    """A schema record with one value swapped for one outside the schema."""
    record = draw(_schema_records)
    if record.attempts and draw(st.booleans()):
        owner = draw(st.sampled_from(record.attempts))
        name = draw(st.sampled_from(sorted(_ATTEMPT_OUTSIDE)))
        value = draw(_ATTEMPT_OUTSIDE[name])
    else:
        owner = record
        name = draw(st.sampled_from(sorted(_RECORD_OUTSIDE)))
        value = draw(_RECORD_OUTSIDE[name])
    setattr(owner, name, value)
    return record


def _one_attempt(**changes) -> DeliveryRecord:
    attempt = AttemptRecord(5.0, "10.0.0.1", "10.0.0.2", "250 OK", 5)
    record = DeliveryRecord("a@s.cn", "b@r.com", 5.0, 5.005, "Normal", [attempt])
    for name, value in changes.items():
        setattr(attempt if hasattr(attempt, name) else record, name, value)
    return record


class TestEncoderOracle:
    @given(st.one_of(_schema_records, _near_schema_records()))
    @settings(max_examples=800, deadline=None)
    def test_line_equals_json_dumps(self, record):
        assert record.to_json() == _oracle(record)

    @pytest.mark.parametrize(
        "changes, fragment",
        [
            ({"start_time": float("nan")}, '"start_time":NaN,'),
            ({"end_time": float("-inf")}, '"end_time":-Infinity,'),
            ({"truth_spamminess": float("inf")}, '"truth_spamminess":Infinity,'),
            ({"t": 5}, '"attempt_times":[5]}'),
            ({"latency_ms": True}, '"delivery_latency":[true],'),
            ({"ambiguous": 1}, '"truth_ambiguous":[1],'),
            ({"ambiguous": None}, '"truth_ambiguous":[null],'),
            ({"truth_type": False}, '"truth_types":[false],'),
            ({"sender": None}, '{"from":null,'),
            ({"to_ip": 7}, '"to_ip":[7],'),
            ({"truth_tags": ("x", None)}, '"truth_tags":["x",null],'),
        ],
    )
    def test_values_outside_schema(self, changes, fragment):
        record = _one_attempt(**changes)
        line = record.to_json()
        assert line == _oracle(record)
        assert fragment in line

    @given(_schema_records)
    @settings(max_examples=400, deadline=None)
    def test_schema_records_round_trip(self, record):
        line = record.to_json()
        assert line == _oracle(record)
        assert line.isascii()
        assert DeliveryRecord.from_json(line) == record

    def test_negative_zero_start_does_not_lend_its_text(self):
        # 0.0 == -0.0, yet their reprs differ: the first attempt time must
        # not reuse the start_time text.
        attempt = AttemptRecord(0.0, "10.0.0.1", "10.0.0.2", "250 OK", 5)
        record = DeliveryRecord("a@s.cn", "b@r.com", -0.0, 0.005, "Normal", [attempt])
        line = record.to_json()
        assert line == _oracle(record)
        assert '"start_time":-0.0,' in line
        assert line.endswith('"attempt_times":[0.0]}')

    def test_simulated_records(self, dataset):
        for record in dataset:
            assert record.to_json() == _oracle(record)
