"""The one-pass record encoder against its oracle.

``DeliveryRecord.to_json`` builds each line itself; the contract is that
the line equals ``json.dumps(record.to_json_dict(), separators=(",", ":"))``
byte for byte, for every record, inside the schema or not.  Values
outside the schema (non-finite floats, int times, bool latencies,
non-bool ``ambiguous``, text fields that are not str) take the
``json.dumps`` path, so they are generated here too.

A line-backed record (``line_record``) must behave as the record its line
decodes to, except in speed.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.delivery.records import AttemptRecord, DeliveryRecord, line_record


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


_FIELDS = [f.name for f in dataclasses.fields(DeliveryRecord)]

_zero_attempt_records = _schema_records.map(
    lambda record: dataclasses.replace(record, attempts=[])
)


def _outcome(read):
    """What ``read()`` returns, or the type of what it raises."""
    try:
        return read()
    except Exception as exc:
        return type(exc)


def _copies(line):
    """Pickled, copied and deep-copied line-backed records of ``line``."""
    return [
        pickle.loads(pickle.dumps(line_record(line))),
        copy.copy(line_record(line)),
        copy.deepcopy(line_record(line)),
    ]


class TestLineBackedRecord:
    @given(st.one_of(_schema_records, _zero_attempt_records))
    @settings(max_examples=300, deadline=None)
    def test_behaves_as_the_record(self, record):
        line = record.to_json()
        backed = line_record(line)
        assert backed.start_time == record.start_time
        assert backed.to_json() == line
        assert _outcome(lambda: backed.bounce_degree) == _outcome(
            lambda: record.bounce_degree
        )
        for name in _FIELDS:
            assert getattr(backed, name) == getattr(record, name)
        assert backed.to_json() == line
        assert backed == record and record == backed

        untouched = line_record(line)
        assert record == untouched and untouched == record
        assert line_record(line) == line_record(line)
        for copied in _copies(line):
            assert copied == record
            assert copied.to_json() == line
        assert dataclasses.replace(
            line_record(line), email_flag="x"
        ) == dataclasses.replace(record, email_flag="x")

    @given(st.one_of(_schema_records, _zero_attempt_records),
           st.sampled_from(["email_flag", "start_time", "sender"]))
    @settings(max_examples=150, deadline=None)
    def test_assignment_before_a_read_shows_in_the_line(self, record, name):
        value = 1.5 if name == "start_time" else "changed"
        backed = line_record(record.to_json())
        setattr(backed, name, value)
        setattr(record, name, value)
        assert backed.to_json() == record.to_json()
        assert backed == record

    @given(_schema_records.filter(lambda record: record.attempts))
    @settings(max_examples=150, deadline=None)
    def test_nested_mutation_after_a_read_shows_in_the_line(self, record):
        backed = line_record(record.to_json())
        backed.attempts[0].result = "250 changed"
        record.attempts[0].result = "250 changed"
        assert backed.to_json() == record.to_json()
        assert backed.bounce_degree == record.bounce_degree

    @given(_near_schema_records())
    @settings(max_examples=400, deadline=None)
    def test_compares_as_an_eager_decode_would(self, record):
        """Outside the schema a line may hold NaN, which equals nothing,
        or values the decoder normalises (``ambiguous`` 1 becomes True).
        So the line is what the decoded record writes back, and a second
        eager decode says what ``==`` should answer."""
        line = DeliveryRecord.from_json(record.to_json()).to_json()
        eager, oracle = DeliveryRecord.from_json(line), DeliveryRecord.from_json(line)
        assert eager.to_json() == line
        backed = line_record(line)
        assert (backed.start_time == eager.start_time) == (
            oracle.start_time == eager.start_time
        )
        assert backed.to_json() == line
        assert _outcome(lambda: backed.bounce_degree) == _outcome(
            lambda: eager.bounce_degree
        )
        for name in _FIELDS:
            assert (getattr(backed, name) == getattr(eager, name)) == (
                getattr(oracle, name) == getattr(eager, name)
            )
        assert backed.to_json() == line
        same = oracle == eager
        assert (backed == eager) == same and (eager == backed) == same
        untouched = line_record(line)
        assert (eager == untouched) == same and (untouched == eager) == same
        for copied in _copies(line):
            assert (copied == eager) == same
            assert copied.to_json() == line

    def test_a_line_without_start_time_is_refused(self):
        line = _one_attempt().to_json().replace('"start_time"', '"start"')
        with pytest.raises(ValueError, match="start_time"):
            line_record(line)

    def test_simulated_records(self, dataset):
        for record in dataset.records[:2000]:
            backed = line_record(record.to_json())
            assert backed.bounce_degree == record.bounce_degree
            assert backed == record


#: Results shaped like reply lines: optional leading whitespace, up to
#: four digits (ASCII or not, or a letter O typed for a zero), a
#: separator or none, then any text.
_digits = st.lists(
    st.sampled_from(["2", "2", "5", "0", "9", "O", "٢", "２"]), max_size=4
)
_reply_like = st.builds(
    lambda lead, digits, sep, tail: lead + "".join(digits) + sep + tail,
    st.sampled_from(["", " ", "\t", "\u3000"]),
    _digits,
    st.sampled_from(["", " ", "-", "x", '"', "\\", "\n"]),
    _text,
)
_results = st.one_of(st.sampled_from(["", "200", "250 OK", "250-OK"]), _reply_like, _text)


class TestLineDegree:
    @given(st.lists(_results, min_size=1, max_size=4))
    @example(["250 OK"])
    @example(["200"])
    @example(["", "250 OK"])
    @example([" 250 OK"])
    @example(["\"250 OK"])
    @example(["２５０ OK", "451 later"])
    @example(["2O0 OK", "550 no"])
    @settings(max_examples=600, deadline=None)
    def test_degree_of_the_line_is_the_records(self, results):
        record = DeliveryRecord("a@s.cn", "b@r.com", 5.0, 5.5, "Normal", [
            AttemptRecord(5.0 + i, "10.0.0.1", "10.0.0.2", result, 5)
            for i, result in enumerate(results)
        ])
        assert line_record(record.to_json()).bounce_degree == record.bounce_degree
