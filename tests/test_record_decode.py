"""Every way of reading a log line gives ``json.loads``'s verdict on it.

``DeliveryRecord.from_json``, line-backed records, ``iter_ndjson_records``,
``ShardReader`` and ``recover_shards`` read lines through one decoder.
For each line below — spaced, carriage-returned, BOM-prefixed, torn,
trailing garbage, not an object, non-finite times — every reader must
give the record that ``json.loads`` followed by ``from_json_dict`` gives,
or the exception class and message pinned here, which are those of a
decode through ``json.loads``.
"""

import json

import pytest

from repro.delivery.dataset import RecordDecodeError, iter_ndjson_records
from repro.delivery.records import AttemptRecord, DeliveryRecord, line_record
from repro.stream.sink import ShardDecodeError, ShardReader, ShardWriter, recover_shards

_RECORD = DeliveryRecord(
    "a@s.cn", "b@r.com", 5.0, 5.005, "Normal",
    [AttemptRecord(5.0, "10.0.0.1", "10.0.0.2", "550 5.1.1 user unknown", 5)],
)
_LINE = _RECORD.to_json()

_JSON = "JSONDecodeError"
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_EXTRA = "Extra data: line 1 column 309 (char 308)"
_ZIP = "zip() argument 3 is shorter than arguments 1-2"

#: name -> (line,
#:          outcome of from_json(line),
#:          outcome of from_json(line.strip()), which ShardReader reports,
#:          iter_ndjson_records's reason,
#:          recover_shards's (kept, dropped) over the line and a good line).
#: An outcome of None is a record equal to the json.loads decode.
CASES = {
    "plain": (_LINE, None, None, None, (2, 0)),
    "leading space": (" " + _LINE, None, None, None, (2, 0)),
    "trailing spaces": (_LINE + "  ", None, None, None, (2, 0)),
    "trailing CR": (_LINE + "\r", None, None, None, (2, 0)),
    # The file holds the line, "\r", "\n" and then the line's own "\n":
    # recovery reads the empty line between them as the torn tail.
    "tab and CRLF": ("\t" + _LINE + "\r\n", None, None, None, (1, 2)),
    # str.strip() removes a no-break space; JSON whitespace does not.
    "no-break space": (
        "\xa0" + _LINE,
        (_JSON, "Expecting value: line 1 column 1 (char 0)"), None, None, (0, 2),
    ),
    "BOM": (
        "\ufeff" + _LINE,
        (_JSON, f"{_BOM}: line 1 column 1 (char 0)"),
        (_JSON, f"{_BOM}: line 1 column 1 (char 0)"),
        f"invalid JSON ({_BOM})",
        (0, 2),
    ),
    "trailing garbage": (
        _LINE + "x", (_JSON, _EXTRA), (_JSON, _EXTRA), "invalid JSON (Extra data)", (0, 2),
    ),
    "two objects": (
        _LINE + _LINE, (_JSON, _EXTRA), (_JSON, _EXTRA), "invalid JSON (Extra data)", (0, 2),
    ),
    "truncated": (
        _LINE[:60],
        (_JSON, "Expecting value: line 1 column 61 (char 60)"),
        (_JSON, "Expecting value: line 1 column 61 (char 60)"),
        "invalid JSON (Expecting value)",
        (0, 2),
    ),
    "invalid escape": (
        _LINE.replace('"a@s.cn"', '"a\\q"'),
        (_JSON, "Invalid \\escape: line 1 column 11 (char 10)"),
        (_JSON, "Invalid \\escape: line 1 column 11 (char 10)"),
        "invalid JSON (Invalid \\escape)",
        (0, 2),
    ),
    "empty array": (
        "[]",
        ("TypeError", "list indices must be integers or slices, not str"),
        ("TypeError", "list indices must be integers or slices, not str"),
        "expected a JSON object, got list",
        (0, 2),
    ),
    "bare number": (
        "5",
        ("TypeError", "'int' object is not subscriptable"),
        ("TypeError", "'int' object is not subscriptable"),
        "expected a JSON object, got int",
        (0, 2),
    ),
    "null": (
        "null",
        ("TypeError", "'NoneType' object is not subscriptable"),
        ("TypeError", "'NoneType' object is not subscriptable"),
        "expected a JSON object, got NoneType",
        (0, 2),
    ),
    # Blank lines: readers skip them; recovery reads one as the torn tail.
    "empty": ("", (_JSON, "Expecting value: line 1 column 1 (char 0)"), None, None, (0, 2)),
    "blank": ("   ", (_JSON, "Expecting value: line 1 column 4 (char 3)"), None, None, (0, 2)),
    "missing key": (
        _LINE.replace('"from":"a@s.cn",', ""),
        ("KeyError", "'from'"),
        ("KeyError", "'from'"),
        "not a delivery record (KeyError: 'from')",
        (0, 2),
    ),
    "short array": (
        _LINE.replace('"to_ip":["10.0.0.2"]', '"to_ip":[]'),
        ("ValueError", _ZIP),
        ("ValueError", _ZIP),
        f"not a delivery record (ValueError: {_ZIP})",
        (0, 2),
    ),
    "NaN start": (_LINE.replace('"start_time":5.0', '"start_time":NaN'), None, None, None, (2, 0)),
    "Infinity end": (
        _LINE.replace('"end_time":5.005', '"end_time":Infinity'), None, None, None, (2, 0),
    ),
    "-Infinity attempt": (
        _LINE.replace('"attempt_times":[5.0]', '"attempt_times":[-Infinity]'),
        None, None, None, (2, 0),
    ),
    "int start": (_LINE.replace('"start_time":5.0', '"start_time":5'), None, None, None, (2, 0)),
}


def _outcome(decode):
    """``repr`` of what ``decode()`` returns, or its exception's class
    name and message.  ``repr`` tells NaN, ints and floats apart."""
    try:
        return repr(decode())
    except Exception as exc:  # noqa: BLE001 - the outcome is the exception
        return exc.__class__.__name__, str(exc)


def _oracle(line: str):
    return _outcome(lambda: DeliveryRecord.from_json_dict(json.loads(line)))


def _expected(line: str, pinned):
    if pinned is None:
        return _oracle(line)
    assert _oracle(line) == pinned  # the pin is json.loads's verdict
    return pinned


def _shard_dir(root, line: str):
    """A one-shard directory whose shard holds ``line`` and a newline
    (read unverified, so the manifest's checksum does not matter)."""
    with ShardWriter(root, shard_size=10) as writer:
        writer.write(_RECORD)
    (root / "shard-00000.jsonl").write_bytes(line.encode("utf-8") + b"\n")
    return root


@pytest.mark.parametrize("name", sorted(CASES))
class TestDecodeParity:
    def test_from_json(self, name):
        line, pinned, _, _, _ = CASES[name]
        assert _outcome(lambda: DeliveryRecord.from_json(line)) == _expected(line, pinned)

    def test_line_record_decodes_as_from_json(self, name):
        line = CASES[name][0]
        try:
            record = line_record(line)
        except ValueError:
            return  # no start_time to read: the record is never made
        assert _outcome(lambda: record) == _outcome(lambda: DeliveryRecord.from_json(line))

    def test_iter_ndjson_records(self, name):
        line, _, stripped, reason, _ = CASES[name]
        got = _outcome(lambda: list(iter_ndjson_records([line], source="log")))
        if reason is not None:
            assert got == (RecordDecodeError.__name__, f"log: line 1: {reason}")
        elif line.strip():
            assert stripped is None
            assert got == repr([DeliveryRecord.from_json_dict(json.loads(line.strip()))])
        else:
            assert got == "[]"

    def test_shard_reader(self, name, tmp_path):
        line, _, stripped, _, _ = CASES[name]
        directory = _shard_dir(tmp_path / "shards", line)
        got = _outcome(lambda: list(ShardReader(directory).iter_records()))
        if stripped is not None:
            cls, message = _expected(line.strip(), stripped)
            assert got == (
                ShardDecodeError.__name__,
                f"{directory / 'shard-00000.jsonl'}: record 1: undecodable line "
                f"({cls}: {message}); if the producing run crashed mid-write, "
                f"repro.stream.sink.recover_shards() can salvage the directory",
            )
        elif line.strip():
            assert got == repr([DeliveryRecord.from_json_dict(json.loads(line.strip()))])
        else:
            assert got == "[]"

    def test_recover_shards(self, name, tmp_path):
        line, _, _, _, kept_dropped = CASES[name]
        tmp_path.joinpath("shard-00000.jsonl").write_bytes(
            line.encode("utf-8") + b"\n" + _LINE.encode("utf-8") + b"\n"
        )
        report = recover_shards(tmp_path)
        assert (report.n_records, report.n_dropped_lines) == kept_dropped


def test_from_json_reads_bytes_as_json_loads_does():
    assert DeliveryRecord.from_json(_LINE.encode("utf-8")) == _RECORD

