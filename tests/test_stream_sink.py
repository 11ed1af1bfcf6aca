"""Tests for sharded delivery-log storage (repro.stream.sink)."""

import gzip
import json
import re

import pytest

from repro.delivery.dataset import DeliveryDataset
from repro.stream.sink import (
    MANIFEST_NAME,
    ShardDecodeError,
    ShardIntegrityError,
    ShardManifest,
    ShardReader,
    ShardWriter,
    iter_delivery_log,
)


@pytest.fixture(scope="module")
def records(dataset):
    return dataset.records[:500]


def _write(records, directory, **kwargs):
    with ShardWriter(directory, **kwargs) as writer:
        writer.write_all(records)
    return writer.manifest


class TestShardWriter:
    def test_rotates_shards(self, records, tmp_path):
        manifest = _write(records, tmp_path, shard_size=150)
        assert [s.n_records for s in manifest.shards] == [150, 150, 150, 50]
        assert manifest.n_records == 500
        names = sorted(p.name for p in tmp_path.glob("*.jsonl"))
        assert names == [s.name for s in manifest.shards]
        assert (tmp_path / MANIFEST_NAME).exists()

    def test_manifest_time_ranges_cover_records(self, records, tmp_path):
        manifest = _write(records, tmp_path, shard_size=200)
        starts = [r.start_time for r in records]
        assert manifest.t_min == min(starts)
        assert manifest.t_max == max(starts)
        for info, lo in zip(manifest.shards, range(0, 500, 200)):
            chunk = starts[lo:lo + 200]
            assert info.t_min == min(chunk)
            assert info.t_max == max(chunk)

    def test_empty_stream_writes_empty_manifest(self, tmp_path):
        manifest = _write([], tmp_path)
        assert manifest.shards == []
        assert manifest.n_records == 0
        assert manifest.t_min is None
        reader = ShardReader(tmp_path)
        assert list(reader) == []

    def test_write_after_close_raises(self, records, tmp_path):
        writer = ShardWriter(tmp_path)
        writer.close()
        with pytest.raises(RuntimeError):
            writer.write(records[0])

    def test_close_is_idempotent(self, records, tmp_path):
        writer = ShardWriter(tmp_path)
        writer.write(records[0])
        first = writer.close()
        assert writer.close() is first


class TestRoundTrip:
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_shard_round_trip(self, records, tmp_path, compress):
        _write(records, tmp_path, shard_size=120, compress=compress)
        reader = ShardReader(tmp_path)
        assert len(reader) == len(records)
        back = list(reader.iter_records(verify=True))
        assert [r.to_json() for r in back] == [r.to_json() for r in records]

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"], ids=["plain", "gzip"])
    def test_write_jsonl_then_stream_read(self, records, tmp_path, suffix):
        """DeliveryDataset.write_jsonl output is readable by the streaming
        log reader — one interchange format across batch and stream."""
        path = tmp_path / f"log{suffix}"
        DeliveryDataset(list(records)).write_jsonl(path)
        back = list(iter_delivery_log(path))
        assert [r.to_json() for r in back] == [r.to_json() for r in records]

    def test_shard_dir_read_matches_dataset_read(self, records, tmp_path):
        """Sharded and single-file persistence agree record for record."""
        single = tmp_path / "single.jsonl"
        DeliveryDataset(list(records)).write_jsonl(single)
        shard_dir = tmp_path / "shards"
        _write(records, shard_dir, shard_size=75)
        a = [r.to_json() for r in DeliveryDataset.read_jsonl(single)]
        b = [r.to_json() for r in iter_delivery_log(shard_dir)]
        assert a == b

    def test_gzip_shards_actually_compressed(self, records, tmp_path):
        manifest = _write(records, tmp_path, shard_size=1000, compress=True)
        assert manifest.compression == "gzip"
        path = tmp_path / manifest.shards[0].name
        assert path.suffix == ".gz"
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            line = fh.readline()
        assert json.loads(line)["from"]


class TestIntegrity:
    def test_verify_passes_on_clean_shards(self, records, tmp_path):
        _write(records, tmp_path, shard_size=250)
        ShardReader(tmp_path).verify()

    def test_corrupted_shard_detected(self, records, tmp_path):
        manifest = _write(records, tmp_path, shard_size=250)
        victim = tmp_path / manifest.shards[1].name
        text = victim.read_text(encoding="utf-8")
        victim.write_text(text.replace("@", "#", 1), encoding="utf-8")
        reader = ShardReader(tmp_path)
        with pytest.raises(ShardIntegrityError, match="checksum"):
            reader.verify()
        # unverified reads still work
        assert len(list(reader.iter_records())) == len(records)

    @staticmethod
    def _crlf_first_line(path):
        """Rewrite the first line end of ``path`` (plain or gzip) as CRLF."""
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rb") as fh:
            payload = fh.read()
        with opener(path, "wb") as fh:
            fh.write(payload.replace(b"\n", b"\r\n", 1))

    @pytest.mark.parametrize("compress", [False, True])
    def test_rewritten_line_end_detected(self, records, tmp_path, compress):
        # Text-mode reads translate CRLF back to LF, so verification
        # must hash the bytes on disk, not decoded lines.
        manifest = _write(records, tmp_path, shard_size=250, compress=compress)
        victim = tmp_path / manifest.shards[1].name
        self._crlf_first_line(victim)
        reader = ShardReader(tmp_path)
        with pytest.raises(ShardIntegrityError,
                           match=re.escape(f"shard {victim}: payload")):
            reader.verify()
        # unverified reads still yield every record
        assert [r.to_json() for r in reader.iter_records()] == [
            r.to_json() for r in records
        ]

    def test_rewritten_line_end_fails_the_parallel_merge(self, tmp_path):
        from repro.parallel import run_parallel_simulation
        from repro.parallel.worker import slice_dir
        from repro.world.config import SimulationConfig

        config = SimulationConfig(scale=0.005, seed=3)
        with run_parallel_simulation(config, 2, shard_root=tmp_path) as run:
            directory = slice_dir(tmp_path, run.slices[-1].index)
            victim = directory / ShardReader(directory).manifest.shards[0].name
            self._crlf_first_line(victim)
            with pytest.raises(ShardIntegrityError,
                               match=re.escape(f"shard {victim}: payload")):
                list(run.iter_records())

    def test_checksums_are_payload_level(self, records, tmp_path):
        """Same records -> same checksums, even for gzip (whose file bytes
        embed timestamps)."""
        m1 = _write(records, tmp_path / "a", shard_size=200, compress=True)
        m2 = _write(records, tmp_path / "b", shard_size=200, compress=True)
        assert [s.sha256 for s in m1.shards] == [s.sha256 for s in m2.shards]


class TestCrashSafety:
    def test_exception_in_with_body_writes_no_manifest(self, records, tmp_path):
        """A crashed producer must not leave a manifest claiming the
        directory is complete (regression: __exit__ used to finalise
        unconditionally)."""
        with pytest.raises(RuntimeError, match="boom"):
            with ShardWriter(tmp_path, shard_size=100) as writer:
                writer.write_all(records[:150])
                raise RuntimeError("boom")
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert writer.manifest is None
        # the shards written so far stay on disk for salvage
        assert list(tmp_path.glob("shard-*.jsonl"))

    def test_abort_then_write_raises(self, records, tmp_path):
        writer = ShardWriter(tmp_path)
        writer.write(records[0])
        writer.abort()
        with pytest.raises(RuntimeError):
            writer.write(records[1])

    def test_manifest_save_leaves_no_temp_files(self, records, tmp_path):
        manifest = _write(records[:20], tmp_path)
        assert not list(tmp_path.glob("*.tmp"))
        assert ShardManifest.load(tmp_path) == manifest

    def test_decode_error_names_shard_and_record(self, records, tmp_path):
        _write(records[:100], tmp_path, shard_size=50)
        victim = tmp_path / "shard-00001.jsonl"
        with victim.open("a", encoding="utf-8") as fh:
            fh.write('{"torn": \n')
        reader = ShardReader(tmp_path)
        with pytest.raises(
            ShardDecodeError, match=r"shard-00001\.jsonl: record 51"
        ):
            list(reader.iter_records())
        with pytest.raises(ShardDecodeError, match="recover_shards"):
            list(reader.iter_records())

    @pytest.mark.parametrize("field, extra", [("to_ip", -1), ("from_ip", 1)])
    def test_mismatched_attempt_arrays_raise_decode_error(
        self, records, tmp_path, field, extra
    ):
        """A per-attempt array one short or one long is a typed decode
        error, not an IndexError or a silent truncation."""
        _write(records[:3], tmp_path)
        shard = tmp_path / "shard-00000.jsonl"
        lines = shard.read_text(encoding="utf-8").splitlines()
        data = json.loads(lines[1])
        values = data[field]
        data[field] = values[:extra] if extra < 0 else values + values[:1] * extra
        lines[1] = json.dumps(data)
        shard.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            ShardDecodeError, match=r"shard-00000\.jsonl: record 2: .*ValueError"
        ):
            list(ShardReader(tmp_path).iter_records())


class TestTimeFiltering:
    def test_time_filter_matches_brute_force(self, records, tmp_path):
        _write(records, tmp_path, shard_size=60)
        reader = ShardReader(tmp_path)
        starts = sorted(r.start_time for r in records)
        lo, hi = starts[len(starts) // 4], starts[3 * len(starts) // 4]
        got = [r.to_json() for r in reader.iter_records(t_min=lo, t_max=hi)]
        want = [r.to_json() for r in records if lo <= r.start_time <= hi]
        assert got == want

    def test_manifest_reload_round_trip(self, records, tmp_path):
        manifest = _write(records, tmp_path, shard_size=100)
        loaded = ShardManifest.load(tmp_path)
        assert loaded == manifest


class TestMultiShardReader:
    """Reading several shard directories as one log — the parallel
    runtime's merge substrate."""

    @pytest.fixture()
    def three_dirs(self, records, tmp_path):
        """Records split into three directories by round-robin (so the
        time ranges interleave and 'time' order actually has to merge)."""
        parts = [records[0::3], records[1::3], records[2::3]]
        dirs = []
        for i, part in enumerate(parts):
            d = tmp_path / f"slice-{i}"
            _write(part, d, shard_size=60)
            dirs.append(d)
        return dirs, parts

    def test_concat_order_is_directory_order(self, three_dirs):
        from repro.stream.sink import MultiShardReader

        dirs, parts = three_dirs
        reader = MultiShardReader(dirs)
        got = [r.message_id for r in reader.iter_records()]
        want = [r.message_id for part in parts for r in part]
        assert got == want
        assert reader.n_records == len(want)
        assert len(reader) == len(want)

    def test_time_order_is_stable_merge(self, three_dirs, records):
        from repro.stream.sink import MultiShardReader

        dirs, parts = three_dirs
        got = list(MultiShardReader(dirs, order="time").iter_records())
        # A stable merge by start_time over directory order == sorting the
        # concatenation with the directory index as the tiebreaker.
        decorated = [
            (r.start_time, i, j, r)
            for i, part in enumerate(parts)
            for j, r in enumerate(part)
        ]
        want = [r for _, _, _, r in sorted(decorated, key=lambda x: x[:3])]
        assert [r.message_id for r in got] == [r.message_id for r in want]
        times = [r.start_time for r in got]
        assert times == sorted(times)

    def test_time_range_spans_directories(self, three_dirs, records):
        from repro.stream.sink import MultiShardReader

        dirs, _ = three_dirs
        reader = MultiShardReader(dirs, order="time")
        starts = [r.start_time for r in records]
        assert reader.t_min == min(starts)
        assert reader.t_max == max(starts)

    def test_time_filter_matches_brute_force(self, three_dirs, records):
        from repro.stream.sink import MultiShardReader

        dirs, _ = three_dirs
        starts = sorted(r.start_time for r in records)
        lo, hi = starts[len(starts) // 4], starts[3 * len(starts) // 4]
        got = list(
            MultiShardReader(dirs, order="time").iter_records(t_min=lo, t_max=hi)
        )
        want = [r for r in records if lo <= r.start_time <= hi]
        assert {r.message_id for r in got} == {r.message_id for r in want}

    def test_verify_detects_corruption_in_any_directory(self, three_dirs):
        from repro.stream.sink import MultiShardReader

        dirs, _ = three_dirs
        reader = MultiShardReader(dirs)
        reader.verify()  # clean read first
        victim = next((dirs[1]).glob("*.jsonl"))
        victim.write_text(
            victim.read_text(encoding="utf-8").replace("@", "#", 1),
            encoding="utf-8",
        )
        with pytest.raises(ShardIntegrityError):
            MultiShardReader(dirs).verify()
        with pytest.raises(ShardIntegrityError):
            list(MultiShardReader(dirs, order="time").iter_records(verify=True))
        for order in ("concat", "time"):  # verified by default
            with pytest.raises(ShardIntegrityError, match="checksum mismatch"):
                list(MultiShardReader(dirs, order=order).iter_records())

    @pytest.mark.parametrize("order", ["concat", "time"])
    def test_records_are_line_backed(self, three_dirs, monkeypatch, order):
        from repro.delivery import records as records_module
        from repro.stream.sink import MultiShardReader

        def refuse(data):
            raise AssertionError("a line was decoded")

        dirs, parts = three_dirs
        monkeypatch.setattr(records_module, "_decoded_fields", refuse)
        got = list(MultiShardReader(dirs, order=order).iter_records())
        assert sorted(r.to_json() for r in got) == sorted(
            r.to_json() for part in parts for r in part
        )
        with pytest.raises(AssertionError, match="decoded"):
            got[0].sender

    def test_rejects_bad_order_and_empty_dirs(self, three_dirs):
        from repro.stream.sink import MultiShardReader

        dirs, _ = three_dirs
        with pytest.raises(ValueError):
            MultiShardReader(dirs, order="shuffled")
        with pytest.raises(ValueError):
            MultiShardReader([])
