"""The streaming table suite against its batch oracles.

Three layers of equivalence, each asserted byte-for-byte where the PR's
contract demands it:

* ``TableSuite.tables()`` equals :func:`repro.analytics.batch.batch_tables`
  over the same records — including after splitting the stream into
  worker partials and merging snapshots back in any grouping;
* every world-dependent twin (rankings, detectors, root causes,
  misconfig durations, squatting) equals its :mod:`repro.analysis`
  reference implementation;
* the surfaced paths — ``repro report`` (file / stdin / shards /
  ``--batch``), ``repro watch --report-every``, and the serve daemon's
  ``/observe`` -> ``GET /report`` loop — all emit that same payload.
"""

import io
import json
import math
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from repro.analysis.blocklist import (
    blocklist_recovery_rate,
    dnsbl_adoption_counts,
    filter_divergence,
    greylisting_domains,
    t5_daily_counts,
)
from repro.analysis.malicious import detect_bulk_spammers, detect_guessing_campaigns
from repro.analysis.misconfig import (
    auth_error_durations,
    mx_error_durations,
    quota_error_durations,
)
from repro.analysis.rankings import (
    table3_top_domains,
    table4_top_ases,
    table5_countries,
)
from repro.analysis.rootcause import attribute_root_causes
from repro.analysis.squatting import (
    persistently_vulnerable_fraction,
    squatting_report,
    weekly_vulnerable_series,
)
from repro.analysis.typos import detect_domain_typos, detect_username_typos
from repro.analytics import SnapshotError, TableSuite, TopK
from repro.analytics.batch import batch_tables
from repro.analytics.render import render_report
from repro.cli import main
from repro.delivery.records import AttemptRecord, DeliveryRecord
from repro.util.clock import DAY_SECONDS, SimClock

TOP = 10


@pytest.fixture(scope="module")
def suite(dataset, clock):
    s = TableSuite(clock)
    assert s.observe_many(dataset) == len(dataset)
    return s


@pytest.fixture(scope="module")
def payload(suite):
    return suite.tables(TOP)


@pytest.fixture(scope="module")
def batch_payload(dataset, clock):
    return batch_tables(dataset, clock, top=TOP)


@pytest.fixture(scope="module")
def probe_time(clock):
    return clock.end_ts + 30 * 86_400


@pytest.fixture(scope="module")
def saved_log(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("analytics") / "log.jsonl"
    dataset.write_jsonl(path)
    return path


@pytest.fixture(scope="module")
def shard_dirs(tmp_path_factory, dataset):
    """The session corpus split across two shard directories."""
    from repro.stream.sink import ShardWriter

    root = tmp_path_factory.mktemp("analytics-shards")
    half = len(dataset) // 2
    dirs = []
    for i, chunk in enumerate((list(dataset)[:half], list(dataset)[half:])):
        directory = root / f"part-{i}"
        with ShardWriter(directory, shard_size=4000) as writer:
            for record in chunk:
                writer.write(record)
        dirs.append(directory)
    return dirs


class TestByteIdentity:
    def test_streaming_equals_batch(self, payload, batch_payload):
        assert payload == batch_payload
        # exact float equality at the representation level, not just ==
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            batch_payload, sort_keys=True)

    def test_render_is_byte_identical(self, payload, batch_payload):
        assert render_report(payload, TOP) == render_report(batch_payload, TOP)

    @pytest.mark.parametrize("ways", [2, 4])
    def test_split_stream_partials_merge_identically(
        self, dataset, clock, payload, ways
    ):
        partials = [TableSuite(clock) for _ in range(ways)]
        for i, record in enumerate(dataset):
            partials[i % ways].observe(record)
        merged = partials[0]
        for part in partials[1:]:
            merged.merge(part)
        assert merged.tables(TOP) == payload

    def test_worker_snapshot_fold_is_byte_identical(
        self, dataset, clock, suite, payload
    ):
        """The parallel-runner path: partials travel as JSON snapshots and
        fold into a fresh parent suite."""
        half = len(dataset) // 2
        snapshots = [
            TableSuite.from_records(chunk, clock).snapshot()
            for chunk in (list(dataset)[:half], list(dataset)[half:])
        ]
        parent = TableSuite(clock)
        for snap in snapshots:
            parent.merge_snapshot(json.loads(json.dumps(snap)))
        assert parent.n_records == suite.n_records
        assert parent.tables(TOP) == payload

    def test_snapshot_json_roundtrip(self, suite, payload):
        wire = json.dumps(suite.snapshot())
        restored = TableSuite.from_snapshot(json.loads(wire))
        assert restored.tables(TOP) == payload
        assert json.dumps(restored.snapshot()) == wire


class TestSuiteValidation:
    def test_merge_rejects_clock_mismatch(self, clock):
        from datetime import timedelta

        from repro.util.clock import SimClock

        a = TableSuite(clock)
        b = TableSuite(SimClock(clock.start, clock.end + timedelta(days=1)))
        with pytest.raises(SnapshotError, match="clock window"):
            a.merge(b)

    def test_merge_rejects_provider_mismatch(self, clock):
        a = TableSuite(clock)
        b = TableSuite(clock, providers=("example.com",))
        with pytest.raises(SnapshotError, match="providers"):
            a.merge(b)

    def test_from_snapshot_rejects_wrong_kind(self):
        with pytest.raises(SnapshotError, match="not a table_suite"):
            TableSuite.from_snapshot({"kind": "scalar_stat", "v": 1})

    def test_from_snapshot_rejects_future_version(self, clock):
        snap = TableSuite(clock).snapshot()
        snap["v"] = snap["v"] + 1
        with pytest.raises(SnapshotError, match="cannot restore"):
            TableSuite.from_snapshot(snap)

    def test_from_snapshot_rejects_missing_accumulator(self, clock):
        snap = TableSuite(clock).snapshot()
        del snap["acc"]["totals"]
        with pytest.raises(SnapshotError, match="missing accumulator"):
            TableSuite.from_snapshot(snap)

    def test_record_without_attempts_raises(self, dataset, clock):
        record = replace(dataset.records[0], attempts=[])
        suite = TableSuite(clock)
        with pytest.raises(ValueError, match="no attempts"):
            suite.observe(record)
        assert suite.n_records == 0


def _delivered_at(t: float) -> DeliveryRecord:
    return DeliveryRecord(
        sender="a@sender.example", receiver="b@receiver.example",
        start_time=t, end_time=t, email_flag="Normal",
        attempts=[AttemptRecord(t, "192.0.2.1", "198.51.100.1", "250 OK", 10)],
    )


class TestFusedIngest:
    def test_heavy_hitters_are_the_exact_volume_top(self, suite):
        live = suite.live_payload(TOP)["heavy_hitters"]
        a = suite._acc
        for side, counter in (("senders", "sd_volume"), ("receivers", "rd_volume")):
            assert live[side]["exact"] is True
            assert live[side]["top"] == [
                [key, n, 0] for key, n in a[counter].top(TOP)
            ]

    def test_v1_snapshot_with_topk_entries_restores_and_merges(
        self, dataset, clock, payload
    ):
        """Snapshots from builds that still kept TopK heavy hitters carry
        ``top_senders``/``top_receivers``; they restore and merge to the
        same tables."""
        half = len(dataset) // 2
        old_snapshots = []
        for chunk in (list(dataset)[:half], list(dataset)[half:]):
            snap = TableSuite.from_records(chunk, clock).snapshot()
            for name, side in (("top_senders", "sender"), ("top_receivers", "receiver")):
                topk = TopK(50)
                for record in chunk:
                    topk.observe(getattr(record, f"{side}_domain"))
                snap["acc"][name] = topk.snapshot()
            assert snap["v"] == 1
            old_snapshots.append(json.loads(json.dumps(snap)))
        parent = TableSuite(clock)
        for snap in old_snapshots:
            parent.merge_snapshot(snap)
        assert parent.tables(TOP) == payload
        restored = TableSuite.from_snapshot(old_snapshots[0])
        assert "top_senders" not in restored.snapshot()["acc"]

    def test_month_keys_across_a_month_edge(self):
        clock = SimClock()
        edge = datetime(2022, 7, 1, tzinfo=timezone.utc).timestamp()
        # 23:59:59, midnight, the last float before midnight (which
        # month_key rounds up into July) and 23:59:59 of July 1st.
        times = [edge - 1.0, edge, math.nextafter(edge, 0.0),
                 edge + DAY_SECONDS - 1.0]
        suite = TableSuite(clock)
        for t in times:
            suite.observe(_delivered_at(t))
        expected = Counter(clock.month_key(t) for t in times)
        assert expected == {"2022-06": 1, "2022-07": 3}
        monthly = dict(suite.tables(TOP)["volume"]["monthly"])
        assert {k: n for k, n in monthly.items() if n} == expected


class TestWorldTwins:
    """Every world-dependent computation equals its batch reference."""

    def test_table3(self, suite, labeled):
        assert suite.table3(TOP) == table3_top_domains(labeled, top=TOP)

    def test_table4(self, suite, labeled, world):
        assert suite.table4(world.geo, TOP) == table4_top_ases(
            labeled, world.geo, top=TOP)

    def test_table5(self, suite, labeled, world):
        assert suite.table5(world.geo) == table5_countries(labeled, world.geo)

    def test_guessing_campaigns(self, suite, labeled):
        assert suite.guessing_campaigns() == detect_guessing_campaigns(labeled)

    def test_bulk_spammers(self, suite, dataset, world):
        assert suite.bulk_spammers(world.breach) == detect_bulk_spammers(
            dataset, world.breach)

    def test_domain_typos(self, suite, labeled, world, probe_time):
        assert suite.domain_typos(world.resolver, probe_time) == \
            detect_domain_typos(labeled, world.resolver, probe_time)

    def test_username_typos(self, suite, labeled):
        assert suite.username_typos() == detect_username_typos(labeled)

    def test_type_distribution(self, suite, labeled):
        assert suite.type_distribution() == labeled.type_distribution()

    def test_root_causes(self, suite, labeled, world, probe_time):
        ours = suite.root_causes(world.breach, world.resolver, probe_time)
        reference = attribute_root_causes(
            labeled, world.breach, world.resolver, probe_time)
        assert ours == reference

    @pytest.mark.parametrize("pair", [
        ("auth_durations", auth_error_durations),
        ("mx_durations", mx_error_durations),
        ("quota_durations", quota_error_durations),
    ], ids=lambda p: p[0] if isinstance(p, tuple) else p)
    def test_misconfig_durations(self, suite, labeled, clock, pair):
        name, reference = pair
        ours = getattr(suite, name)()
        expected = reference(labeled, clock)

        def key(report):
            return sorted(
                (e.entity, e.start, e.end, e.n_bounces, e.censored)
                for e in report.episodes
            )

        assert key(ours) == key(expected)

    def test_t5_daily_counts(self, suite, labeled, clock):
        assert suite.t5_daily_counts() == t5_daily_counts(labeled, clock)

    def test_blocklist_recovery_rate(self, suite, labeled):
        assert suite.blocklist_recovery_rate() == blocklist_recovery_rate(labeled)

    def test_greylisting_domains(self, suite, labeled):
        assert suite.greylisting_domains() == greylisting_domains(labeled)

    def test_filter_divergence(self, suite, labeled):
        assert suite.filter_divergence() == filter_divergence(labeled)

    def test_dnsbl_adoption(self, suite, labeled, clock):
        assert suite.dnsbl_adoption_counts() == dnsbl_adoption_counts(
            labeled, clock)

    def test_squatting(self, suite, labeled, world):
        assert suite.squatting(world) == squatting_report(labeled, world)

    def test_weekly_vulnerable(self, suite, labeled, world, clock):
        report = squatting_report(labeled, world)
        assert suite.weekly_vulnerable(report) == weekly_vulnerable_series(
            labeled, report, clock)

    @pytest.mark.parametrize("by_domain", [True, False])
    def test_persistently_vulnerable(self, suite, labeled, world, clock,
                                     by_domain):
        report = squatting_report(labeled, world)
        names = ({d.domain for d in report.domains} if by_domain
                 else {u.address for u in report.usernames})
        assert suite.persistently_vulnerable_fraction(
            names, min_weeks=4, by_domain=by_domain
        ) == persistently_vulnerable_fraction(
            labeled, names, clock, min_weeks=4, by_domain=by_domain)


class TestSuiteFromShards:
    def test_single_directory(self, shard_dirs, dataset, clock, payload):
        from repro.analytics.parallel import suite_from_shards

        merged = suite_from_shards(shard_dirs, clock)
        assert merged.n_records == len(dataset)
        assert merged.tables(TOP) == payload

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_fanout_is_identical(self, shard_dirs, clock, payload,
                                        workers):
        from repro.analytics.parallel import suite_from_shards

        merged = suite_from_shards(shard_dirs, clock, workers=workers)
        assert merged.tables(TOP) == payload


class TestParallelSimulationAnalytics:
    def test_worker_partials_match_serial_suite(self):
        from repro import SimulationConfig, run_simulation
        from repro.parallel import run_parallel_simulation

        config = SimulationConfig(scale=0.02, seed=3)
        serial = TableSuite.from_records(
            run_simulation(config).dataset,
            clock=None,  # suite clock defaults to the config window
        )
        with run_parallel_simulation(config, workers=2, analytics=True) as run:
            assert run.analytics is not None
            assert run.analytics.n_records == serial.n_records
            assert render_report(run.analytics.tables(TOP), TOP) == \
                render_report(serial.tables(TOP), TOP)

    def test_analytics_off_by_default(self):
        from repro import SimulationConfig
        from repro.parallel import run_parallel_simulation

        config = SimulationConfig(scale=0.01, seed=3)
        with run_parallel_simulation(config, workers=2) as run:
            assert run.analytics is None


class TestReportCli:
    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_file_stdin_shards_batch_all_byte_identical(
        self, saved_log, shard_dirs, capsys, monkeypatch
    ):
        code, from_file, _ = self._run(
            ["-q", "report", str(saved_log)], capsys)
        assert code == 0
        assert "Bounce types" in from_file
        assert "non/soft/hard" in from_file
        assert "receiver domains" in from_file

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(saved_log.read_text(encoding="utf-8")))
        code, from_stdin, _ = self._run(["-q", "report", "-"], capsys)
        assert code == 0 and from_stdin == from_file

        argv = ["-q", "report"]
        for directory in shard_dirs:
            argv += ["--shards", str(directory)]
        code, from_shards, _ = self._run(argv, capsys)
        assert code == 0 and from_shards == from_file

        code, from_workers, _ = self._run(argv + ["--workers", "2"], capsys)
        assert code == 0 and from_workers == from_file

        code, from_batch, _ = self._run(
            ["-q", "report", str(saved_log), "--batch"], capsys)
        assert code == 0 and from_batch == from_file

    def test_stdin_decode_error_names_line(self, capsys, monkeypatch):
        record_line = None
        monkeypatch.setattr("sys.stdin", io.StringIO('{"oops": 1}\n'))
        code, out, err = self._run(["-q", "report", "-"], capsys)
        assert code == 2
        assert "<stdin>: line 1: not a delivery record" in err

        monkeypatch.setattr("sys.stdin", io.StringIO("\n{broken\n"))
        code, out, err = self._run(["-q", "report", "-"], capsys)
        assert code == 2
        assert "<stdin>: line 2: invalid JSON" in err

    def test_flag_conflicts_exit_2(self, saved_log, shard_dirs, capsys):
        code, _, err = self._run(
            ["-q", "report", str(saved_log),
             "--shards", str(shard_dirs[0])], capsys)
        assert code == 2 and "--shards" in err
        code, _, err = self._run(["-q", "report"], capsys)
        assert code == 2 and "need a dataset" in err
        code, _, err = self._run(
            ["-q", "report", "-", "--batch"], capsys)
        assert code == 2 and "stdin" in err

    def test_missing_dataset_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["-q", "report", str(tmp_path / "nope.jsonl")])

    def test_watch_report_every_converges_on_report(
        self, saved_log, dataset, capsys
    ):
        code, report_out, _ = self._run(
            ["-q", "report", str(saved_log)], capsys)
        assert code == 0
        every = 10_000
        code, out, _ = self._run(
            ["-q", "watch", str(saved_log), "--labeler", "rules",
             "--report-every", str(every)], capsys)
        assert code == 0
        assert out.count("--- live tables @") == len(dataset) // every
        marker = f"--- final tables @ {len(dataset):,} records ---\n"
        assert marker in out
        assert out.split(marker, 1)[1] == report_out


class TestPeriodicReporter:
    def test_feed_cadence_and_final(self, dataset, clock):
        from repro.stream.report_hook import PeriodicTableReporter

        records = list(dataset)[:25]
        reporter = PeriodicTableReporter(10, top=3, clock=clock)
        emitted = []
        for record in records:
            rendered = reporter.feed(record)
            if rendered is not None:
                emitted.append(reporter.n_records)
                assert "== Overview ==" in rendered
        assert emitted == [10, 20]
        final = reporter.final()
        assert final is not None
        assert final == render_report(
            TableSuite.from_records(records, clock).tables(3), 3)
        assert reporter.n_records == 25

    def test_final_suppressed_on_exact_boundary(self, dataset, clock):
        from repro.stream.report_hook import PeriodicTableReporter

        reporter = PeriodicTableReporter(5, clock=clock)
        for record in list(dataset)[:5]:
            last = reporter.feed(record)
        assert last is not None
        assert reporter.final() is None

    def test_rejects_nonpositive_interval(self):
        from repro.stream.report_hook import PeriodicTableReporter

        with pytest.raises(ValueError):
            PeriodicTableReporter(0)


class TestServeReport:
    @pytest.fixture()
    def live_metrics(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.enable()
        obs_metrics.reset()
        yield
        obs_metrics.disable()
        obs_metrics.reset()

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory, dataset):
        from repro.core.ebrc import EBRC

        path = tmp_path_factory.mktemp("analytics-serve") / "ebrc.json"
        EBRC().fit(dataset.ndr_messages()[:3000]).save(path)
        return path

    @pytest.fixture()
    def state(self, live_metrics, artifact):
        from repro.core.ebrc import EBRC, EBRCHandle
        from repro.serve.state import ServerState

        return ServerState(EBRCHandle(EBRC.load(artifact),
                                      artifact=str(artifact)))

    def _observe(self, state, records):
        from repro.serve.handlers import dispatch

        for record in records:
            body = json.dumps({"record": record.to_json_dict()}).encode()
            assert dispatch(state, "POST", "/observe", body).status == 200

    def test_report_reflects_observed_records(self, state, dataset):
        from repro.serve.handlers import dispatch

        records = list(dataset)[:400]
        self._observe(state, records)
        got = json.loads(dispatch(state, "GET", "/report", b"").body)
        expected = TableSuite.from_records(records).live_payload(TOP)
        assert got["n_records"] == len(records)
        assert got == expected

    def test_report_text_and_top_param(self, state, dataset):
        from repro.serve.handlers import dispatch

        self._observe(state, list(dataset)[:200])
        response = dispatch(state, "GET", "/report", b"",
                            query="format=text&top=3")
        assert response.content_type.startswith("text/plain")
        text = response.body.decode("utf-8")
        assert "== Overview ==" in text
        assert "Top-3 receiver domains" in text

        small = json.loads(
            dispatch(state, "GET", "/report", b"", query="top=3").body)
        assert len(small["heavy_hitters"]["senders"]["top"]) <= 3

    def test_report_rejects_bad_top(self, state):
        from repro.serve.errors import BadRequest
        from repro.serve.handlers import dispatch

        with pytest.raises(BadRequest, match="top="):
            dispatch(state, "GET", "/report", b"", query="top=banana")

    def test_metrics_gauges(self, state, dataset):
        from repro import __version__
        from repro.serve.handlers import dispatch

        self._observe(state, list(dataset)[:400])
        text = dispatch(state, "GET", "/metrics", b"").body.decode("utf-8")
        assert f'repro_build_info{{version="{__version__}"}} 1' in text
        uptime = [l for l in text.splitlines()
                  if l.startswith("repro_serve_uptime_seconds ")]
        assert uptime and float(uptime[0].split()[1]) > 0.0
        # 400 records include recovered soft bounces, so the sketch-fed
        # quantile gauges must be populated
        assert 'repro_report_recovery_hours{quantile="p50"}' in text
        suite = TableSuite.from_records(list(dataset)[:400])
        expected = suite.sketch_gauges()["repro_report_recovery_hours"]["p50"]
        line = next(l for l in text.splitlines() if l.startswith(
            'repro_report_recovery_hours{quantile="p50"}'))
        assert float(line.split()[1]) == pytest.approx(expected)

    def test_report_listed_in_routes(self, state):
        from repro.serve.handlers import dispatch

        root = json.loads(dispatch(state, "GET", "/", b"").body)
        assert "/report" in root["endpoints"]
