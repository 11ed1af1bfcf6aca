"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def saved_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "log.jsonl"
    code = main(["simulate", "--scale", "0.03", "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


class TestSimulate:
    def test_writes_log(self, saved_log, capsys):
        assert saved_log.exists()
        assert saved_log.stat().st_size > 10_000


class TestStream:
    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-stream") / "shards"
        code = main([
            "stream", "--scale", "0.03", "--seed", "3",
            "--out-dir", str(path), "--shard-size", "2000",
            "--progress-every", "0",
        ])
        assert code == 0
        return path

    def test_writes_shards_and_manifest(self, shard_dir, capsys):
        assert (shard_dir / "manifest.json").exists()
        assert len(list(shard_dir.glob("shard-*.jsonl"))) > 1

    def test_matches_batch_simulate(self, saved_log, shard_dir):
        """`stream` and `simulate` at the same config produce the same log."""
        from repro.stream.sink import iter_delivery_log

        batch = [r.to_json() for r in iter_delivery_log(saved_log)]
        streamed = [r.to_json() for r in iter_delivery_log(shard_dir)]
        assert batch == streamed

    def test_watch_shards_online(self, shard_dir, capsys):
        code = main(["watch", str(shard_dir), "--warmup", "500"])
        assert code == 0
        err = capsys.readouterr().err
        assert "watch summary: records=" in err
        assert "online EBRC:" in err

    def test_watch_file_with_rules_labeler(self, saved_log, capsys):
        code = main(["watch", str(saved_log), "--labeler", "rules",
                     "--max-alerts", "3"])
        assert code == 0
        err = capsys.readouterr().err
        assert "watch summary: records=" in err
        assert "online EBRC:" not in err


class TestReport:
    def test_report_runs(self, saved_log, capsys):
        assert main(["report", str(saved_log)]) == 0
        out = capsys.readouterr().out
        assert "Bounce types" in out
        assert "non/soft/hard" in out
        assert "receiver domains" in out

    def test_report_missing_dataset(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["report", str(tmp_path / "nope.jsonl")])


class TestClassify:
    def test_classify_messages(self, saved_log, capsys):
        code = main([
            "classify", str(saved_log),
            "--message", "550 5.1.1 The email account that you tried to reach does not exist",
            "--message", "QQQ 5.4.1 Recipient address rejected: Access denied. AS(201806281)",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("T8")
        assert lines[1].startswith("AMBIGUOUS")

    def test_classify_reads_stdin_dash(self, saved_log, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(
            "550 5.1.1 The email account that you tried to reach does not exist\n"
            "\n"   # blank lines are dropped
            "QQQ 5.4.1 Recipient address rejected: Access denied.\n"
        ))
        assert main(["classify", str(saved_log), "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[0] == "T8"

    def test_classify_with_artifact_skips_training(
        self, saved_log, tmp_path, capsys, monkeypatch
    ):
        import io

        artifact = tmp_path / "ebrc.json"
        assert main(["fit", str(saved_log), "--out", str(artifact)]) == 0
        capsys.readouterr()
        # with --artifact, the single positional is the lines source
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "550 5.1.1 The email account that you tried to reach does not exist\n"
        ))
        assert main(["classify", "--artifact", str(artifact), "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("T8\t")

    def test_classify_without_dataset_or_artifact_errors(self, capsys,
                                                         monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("550 x\n"))
        assert main(["classify"]) == 2
        assert "need a training dataset or --artifact" in capsys.readouterr().err


class TestFit:
    def test_fit_writes_loadable_artifact(self, saved_log, tmp_path, capsys):
        from repro.core.ebrc import EBRC

        out = tmp_path / "model.json"
        assert main(["fit", str(saved_log), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "fitted EBRC on" in err
        assert "fingerprint" in err
        ebrc = EBRC.load(out)
        assert ebrc.n_templates > 0
        assert ebrc.classify(
            "550 5.1.1 The email account that you tried to reach does not exist"
        ) is not None

    def test_fit_empty_dataset_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "m.json")]) == 1


class TestServeLoadtest:
    def test_loadtest_cli_against_live_daemon(self, saved_log, tmp_path,
                                              capsys):
        """`repro fit` -> in-process daemon -> `repro loadtest` exits 0
        with zero mismatches and writes the bench artifact."""
        import json as json_mod

        from repro.serve import ReproServer, ServeConfig

        artifact = tmp_path / "ebrc.json"
        assert main(["fit", str(saved_log), "--out", str(artifact)]) == 0
        bench = tmp_path / "BENCH_serve.json"
        with ReproServer(ServeConfig(artifact=str(artifact), port=0)) as srv:
            code = main([
                "loadtest", "--artifact", str(artifact),
                "--host", srv.host, "--port", str(srv.port),
                "--requests", "60", "--concurrency", "4",
                "--corpus-scale", "0.01", "--out", str(bench),
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out
        payload = json_mod.loads(bench.read_text())
        assert payload["mismatches"] == 0
        assert payload["requests"] == 60


class TestExplain:
    def test_explain_first_bounced(self, saved_log, capsys):
        assert main(["explain", str(saved_log)]) == 0
        out = capsys.readouterr().out
        assert "attempt 1" in out
        assert "outcome:" in out

    def test_explain_out_of_range(self, saved_log, capsys):
        assert main(["explain", str(saved_log), "--index", "99999999"]) == 1


class TestShardDirectoryLog:
    """`explain` and `classify` read a shard directory as they read the
    JSONL log of the same run."""

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-logs")
        log, shards = root / "log.jsonl", root / "shards"
        run = ["--scale", "0.005", "--seed", "3"]
        assert main(["--quiet", "simulate", *run, "--out", str(log)]) == 0
        assert main(["--quiet", "stream", *run, "--out-dir", str(shards),
                     "--shard-size", "500", "--progress-every", "0"]) == 0
        assert len(list(shards.glob("shard-*.jsonl"))) > 1
        return log, shards

    @pytest.mark.parametrize("command, options", [
        ("explain", []),
        ("classify", [
            "--message", "550 5.1.1 The email account that you tried to reach does not exist",
            "--message", "421 4.7.0 try again later",
        ]),
    ])
    def test_prints_what_it_prints_for_the_jsonl_log(
        self, logs, command, options, capsys
    ):
        printed = []
        for path in logs:
            assert main([command, str(path), *options]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0]
        assert printed[1] == printed[0]


class TestSquat:
    def test_squat_runs(self, capsys):
        assert main(["squat", "--scale", "0.03", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "vulnerable domains:" in out


class TestRecommend:
    def test_recommend_runs(self, capsys):
        assert main(["recommend", "--scale", "0.03", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "evidence:" in out


class TestFullReport:
    def test_full_report_runs(self, capsys):
        assert main(["full-report", "--scale", "0.03", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for section in ("Overview", "Root causes", "Blocklists", "Squatting",
                        "NDR quality", "receiver domains"):
            assert section in out


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-bounce 1." in capsys.readouterr().out

    def test_version_subcommand(self, capsys):
        assert main(["version"]) == 0
        assert "repro-bounce 1." in capsys.readouterr().out


class TestQuiet:
    def test_quiet_suppresses_status(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.002",
                     "--seed", "5", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""
        assert out.exists()

    def test_quiet_after_subcommand(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(["simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_status_goes_to_stderr_not_stdout(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(["simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "simulated" in captured.err
        assert captured.out == ""


class TestNoCacheFlag:
    def test_simulate_byte_identical_without_caches(self, tmp_path):
        cached = tmp_path / "cached.jsonl"
        uncached = tmp_path / "uncached.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.004", "--seed", "5",
                     "--out", str(cached)]) == 0
        assert main(["--quiet", "simulate", "--scale", "0.004", "--seed", "5",
                     "--out", str(uncached), "--no-cache"]) == 0
        assert cached.read_bytes() == uncached.read_bytes()

    def test_stream_byte_identical_without_caches(self, tmp_path):
        cached = tmp_path / "cached"
        uncached = tmp_path / "uncached"
        for out_dir, flags in ((cached, []), (uncached, ["--no-cache"])):
            assert main(["--quiet", "stream", "--scale", "0.004", "--seed", "5",
                         "--out-dir", str(out_dir), "--shard-size", "500",
                         "--progress-every", "0", *flags]) == 0
        cached_shards = sorted(p.name for p in cached.glob("shard-*.jsonl"))
        uncached_shards = sorted(p.name for p in uncached.glob("shard-*.jsonl"))
        assert cached_shards == uncached_shards and cached_shards
        for name in cached_shards:
            assert (cached / name).read_bytes() == (uncached / name).read_bytes()

    def test_caches_restored_after_no_cache_run(self, tmp_path):
        from repro.core import fastpath

        assert main(["--quiet", "simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(tmp_path / "x.jsonl"), "--no-cache"]) == 0
        assert fastpath.enabled()


class TestObsFlags:
    def test_metrics_out_writes_prometheus(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert main(["simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(out), "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE repro_delivery_emails_total counter" in text
        assert "repro_delivery_attempts_total" in text
        assert "repro_stage_seconds_total" in text

    def test_metrics_out_stdout(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(out), "--metrics-out", "-"]) == 0
        assert "repro_delivery_emails_total" in capsys.readouterr().out

    def test_output_byte_identical_with_telemetry(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        metered = tmp_path / "metered.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(plain)]) == 0
        assert main(["--quiet", "simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(metered),
                     "--metrics-out", str(tmp_path / "m.prom"),
                     "--trace-sample", "3",
                     "--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert plain.read_bytes() == metered.read_bytes()

    def test_trace_sample_writes_span_trees(self, tmp_path):
        out = tmp_path / "log.jsonl"
        traces = tmp_path / "traces.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(out), "--trace-sample", "10",
                     "--trace-out", str(traces)]) == 0
        import json as _json

        lines = traces.read_text().strip().splitlines()
        assert lines
        tree = _json.loads(lines[0])
        assert tree["name"] == "email"
        assert "message_id" in tree["attrs"]

    def test_telemetry_state_restored_after_run(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        assert main(["--quiet", "simulate", "--scale", "0.002", "--seed", "5",
                     "--out", str(tmp_path / "log.jsonl"),
                     "--metrics-out", str(tmp_path / "m.prom"),
                     "--trace-sample", "5",
                     "--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert not obs_metrics.enabled()


#: A traced world large enough to bounce for many reasons (at scales
#: below about 0.03 nearly every bounce is a T8), sampled 1 in 7.
TRACED = ["--scale", "0.03", "--seed", "9", "--trace-sample", "7"]


def _expected_traces(log) -> list[str]:
    """What a ``--trace-sample 7`` run over ``log`` writes: the rebuilt
    tree of every sampled record, in log order."""
    from repro.obs.trace import sample_hit, span_tree_from_record
    from repro.stream.sink import iter_delivery_log

    return [
        span_tree_from_record(record).to_json()
        for record in iter_delivery_log(log)
        if sample_hit(record.message_id, 7)
    ]


def _lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


class TestTraceSample:
    """Traces come from the record stream, so every way of making the
    same records writes the same trace file."""

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        """A serial traced run: its directory and the number of chunks
        the columnar executor delivered."""
        from repro.delivery.columnar import ColumnarExecutor

        tmp = tmp_path_factory.mktemp("traced")
        deliver_chunk = ColumnarExecutor.deliver_chunk
        chunks = []

        def counted(self, specs):
            chunks.append(len(specs))
            return deliver_chunk(self, specs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ColumnarExecutor, "deliver_chunk", counted)
            assert main(["--quiet", "simulate", *TRACED,
                         "--out", str(tmp / "log.jsonl"),
                         "--trace-out", str(tmp / "traces.jsonl")]) == 0
        return tmp, len(chunks)

    def test_serial_run_writes_every_sampled_tree_in_log_order(self, serial):
        tmp, _ = serial
        traces = _lines(tmp / "traces.jsonl")
        assert traces == _expected_traces(tmp / "log.jsonl")
        assert len(traces) > 256  # the size of the old in-memory ring

    def test_traced_run_delivers_through_the_columnar_executor(self, serial):
        _, chunks = serial
        assert chunks > 0

    def test_workers_write_the_serial_file(self, serial, tmp_path):
        tmp, _ = serial
        assert main(["--quiet", "simulate", *TRACED, "--workers", "2",
                     "--out", str(tmp_path / "log.jsonl"),
                     "--trace-out", str(tmp_path / "traces.jsonl")]) == 0
        assert _lines(tmp_path / "traces.jsonl") == _expected_traces(
            tmp_path / "log.jsonl")
        assert (tmp_path / "traces.jsonl").read_bytes() == (
            tmp / "traces.jsonl").read_bytes()

    def test_resume_writes_the_serial_file(self, serial, tmp_path):
        """Once running every slice, then again reusing every slice."""
        tmp, _ = serial
        for _ in range(2):
            assert main(["--quiet", "simulate", *TRACED, "--resume",
                         "--out", str(tmp_path / "log.jsonl"),
                         "--trace-out", str(tmp_path / "traces.jsonl")]) == 0
            assert _lines(tmp_path / "traces.jsonl") == _expected_traces(
                tmp_path / "log.jsonl")
            assert (tmp_path / "traces.jsonl").read_bytes() == (
                tmp / "traces.jsonl").read_bytes()

    def test_checkpoint_tail_writes_the_tail_of_the_serial_file(
        self, serial, tmp_path
    ):
        tmp, _ = serial
        ckpt = tmp_path / "ckpt"
        assert main(["--quiet", "simulate", "--scale", "0.03", "--seed", "9",
                     "--until", "200", "--save-checkpoint", str(ckpt),
                     "--out", str(tmp_path / "head.jsonl")]) == 0
        assert main(["--quiet", "simulate", "--from-checkpoint", str(ckpt),
                     "--trace-sample", "7",
                     "--out", str(tmp_path / "tail.jsonl"),
                     "--trace-out", str(tmp_path / "traces.jsonl")]) == 0
        tail = _lines(tmp_path / "traces.jsonl")
        assert tail == _expected_traces(tmp_path / "tail.jsonl")
        serial_traces = _lines(tmp / "traces.jsonl")
        assert 0 < len(tail) < len(serial_traces)
        assert tail == serial_traces[-len(tail):]

    def test_stream_writes_the_serial_file(self, serial, tmp_path):
        tmp, _ = serial
        assert main(["--quiet", "stream", *TRACED, "--progress-every", "0",
                     "--out-dir", str(tmp_path / "shards"),
                     "--trace-out", str(tmp_path / "traces.jsonl")]) == 0
        assert (tmp_path / "traces.jsonl").read_bytes() == (
            tmp / "traces.jsonl").read_bytes()

    def test_watch_writes_the_serial_file(self, serial, tmp_path, capsys):
        tmp, _ = serial
        assert main(["watch", str(tmp / "log.jsonl"), "--labeler", "rules",
                     "--trace-sample", "7",
                     "--trace-out", str(tmp_path / "traces.jsonl")]) == 0
        assert (tmp_path / "traces.jsonl").read_bytes() == (
            tmp / "traces.jsonl").read_bytes()
        n = len(_lines(tmp / "traces.jsonl"))
        assert f"traces: {n} span tree(s) -> " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scale", "0.002", "--out", "unused.jsonl"],
        ["watch", "unused.jsonl"],
        ["serve", "--artifact", "unused.json"],
    ], ids=["simulate", "watch", "serve"])
    def test_negative_sample_rate_is_a_usage_error(self, argv, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--trace-sample", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --trace-sample" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_trace_capacity_bounds_only_the_serve_ring(self, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trace-capacity", "5"])
        assert exc.value.code == 2
        assert "--trace-capacity" in capsys.readouterr().err
        args = _build_parser().parse_args(
            ["serve", "--artifact", "a.json", "--trace-capacity", "5"])
        assert args.trace_capacity == 5


class TestMetricsCommand:
    def test_fresh_run_prometheus(self, capsys):
        assert main(["--quiet", "metrics", "--scale", "0.002",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_delivery_emails_total counter" in out
        assert 'repro_stage_seconds_total{stage="delivery"}' in out

    def test_snapshot_round_trip(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(["--quiet", "metrics", "--scale", "0.002", "--seed", "5",
                     "--format", "json", "--out", str(snap)]) == 0
        # re-render the saved snapshot without running anything
        assert main(["metrics", str(snap), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_delivery_emails_total" in out


class TestTraceCommand:
    def test_list_and_tree(self, saved_log, capsys):
        assert main(["trace", str(saved_log), "--list", "5"]) == 0
        out = capsys.readouterr().out
        assert "message_id" in out
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        ids = [row.split()[1] for row in rows]
        assert len(ids) == 5

        assert main(["trace", str(saved_log), "--message-id", ids[0]]) == 0
        tree = capsys.readouterr().out
        assert tree.startswith("email ")
        assert "attempt" in tree
        assert "policy_verdict" in tree

    def test_trace_by_index_json(self, saved_log, capsys):
        import json as _json

        assert main(["trace", str(saved_log), "--index", "2", "--json"]) == 0
        tree = _json.loads(capsys.readouterr().out)
        assert tree["name"] == "email"
        assert tree["attrs"]["n_attempts"] >= 1

    def test_trace_unknown_message_id(self, saved_log, capsys):
        assert main(["trace", str(saved_log),
                     "--message-id", "doesnotexist00"]) == 1

    def test_trace_shard_dir(self, tmp_path, capsys):
        shard_dir = tmp_path / "shards"
        assert main(["--quiet", "stream", "--scale", "0.002", "--seed", "5",
                     "--out-dir", str(shard_dir), "--shard-size", "100",
                     "--progress-every", "0"]) == 0
        assert main(["trace", str(shard_dir), "--index", "0"]) == 0
        assert capsys.readouterr().out.startswith("email ")


class TestResumeFlag:
    def test_simulate_resume_byte_identical(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.005", "--seed", "3",
                     "--out", str(serial)]) == 0
        assert main(["simulate", "--scale", "0.005", "--seed", "3",
                     "--out", str(resumed), "--workers", "2",
                     "--resume"]) == 0
        assert resumed.read_bytes() == serial.read_bytes()
        slices = tmp_path / "resumed.jsonl.slices"
        assert slices.is_dir()  # kept for the next resume

        # Second invocation reuses every slice and still matches.
        assert main(["simulate", "--scale", "0.005", "--seed", "3",
                     "--out", str(resumed), "--workers", "2",
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert "re-ran 0" in err
        assert resumed.read_bytes() == serial.read_bytes()

    def test_stream_resume_matches_serial_stream(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        common = ["--scale", "0.005", "--seed", "3", "--shard-size", "400",
                  "--progress-every", "0"]
        assert main(["--quiet", "stream", *common, "--out-dir", str(a)]) == 0
        assert main(["--quiet", "stream", *common, "--out-dir", str(b),
                     "--workers", "2", "--resume"]) == 0
        shards = sorted(p.name for p in a.glob("shard-*"))
        assert shards == sorted(p.name for p in b.glob("shard-*"))
        for name in shards:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_without_resume_no_slices_dir_left(self, tmp_path):
        out = tmp_path / "plain.jsonl"
        assert main(["--quiet", "simulate", "--scale", "0.005", "--seed", "3",
                     "--out", str(out), "--workers", "2"]) == 0
        assert not (tmp_path / "plain.jsonl.slices").exists()


class TestRecoverCommand:
    @pytest.fixture()
    def crashed_dir(self, tmp_path):
        """A shard directory whose producer was killed mid-line."""
        from repro.stream.runner import stream_simulation
        from repro.stream.sink import ShardWriter
        from repro import SimulationConfig

        directory = tmp_path / "crashed"
        run = stream_simulation(SimulationConfig(scale=0.005, seed=3))
        writer = ShardWriter(directory, shard_size=200)
        for i, record in enumerate(run.records):
            if i >= 450:
                break
            writer.write(record)
        writer._fh.close()
        with (directory / "shard-00002.jsonl").open("a") as fh:
            fh.write('{"half": ')
        return directory

    def test_recover_reports_salvage(self, crashed_dir, capsys):
        assert main(["recover", str(crashed_dir)]) == 0
        out = capsys.readouterr().out
        assert "salvaged 450 record(s) in 3 shard(s)" in out
        assert "dropped 1 torn line(s)" in out
        assert (crashed_dir / "manifest.partial.json").exists()
        assert not (crashed_dir / "manifest.json").exists()

    def test_recover_finalize_makes_directory_readable(
        self, crashed_dir, capsys
    ):
        assert main(["recover", str(crashed_dir), "--finalize"]) == 0
        assert (crashed_dir / "manifest.json").exists()
        # The finalized directory works with every log-reading command.
        assert main(["watch", str(crashed_dir), "--labeler", "rules"]) == 0
        err = capsys.readouterr().err
        assert "watch summary: records=450" in err

    def test_recover_complete_directory_is_a_noop(self, tmp_path, capsys):
        shard_dir = tmp_path / "ok"
        assert main(["--quiet", "stream", "--scale", "0.002", "--seed", "5",
                     "--out-dir", str(shard_dir), "--shard-size", "100",
                     "--progress-every", "0"]) == 0
        before = (shard_dir / "manifest.json").read_bytes()
        assert main(["recover", str(shard_dir)]) == 0
        assert (shard_dir / "manifest.json").read_bytes() == before
