"""Tests for the closed-loop load generator (repro.serve.loadgen)."""

import http.client
import json
import queue
import re
import socket
import threading
import time

import pytest

from repro.core.ebrc import EBRC
from repro.serve import LoadConfig, ReproServer, ServeConfig, run_loadtest
from repro.serve.loadgen import _percentiles_ms, _Worker


@pytest.fixture(scope="module")
def corpus(dataset):
    return dataset.ndr_messages()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("loadgen") / "ebrc.json"
    EBRC().fit(corpus[:4000]).save(path)
    return path


class TestPercentiles:
    def test_exact_nearest_rank(self):
        samples = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
        stats = _percentiles_ms(samples)
        assert stats["p50"] == pytest.approx(50.0, abs=1.0)
        assert stats["p95"] == pytest.approx(95.0, abs=1.0)
        assert stats["p99"] == pytest.approx(99.0, abs=1.0)
        assert stats["max"] == 100.0

    def test_empty_is_all_none(self):
        assert _percentiles_ms([]) == {
            "p50": None, "p95": None, "p99": None, "mean": None, "max": None
        }


class TestLoadtest:
    def test_single_message_requests_zero_mismatches(self, artifact, corpus):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv:
            report = run_loadtest(
                LoadConfig(
                    host=srv.host, port=srv.port, artifact=str(artifact),
                    n_requests=300, concurrency=4,
                ),
                corpus=corpus,
            )
        assert report.errors == []
        assert report.mismatches == 0
        assert report.n_requests == 300
        assert report.n_messages == 300
        assert report.requests_per_s > 0
        assert report.latency_ms["p50"] is not None
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]

    def test_batch_requests_zero_mismatches(self, artifact, corpus):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv:
            report = run_loadtest(
                LoadConfig(
                    host=srv.host, port=srv.port, artifact=str(artifact),
                    n_requests=50, concurrency=4, batch=16,
                ),
                corpus=corpus,
            )
        assert report.errors == []
        assert report.mismatches == 0
        assert report.n_messages == 50 * 16
        assert report.batch == 16

    def test_saturation_sheds_load_then_completes(
        self, artifact, corpus, monkeypatch
    ):
        """Against a deliberately tiny gate, the generator absorbs 429s
        via Retry-After pacing and still finishes every request with
        zero mismatches — backpressure, not failure."""
        monkeypatch.setenv("REPRO_SERVE_TEST_DELAY_S", "0.05")
        config = ServeConfig(
            artifact=str(artifact), port=0,
            max_inflight=1, max_queue=0, max_wait_s=0.01,
        )
        with ReproServer(config) as srv:
            report = run_loadtest(
                LoadConfig(
                    host=srv.host, port=srv.port, artifact=str(artifact),
                    n_requests=40, concurrency=8, retry_cap_s=0.05,
                    max_attempts=2000,
                ),
                corpus=corpus,
            )
        assert report.backpressure_429 > 0
        assert report.n_requests == 40  # every request eventually landed
        assert report.mismatches == 0
        assert report.errors == []

    def test_write_bench_artifact(self, artifact, corpus, tmp_path):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv:
            report = run_loadtest(
                LoadConfig(
                    host=srv.host, port=srv.port, artifact=str(artifact),
                    n_requests=50, concurrency=2,
                ),
                corpus=corpus,
            )
        out = tmp_path / "BENCH_serve.json"
        report.write_bench(out, extra={"armed": True})
        payload = json.loads(out.read_text())
        assert payload["requests"] == 50
        assert payload["mismatches"] == 0
        assert payload["armed"] is True
        assert set(payload["latency_ms"]) == {"p50", "p95", "p99", "mean", "max"}


class RawServer:
    """A plain listening socket: for each connection it reads one request,
    keeps its bytes, writes ``reply`` and closes."""

    def __init__(self, reply: bytes = b"") -> None:
        self.reply = reply
        self.requests: queue.Queue = queue.Queue()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.sock.close()
        self.thread.join(timeout=5)

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as rfile:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += rfile.readline()
                length = int(re.search(rb"Content-Length: (\d+)", head)[1])
                self.requests.put(head + rfile.read(length))
                conn.sendall(self.reply)


@pytest.fixture
def connects(monkeypatch):
    """The thread of each TCP connection the client opens."""
    threads = []
    create = socket.create_connection

    def counting(*args, **kwargs):
        threads.append(threading.get_ident())
        return create(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return threads


class TestClient:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_request_bytes_equal_http_client(self, artifact, corpus, batch):
        payload = ({"message": corpus[0]} if batch == 1
                   else {"messages": corpus[:batch]})
        path = "/classify" if batch == 1 else "/classify_many"
        with RawServer() as raw:
            conn = http.client.HTTPConnection("127.0.0.1", raw.port, timeout=5)
            conn.request("POST", path, body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            want = raw.requests.get(timeout=5)
            conn.close()
            report = run_loadtest(
                LoadConfig(host="127.0.0.1", port=raw.port, artifact=str(artifact),
                           n_requests=1, concurrency=1, batch=batch,
                           max_attempts=1, timeout_s=5.0),
                corpus=corpus[:batch],
            )
            assert raw.requests.get(timeout=5) == want
        # The raw server closed without a reply.
        assert report.errors == [
            "request 0: ConnectionError: server closed the connection"
        ]

    def test_one_connection_per_worker(self, artifact, corpus, connects):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv:
            report = run_loadtest(
                LoadConfig(host=srv.host, port=srv.port, artifact=str(artifact),
                           n_requests=400, concurrency=4),
                corpus=corpus,
            )
        assert report.errors == []
        assert report.mismatches == 0
        assert report.n_requests == 400
        assert report.retries == 0
        assert 1 <= len(connects) <= 4
        assert len(set(connects)) == len(connects)

    def test_connection_close_reply_reconnects(self, artifact, corpus, connects,
                                               monkeypatch):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv:
            handler = srv._httpd.RequestHandlerClass
            respond = handler._respond
            monkeypatch.setattr(
                handler, "_respond",
                lambda self, response, close=False: respond(self, response, True),
            )
            report = run_loadtest(
                LoadConfig(host=srv.host, port=srv.port, artifact=str(artifact),
                           n_requests=30, concurrency=2),
                corpus=corpus,
            )
        assert report.errors == []
        assert report.mismatches == 0
        assert report.n_requests == 30
        # Each request opens a connection; none is sent into a closed one.
        assert len(connects) == 30
        assert report.retries == 0

    def test_idle_close_reconnects(self, artifact, corpus, connects, monkeypatch):
        one = _Worker._one

        def paused(self, index):
            if index == 5:
                time.sleep(1.0)  # past the server's keep-alive timeout
            one(self, index)

        monkeypatch.setattr(_Worker, "_one", paused)
        config = ServeConfig(artifact=str(artifact), port=0, keepalive_timeout_s=0.2)
        with ReproServer(config) as srv:
            report = run_loadtest(
                LoadConfig(host=srv.host, port=srv.port, artifact=str(artifact),
                           n_requests=10, concurrency=1),
                corpus=corpus,
            )
        assert report.errors == []
        assert report.mismatches == 0
        assert report.n_requests == 10
        # Request 5 went into the closed connection once, then a new one.
        assert len(connects) == 2
        assert report.retries == 1

    @pytest.mark.parametrize("reply, error", [
        (b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
         r"ValueError: bad status line b'HTTP/1.1 2x0 OK\r\n'"),
        (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n",
         "HeaderTooLarge: header line over 65536 bytes"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}",
         "ConnectionError: reply cut short of its Content-Length, 100"),
    ], ids=["status-line", "long-header-line", "short-body"])
    def test_malformed_reply_ends_in_errors(self, artifact, corpus, reply, error):
        timeout_s = 10.0
        with RawServer(reply) as raw:
            report = run_loadtest(
                LoadConfig(host="127.0.0.1", port=raw.port, artifact=str(artifact),
                           n_requests=2, concurrency=1, max_attempts=3,
                           timeout_s=timeout_s),
                corpus=corpus,
            )
            assert raw.requests.qsize() == 2 * 3  # the whole retry budget
        assert report.n_requests == 0
        assert [e.split(": ", 1)[1] for e in report.errors] == [error] * 2
        assert report.retries == 2 * 2
        # No read waited out its timeout.
        assert report.duration_s < timeout_s


    @pytest.mark.parametrize("status, body, batch, error", [
        ("200 OK", b"{}", 1, "HTTP 200 without type: {}"),
        ("200 OK", b"[]", 1, "HTTP 200 without type: []"),
        ("200 OK", b"{}", 3, "HTTP 200 without types: {}"),
        ("200 OK", b"[]", 3, "HTTP 200 without types: []"),
        ("500 Internal Server Error", b"[]", 1, "HTTP 500: []"),
    ], ids=["200-object", "200-array", "200-object-batch", "200-array-batch",
            "500-array"])
    def test_unreadable_reply_ends_in_errors(self, artifact, corpus, status,
                                             body, batch, error):
        reply = (f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n\r\n"
                 .encode("latin-1") + body)
        with RawServer(reply) as raw:
            report = run_loadtest(
                LoadConfig(host="127.0.0.1", port=raw.port, artifact=str(artifact),
                           n_requests=2, concurrency=1, batch=batch,
                           max_attempts=3, timeout_s=10.0),
                corpus=corpus,
            )
        assert report.n_requests == 0
        assert [e.split(": ", 1)[1] for e in report.errors] == [error] * 2

    def test_cli_exits_nonzero_on_an_unreadable_reply(self, artifact, corpus,
                                                      monkeypatch, capsys):
        from repro.cli import main
        from repro.serve import loadgen

        monkeypatch.setattr(loadgen, "synth_corpus", lambda *args: corpus)
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
        with RawServer(reply) as raw:
            code = main(["loadtest", "--port", str(raw.port), "--artifact",
                         str(artifact), "--requests", "1", "--concurrency", "1",
                         "--out", "-", "--quiet"])
        assert code == 1
        assert "HTTP 200 without type" in capsys.readouterr().err


class TestSynthCorpus:
    def test_corpus_is_ndr_lines(self):
        from repro.serve.loadgen import synth_corpus

        corpus = synth_corpus(scale=0.01, seed=7)
        assert len(corpus) > 50
        assert all(isinstance(m, str) and m for m in corpus)
