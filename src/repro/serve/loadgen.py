"""Closed-loop load generator for the serve daemon.

Traffic is the simulator's own: :func:`synth_corpus` runs a (small)
simulation and takes its NDR failure lines — the same bounce wording
mix the EBRC was built for — and the generator cycles that corpus into
``n_requests`` requests of ``batch`` messages each.

The loop is *closed*: each of ``concurrency`` workers keeps exactly one
request outstanding on a persistent HTTP/1.1 connection, so offered
load adapts to service rate instead of stampeding an overloaded server
(the open-loop failure mode).  The client is a lean HTTP/1.1 one that
reads reply heads with the daemon's own header reader.  After a
``Connection: close`` reply the next request opens a new connection; a
peer close or a reply it cannot frame drops the connection, and the
request is retried on a fresh one within ``max_attempts``.
Backpressure is part of the protocol: a 429 is counted, its
``Retry-After`` honoured (capped by ``retry_cap_s`` so tests stay
fast), and the same request retried — so a saturation run completes
with a 429 count instead of unbounded queueing or lost work.

Correctness is asserted, not assumed: every response is compared
against a serial ``EBRC.classify_many`` over the identical message
sequence, computed locally from the same artifact the server loaded.
``mismatches`` must be zero for the run to count.

:meth:`LoadReport.write_bench` writes the ``BENCH_serve.json`` artifact
(throughput + exact p50/p95/p99 latency from the recorded samples).
"""

from __future__ import annotations

import json
import re
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from repro.core.ebrc import EBRC
from repro.serve.errors import HeaderTooLarge, MalformedRequest
from repro.serve.head import MAX_LINE, read_headers
from repro.world.config import SimulationConfig

__all__ = ["LoadConfig", "LoadReport", "run_loadtest", "synth_corpus"]


def synth_corpus(scale: float = 0.01, seed: int = 7) -> list[str]:
    """NDR lines from a fresh simulation — realistic bounce traffic."""
    from repro import run_simulation

    dataset = run_simulation(SimulationConfig(scale=scale, seed=seed)).dataset
    corpus = dataset.ndr_messages()
    if not corpus:
        raise ValueError(
            f"simulation at scale {scale} produced no NDR lines; "
            "raise --corpus-scale"
        )
    return corpus


@dataclass
class LoadConfig:
    host: str
    port: int
    artifact: str
    n_requests: int = 2000
    concurrency: int = 8
    batch: int = 1
    corpus_scale: float = 0.01
    corpus_seed: int = 7
    timeout_s: float = 30.0
    retry_cap_s: float = 1.0
    max_attempts: int = 200  # per request, counting 429 and reconnect retries


@dataclass
class LoadReport:
    n_requests: int
    n_messages: int
    concurrency: int
    batch: int
    duration_s: float
    requests_per_s: float
    messages_per_s: float
    latency_ms: dict
    backpressure_429: int
    retries: int
    mismatches: int
    errors: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "requests": self.n_requests,
            "messages": self.n_messages,
            "concurrency": self.concurrency,
            "batch": self.batch,
            "duration_s": round(self.duration_s, 4),
            "requests_per_s": round(self.requests_per_s, 1),
            "messages_per_s": round(self.messages_per_s, 1),
            "latency_ms": self.latency_ms,
            "backpressure_429": self.backpressure_429,
            "retries": self.retries,
            "mismatches": self.mismatches,
            "errors": self.errors,
        }

    def write_bench(self, path: str | Path, extra: dict | None = None) -> None:
        payload = self.to_json_dict()
        if extra:
            payload.update(extra)
        Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")


def _percentiles_ms(samples_s: list[float]) -> dict:
    """Exact (nearest-rank on sorted samples) latency summary in ms."""
    if not samples_s:
        return {"p50": None, "p95": None, "p99": None, "mean": None, "max": None}
    ordered = sorted(samples_s)
    n = len(ordered)

    def at(q: float) -> float:
        return round(ordered[min(n - 1, int(q * (n - 1) + 0.5))] * 1000.0, 3)

    return {
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "mean": round(sum(ordered) / n * 1000.0, 3),
        "max": round(ordered[-1] * 1000.0, 3),
    }


#: A reply's status line: the code, and a space or the line end after it.
_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3})[ \r\n]")


def _post(host: str, port: int, path: str, body: bytes) -> bytes:
    """A JSON ``POST``: the bytes ``http.client`` sends for it, in one string."""
    return (
        f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Accept-Encoding: identity\r\nContent-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n\r\n"
    ).encode("latin-1") + body


class _Worker(threading.Thread):
    """One closed-loop client: next request only after the last response.

    It keeps one socket and one buffered reader per connection, sends
    each request in one ``sendall`` and reads the status line, the
    header block (:func:`repro.serve.head.read_headers`) and exactly
    ``Content-Length`` body bytes.
    """

    def __init__(self, config: LoadConfig, messages: list[str],
                 expected: list[str | None], cursor, results) -> None:
        super().__init__(name="repro-loadgen", daemon=True)
        self.config = config
        self.messages = messages
        self.expected = expected
        self.cursor = cursor          # shared request-index allocator
        self.results = results        # shared _Results sink
        self.sock: socket.socket | None = None
        self.rfile = None

    def _reset(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None

    def _request(self, request: bytes):
        """One HTTP round trip; returns (status, json_body, retry_after_s)."""
        if self.sock is None:
            self.sock = socket.create_connection(
                (self.config.host, self.config.port), self.config.timeout_s
            )
            # Small request bodies must not sit behind Nagle waiting for
            # the server's delayed ACK.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.rfile = self.sock.makefile("rb")
        self.sock.sendall(request)
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        status = _STATUS_LINE.match(line)
        if status is None or len(line) > MAX_LINE:
            raise ValueError(f"bad status line {line[:80]!r}")
        headers = read_headers(self.rfile.readline)
        text = headers.get("content-length", "")
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"bad Content-Length {text[:80]!r}")
        length = int(text)
        data = self.rfile.read(length)
        if len(data) < length:
            raise ConnectionError(f"reply cut short of its Content-Length, {length}")
        if headers.get("connection", "").lower() == "close":
            self._reset()
        retry_after = headers.get("retry-after")
        return int(status[1]), json.loads(data), (
            int(retry_after) if retry_after else 1
        )

    def _one(self, index: int) -> None:
        batch = self.config.batch
        lo = index * batch
        msgs = self.messages[lo:lo + batch]
        want = self.expected[lo:lo + batch]
        if batch == 1:
            path, payload = "/classify", {"message": msgs[0]}
        else:
            path, payload = "/classify_many", {"messages": msgs}
        request = _post(self.config.host, self.config.port, path,
                        json.dumps(payload).encode("latin-1"))
        for attempt in range(self.config.max_attempts):
            t0 = perf_counter()
            try:
                status, data, retry_after = self._request(request)
            except (HeaderTooLarge, MalformedRequest, OSError, ValueError) as exc:
                # A stale keep-alive, a drain race or a reply that cannot
                # be framed: reconnect and retry.
                self._reset()
                if attempt >= self.config.max_attempts - 1:
                    self.results.error(f"request {index}: {type(exc).__name__}: {exc}")
                    return
                self.results.retry(backpressure=False)
                continue
            elapsed = perf_counter() - t0
            if status == 429:
                self.results.retry(backpressure=True)
                sleep(min(retry_after, self.config.retry_cap_s))
                continue
            if status != 200:
                detail = data.get("error", data) if isinstance(data, dict) else data
                self.results.error(f"request {index}: HTTP {status}: {detail}")
                return
            try:
                got = [data["type"]] if batch == 1 else data["types"]
            except (KeyError, TypeError):
                self.results.error(
                    f"request {index}: HTTP 200 without "
                    f"{'type' if batch == 1 else 'types'}: {str(data)[:80]}"
                )
                return
            self.results.success(elapsed, got == want, index, got, want,
                                 n_messages=len(msgs))
            return
        self.results.error(f"request {index}: retry budget exhausted")

    def run(self) -> None:
        while True:
            index = self.cursor()
            if index is None:
                break
            self._one(index)
        self._reset()


class _Results:
    """Thread-safe accumulation of latencies, mismatches, and errors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies: list[float] = []
        self.n_messages = 0
        self.n_429 = 0
        self.n_retries = 0
        self.mismatches = 0
        self.errors: list[str] = []
        self.mismatch_examples: list[dict] = []

    def success(self, elapsed: float, matched: bool, index: int,
                got, want, n_messages: int) -> None:
        with self._lock:
            self.latencies.append(elapsed)
            self.n_messages += n_messages
            if not matched:
                self.mismatches += 1
                if len(self.mismatch_examples) < 5:
                    self.mismatch_examples.append(
                        {"request": index, "got": got, "want": want}
                    )

    def retry(self, backpressure: bool) -> None:
        """One more attempt: after a 429, or on a fresh connection."""
        with self._lock:
            self.n_retries += 1
            self.n_429 += backpressure

    def error(self, message: str) -> None:
        with self._lock:
            if len(self.errors) < 20:
                self.errors.append(message)


def run_loadtest(config: LoadConfig,
                 corpus: list[str] | None = None) -> LoadReport:
    """Drive the daemon and verify every response against serial EBRC."""
    if corpus is None:
        corpus = synth_corpus(config.corpus_scale, config.corpus_seed)
    total_messages = config.n_requests * config.batch
    messages = [corpus[i % len(corpus)] for i in range(total_messages)]

    # The serial oracle: same artifact, same message sequence, one thread.
    oracle = EBRC.load(config.artifact)
    expected = [
        r.value if r is not None else None
        for r in oracle.classify_many(messages)
    ]

    counter_lock = threading.Lock()
    next_index = 0

    def cursor() -> int | None:
        nonlocal next_index
        with counter_lock:
            if next_index >= config.n_requests:
                return None
            index = next_index
            next_index += 1
            return index

    results = _Results()
    workers = [
        _Worker(config, messages, expected, cursor, results)
        for _ in range(config.concurrency)
    ]
    t0 = perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    duration = perf_counter() - t0

    n_ok = len(results.latencies)
    report = LoadReport(
        n_requests=n_ok,
        n_messages=results.n_messages,
        concurrency=config.concurrency,
        batch=config.batch,
        duration_s=duration,
        requests_per_s=n_ok / duration if duration else 0.0,
        messages_per_s=results.n_messages / duration if duration else 0.0,
        latency_ms=_percentiles_ms(results.latencies),
        backpressure_429=results.n_429,
        retries=results.n_retries,
        mismatches=results.mismatches,
        errors=results.errors + [
            f"mismatch example: {e}" for e in results.mismatch_examples
        ],
    )
    return report
