"""The ``serve`` workload: EBRC classification over HTTP.

Inputs come from the first world's delivery log: its NDR lines in
record order.  Each job sets up a fresh server — fit an EBRC on the
first ``FIT_LINES`` lines, save the artifact, start ``repro serve`` until
``/healthz`` answers — sends it one round of the next ``FIT_LINES``
lines, and stops it.  Fixed sizes keep set-up and rounds the same size
whatever the seed; a fresh server per round means every round starts
with cold caches, so the exact-string LRU sees the log's own repeats and
no more.

A round is closed-loop ``run_loadtest(concurrency=1, batch=1)``: one
client with one connection and one request outstanding, every line sent
once in log order and checked against a serial EBRC over the same
artifact.  The server is bound by the interpreter lock, so a second
client adds queueing but no throughput; on a shared 2-core machine it
also made both numbers noisier (run-to-run spread 7-13% against 5-6%).

The traced run adds a traced set-up, an in-process classify of the
held-out lines, the server's own ``/metrics``, and an open loop at a
fixed rate that times each request from the moment it was due.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter, sleep

from repro.core.ebrc import EBRC
from repro.serve.loadgen import LoadConfig, run_loadtest
from repro.stream.runner import stream_simulation

from spans import NULL, Tracer
from workloads import (
    Outcome,
    Run,
    cycle_for,
    fresh_process_state,
    sha256_files,
    trace_metrics,
)

HOST = "127.0.0.1"
#: Closed-loop clients, and the open loop's connections (one thread
#: each); at most the 2 cores the benchmark is sized for.
CLIENTS = 1
OPEN_CONNECTIONS = 2
#: Open-loop rate (requests/s) and longest length (s) of the traced run.
#: The rate is about a fifth of what the closed loop sustains on a 2-core
#: box, so the tail shows queueing behind stalls rather than a backlog
#: that grows all run.
OPEN_RATE = 1000.0
OPEN_SECONDS = 10.0
READY_TIMEOUT_S = 60.0
#: Lines to fit on, and lines each round sends (fewer on a small log).
FIT_LINES = 3000


def ndr_lines(run: Run) -> list[str]:
    """Failed-attempt lines of the first world's log, in record order
    (what ``repro fit`` trains on)."""
    return [
        attempt.result
        for record in stream_simulation(run.configs()[0]).records
        for attempt in record.attempts
        if not attempt.succeeded
    ]


def _get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, artifact: Path, work: Path) -> None:
        self.artifact = artifact
        self.port_file = work / f"{artifact.stem}.port"
        self.log_path = work / f"{artifact.stem}.log"
        self.port = 0
        self.proc: subprocess.Popen | None = None
        #: The server's own peak resident set, read just before it stops.
        self.peak_rss_kb = 0

    def start(self) -> None:
        """Launch and return once ``/healthz`` reports ok."""
        import repro

        self.port_file.unlink(missing_ok=True)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # The default reload poll (2 s) stays on: `--reload-interval 0`
        # is documented as "off" but spins the watcher thread on the GIL.
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--artifact", str(self.artifact), "--port", "0",
                 "--port-file", str(self.port_file)],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = perf_counter() + READY_TIMEOUT_S
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    + self.log_path.read_text(encoding="utf-8")[-2000:]
                )
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                try:
                    if _get(self.port, "/healthz")[0] == 200:
                        return
                except OSError:
                    pass
            sleep(0.005)
        raise RuntimeError(f"repro serve not ready after {READY_TIMEOUT_S:.0f}s")

    def metrics(self) -> dict:
        status, body = _get(self.port, "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics: HTTP {status}")
        return {family["name"]: family for family in json.loads(body)["metrics"]}

    def stop(self) -> int:
        """SIGTERM (the drain contract) and wait; kill if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        if proc.poll() is None:
            # VmHWM, not the rusage of waited children: that also counts
            # this process's pages, which the child shares between fork
            # and exec.
            try:
                with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_rss_kb = int(line.split()[1])
            except FileNotFoundError:  # exited since the poll; drained below
                pass
            proc.send_signal(signal.SIGTERM)
            try:
                return proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        return proc.wait()


def fit_and_serve(train: list[str], artifact: Path, work: Path,
                  tracer=NULL) -> tuple[Server, EBRC]:
    """The set-up: fit, save, start the server until it is ready."""
    ebrc = tracer.call("ebrc.fit", EBRC().fit, train)
    tracer.call("ebrc.save", ebrc.save, artifact)
    server = Server(artifact, work)
    try:
        tracer.call("serve.ready", server.start)
    except BaseException:
        server.stop()
        raise
    return server, ebrc


def closed_round(server: Server, lines: list[str]):
    """Send every line once; returns the loadgen report."""
    config = LoadConfig(host=HOST, port=server.port, artifact=str(server.artifact),
                        n_requests=len(lines), concurrency=CLIENTS, batch=1)
    return run_loadtest(config, corpus=lines)


def serve(run: Run) -> Outcome:
    lines = ndr_lines(run)
    n = min(FIT_LINES, len(lines) // 2)
    train, held = lines[:n], lines[n:2 * n]
    setups: list[float] = []
    artifacts: list[str] = []
    peaks: list[int] = []
    drains: list[int] = []
    scraped: list[dict] = []

    def job(i: int):
        """Set up a fresh server, send it one round, stop it."""
        artifact = run.work / f"ebrc-{len(setups)}.json"
        t0 = perf_counter()
        server, _ = fit_and_serve(train, artifact, run.work)
        setups.append(perf_counter() - t0)
        try:
            report = closed_round(server, held)
            if run.trace:
                scraped.append(server.metrics())
        finally:
            drains.append(server.stop())
            peaks.append(server.peak_rss_kb)
        artifacts.append(sha256_files([artifact]))
        artifact.unlink()
        return report

    rounds = cycle_for(run.seconds, 1, job)[0]
    attempted = len(held) * len(rounds)
    correct = sum(r.n_requests - r.mismatches for r in rounds)
    outcome = Outcome(
        metrics={
            "setup_s": median(setups),
            # Like the batch workloads, the best round: interference
            # only ever slows one down.
            "throughput": max(r.requests_per_s for r in rounds),
            "latency_ms": min(r.latency_ms["p50"] for r in rounds),
            # The servers; this process only generates load.
            "peak_rss_mb": max(peaks) / 1024.0,
        },
        attempted=attempted,
        failed=attempted - correct,
        output_sha256=artifacts[0],
        info={"requests_per_round": len(held), "fit_lines": len(train),
              "setup_s": [round(x, 4) for x in setups],
              "round_req_per_s": [round(r.requests_per_s, 1) for r in rounds]},
    )
    errors = [e for r in rounds for e in r.errors]
    outcome.expect("every response matches the serial EBRC", correct == attempted,
                   "; ".join(errors[:3]))
    outcome.expect("set-ups fit identical artifacts", len(set(artifacts)) == 1)
    outcome.expect("servers drained cleanly", not any(drains), f"exit codes {drains}")
    if run.trace:
        traced_serve(run, outcome, train, held, rounds, scraped, median(setups))
    return outcome


def traced_serve(run: Run, outcome: Outcome, train: list[str], held: list[str],
                 rounds: list, scraped: list[dict], untraced_setup_s: float) -> None:
    tracer = Tracer(f"{run.workload}-{run.seed}")
    artifact = run.work / "ebrc-traced.json"
    fresh_process_state()
    with tracer.span("serve.setup"):
        server, ebrc = fit_and_serve(train, artifact, run.work, tracer)
    try:
        # A freshly loaded model, so the classify starts with a cold LRU.
        classifier = tracer.call("ebrc.load", EBRC.load, artifact)
        tracer.call("ebrc.classify", classifier.classify_many, held)
        oracle = tracer.call("ebrc.load", EBRC.load, artifact)
        with tracer.span("serve.open_loop"):
            opened = open_loop(server.port, held, oracle,
                               seconds=min(OPEN_SECONDS, run.seconds))
    finally:
        exit_code = server.stop()
    tracer.finish()
    digest = sha256_files([artifact])
    outcome.expect("traced digest equals untraced", digest == outcome.output_sha256,
                   digest[:12])
    outcome.expect("open-loop responses match the serial EBRC",
                   opened["failed"] == 0, f"{opened['failed']} failed")
    outcome.expect("traced server drained cleanly", exit_code == 0)
    outcome.attempted += opened["attempted"]
    outcome.failed += opened["failed"]

    def total(family: str, key: str) -> float:
        """Sum of one series value over every round's server."""
        return sum(float(m[family]["series"].get(key, 0.0)) for m in scraped)

    hits = total("repro_fastpath_cache_events_total", "ebrc-classify-hit")
    misses = total("repro_fastpath_cache_events_total", "ebrc-classify-miss")
    handled = [m["repro_serve_request_seconds"]["series"]["/classify"] for m in scraped]
    # Only set-up runs the same code traced and untraced.
    metrics = trace_metrics(tracer, untraced_setup_s, tracer.busy_s("serve.setup"))
    metrics.update({
        "ebrc.fit_s": tracer.self_s("ebrc.fit"),
        "ebrc.fit_lines": len(train),
        "ebrc.templates": ebrc.n_templates,
        "ebrc.classify_s": tracer.self_s("ebrc.classify"),
        "ebrc.lru_hit_ratio": hits / (hits + misses),
        "serve.ready_s": tracer.self_s("serve.ready"),
        "serve.requests": sum(r.n_requests for r in rounds),
        "serve.handler_ms_mean": sum(h["sum"] for h in handled)
        / sum(h["count"] for h in handled) * 1000.0,
        "serve.p99_ms": median(r.latency_ms["p99"] for r in rounds),
        "serve.backpressure_429": sum(r.backpressure_429 for r in rounds),
        "serve.open_p99_ms": opened["p99_ms"],
        "serve.open_p999_ms": opened["p999_ms"],
        "serve.open_gen_lag_ms": opened["lag_p99_ms"],
    })
    outcome.metrics = metrics
    outcome.spans = tracer.to_json()


# -- open loop ---------------------------------------------------------------------


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of sorted samples."""
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def open_loop(port: int, lines: list[str], oracle: EBRC,
              rate: float = OPEN_RATE, seconds: float = OPEN_SECONDS) -> dict:
    """Send requests on a fixed schedule, cycling ``lines``.

    Request ``i`` is due at ``start + i / rate`` and goes over connection
    ``i % OPEN_CONNECTIONS``, each driven by its own thread.  Latency runs
    from the due time, so a stall also delays every request queued behind
    it; ``lag`` is how late each send left.  Lines repeat after one pass,
    so later passes hit the LRU.
    """
    expected = [r.value if r is not None else None for r in oracle.classify_many(lines)]
    n = int(rate * seconds)
    start = perf_counter() + 0.05
    latencies: list[list[float]] = [[] for _ in range(OPEN_CONNECTIONS)]
    lags: list[list[float]] = [[] for _ in range(OPEN_CONNECTIONS)]
    failed = [0] * OPEN_CONNECTIONS

    def client(k: int) -> None:
        conn = http.client.HTTPConnection(HOST, port, timeout=30.0)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for i in range(k, n, OPEN_CONNECTIONS):
                due = start + i / rate
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                sent = perf_counter()
                line = i % len(lines)
                try:
                    conn.request("POST", "/classify",
                                 body=json.dumps({"message": lines[line]}),
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    body = response.read()
                except (http.client.HTTPException, OSError):
                    failed[k] += 1
                    conn.close()
                    continue
                done = perf_counter()
                if (response.status != 200
                        or json.loads(body)["type"] != expected[line]):
                    failed[k] += 1
                    continue
                latencies[k].append(done - due)
                lags[k].append(sent - due)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(OPEN_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ordered = sorted(x for per in latencies for x in per)
    lag = sorted(x for per in lags for x in per)
    return {
        "attempted": n,
        "failed": sum(failed),
        "p99_ms": _quantile(ordered, 0.99) * 1000.0,
        "p999_ms": _quantile(ordered, 0.999) * 1000.0,
        "lag_p99_ms": _quantile(lag, 0.99) * 1000.0,
    }
