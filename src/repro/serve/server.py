"""The threaded HTTP daemon with backpressure and graceful drain.

Built on stdlib ``http.server.ThreadingHTTPServer`` (one thread per
connection, HTTP/1.1 keep-alive) so the daemon stays dependency-free.
The handler parses the request head itself (a plain dict of headers,
not ``email.parser``) and writes each reply as one bytes string; a
malformed head or body framing gets a typed JSON error and a closed
connection.  The request path is::

    accept -> parse -> [draining? -> 503] -> read body (bounded)
           -> [gated endpoint? admission gate -> 429/503]
           -> dispatch (repro.serve.handlers) -> respond
           -> latency histogram + status counter

Shutdown contract (SIGTERM/SIGINT or :meth:`ReproServer.drain`):

1. stop accepting new connections (the accept loop exits, the listening
   socket closes — fresh connects are refused);
2. wake queued waiters and turn them away (503 ``draining``);
3. force-close *idle* keep-alive connections (threads parked in
   ``readline`` waiting for a next request exit immediately);
4. wait for every in-flight request to complete — ``daemon_threads``
   is off and ``block_on_close`` on, so ``server_close`` joins them;
5. flush a final metrics snapshot (``snapshot_out``) and exit 0.

``REPRO_SERVE_TEST_DELAY_S`` (env) injects a per-request sleep — a test
hook for exercising backpressure and mid-request drains with real
concurrency; it is never set in production.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
from dataclasses import dataclass
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter, sleep, time

from repro import __version__
from repro.core.ebrc import EBRCHandle
from repro.obs import metrics as obs_metrics
from repro.obs.export import build_snapshot
from repro.serve.errors import (
    ApiError,
    Draining,
    HeaderTooLarge,
    MalformedRequest,
    PayloadTooLarge,
    Unimplemented,
    UriTooLong,
    VersionNotSupported,
    error_body,
)
from repro.serve.handlers import GATED_PATHS, Response, dispatch
from repro.serve.queue import AdmissionGate
from repro.serve.reload import ArtifactWatcher
from repro.serve.state import ServerState

__all__ = ["ReproServer", "ServeConfig", "run_server"]


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    artifact: str
    host: str = "127.0.0.1"
    port: int = 8321  # 0 = ephemeral (the bound port is reported)
    max_inflight: int = 8
    max_queue: int = 32
    max_wait_s: float = 0.5
    reload_interval_s: float = 2.0
    max_body_bytes: int = 8 << 20
    trace_sample: int = 0
    trace_capacity: int = 256
    keepalive_timeout_s: float = 5.0
    snapshot_out: str | None = None
    port_file: str | None = None


#: ``http.client``'s limits on a request head: bytes per line (CRLF
#: included), and lines per header block (its closing blank line included).
_MAX_LINE = 65536
_MAX_HEADER_LINES = 100
#: The reply to each framing status ``send_error`` is asked for.
_FRAMING_ERRORS = {
    cls.status: cls
    for cls in (MalformedRequest, UriTooLong, HeaderTooLarge,
                Unimplemented, VersionNotSupported)
}


class _ConnectionRegistry:
    """Tracks open connections and whether each is mid-request, so a
    drain can force-close the idle ones instead of waiting out their
    keep-alive timeouts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._busy: dict[socket.socket, bool] = {}

    def register(self, conn: socket.socket) -> None:
        with self._lock:
            self._busy[conn] = False

    def unregister(self, conn: socket.socket) -> None:
        with self._lock:
            self._busy.pop(conn, None)

    def set_busy(self, conn: socket.socket, busy: bool) -> None:
        with self._lock:
            if conn in self._busy:
                self._busy[conn] = busy

    def close_idle(self) -> None:
        with self._lock:
            idle = [c for c, busy in self._busy.items() if not busy]
        for conn in idle:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _HTTPServer(ThreadingHTTPServer):
    # In-flight handler threads must survive shutdown and be joined by
    # server_close — that IS the graceful drain.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


def _make_handler(state: ServerState, gate: AdmissionGate,
                  registry: _ConnectionRegistry, config: ServeConfig):
    test_delay_s = float(os.environ.get("REPRO_SERVE_TEST_DELAY_S", "0") or 0)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-serve/{__version__}"
        timeout = config.keepalive_timeout_s
        # With Nagle on, a reply written behind unacknowledged bytes (a
        # 100 Continue, a pipelined reply) stalls ~40ms on the client's
        # delayed ACK.
        disable_nagle_algorithm = True
        # Fully buffer wfile: a reply leaves in one send, when the stdlib
        # flushes after the handler (outside the latency histogram).
        wbufsize = -1
        #: ``(whole second, Date text)``; a thread swaps in a whole new
        #: tuple, so readers never see a torn pair.
        _date = (0, "")

        def setup(self) -> None:  # noqa: D102
            super().setup()
            registry.register(self.connection)

        def finish(self) -> None:  # noqa: D102
            registry.unregister(self.connection)
            super().finish()

        def log_message(self, format: str, *args) -> None:
            pass  # request logging is the metrics registry's job

        # -- request plumbing --------------------------------------------------

        def parse_request(self) -> bool:
            """Parse the request line and header block (RFC 9112 §3, §5).

            Headers land in a plain dict keyed by lower-cased name; the
            first value wins, as ``HTTPMessage.get`` returns it.  Returns
            False once a malformed head has been answered (an empty line
            just closes the connection).
            """
            self.command = None
            self.request_version = "HTTP/0.9"
            self.close_connection = True
            line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            self.requestline = line
            if not line:
                return False
            words = line.split(" ")
            if len(words) != 3 or not words[0] or not words[1]:
                self.send_error(400, f"bad request line {line[:80]!r}")
                return False
            method, target, version = words
            if len(version) != 8 or version[:7] != "HTTP/1." or version[7] not in "0123456789":
                major = version[5:].partition(".")[0]
                if (version[:5] == "HTTP/" and major.isascii() and major.isdigit()
                        and major.lstrip("0") not in ("", "1")):
                    self.send_error(505, "only HTTP/1.0 and HTTP/1.1 are supported")
                else:
                    self.send_error(400, f"bad HTTP version {version[:80]!r}")
                return False
            self.command, self.request_version = method, version
            # As the stdlib does: '//host/x' must not read as a URI authority.
            self.path = "/" + target.lstrip("/") if target[:2] == "//" else target
            self.close_connection = version == "HTTP/1.0"
            headers: dict[str, str] = {}
            readline = self.rfile.readline
            for _ in range(_MAX_HEADER_LINES):
                raw = readline(_MAX_LINE + 1)
                if len(raw) > _MAX_LINE:
                    self.send_error(431, f"header line over {_MAX_LINE} bytes")
                    return False
                if raw in (b"\r\n", b"\n", b""):
                    break
                text = raw.decode("iso-8859-1")
                name, colon, value = text.partition(":")
                # No colon, no name, or whitespace in the name (which
                # covers obs-fold continuation lines): RFC 9112 §5.1-5.2.
                if not colon or not name or " " in name or "\t" in name:
                    self.send_error(400, f"bad header line {text.rstrip()[:80]!r}")
                    return False
                key = name.lower()
                value = value.strip(" \t\r\n")
                if key not in headers:
                    headers[key] = value
                elif key == "content-length" and headers[key] != value:
                    # Conflicting lengths become a list, which _read_body rejects.
                    headers[key] += ", " + value
            else:
                self.send_error(431, f"more than {_MAX_HEADER_LINES - 1} header lines")
                return False
            self.headers = headers
            connection = headers.get("connection", "").lower()
            if connection == "close":
                self.close_connection = True
            elif connection == "keep-alive":
                self.close_connection = False
            if (headers.get("expect", "").lower() == "100-continue"
                    and version != "HTTP/1.0"):
                return self.handle_expect_100()
            return True

        def handle_expect_100(self) -> bool:
            """Send ``100 Continue`` now, not behind the final reply."""
            super().handle_expect_100()
            self.wfile.flush()
            return True

        def send_error(self, code: int, message: str | None = None,
                       explain: str | None = None) -> None:
            """Answer a framing failure with a typed JSON error, then close.

            ``parse_request`` calls this, and so does the stdlib for a
            request line over 65536 bytes (414) and an unknown method (501).
            """
            code = int(code)
            error = _FRAMING_ERRORS[code](message or self.responses[code][0])
            self._respond(Response(status=code, body=error_body(error)), error.closes)

        def _read_body(self) -> bytes:
            if "transfer-encoding" in self.headers:
                raise Unimplemented(
                    "Transfer-Encoding is not supported; send a Content-Length body"
                )
            text = self.headers.get("content-length", "0")
            if not (text.isascii() and text.isdigit()):
                raise MalformedRequest(
                    f"Content-Length must be one decimal number, got {text[:80]!r}"
                )
            # No 19-digit length is within the limit, and int() refuses
            # a string of more than 4300 digits.
            length = int(text) if len(text) < 19 else config.max_body_bytes + 1
            if length > config.max_body_bytes:
                raise PayloadTooLarge(
                    f"body of {text} bytes exceeds the "
                    f"{config.max_body_bytes}-byte limit"
                )
            if not length:
                return b""
            try:
                body = self.rfile.read(length)
            except TimeoutError:  # the client stalled mid-body
                body = b""
            if len(body) < length:
                raise MalformedRequest(
                    f"request body cut short of its Content-Length, {length}"
                )
            return body

        def _respond(self, response: Response, close: bool = False) -> None:
            """Write the whole reply at once: the same status line and
            headers, in the same order, as send_response/send_header."""
            now = int(time())
            stamp = Handler._date
            if stamp[0] != now:
                stamp = Handler._date = (now, formatdate(now, usegmt=True))
            status = response.status
            head = (
                f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {stamp[1]}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(response.body)}\r\n"
            )
            for key, value in response.headers.items():
                head += f"{key}: {value}\r\n"
            if close or state.draining.is_set():
                head += "Connection: close\r\n"
                self.close_connection = True
            self.wfile.write((head + "\r\n").encode("latin-1") + response.body)

        def _handle(self, method: str) -> None:
            registry.set_busy(self.connection, True)
            t0 = perf_counter()
            path, _, query = self.path.partition("?")
            close = False
            try:
                if state.draining.is_set():
                    raise Draining("server is draining", retry_after=1)
                body = self._read_body()
                if path in GATED_PATHS:
                    with gate.admit():
                        # The test hook stretches the *gated* section, so
                        # saturation tests can pin down real backpressure.
                        if test_delay_s:
                            sleep(test_delay_s)
                        response = dispatch(state, method, path, body, query)
                else:
                    response = dispatch(state, method, path, body, query)
            except ApiError as exc:
                response = Response(status=exc.status, body=error_body(exc))
                if exc.retry_after is not None:
                    response.headers["Retry-After"] = str(exc.retry_after)
                close = exc.closes
            except Exception as exc:  # noqa: BLE001 — typed 500, keep serving
                payload = {"error": {"code": "internal",
                                     "message": f"{type(exc).__name__}: {exc}"}}
                response = Response(
                    status=500, body=(json.dumps(payload) + "\n").encode("utf-8")
                )
            try:
                self._respond(response, close)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True
            finally:
                state.record_request(path, response.status, perf_counter() - t0)
                registry.set_busy(self.connection, False)

        def do_GET(self) -> None:  # noqa: N802
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._handle("POST")

        def do_PUT(self) -> None:  # noqa: N802
            self._handle("PUT")

        def do_DELETE(self) -> None:  # noqa: N802
            self._handle("DELETE")

    return Handler


class ReproServer:
    """The daemon object: build, serve, drain.

    Usable two ways: the CLI calls :meth:`serve_forever` on the main
    thread (signals installed by :func:`run_server`), tests call
    :meth:`start` / :meth:`drain` (or use it as a context manager) to
    run it on a background thread against an ephemeral port.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        # Telemetry must be live before any instrumented object (EBRC,
        # monitors, gate) binds its instruments.
        self._prior_obs = obs_metrics.enabled()
        if not self._prior_obs:
            obs_metrics.enable()
        handle = EBRCHandle.from_artifact(config.artifact)
        self.state = ServerState(
            handle,
            trace_sample=config.trace_sample,
            trace_capacity=config.trace_capacity,
        )
        self.gate = AdmissionGate(
            max_inflight=config.max_inflight,
            max_queue=config.max_queue,
            max_wait_s=config.max_wait_s,
        )
        self.watcher = ArtifactWatcher(self.state, config.reload_interval_s)
        self._registry = _ConnectionRegistry()
        self._httpd = _HTTPServer(
            (config.host, config.port),
            _make_handler(self.state, self.gate, self._registry, config),
        )
        self._serve_thread: threading.Thread | None = None
        self._serving = False
        self._drain_started = threading.Event()
        self._drain_done = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _write_port_file(self) -> None:
        if self.config.port_file:
            Path(self.config.port_file).write_text(
                f"{self.port}\n", encoding="utf-8"
            )

    # -- lifecycle ---------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until drained."""
        if self.config.reload_interval_s > 0:  # 0 = off: no polling thread
            self.watcher.start()
        self._write_port_file()
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ReproServer":
        """Run the accept loop on a background thread (tests, loadgen)."""
        if self.config.reload_interval_s > 0:  # 0 = off: no polling thread
            self.watcher.start()
        self._write_port_file()
        self._serving = True
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
        )
        self._serve_thread.start()
        return self

    def drain(self) -> None:
        """Graceful shutdown; idempotent, safe from any thread.  A second
        caller (e.g. the CLI after a signal-triggered drain) blocks until
        the first finishes, so returning from drain always means the
        final snapshot is on disk."""
        if self._drain_started.is_set():
            self._drain_done.wait()
            return
        self._drain_started.set()
        self.state.draining.set()      # new requests -> 503 + Connection: close
        self.gate.drain()              # wake queued waiters, turn them away
        self.watcher.stop()
        if self._serving:
            self._httpd.shutdown()     # stop accepting; accept loop exits
        self._registry.close_idle()    # kick threads parked on keep-alive
        self._httpd.server_close()     # close listener, JOIN in-flight threads
        if self._serve_thread is not None:
            self._serve_thread.join()
        if self.config.snapshot_out:
            snapshot = build_snapshot()
            Path(self.config.snapshot_out).write_text(
                json.dumps(snapshot, indent=2) + "\n", encoding="utf-8"
            )
        if not self._prior_obs:
            obs_metrics.disable()
            obs_metrics.reset()
        self._drain_done.set()

    # -- context manager ---------------------------------------------------------

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()


def run_server(config: ServeConfig, status=None) -> int:
    """CLI entry: serve on the main thread, drain on SIGTERM/SIGINT.

    Returns 0 after a clean drain — the exit-code half of the shutdown
    contract.  ``status`` is an optional ``print``-like callable for
    progress chatter (the CLI passes its stderr writer).
    """
    say = status if status is not None else (lambda *_: None)
    server = ReproServer(config)

    def _trigger_drain(signum, frame):
        # serve_forever runs on this very thread, so the drain (which
        # blocks on shutdown()) must run elsewhere.
        threading.Thread(target=server.drain, name="repro-serve-drain").start()

    previous = {
        sig: signal.signal(sig, _trigger_drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        say(f"repro-serve listening on {server.url} "
            f"(model gen {server.state.handle.generation}, "
            f"{server.state.handle.n_templates} templates)")
        server.serve_forever()
        server.drain()  # no-op if a signal already drained us
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    say("repro-serve drained cleanly"
        + (f"; snapshot: {config.snapshot_out}" if config.snapshot_out else ""))
    return 0
