"""HTTP/1.1 framing of the serve daemon, over raw sockets.

The ``http.client`` tests in ``test_serve.py`` only ever send what a
well-behaved client sends.  These tests write the bytes themselves:
keep-alive and pipelining, HTTP/1.0, the head limits, malformed request
lines and headers, ``Content-Length`` / ``Transfer-Encoding`` framing,
``Expect: 100-continue``, and the exact reply heads.  Every socket has a
timeout, so a server that stalls fails a test instead of hanging it.
"""

import json
import re
import socket
import time
from email.utils import parsedate_to_datetime
from http.server import BaseHTTPRequestHandler

import pytest

from repro import __version__
from repro.core.ebrc import EBRC
from repro.serve import ReproServer, ServeConfig

TIMEOUT_S = 5.0
MAX_BODY = 4096
SERVER_HEADER = f"repro-serve/{__version__} {BaseHTTPRequestHandler.sys_version}"
IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
    r"\d\d:\d\d:\d\d GMT"
)


@pytest.fixture(scope="module")
def corpus(dataset):
    return dataset.ndr_messages()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("serve-http") / "ebrc.json"
    EBRC().fit(corpus[:2000]).save(path)
    return path


@pytest.fixture(scope="module")
def server(artifact):
    """A short keep-alive timeout, so a request that leaves the server
    waiting for bytes resolves quickly."""
    config = ServeConfig(artifact=str(artifact), port=0, keepalive_timeout_s=1.0,
                         max_body_bytes=MAX_BODY)
    with ReproServer(config) as srv:
        yield srv


def request(method, path, body=b"", *, version="HTTP/1.1", headers=None):
    """The bytes of one request; ``headers`` replace the defaults."""
    if headers is None:
        headers = ["Host: 127.0.0.1"]
        if body or method == "POST":
            headers += [f"Content-Length: {len(body)}",
                        "Content-Type: application/json"]
    head = f"{method} {path} {version}\r\n" + "".join(h + "\r\n" for h in headers)
    return head.encode("latin-1") + b"\r\n" + body


def classify(message, **kwargs):
    return request("POST", "/classify", json.dumps({"message": message}).encode(),
                   **kwargs)


class Reply:
    def __init__(self, status_line, headers, body):
        self.status_line = status_line
        self.status = int(status_line.split(" ")[1])
        self.headers = headers          # [(name, value)] in wire order
        self.body = body

    def header(self, name):
        return dict(self.headers).get(name)

    def json(self):
        return json.loads(self.body)


class Conn:
    """One raw client connection that reads replies by their framing."""

    def __init__(self, srv):
        self.sock = socket.create_connection((srv.host, srv.port), timeout=TIMEOUT_S)
        self.buf = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()

    def send(self, data):
        self.sock.sendall(data)

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise EOFError("server closed the connection")
        self.buf += chunk

    def reply(self):
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = [tuple(line.split(": ", 1)) for line in lines]
        length = int(dict(headers).get("Content-Length", 0))
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return Reply(status_line, headers, body)

    def exchange(self, data):
        self.send(data)
        return self.reply()

    def closed(self):
        """True once the server has closed its end (EOF or reset)."""
        try:
            return not self.buf and self.sock.recv(1) == b""
        except ConnectionResetError:
            return True


class TestKeepAlive:
    def test_two_hundred_requests_on_one_connection(self, server, corpus, artifact):
        oracle = EBRC.load(artifact)
        messages = corpus[:200]
        with Conn(server) as conn:
            for message in messages:
                reply = conn.exchange(classify(message))
                assert reply.status == 200
                want = oracle.classify(message)
                assert reply.json()["type"] == (want.value if want else None)
                assert reply.header("Connection") is None

    def test_pipelined_requests_answered_in_order(self, server):
        with Conn(server) as conn:
            conn.send(request("GET", "/healthz") + classify("550 5.1.1 user unknown")
                      + request("GET", "/"))
            assert conn.reply().json()["status"] == "ok"
            assert "type" in conn.reply().json()
            assert conn.reply().json()["service"] == "repro-serve"

    def test_http10_closes_by_default(self, server):
        with Conn(server) as conn:
            reply = conn.exchange(request("GET", "/healthz", version="HTTP/1.0"))
            assert reply.status == 200
            assert conn.closed()

    def test_http10_keep_alive_stays_open(self, server):
        keep = ["Host: 127.0.0.1", "Connection: keep-alive"]
        with Conn(server) as conn:
            for _ in range(2):
                reply = conn.exchange(request("GET", "/healthz", version="HTTP/1.0",
                                              headers=keep))
                assert reply.status == 200

    @pytest.mark.parametrize("value", ["close", "CLOSE"])
    def test_connection_close_closes(self, server, value):
        with Conn(server) as conn:
            reply = conn.exchange(request(
                "GET", "/healthz", headers=["Host: x", f"Connection: {value}"]))
            assert reply.status == 200
            assert conn.closed()

    def test_header_names_in_any_case(self, server):
        body = json.dumps({"message": "550 5.1.1 user unknown"}).encode()
        with Conn(server) as conn:
            for name in ("content-length", "CONTENT-LENGTH", "cOnTeNt-LeNgTh"):
                reply = conn.exchange(request("POST", "/classify", body, headers=[
                    "HOST: x", f"{name}: {len(body)}"]))
                assert reply.status == 200
                assert "type" in reply.json()
            reply = conn.exchange(request("GET", "/", headers=["cOnNeCtIoN: close"]))
            assert reply.status == 200
            assert conn.closed()

    def test_repeated_equal_content_length_accepted(self, server):
        body = json.dumps({"message": "550 5.1.1 user unknown"}).encode()
        lines = [f"Content-Length: {len(body)}"] * 2
        with Conn(server) as conn:
            assert conn.exchange(request("POST", "/classify", body,
                                         headers=lines)).status == 200

    def test_double_slash_target_routes(self, server):
        with Conn(server) as conn:
            reply = conn.exchange(request(
                "POST", "//classify", json.dumps({"message": "550 x"}).encode()))
            assert reply.status == 200
            assert "type" in reply.json()


class TestHeadLimits:
    @staticmethod
    def _line(length):
        """One header line of exactly ``length`` bytes, CRLF included."""
        line = "X-Pad: " + "a" * (length - 9)
        assert len(line) + 2 == length
        return line

    def test_longest_header_line_passes(self, server):
        with Conn(server) as conn:
            reply = conn.exchange(request("GET", "/healthz",
                                          headers=[self._line(65536)]))
            assert reply.status == 200

    def test_longer_header_line_gets_431(self, server):
        with Conn(server) as conn:
            reply = conn.exchange(request("GET", "/healthz",
                                          headers=[self._line(65537)]))
            assert reply.status == 431

    def test_header_line_count(self, server):
        """100 lines in a header block, its closing blank line included,
        as ``http.client`` counts them: 99 fields pass, 100 do not."""
        fields = [f"X-H{i}: v" for i in range(100)]
        with Conn(server) as conn:
            assert conn.exchange(request("GET", "/healthz",
                                         headers=fields[:99])).status == 200
        with Conn(server) as conn:
            assert conn.exchange(request("GET", "/healthz",
                                         headers=fields)).status == 431


class TestReplyHeads:
    """Reply heads byte for byte: names, order and values, Date aside."""

    @staticmethod
    def _check_date(reply, before, after):
        name, date = reply.headers[1]
        assert name == "Date"
        assert IMF_FIXDATE.fullmatch(date)
        stamp = parsedate_to_datetime(date).timestamp()
        assert int(before) <= stamp <= after

    def test_ok_head(self, server):
        with Conn(server) as conn:
            before = time.time()
            reply = conn.exchange(classify("550 5.1.1 user unknown"))
            after = time.time()
        assert reply.status_line == "HTTP/1.1 200 OK"
        self._check_date(reply, before, after)
        assert [h for h in reply.headers if h[0] != "Date"] == [
            ("Server", SERVER_HEADER),
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(reply.body))),
        ]

    def test_backpressure_head(self, artifact, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TEST_DELAY_S", "0.5")
        config = ServeConfig(artifact=str(artifact), port=0, max_inflight=1,
                             max_queue=0, max_wait_s=0.05)
        with ReproServer(config) as srv, Conn(srv) as busy, Conn(srv) as shed:
            busy.send(classify("550 x"))
            deadline = time.monotonic() + TIMEOUT_S
            while srv.gate.inflight == 0:  # until it holds the only slot
                assert time.monotonic() < deadline
                time.sleep(0.005)
            before = time.time()
            reply = shed.exchange(classify("550 y"))
            after = time.time()
            assert busy.reply().status == 200
        assert reply.status_line == "HTTP/1.1 429 Too Many Requests"
        assert reply.json()["error"]["code"] == "backpressure"
        self._check_date(reply, before, after)
        assert [h for h in reply.headers if h[0] != "Date"] == [
            ("Server", SERVER_HEADER),
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(reply.body))),
            ("Retry-After", "1"),
        ]

    def test_draining_head(self, artifact):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv, Conn(srv) as conn:
            srv.state.draining.set()
            before = time.time()
            reply = conn.exchange(classify("550 x"))
            after = time.time()
            assert conn.closed()
        assert reply.status_line == "HTTP/1.1 503 Service Unavailable"
        assert reply.json()["error"]["code"] == "draining"
        self._check_date(reply, before, after)
        assert [h for h in reply.headers if h[0] != "Date"] == [
            ("Server", SERVER_HEADER),
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(reply.body))),
            ("Retry-After", "1"),
            ("Connection", "close"),
        ]


def _assert_closing_error(conn, reply, status, code, capfd):
    """A typed JSON error with a status line, after which the server
    closes the connection, and no traceback on the server's stderr."""
    assert reply.status == status
    assert reply.status_line.startswith(f"HTTP/1.1 {status} ")
    assert reply.header("Content-Type") == "application/json; charset=utf-8"
    assert reply.header("Connection") == "close"
    assert reply.json()["error"]["code"] == code
    assert conn.closed()
    assert "Traceback" not in capfd.readouterr().err


class TestExpectContinue:
    def test_interim_reply_arrives_before_the_body(self, server):
        body = json.dumps({"message": "550 5.1.1 user unknown"}).encode()
        head = request("POST", "/classify", headers=[
            "Host: x", f"Content-Length: {len(body)}", "Expect: 100-continue"])
        with Conn(server) as conn:
            conn.sock.settimeout(1.0)
            conn.send(head)
            want = b"HTTP/1.1 100 Continue\r\n\r\n"
            while len(conn.buf) < len(want):
                conn._fill()
            assert conn.buf[:len(want)] == want
            conn.buf = conn.buf[len(want):]
            conn.sock.settimeout(TIMEOUT_S)
            reply = conn.exchange(body)
            assert reply.status == 200
            assert "type" in reply.json()


class TestBodyFraming:
    @pytest.mark.parametrize("value", ["-1", "abc", "+97", "1e2", " ", "\xb2"])
    def test_content_length_must_be_digits(self, server, value, capfd):
        body = b'{"message": "550 x"}'
        with Conn(server) as conn:
            reply = conn.exchange(request("POST", "/classify", body, headers=[
                "Host: x", f"Content-Length: {value}"]))
            _assert_closing_error(conn, reply, 400, "bad_request", capfd)

    def test_conflicting_content_lengths(self, server, capfd):
        body = b'{"message": "550 x"}'
        with Conn(server) as conn:
            reply = conn.exchange(request("POST", "/classify", body, headers=[
                "Host: x", f"Content-Length: {len(body)}", "Content-Length: 5"]))
            _assert_closing_error(conn, reply, 400, "bad_request", capfd)

    def test_transfer_encoding_not_implemented(self, server, capfd):
        chunked = b'14\r\n{"message": "550 x"}\r\n0\r\n\r\n'
        with Conn(server) as conn:
            reply = conn.exchange(request("POST", "/classify", chunked, headers=[
                "Host: x", "Transfer-Encoding: chunked"]))
            _assert_closing_error(conn, reply, 501, "not_implemented", capfd)

    def test_body_cut_short_by_timeout(self, server, capfd):
        with Conn(server) as conn:
            conn.send(request("POST", "/classify", headers=[
                "Host: x", "Content-Length: 100"]) + b'{"message": ')
            reply = conn.reply()  # after the server's 1 s read timeout
            _assert_closing_error(conn, reply, 400, "bad_request", capfd)

    def test_oversized_body_closes(self, server, capfd):
        body = json.dumps({"message": "x" * MAX_BODY}).encode()
        with Conn(server) as conn:
            reply = conn.exchange(request("POST", "/classify", body))
            _assert_closing_error(conn, reply, 413, "payload_too_large", capfd)

    def test_length_past_int_digit_limit(self, server, capfd):
        with Conn(server) as conn:
            reply = conn.exchange(request("POST", "/classify", b"{}", headers=[
                "Host: x", "Content-Length: " + "9" * 5000]))
            _assert_closing_error(conn, reply, 413, "payload_too_large", capfd)


class TestFramingErrors:
    @pytest.mark.parametrize("raw", [
        b"GET /healthz\r\n\r\n",
        b"GET /healthz HTTP/1.1 extra\r\n\r\n",
        b"GET  /healthz HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1\r\n\r\n",
        b"GET /healthz HTTP/0.9\r\n\r\n",
        b"GET /healthz http/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n: empty name\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost : x\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n\tX-A: 1\r\n\r\n",
    ])
    def test_malformed_head_gets_400(self, server, raw, capfd):
        with Conn(server) as conn:
            reply = conn.exchange(raw)
            _assert_closing_error(conn, reply, 400, "bad_request", capfd)

    def test_request_line_too_long_gets_414(self, server, capfd):
        with Conn(server) as conn:
            reply = conn.exchange(request("GET", "/" + "a" * 65536))
            _assert_closing_error(conn, reply, 414, "uri_too_long", capfd)

    @pytest.mark.parametrize("fields", [
        ["X-Pad: " + "a" * 65536],
        [f"X-H{i}: v" for i in range(100)],
    ], ids=["long-line", "many-lines"])
    def test_oversized_head_gets_431(self, server, fields, capfd):
        with Conn(server) as conn:
            reply = conn.exchange(request("GET", "/healthz", headers=fields))
            _assert_closing_error(conn, reply, 431, "header_too_large", capfd)

    def test_unknown_method_gets_501(self, server, capfd):
        with Conn(server) as conn:
            reply = conn.exchange(request("PATCH", "/classify"))
            _assert_closing_error(conn, reply, 501, "not_implemented", capfd)

    @pytest.mark.parametrize("version", ["HTTP/2.0", "HTTP/3.0", "HTTP/2"])
    def test_http2_gets_505(self, server, version, capfd):
        with Conn(server) as conn:
            reply = conn.exchange(request("GET", "/healthz", version=version))
            _assert_closing_error(conn, reply, 505, "http_version_not_supported",
                                  capfd)
