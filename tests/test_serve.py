"""Tests for the serving daemon (repro.serve): endpoints, typed errors,
backpressure, hot reload, and drain semantics — all in-process against
an ephemeral port."""

import http.client
import json
import shutil
import threading
import time

import pytest

from repro.core.ebrc import EBRC, EBRCHandle, artifact_fingerprint
from repro.serve import ReproServer, ServeConfig
from repro.serve.errors import Draining, TooManyRequests
from repro.serve.queue import AdmissionGate
from repro.serve.reload import ArtifactWatcher
from repro.serve.state import ServerState


@pytest.fixture(scope="module")
def corpus(dataset):
    return dataset.ndr_messages()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, corpus):
    """A saved EBRC artifact the daemon can serve from."""
    path = tmp_path_factory.mktemp("serve") / "ebrc.json"
    EBRC().fit(corpus[:4000]).save(path)
    return path


@pytest.fixture(scope="module")
def server(artifact):
    """One module-wide daemon on an ephemeral port, traces armed."""
    config = ServeConfig(artifact=str(artifact), port=0, trace_sample=1)
    with ReproServer(config) as srv:
        yield srv


def _http(srv, method, path, payload=None, raw_body=None, headers=None):
    """One request against a ReproServer; returns (status, headers, body)."""
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
    try:
        body = raw_body
        if payload is not None:
            body = json.dumps(payload)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        try:
            parsed = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = data
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


class TestEndpoints:
    def test_root_lists_endpoints(self, server):
        status, _, body = _http(server, "GET", "/")
        assert status == 200
        assert body["service"] == "repro-serve"
        assert "/classify" in body["endpoints"]
        assert "/metrics" in body["endpoints"]

    def test_healthz_reports_model_provenance(self, server, artifact):
        status, _, body = _http(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["model"]["generation"] == 1
        assert body["model"]["fingerprint"] == artifact_fingerprint(artifact)
        assert body["model"]["n_templates"] > 0

    def test_classify_matches_local_ebrc(self, server, artifact, corpus):
        oracle = EBRC.load(artifact)
        for message in corpus[:20]:
            status, _, body = _http(
                server, "POST", "/classify", payload={"message": message}
            )
            assert status == 200
            want = oracle.classify(message)
            if want is None:
                assert body["ambiguous"] is True
                assert body["type"] is None
            else:
                assert body["type"] == want.value
                assert body["description"] == want.description

    def test_classify_many_matches_serial(self, server, artifact, corpus):
        messages = corpus[:200]
        status, _, body = _http(
            server, "POST", "/classify_many", payload={"messages": messages}
        )
        assert status == 200
        assert body["n"] == len(messages)
        want = [
            r.value if r is not None else None
            for r in EBRC.load(artifact).classify_many(messages)
        ]
        assert body["types"] == want

    def test_metrics_prometheus_content_type(self, server):
        status, headers, body = _http(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode("utf-8")
        assert "# HELP repro_serve_requests_total" in text
        assert "# TYPE repro_serve_request_seconds histogram" in text

    def test_metrics_json_format(self, server):
        status, headers, body = _http(server, "GET", "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert body["version"] == 1
        names = {f["name"] for f in body["metrics"]}
        assert "repro_serve_requests_total" in names

    def test_observe_feeds_monitors_and_traces(self, server, dataset):
        before = _http(server, "GET", "/monitors")[2]["records"]
        for record in dataset.records[:50]:
            status, _, body = _http(
                server, "POST", "/observe",
                payload={"record": record.to_json_dict()},
            )
            assert status == 200
        status, _, monitors = _http(server, "GET", "/monitors")
        assert status == 200
        assert monitors["records"] == before + 50
        assert set(monitors) >= {
            "records", "bounced", "bounce_rate", "bounce_types",
            "blocklist", "misconfig", "recent_alerts",
        }
        # trace_sample=1 -> every observed record leaves a span tree
        status, _, traces = _http(server, "GET", "/traces")
        assert status == 200
        assert traces["n"] >= 50
        root = traces["traces"][0]
        assert root["name"] == "email"
        assert root["children"]


class TestTypedErrors:
    def test_unknown_path_404(self, server):
        status, _, body = _http(server, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "/classify" in body["error"]["details"]["endpoints"]

    def test_wrong_method_405(self, server):
        status, _, body = _http(server, "GET", "/classify")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert body["error"]["details"]["allowed"] == ["POST"]

    def test_invalid_json_400(self, server):
        status, _, body = _http(
            server, "POST", "/classify", raw_body="{not json"
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_missing_field_400(self, server):
        status, _, body = _http(
            server, "POST", "/classify", payload={"msg": "wrong key"}
        )
        assert status == 400
        assert "message" in body["error"]["message"]

    def test_classify_many_rejects_non_strings(self, server):
        status, _, body = _http(
            server, "POST", "/classify_many", payload={"messages": ["ok", 7]}
        )
        assert status == 400

    def test_oversized_body_413(self, artifact):
        config = ServeConfig(artifact=str(artifact), port=0, max_body_bytes=64)
        with ReproServer(config) as small:
            status, _, body = _http(
                small, "POST", "/classify",
                payload={"message": "x" * 200},
            )
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"


class TestBackpressure:
    def test_gate_admits_and_releases(self):
        gate = AdmissionGate(max_inflight=2, max_queue=1)
        gate.acquire()
        gate.acquire()
        assert gate.inflight == 2
        gate.release()
        gate.release()
        assert gate.inflight == 0

    def test_gate_queue_full_raises_429(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        gate.acquire()
        with pytest.raises(TooManyRequests) as exc_info:
            gate.acquire()
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after >= 1
        gate.release()

    def test_gate_wait_timeout_raises_429(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, max_wait_s=0.05)
        gate.acquire()
        t0 = time.monotonic()
        with pytest.raises(TooManyRequests):
            gate.acquire()
        assert time.monotonic() - t0 >= 0.04
        assert gate.queued == 0  # waiter cleaned up after rejection
        gate.release()

    def test_gate_queued_waiter_admitted_on_release(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, max_wait_s=5.0)
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire()
            admitted.set()
            gate.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        gate.release()
        thread.join(timeout=5)
        assert admitted.is_set()

    def test_gate_drain_rejects_with_503(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4)
        gate.drain()
        with pytest.raises(Draining):
            gate.acquire()

    def test_http_429_with_retry_after(self, artifact, monkeypatch):
        """A saturated daemon sheds load with 429 + Retry-After."""
        monkeypatch.setenv("REPRO_SERVE_TEST_DELAY_S", "0.4")
        config = ServeConfig(
            artifact=str(artifact), port=0,
            max_inflight=1, max_queue=0, max_wait_s=0.05,
        )
        with ReproServer(config) as srv:
            results = []

            def fire():
                results.append(
                    _http(srv, "POST", "/classify", payload={"message": "550 x"})
                )

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        statuses = sorted(status for status, _, _ in results)
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1
        rejected = next(r for r in results if r[0] == 429)
        assert rejected[1]["Retry-After"] == "1"
        assert rejected[2]["error"]["code"] == "backpressure"


class TestHotReload:
    @pytest.fixture()
    def local_artifact(self, tmp_path, artifact):
        path = tmp_path / "ebrc.json"
        shutil.copy(artifact, path)
        return path

    def test_handle_reload_skips_identical_content(self, local_artifact):
        handle = EBRCHandle.from_artifact(local_artifact)
        assert handle.reload() is False
        assert handle.generation == 1
        assert handle.reload(force=True) is True
        assert handle.generation == 2

    def test_handle_reload_picks_up_new_content(self, local_artifact, corpus):
        handle = EBRCHandle.from_artifact(local_artifact)
        EBRC().fit(corpus[:800]).save(local_artifact)
        assert handle.reload() is True
        assert handle.generation == 2
        assert handle.fingerprint == artifact_fingerprint(local_artifact)

    def test_watcher_ignores_touch_without_change(self, local_artifact):
        handle = EBRCHandle.from_artifact(local_artifact)
        watcher = ArtifactWatcher(ServerState(handle), interval_s=60)
        assert watcher.poll_once() is False
        # mtime changes, content does not: the fingerprint gate holds
        time.sleep(0.02)
        local_artifact.touch()
        assert watcher.poll_once() is False
        assert handle.generation == 1

    def test_watcher_swaps_on_content_change(self, local_artifact, corpus):
        handle = EBRCHandle.from_artifact(local_artifact)
        watcher = ArtifactWatcher(ServerState(handle), interval_s=60)
        time.sleep(0.02)
        EBRC().fit(corpus[:800]).save(local_artifact)
        assert watcher.poll_once() is True
        assert handle.generation == 2
        assert watcher.n_reloads == 1

    def test_watcher_keeps_old_model_on_torn_write(self, local_artifact):
        handle = EBRCHandle.from_artifact(local_artifact)
        watcher = ArtifactWatcher(ServerState(handle), interval_s=60)
        old_templates = handle.n_templates
        time.sleep(0.02)
        local_artifact.write_text('{"torn": ')
        assert watcher.poll_once() is False
        assert watcher.last_error is not None
        assert handle.generation == 1
        assert handle.n_templates == old_templates

    def test_admin_reload_endpoint(self, artifact, tmp_path, corpus):
        path = tmp_path / "ebrc.json"
        shutil.copy(artifact, path)
        # Watcher effectively off: only the admin endpoint drives reloads.
        config = ServeConfig(artifact=str(path), port=0,
                             reload_interval_s=3600)
        with ReproServer(config) as srv:
            status, _, body = _http(srv, "POST", "/admin/reload", payload={})
            assert status == 200
            assert body["reloaded"] is False
            assert body["model"]["generation"] == 1

            status, _, body = _http(
                srv, "POST", "/admin/reload", payload={"force": True}
            )
            assert body["reloaded"] is True
            assert body["model"]["generation"] == 2

            EBRC().fit(corpus[:800]).save(path)
            status, _, body = _http(srv, "POST", "/admin/reload", payload={})
            assert body["reloaded"] is True
            assert body["model"]["generation"] == 3
            assert body["model"]["fingerprint"] == artifact_fingerprint(path)

    def test_zero_interval_starts_no_watcher(self, artifact, tmp_path, corpus):
        path = tmp_path / "ebrc.json"
        shutil.copy(artifact, path)
        config = ServeConfig(artifact=str(path), port=0, reload_interval_s=0)
        before = set(threading.enumerate())
        with ReproServer(config) as srv:
            started = [t for t in threading.enumerate() if t not in before]
            assert "repro-serve-reload" not in {t.name for t in started if t.is_alive()}
            EBRC().fit(corpus[:800]).save(path)
            status, _, body = _http(srv, "POST", "/admin/reload", payload={})
            assert status == 200
            assert body["reloaded"] is True
            assert body["model"]["generation"] == 2


class TestDrain:
    def test_draining_state_returns_503(self, artifact):
        config = ServeConfig(artifact=str(artifact), port=0)
        with ReproServer(config) as srv:
            srv.state.draining.set()
            status, headers, body = _http(
                srv, "POST", "/classify", payload={"message": "550 x"}
            )
            assert status == 503
            assert body["error"]["code"] == "draining"
            assert headers["Connection"] == "close"

    def test_drain_refuses_new_connections(self, artifact, tmp_path):
        snapshot = tmp_path / "final.json"
        config = ServeConfig(artifact=str(artifact), port=0,
                             snapshot_out=str(snapshot))
        srv = ReproServer(config).start()
        assert _http(srv, "GET", "/healthz")[0] == 200
        srv.drain()
        with pytest.raises(OSError):
            _http(srv, "GET", "/healthz")
        # the final metrics snapshot was flushed on the way out
        snap = json.loads(snapshot.read_text())
        names = {f["name"] for f in snap["metrics"]}
        assert "repro_serve_requests_total" in names

    def test_drain_is_idempotent(self, artifact):
        config = ServeConfig(artifact=str(artifact), port=0)
        srv = ReproServer(config).start()
        srv.drain()
        srv.drain()  # second call returns once the first completed
