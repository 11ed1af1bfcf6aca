"""Shared daemon state: the model handle, live monitors, trace ring,
and request telemetry.

One :class:`ServerState` is built at startup and shared by every request
thread, the artifact watcher, and the drain path.  Concurrency rules:

* classification goes through :class:`~repro.core.ebrc.EBRCHandle`
  (its own lock — serialized with hot reloads);
* the deliverability monitors are single-stream objects, so
  ``observe_record`` holds a monitor lock;
* the trace ring is a ``deque(maxlen=...)`` (append is atomic);
* metrics use the process-wide :mod:`repro.obs.metrics` registry, which
  the server enables before any instrumented object is built.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic

from repro import __version__
from repro.analytics.suite import TableSuite
from repro.core.ebrc import EBRCHandle
from repro.delivery.records import DeliveryRecord
from repro.obs import metrics as obs_metrics
from repro.obs.trace import sample_hit, span_tree_from_record
from repro.stream.monitor import Alert, DeliverabilityMonitor
from repro.util.clock import SimClock

__all__ = ["ServerState", "alert_payload"]

#: Most recent raised/cleared alerts kept for ``GET /monitors``.
RECENT_ALERTS = 100


def alert_payload(alert: Alert) -> dict:
    return {
        "t": alert.t,
        "kind": alert.kind,
        "subject": alert.subject,
        "message": alert.message,
        "severity": alert.severity,
        "cleared": alert.cleared,
    }


class ServerState:
    """Everything the handlers need, behind the locks they need it under."""

    def __init__(
        self,
        handle: EBRCHandle,
        *,
        trace_sample: int = 0,
        trace_capacity: int = 256,
        monitor: DeliverabilityMonitor | None = None,
    ) -> None:
        self.handle = handle
        self.monitor = monitor if monitor is not None else DeliverabilityMonitor()
        self.clock = SimClock()
        #: Live streaming analytics over every record POSTed to /observe;
        #: read by ``GET /report`` and the sketch gauges on /metrics.
        self.suite = TableSuite(self.clock)
        self.trace_sample = trace_sample
        self.traces: deque[dict] = deque(maxlen=max(1, trace_capacity))
        self.recent_alerts: deque[dict] = deque(maxlen=RECENT_ALERTS)
        self.draining = threading.Event()
        self._monitor_lock = threading.Lock()
        self._started = monotonic()
        # Telemetry (no-op unless repro.obs is enabled at construction).
        self._m_requests = obs_metrics.counter(
            "repro_serve_requests_total", "HTTP requests handled, by endpoint",
            label="endpoint",
        )
        self._m_responses = obs_metrics.counter(
            "repro_serve_responses_total", "HTTP responses sent, by status",
            label="status",
        )
        self._m_latency = obs_metrics.histogram(
            "repro_serve_request_seconds",
            "Request handling latency in seconds, by endpoint",
            label="endpoint", base=2.0, min_bound=0.0001,
        )
        self._m_observed = obs_metrics.counter(
            "repro_serve_observed_records_total",
            "Delivery records fed to the monitors via POST /observe",
        )
        self._m_reloads = obs_metrics.counter(
            "repro_serve_reloads_total",
            "Successful EBRC hot reloads, by trigger",
            label="trigger",
        )
        self._m_build_info = obs_metrics.gauge(
            "repro_build_info",
            "Build metadata: constant 1 with the version as a label",
            label="version",
        )
        self._m_build_info.labels(__version__).set(1.0)
        self._m_uptime = obs_metrics.gauge(
            "repro_serve_uptime_seconds",
            "Seconds since this server process started",
        )
        self._m_report_quantiles = {
            name: obs_metrics.gauge(
                name, help_text, label="quantile"
            )
            for name, help_text in (
                ("repro_report_recovery_hours",
                 "Sketch-estimated soft-bounce recovery delay quantiles (hours)"),
                ("repro_report_greylist_delay_seconds",
                 "Sketch-estimated greylist pass delay quantiles (seconds)"),
            )
        }

    # -- request accounting -------------------------------------------------------

    def record_request(self, endpoint: str, status: int, seconds: float) -> None:
        self._m_requests.labels(endpoint).inc()
        self._m_responses.labels(str(status)).inc()
        self._m_latency.labels(endpoint).observe(seconds)

    def record_reload(self, trigger: str) -> None:
        self._m_reloads.labels(trigger).inc()

    @property
    def uptime_s(self) -> float:
        return monotonic() - self._started

    def refresh_scrape_gauges(self) -> None:
        """Point-in-time gauges recomputed per /metrics scrape: uptime and
        the sketch-derived quantile estimates of the live table suite."""
        self._m_uptime.set(self.uptime_s)
        with self._monitor_lock:
            gauges = self.suite.sketch_gauges()
        for name, quantiles in gauges.items():
            metric = self._m_report_quantiles.get(name)
            if metric is None:
                continue
            for label, value in quantiles.items():
                metric.labels(label).set(value)

    # -- monitors -----------------------------------------------------------------

    def observe_record(self, record: DeliveryRecord) -> list[Alert]:
        """Classify the record's first failure (if any) and feed the
        monitors; optionally keep its reconstructed span tree."""
        failure = record.first_failure()
        bounce_type = (
            self.handle.classify(failure.result) if failure is not None else None
        )
        with self._monitor_lock:
            alerts = self.monitor.observe(record, bounce_type)
            self.suite.observe(record)
            self._m_observed.inc()
            for alert in alerts:
                self.recent_alerts.append(alert_payload(alert))
        if self.trace_sample and sample_hit(record.message_id, self.trace_sample):
            self.traces.append(span_tree_from_record(record).to_dict())
        return alerts

    def report_payload(self, top: int = 10) -> dict:
        """The ``GET /report`` body: the live table payload plus the
        heavy-hitter lists."""
        with self._monitor_lock:
            return self.suite.live_payload(top)

    def report_text(self, top: int = 10) -> str:
        """The ``GET /report?format=text`` body — rendered by the same
        deterministic renderer `repro report` uses."""
        from repro.analytics.render import render_report

        with self._monitor_lock:
            payload = self.suite.tables(top)
        return render_report(payload, top)

    def monitors_payload(self) -> dict:
        """The ``GET /monitors`` body: composite counters plus each
        monitor's live state."""
        with self._monitor_lock:
            rate_mon, type_mon, block_mon, misconfig_mon = self.monitor.monitors
            return {
                "records": self.monitor.n_records,
                "bounced": self.monitor.n_bounced,
                "alert_counts": dict(self.monitor.alert_counts),
                "bounce_rate": {
                    "windowed_rate": rate_mon.rate(),
                    "threshold": rate_mon.threshold,
                    "active": rate_mon._active,
                },
                "bounce_types": {
                    "windowed_counts": dict(type_mon._window.counts()),
                    "active_spikes": sorted(type_mon._active),
                },
                "blocklist": {
                    "listed_proxies": sorted(block_mon.listed_proxies),
                },
                "misconfig": {
                    "open_episodes": [
                        {"type": value, "entity": entity,
                         "start": start, "bounces": n_bounces}
                        for (value, entity), (start, n_bounces)
                        in sorted(misconfig_mon.open_episodes.items())
                    ],
                },
                "recent_alerts": list(self.recent_alerts),
            }
