"""repro.obs — the observability layer.

Four small, dependency-free pieces:

* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  log-bucketed histograms with no-op defaults when disabled.
* :mod:`repro.obs.trace` — per-email span trees over the delivery
  pipeline, rebuilt from delivery records.
* :mod:`repro.obs.profile` — wall-time aggregation per pipeline stage.
* :mod:`repro.obs.export` — Prometheus text exposition and JSON
  snapshots.

Telemetry is **off by default**; simulation output is byte-identical with
it on or off.  Enable with :func:`repro.obs.metrics.enable`, the env var
``REPRO_OBS=1``, or the CLI's ``--metrics-out`` flag.  Instrumented
objects read the enabled flag when *constructed*, so turn telemetry on
before building a world/engine.
"""

from repro.obs.metrics import disable, enable, enabled, get_registry, reset

__all__ = ["disable", "enable", "enabled", "get_registry", "reset"]
