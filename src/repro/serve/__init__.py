"""`repro serve` — the long-running classify/monitor daemon.

This package turns the batch reproduction into a production-style
service: a dependency-free HTTP daemon exposing the warm EBRC
(:class:`~repro.core.ebrc.EBRCHandle`), the sliding-window
deliverability monitors, and the :mod:`repro.obs` metric/trace
snapshots — plus the closed-loop load harness that drives it with the
simulator's own NDR traffic and verifies every response against serial
``classify_many``.

Layout:

* :mod:`repro.serve.errors`   — typed API errors -> JSON error bodies.
* :mod:`repro.serve.queue`    — bounded admission gate (backpressure).
* :mod:`repro.serve.state`    — shared server state: model handle,
  monitors, trace ring, request telemetry.
* :mod:`repro.serve.handlers` — the endpoint router (pure functions:
  ``(state, method, path, body) -> Response``).
* :mod:`repro.serve.reload`   — artifact watcher for hot model reload.
* :mod:`repro.serve.head`     — the HTTP header-block reader the daemon
  and the load generator share.
* :mod:`repro.serve.server`   — the threaded HTTP daemon with graceful
  drain.
* :mod:`repro.serve.loadgen`  — closed-loop load generator (a lean
  HTTP/1.1 client) and ``BENCH_serve.json`` writer.

See docs/SERVING.md for the endpoint reference and operational notes.
"""

from repro.serve.loadgen import LoadConfig, LoadReport, run_loadtest, synth_corpus
from repro.serve.server import ReproServer, ServeConfig, run_server

__all__ = [
    "LoadConfig",
    "LoadReport",
    "ReproServer",
    "ServeConfig",
    "run_loadtest",
    "run_server",
    "synth_corpus",
]
