"""repro.stream — the bounded-memory streaming delivery runtime.

Four pieces, mirroring how an ESP actually operates (records arrive from
proxies continuously; the classifier and the dashboards run online):

* :mod:`repro.stream.runner` — lazy time-ordered simulation
  (:func:`iter_simulation` yields records byte-identical to the batch
  :func:`repro.simulate.run_simulation` without materialising them).
* :mod:`repro.stream.sink` — rotating JSONL/gzip shard writer + reader
  with a checksummed manifest.
* :mod:`repro.stream.online` — :class:`OnlineEBRC`, the EBRC pipeline
  run against a live NDR stream (warm-up fit, per-template
  classification cache, novelty mining, periodic refits).
* :mod:`repro.stream.monitor` — sliding-window deliverability monitors
  (bounce rate, per-type spikes, proxy blocklistings, misconfiguration
  windows) emitting alerts as the stream flows.

CLI entry points: ``repro-bounce stream`` (simulate straight into
shards) and ``repro-bounce watch`` (replay a log through OnlineEBRC +
monitors).
"""

import importlib

from repro.stream.runner import (
    StreamingSimulation,
    WorkloadFn,
    iter_chunks,
    iter_simulation,
    merge_spec_streams,
    stream_simulation,
)
from repro.stream.sink import (
    ShardInfo,
    ShardIntegrityError,
    ShardManifest,
    ShardReader,
    ShardWriter,
    iter_delivery_log,
)

__all__ = [
    "Alert",
    "BlocklistMonitor",
    "BounceRateMonitor",
    "BounceTypeMonitor",
    "DeliverabilityMonitor",
    "MisconfigMonitor",
    "OnlineEBRC",
    "OnlineEBRCStats",
    "RecordClassifier",
    "ShardInfo",
    "ShardIntegrityError",
    "ShardManifest",
    "ShardReader",
    "ShardWriter",
    "SlidingWindowCounter",
    "StreamingSimulation",
    "WorkloadFn",
    "iter_chunks",
    "iter_delivery_log",
    "iter_simulation",
    "merge_spec_streams",
    "stream_simulation",
]

#: Names resolved on first use (PEP 562): the monitors and the online
#: EBRC pull in the classifier stack, which a simulation worker never runs.
_LAZY = {
    "Alert": "repro.stream.monitor",
    "BlocklistMonitor": "repro.stream.monitor",
    "BounceRateMonitor": "repro.stream.monitor",
    "BounceTypeMonitor": "repro.stream.monitor",
    "DeliverabilityMonitor": "repro.stream.monitor",
    "MisconfigMonitor": "repro.stream.monitor",
    "RecordClassifier": "repro.stream.monitor",
    "SlidingWindowCounter": "repro.stream.monitor",
    "OnlineEBRC": "repro.stream.online",
    "OnlineEBRCStats": "repro.stream.online",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value
