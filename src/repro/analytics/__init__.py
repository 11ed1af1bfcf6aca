"""Mergeable streaming analytics: the paper's tables over unbounded corpora.

The subsystem has three layers:

* :mod:`repro.analytics.accumulators` — the algebra: small, serializable
  accumulators (counters, distinct sets, top-K trackers, quantile
  sketches, gap-merged episode trackers) whose ``merge`` is commutative
  and associative and whose ``snapshot``/``restore`` round-trips are
  versioned, mirroring the :meth:`repro.obs.metrics.MetricsRegistry.merge`
  contract.
* :mod:`repro.analytics.suite` — :class:`TableSuite`, one ``observe``
  per :class:`~repro.delivery.records.DeliveryRecord` feeding every
  accumulator the paper's tables need; each table/figure computation in
  :mod:`repro.analysis` has a streaming twin here asserted equal to the
  batch implementation.
* :mod:`repro.analytics.render` / :mod:`repro.analytics.batch` — the
  shared deterministic renderer and the materialized batch twin, so the
  streaming and batch paths emit byte-identical reports.

See docs/ANALYTICS.md for the accumulator contract and error bounds.
"""

from repro.analytics.accumulators import (
    DistinctSet,
    KeyedDistinct,
    KeyedEpisodes,
    KeyedMax,
    KeyedMin,
    LabeledCounter,
    QuantileSketch,
    ScalarStat,
    SnapshotError,
    TopK,
    restore,
)
from repro.analytics.suite import SUITE_SNAPSHOT_VERSION, TableSuite
from repro.delivery.dataset import RecordDecodeError, iter_ndjson_records

__all__ = [
    "DistinctSet",
    "KeyedDistinct",
    "KeyedEpisodes",
    "KeyedMax",
    "KeyedMin",
    "LabeledCounter",
    "QuantileSketch",
    "RecordDecodeError",
    "SUITE_SNAPSHOT_VERSION",
    "ScalarStat",
    "SnapshotError",
    "TableSuite",
    "TopK",
    "iter_ndjson_records",
    "restore",
]
