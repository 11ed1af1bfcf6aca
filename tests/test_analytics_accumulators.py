"""Property-style tests of the streaming-aggregation algebra.

Every accumulator kind is driven through the same three laws —

* ``merge`` is commutative and associative (snapshot-identical states),
* folding any split of a stream and merging the partials equals
  observing the whole stream in one accumulator,
* ``snapshot`` -> JSON -> ``restore`` is lossless, across versions —

because those are exactly the properties the parallel runtime leans on
when it merges per-worker partial suites in arbitrary groupings.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from repro.analytics import (
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

_KEYS = [f"k{i:02d}" for i in range(12)]
_ITEMS = [f"item-{i}" for i in range(30)]


def _events(kind, rng, n=400):
    """A deterministic stream of observe() argument tuples for ``kind``."""
    if kind == "scalar_stat":
        return [(rng.uniform(-5.0, 50.0),) for _ in range(n)]
    if kind == "labeled_counter":
        return [(rng.choice(_KEYS), rng.randint(1, 3)) for _ in range(n)]
    if kind == "distinct_set":
        return [(rng.choice(_ITEMS),) for _ in range(n)]
    if kind == "keyed_distinct":
        return [(rng.choice(_KEYS), rng.choice(_ITEMS)) for _ in range(n)]
    if kind in ("keyed_min", "keyed_max"):
        return [(rng.choice(_KEYS), rng.uniform(0.0, 100.0)) for _ in range(n)]
    if kind == "topk_exact":
        # stays within capacity: split-stream == single-stream holds
        return [(rng.choice(_KEYS),) for _ in range(n)]
    if kind == "quantile_sketch":
        return [(rng.uniform(0.0005, 120.0),) for _ in range(n)]
    if kind == "keyed_episodes":
        # dense enough that episodes coalesce across split boundaries
        return [(rng.choice(_KEYS[:4]), rng.uniform(0.0, 300.0))
                for _ in range(n)]
    raise AssertionError(kind)


_FACTORIES = {
    "scalar_stat": ScalarStat,
    "labeled_counter": LabeledCounter,
    "distinct_set": DistinctSet,
    "keyed_distinct": KeyedDistinct,
    "keyed_min": KeyedMin,
    "keyed_max": KeyedMax,
    "topk_exact": lambda: TopK(capacity=len(_KEYS)),
    "quantile_sketch": QuantileSketch,
    "keyed_episodes": lambda: KeyedEpisodes(gap=5.0),
}


def _build(kind, events):
    acc = _FACTORIES[kind]()
    for args in events:
        acc.observe(*args)
    return acc


def _state(acc) -> str:
    return json.dumps(acc.snapshot(), sort_keys=True)


@pytest.mark.parametrize("kind", sorted(_FACTORIES))
class TestMergeLaws:
    def test_merge_commutative(self, kind):
        rng = random.Random(101)
        events = _events(kind, rng)
        half = len(events) // 2
        ab = _build(kind, events[:half]).merge(_build(kind, events[half:]))
        ba = _build(kind, events[half:]).merge(_build(kind, events[:half]))
        assert _state(ab) == _state(ba)

    def test_merge_associative(self, kind):
        rng = random.Random(202)
        events = _events(kind, rng)
        third = len(events) // 3
        parts = [events[:third], events[third:2 * third], events[2 * third:]]
        a1, b1, c1 = (_build(kind, p) for p in parts)
        a2, b2, c2 = (_build(kind, p) for p in parts)
        left = a1.merge(b1).merge(c1)
        right = a2.merge(b2.merge(c2))
        assert _state(left) == _state(right)

    @pytest.mark.parametrize("ways", [2, 3, 5])
    def test_split_stream_merge_equals_single_stream(self, kind, ways):
        rng = random.Random(303)
        events = _events(kind, rng)
        single = _build(kind, events)
        partials = [
            _build(kind, events[i::ways]) for i in range(ways)
        ]
        merged = partials[0]
        for part in partials[1:]:
            merged = merged.merge(part)
        assert _state(merged) == _state(single)

    def test_snapshot_json_roundtrip(self, kind):
        rng = random.Random(404)
        acc = _build(kind, _events(kind, rng))
        wire = json.dumps(acc.snapshot())
        restored = restore(json.loads(wire))
        assert type(restored) is type(acc)
        assert _state(restored) == _state(acc)

    def test_empty_accumulator_roundtrip_and_merge(self, kind):
        empty = _FACTORIES[kind]()
        assert _state(restore(empty.snapshot())) == _state(empty)
        rng = random.Random(505)
        full = _build(kind, _events(kind, rng))
        before = _state(full)
        full.merge(_FACTORIES[kind]())
        assert _state(full) == before

    def test_merge_rejects_other_kind(self, kind):
        acc = _FACTORIES[kind]()
        other = ScalarStat() if kind != "scalar_stat" else LabeledCounter()
        with pytest.raises(SnapshotError):
            acc.merge(other)

    def test_merge_snapshot_equals_merge(self, kind):
        rng = random.Random(606)
        events = _events(kind, rng)
        half = len(events) // 2
        via_merge = _build(kind, events[:half]).merge(
            _build(kind, events[half:]))
        via_snapshot = _build(kind, events[:half]).merge_snapshot(
            json.loads(json.dumps(_build(kind, events[half:]).snapshot())))
        assert _state(via_snapshot) == _state(via_merge)


class TestRestoreValidation:
    def test_unknown_kind(self):
        with pytest.raises(SnapshotError, match="unknown accumulator kind"):
            restore({"kind": "bloom_filter", "v": 1})

    def test_non_dict(self):
        with pytest.raises(SnapshotError, match="must be a dict"):
            restore(["kind", "scalar_stat"])

    @pytest.mark.parametrize("version", [0, -1, "1", None, 99])
    def test_bad_versions(self, version):
        snap = ScalarStat().snapshot()
        snap["v"] = version
        with pytest.raises(SnapshotError, match="cannot restore snapshot"):
            restore(snap)

    def test_future_version_message_names_supported_range(self):
        snap = LabeledCounter().snapshot()
        snap["v"] = LabeledCounter.SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="versions 1.."):
            restore(snap)


class TestVersionCompat:
    def test_labeled_counter_v1_without_total(self):
        acc = LabeledCounter()
        acc.observe("a", 3)
        acc.observe("b")
        v1 = {"kind": "labeled_counter", "v": 1, "counts": {"a": 3, "b": 1}}
        restored = restore(v1)
        assert restored.snapshot() == acc.snapshot()

    def test_labeled_counter_v2_total_mismatch_rejected(self):
        snap = {"kind": "labeled_counter", "v": 2,
                "counts": {"a": 3}, "total": 99}
        with pytest.raises(SnapshotError, match="corrupt snapshot"):
            restore(snap)

    def test_quantile_sketch_v1_float_sum(self):
        acc = QuantileSketch()
        for v in (0.5, 2.0, 8.0):
            acc.observe(v)
        v1 = dict(acc.snapshot())
        v1["v"] = 1
        v1["sum"] = 10.5
        restored = restore(v1)
        assert restored.n == acc.n
        assert restored.sum == acc.sum
        assert restored.quantile(0.5) == acc.quantile(0.5)


class TestScalarStat:
    def test_batched_sum_equals_term_by_term_fraction_sum(self):
        # Two full batches plus a partial one, over many binary
        # exponents, with ints and non-dyadic rationals mixed in.
        rng = random.Random(707)
        values = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-60, 60)
                  for _ in range(2500)]
        values += [3, 2 ** 70, Fraction(1, 3), Fraction(2, 7)]
        acc = ScalarStat()
        for value in values:
            acc.observe(value)
        exact = sum(map(Fraction, values))
        assert Fraction(*acc.snapshot()["sum"]) == exact
        assert acc.sum == float(exact)
        assert acc.mean == float(exact / len(values))

    def test_nan_raises_at_the_call(self):
        acc = ScalarStat()
        with pytest.raises(ValueError):
            acc.observe(float("nan"))
        assert acc.n == 0


class TestQuantileSketch:
    def test_quantile_error_bound(self):
        """Estimates overshoot the true quantile by at most a factor of
        ``base`` — the bound docs/ANALYTICS.md promises."""
        rng = random.Random(7)
        values = sorted(rng.uniform(0.01, 500.0) for _ in range(2000))
        sketch = QuantileSketch()
        for v in values:
            sketch.observe(v)
        for p in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
            rank = max(1, math.ceil(p * len(values)))
            true = values[rank - 1]
            estimate = sketch.quantile(p)
            assert true <= estimate <= true * sketch.base * (1 + 1e-9)

    def test_quantile_clamped_to_observed_extremes(self):
        sketch = QuantileSketch()
        sketch.observe(3.0)
        assert sketch.quantile(0.0) == 3.0
        assert sketch.quantile(1.0) == 3.0

    def test_empty_quantile_is_zero(self):
        assert QuantileSketch().quantile(0.5) == 0.0

    def test_layout_mismatch_rejected(self):
        with pytest.raises(SnapshotError, match="layout mismatch"):
            QuantileSketch(min_bound=1.0).merge(QuantileSketch(min_bound=2.0))

    def test_cdf_is_monotone_and_ends_at_one(self):
        sketch = QuantileSketch()
        for v in (0.5, 1.0, 4.0, 9.0, 40.0):
            sketch.observe(v)
        grid = [0.1, 1.0, 10.0, 40.0, 100.0]
        cdf = sketch.cdf(grid)
        assert cdf == sorted(cdf)
        assert cdf[-1] == 1.0


class TestTopK:
    def test_exact_until_capacity_then_bounded_error(self):
        rng = random.Random(13)
        truth = {}
        tracker = TopK(capacity=8)
        for _ in range(3000):
            key = f"k{min(int(rng.expovariate(0.25)), 29):02d}"
            truth[key] = truth.get(key, 0) + 1
            tracker.observe(key)
        assert not tracker.exact
        for key, count, err in tracker.top():
            true = truth.get(key, 0)
            assert count >= true            # SpaceSaving never undercounts
            assert count - err <= true      # ...and the error bounds it

    def test_exact_regime_matches_counter(self):
        tracker = TopK(capacity=10)
        for key in ["a", "b", "a", "c", "a", "b"]:
            tracker.observe(key)
        assert tracker.exact
        assert tracker.top() == [("a", 3, 0), ("b", 2, 0), ("c", 1, 0)]

    def test_merge_commutative_under_eviction(self):
        rng = random.Random(17)
        events = [(f"k{rng.randint(0, 40):02d}",) for _ in range(1000)]
        half = len(events) // 2

        def build(chunk):
            t = TopK(capacity=6)
            for (k,) in chunk:
                t.observe(k)
            return t

        ab = build(events[:half]).merge(build(events[half:]))
        ba = build(events[half:]).merge(build(events[:half]))
        assert ab.snapshot() == ba.snapshot()

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(SnapshotError, match="capacity mismatch"):
            TopK(capacity=4).merge(TopK(capacity=5))


class TestKeyedEpisodes:
    def test_matches_batch_gap_split(self):
        """Streaming coalescing reproduces the batch estimator's split:
        sort the entity's times, cut where the gap strictly exceeds the
        threshold."""
        rng = random.Random(23)
        gap = 5.0
        times = {k: [rng.uniform(0, 400) for _ in range(60)]
                 for k in ("a", "b")}
        acc = KeyedEpisodes(gap=gap)
        order = [(k, t) for k, ts in times.items() for t in ts]
        rng.shuffle(order)
        for k, t in order:
            acc.observe(k, t)
        for k, ts in times.items():
            expected = []
            for t in sorted(ts):
                if expected and t - expected[-1][1] <= gap:
                    expected[-1][1] = t
                    expected[-1][2] += 1
                else:
                    expected.append([t, t, 1])
            assert acc.episodes(k) == [tuple(ep) for ep in expected]

    def test_invariant_episodes_separated_by_more_than_gap(self):
        rng = random.Random(29)
        acc = KeyedEpisodes(gap=2.0)
        for _ in range(500):
            acc.observe("e", rng.uniform(0, 100))
        episodes = acc.episodes("e")
        for prev, cur in zip(episodes, episodes[1:]):
            assert cur[0] - prev[1] > acc.gap

    def test_gap_mismatch_rejected(self):
        with pytest.raises(SnapshotError, match="gap mismatch"):
            KeyedEpisodes(gap=1.0).merge(KeyedEpisodes(gap=2.0))
