"""The streaming-aggregation algebra: mergeable, serializable accumulators.

Every accumulator obeys the same contract, mirroring
:meth:`repro.obs.metrics.MetricsRegistry.merge`:

* ``observe(...)`` folds one observation in (O(1) or O(log n));
* ``merge(other)`` folds another accumulator of the same kind and
  layout in — **commutative and associative**, so per-worker partials
  combine to the same state in any grouping, and split-stream
  merge equals single-stream observe;
* ``snapshot()`` returns a JSON-ready dict carrying ``kind`` and a
  version ``v``; the module-level :func:`restore` rebuilds the
  accumulator from it, accepting any version up to the current one.

Exact arithmetic where determinism demands it: sums of float
observations are kept as :class:`fractions.Fraction` (binary floats are
exact rationals), so a merged sum is bit-identical no matter how the
stream was partitioned — float addition is not associative, fraction
addition is.

Approximate structures are deterministic too: the quantile sketch uses
the same log-bucket layout as :class:`repro.obs.metrics.Histogram`
(observation-order independent by construction), and the top-K tracker
breaks every tie lexicographically.  See docs/ANALYTICS.md for error
bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "DistinctSet",
    "KeyedDistinct",
    "KeyedEpisodes",
    "KeyedMax",
    "KeyedMin",
    "LabeledCounter",
    "QuantileSketch",
    "ScalarStat",
    "SnapshotError",
    "TopK",
    "live_map",
    "restore",
]


class SnapshotError(ValueError):
    """A snapshot cannot be restored (unknown kind, future or malformed
    version, or layout mismatch)."""


_REGISTRY: dict[str, type] = {}


def _register(cls):
    _REGISTRY[cls.kind] = cls
    return cls


def restore(snapshot: dict):
    """Rebuild any accumulator from its :meth:`snapshot` payload."""
    if not isinstance(snapshot, dict):
        raise SnapshotError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    kind = snapshot.get("kind")
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise SnapshotError(f"unknown accumulator kind {kind!r}")
    version = snapshot.get("v")
    if not isinstance(version, int) or not 1 <= version <= cls.SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{kind}: cannot restore snapshot version {version!r} "
            f"(this build reads versions 1..{cls.SNAPSHOT_VERSION})"
        )
    return cls.from_snapshot(snapshot)


def _frac_to_json(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _frac_from_json(value) -> Fraction:
    return Fraction(int(value[0]), int(value[1]))


class Accumulator:
    """Base contract; subclasses define ``observe`` with their own shape."""

    kind = "abstract"
    SNAPSHOT_VERSION = 1

    def merge(self, other: "Accumulator") -> "Accumulator":
        raise NotImplementedError

    def snapshot(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Accumulator":
        raise NotImplementedError

    def merge_snapshot(self, snapshot: dict) -> "Accumulator":
        """Restore-and-merge in one step (the worker-partial fold)."""
        return self.merge(restore(snapshot))

    def _check(self, other: "Accumulator") -> None:
        if type(other) is not type(self):
            raise SnapshotError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )


#: Observations a :class:`ScalarStat` buffers before folding them into
#: its exact sum.
_PENDING_MAX = 1024


@_register
class ScalarStat(Accumulator):
    """Count / exact sum / min / max of a value stream.

    The sum is a :class:`Fraction`, so ``mean`` is bit-identical across
    any partitioning of the stream.  Observations are buffered as integer
    ratios and folded in batches over one common denominator (for ints
    and binary floats, the largest power of two among them), without the
    per-term gcd of ``Fraction`` addition.
    """

    kind = "scalar_stat"
    SNAPSHOT_VERSION = 1

    __slots__ = ("_n", "_sum", "_pending", "_min", "_max")

    def __init__(self) -> None:
        self._n = 0
        self._sum = Fraction(0)
        self._pending: list[tuple[int, int]] = []
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        # as_integer_ratio raises on NaN/inf here, as Fraction(value) would.
        self._pending.append(value.as_integer_ratio())
        if len(self._pending) >= _PENDING_MAX:
            self._exact_sum()
        self._n += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def _exact_sum(self) -> Fraction:
        """The exact sum, with the buffered observations folded in."""
        if self._pending:
            den = math.lcm(*(d for _, d in self._pending))
            self._sum += Fraction(
                sum(n * (den // d) for n, d in self._pending), den
            )
            self._pending = []
        return self._sum

    @property
    def n(self) -> int:
        return self._n

    @property
    def sum(self) -> float:
        return float(self._exact_sum())

    @property
    def min(self) -> float | None:
        return self._min

    @property
    def max(self) -> float | None:
        return self._max

    @property
    def mean(self) -> float:
        return float(self._exact_sum() / self._n) if self._n else 0.0

    def merge(self, other: "ScalarStat") -> "ScalarStat":
        self._check(other)
        self._n += other._n
        self._sum = self._exact_sum() + other._exact_sum()
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        return self

    def snapshot(self) -> dict:
        return {
            "kind": self.kind, "v": 1, "n": self._n,
            "sum": _frac_to_json(self._exact_sum()),
            "min": self._min, "max": self._max,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "ScalarStat":
        out = cls()
        out._n = int(snapshot["n"])
        out._sum = _frac_from_json(snapshot["sum"])
        out._min = snapshot.get("min")
        out._max = snapshot.get("max")
        return out


@_register
class LabeledCounter(Accumulator):
    """Integer counts per string key (sparse, exact, mergeable by
    addition).  The workhorse: every exact table reduces to one or more
    of these."""

    kind = "labeled_counter"
    #: v2 added the redundant ``total`` field (validated on restore);
    #: v1 snapshots without it are still accepted.
    SNAPSHOT_VERSION = 2

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def observe(self, key: str, n: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    def get(self, key: str, default: int = 0) -> int:
        return self._counts.get(key, default)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._counts.items())

    def keys(self):
        return self._counts.keys()

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def top(self, n: int | None = None) -> list[tuple[str, int]]:
        """Keys by descending count, ties broken lexicographically —
        the deterministic replacement for ``Counter.most_common``."""
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if n is None else ranked[:n]

    def merge(self, other: "LabeledCounter") -> "LabeledCounter":
        self._check(other)
        counts = self._counts
        for key, n in other._counts.items():
            counts[key] = counts.get(key, 0) + n
        return self

    def snapshot(self) -> dict:
        return {"kind": self.kind, "v": 2, "counts": dict(self._counts),
                "total": self.total}

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "LabeledCounter":
        out = cls()
        out._counts = {str(k): int(n) for k, n in snapshot["counts"].items()}
        if snapshot["v"] >= 2 and int(snapshot["total"]) != out.total:
            raise SnapshotError(
                f"labeled_counter: total {snapshot['total']} does not match "
                f"the per-key counts (sum {out.total}) — corrupt snapshot"
            )
        return out


@_register
class DistinctSet(Accumulator):
    """Exact distinct-string tracker (merge = union)."""

    kind = "distinct_set"
    SNAPSHOT_VERSION = 1

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: set[str] = set()

    def observe(self, item: str) -> None:
        self._items.add(item)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: str) -> bool:
        return item in self._items

    def as_set(self) -> set[str]:
        return set(self._items)

    def merge(self, other: "DistinctSet") -> "DistinctSet":
        self._check(other)
        self._items |= other._items
        return self

    def snapshot(self) -> dict:
        return {"kind": self.kind, "v": 1, "items": sorted(self._items)}

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "DistinctSet":
        out = cls()
        out._items = {str(i) for i in snapshot["items"]}
        return out


@_register
class KeyedDistinct(Accumulator):
    """A distinct-string set per key (merge = per-key union)."""

    kind = "keyed_distinct"
    SNAPSHOT_VERSION = 1

    __slots__ = ("_sets",)

    def __init__(self) -> None:
        self._sets: dict[str, set[str]] = {}

    def observe(self, key: str, item: str) -> None:
        existing = self._sets.get(key)
        if existing is None:
            self._sets[key] = {item}
        else:
            existing.add(item)

    def get(self, key: str) -> set[str]:
        return self._sets.get(key, set())

    def count(self, key: str) -> int:
        existing = self._sets.get(key)
        return len(existing) if existing is not None else 0

    def keys(self):
        return self._sets.keys()

    def items(self) -> Iterator[tuple[str, set[str]]]:
        return iter(self._sets.items())

    def __len__(self) -> int:
        return len(self._sets)

    def merge(self, other: "KeyedDistinct") -> "KeyedDistinct":
        self._check(other)
        sets = self._sets
        for key, items in other._sets.items():
            existing = sets.get(key)
            if existing is None:
                sets[key] = set(items)
            else:
                existing |= items
        return self

    def snapshot(self) -> dict:
        return {
            "kind": self.kind, "v": 1,
            "sets": {k: sorted(v) for k, v in self._sets.items()},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "KeyedDistinct":
        out = cls()
        out._sets = {str(k): {str(i) for i in v}
                     for k, v in snapshot["sets"].items()}
        return out


class _KeyedExtreme(Accumulator):
    """Shared base of :class:`KeyedMin`/:class:`KeyedMax`."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def _better(self, a: float, b: float) -> bool:
        raise NotImplementedError

    def observe(self, key: str, value: float) -> None:
        current = self._values.get(key)
        if current is None or self._better(value, current):
            self._values[key] = value

    def get(self, key: str, default: float | None = None) -> float | None:
        return self._values.get(key, default)

    def keys(self):
        return self._values.keys()

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def merge(self, other: "_KeyedExtreme") -> "_KeyedExtreme":
        self._check(other)
        for key, value in other._values.items():
            self.observe(key, value)
        return self

    def snapshot(self) -> dict:
        return {"kind": self.kind, "v": 1, "values": dict(self._values)}

    @classmethod
    def from_snapshot(cls, snapshot: dict):
        out = cls()
        out._values = {str(k): float(v) for k, v in snapshot["values"].items()}
        return out


@_register
class KeyedMin(_KeyedExtreme):
    kind = "keyed_min"
    SNAPSHOT_VERSION = 1

    def _better(self, a: float, b: float) -> bool:
        return a < b


@_register
class KeyedMax(_KeyedExtreme):
    kind = "keyed_max"
    SNAPSHOT_VERSION = 1

    def _better(self, a: float, b: float) -> bool:
        return a > b


@_register
class TopK(Accumulator):
    """SpaceSaving heavy-hitter tracker with ``capacity`` slots.

    Counts are exact (``error == 0`` for every key and :attr:`exact` is
    True) until the distinct-key population exceeds ``capacity``; past
    that, each reported count overestimates the true count by at most
    its recorded ``error``.  Eviction and ranking tie-breaks are
    lexicographic, so the structure is a pure function of its inputs —
    but *which* keys survive still depends on how the stream was split,
    which is why exact :class:`LabeledCounter` (not TopK) backs the
    byte-diffed report tables.
    """

    kind = "topk"
    SNAPSHOT_VERSION = 1

    __slots__ = ("capacity", "_counts", "_evicted")

    def __init__(self, capacity: int = 50) -> None:
        if capacity < 1:
            raise ValueError("TopK capacity must be >= 1")
        self.capacity = capacity
        #: key -> [count, error]
        self._counts: dict[str, list[int]] = {}
        self._evicted = False

    @property
    def exact(self) -> bool:
        return not self._evicted

    def _floor(self) -> int:
        """The count any untracked key may have reached (0 while exact)."""
        if not self._evicted:
            return 0
        return min(entry[0] for entry in self._counts.values())

    def observe(self, key: str, n: int = 1) -> None:
        entry = self._counts.get(key)
        if entry is not None:
            entry[0] += n
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = [n, 0]
            return
        victim = min(self._counts.items(), key=lambda kv: (kv[1][0], kv[0]))
        floor = victim[1][0]
        del self._counts[victim[0]]
        self._counts[key] = [floor + n, floor]
        self._evicted = True

    def merge(self, other: "TopK") -> "TopK":
        self._check(other)
        if other.capacity != self.capacity:
            raise SnapshotError(
                f"topk: capacity mismatch ({self.capacity} vs {other.capacity})"
            )
        mine, theirs = self._counts, other._counts
        my_floor, their_floor = self._floor(), other._floor()
        combined: dict[str, list[int]] = {}
        for key in set(mine) | set(theirs):
            a = mine.get(key)
            b = theirs.get(key)
            count = (a[0] if a else my_floor) + (b[0] if b else their_floor)
            error = (a[1] if a else my_floor) + (b[1] if b else their_floor)
            combined[key] = [count, error]
        self._evicted = self._evicted or other._evicted
        if len(combined) > self.capacity:
            keep = sorted(combined.items(), key=lambda kv: (-kv[1][0], kv[0]))
            combined = dict(keep[: self.capacity])
            self._evicted = True
        self._counts = combined
        return self

    def top(self, n: int | None = None) -> list[tuple[str, int, int]]:
        """``(key, count, error)`` by descending count, key-tiebroken."""
        ranked = sorted(
            ((k, entry[0], entry[1]) for k, entry in self._counts.items()),
            key=lambda row: (-row[1], row[0]),
        )
        return ranked if n is None else ranked[:n]

    def snapshot(self) -> dict:
        return {
            "kind": self.kind, "v": 1, "capacity": self.capacity,
            "evicted": self._evicted,
            "counts": {k: list(entry) for k, entry in self._counts.items()},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "TopK":
        out = cls(capacity=int(snapshot["capacity"]))
        out._counts = {
            str(k): [int(entry[0]), int(entry[1])]
            for k, entry in snapshot["counts"].items()
        }
        out._evicted = bool(snapshot["evicted"])
        return out


@_register
class QuantileSketch(ScalarStat):
    """Log-bucketed quantile sketch for duration CDFs.

    Same bucket layout as :class:`repro.obs.metrics.Histogram`: bucket
    ``i`` covers ``(min_bound * base**(i-1), min_bound * base**i]`` and
    bucket 0 covers ``(-inf, min_bound]``.  Bucket counts are a pure
    function of the observed multiset, so snapshots, merges, and
    quantile estimates are deterministic under any stream partitioning.
    A quantile estimate is the upper bound of the bucket holding the
    target rank (clamped to the exact observed min/max), so it
    overestimates the true quantile by at most a factor of ``base``
    (relative error ``base - 1``).  The count is exact; the sum is an
    exact :class:`Fraction`.

    v2 snapshots carry the sum as an exact fraction; v1 snapshots (float
    sum) restore with the float coerced — accepted for compatibility,
    exactness resumes from the restored value.
    """

    kind = "quantile_sketch"
    SNAPSHOT_VERSION = 2

    #: base = 2**(1/8): at most ~9.05% relative overestimate per quantile.
    DEFAULT_BASE = 2.0 ** 0.125

    __slots__ = ("base", "min_bound", "_log_base", "_counts")

    def __init__(self, base: float = DEFAULT_BASE, min_bound: float = 0.001) -> None:
        if base <= 1.0:
            raise ValueError("sketch base must be > 1")
        if min_bound <= 0:
            raise ValueError("sketch min_bound must be positive")
        super().__init__()
        self.base = base
        self.min_bound = min_bound
        self._log_base = math.log(base)
        self._counts: dict[int, int] = {}

    def observe(self, value: float) -> None:
        super().observe(value)
        if value <= self.min_bound:
            index = 0
        else:
            index = int(math.ceil(
                math.log(value / self.min_bound) / self._log_base - 1e-12
            ))
        self._counts[index] = self._counts.get(index, 0) + 1

    def bound(self, index: int) -> float:
        return self.min_bound * self.base ** index

    def quantile(self, p: float) -> float:
        """Deterministic estimate of the ``p``-quantile (0 when empty)."""
        if self._n == 0:
            return 0.0
        p = min(max(p, 0.0), 1.0)
        rank = max(1, math.ceil(p * self._n))
        running = 0
        for index in sorted(self._counts):
            running += self._counts[index]
            if running >= rank:
                estimate = self.bound(index)
                if self._max is not None:
                    estimate = min(estimate, self._max)
                if self._min is not None:
                    estimate = max(estimate, self._min)
                return estimate
        return self._max if self._max is not None else 0.0

    def quantiles(self, ps: Iterable[float] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        return {f"p{100 * p:g}": self.quantile(p) for p in ps}

    def cdf(self, grid: Iterable[float]) -> list[float]:
        """Fraction of observations with bucket bound <= each grid point
        (a deterministic underestimate by at most one bucket)."""
        if self._n == 0:
            return [0.0 for _ in grid]
        pairs = sorted(self._counts.items())
        out = []
        for g in grid:
            if self._max is not None and g >= self._max:
                out.append(1.0)
                continue
            covered = 0
            for index, count in pairs:
                if self.bound(index) <= g:
                    covered += count
                else:
                    break
            out.append(covered / self._n)
        return out

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        self._check(other)
        if other.base != self.base or other.min_bound != self.min_bound:
            raise SnapshotError(
                f"quantile_sketch: bucket layout mismatch (base {self.base} "
                f"vs {other.base}, min_bound {self.min_bound} vs {other.min_bound})"
            )
        counts = self._counts
        for index, count in other._counts.items():
            counts[index] = counts.get(index, 0) + count
        return super().merge(other)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind, "v": 2,
            "base": self.base, "min_bound": self.min_bound,
            "n": self._n, "sum": _frac_to_json(self._exact_sum()),
            "min": self._min, "max": self._max,
            "counts": {str(i): c for i, c in self._counts.items()},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "QuantileSketch":
        out = cls(base=float(snapshot["base"]),
                  min_bound=float(snapshot["min_bound"]))
        out._n = int(snapshot["n"])
        raw_sum = snapshot["sum"]
        out._sum = (Fraction(float(raw_sum)) if snapshot["v"] < 2
                    else _frac_from_json(raw_sum))
        out._min = snapshot.get("min")
        out._max = snapshot.get("max")
        out._counts = {int(i): int(c) for i, c in snapshot["counts"].items()}
        return out


@_register
class KeyedEpisodes(Accumulator):
    """Gap-merged point episodes per entity — the streaming form of
    :func:`repro.analysis.misconfig._episodes_from_times`.

    Observing ``(entity, t)`` inserts the point interval ``[t, t]``;
    intervals closer than ``gap`` coalesce (summing their point counts).
    Because the batch estimator's episodes are exactly the equivalence
    classes of the "within gap" relation's transitive closure over the
    entity's time points, and interval coalescing computes that same
    closure incrementally, the finalized episodes are **identical to the
    batch split for any observation or merge order** — counts included.
    The invariant maintained everywhere: consecutive stored intervals
    satisfy ``next.start - prev.end > gap`` (the batch split is strict).
    """

    kind = "keyed_episodes"
    SNAPSHOT_VERSION = 1

    __slots__ = ("gap", "_episodes")

    def __init__(self, gap: float) -> None:
        if gap < 0:
            raise ValueError("episode gap must be >= 0")
        self.gap = gap
        #: entity -> [[start, end, n_points], ...] sorted by start,
        #: pairwise separated by more than ``gap``.
        self._episodes: dict[str, list[list]] = {}

    def observe(self, key: str, t: float, n: int = 1) -> None:
        self._insert(key, t, t, n)

    def _insert(self, key: str, start: float, end: float, count: int) -> None:
        episodes = self._episodes.get(key)
        if episodes is None:
            self._episodes[key] = [[start, end, count]]
            return
        i = bisect_right(episodes, start, key=lambda ep: ep[0])
        episodes.insert(i, [start, end, count])
        while i > 0 and episodes[i][0] - episodes[i - 1][1] <= self.gap:
            left, right = episodes[i - 1], episodes[i]
            episodes[i - 1] = [
                left[0], max(left[1], right[1]), left[2] + right[2]
            ]
            del episodes[i]
            i -= 1
        while i + 1 < len(episodes) and episodes[i + 1][0] - episodes[i][1] <= self.gap:
            cur, nxt = episodes[i], episodes[i + 1]
            episodes[i] = [cur[0], max(cur[1], nxt[1]), cur[2] + nxt[2]]
            del episodes[i + 1]

    def entities(self):
        return self._episodes.keys()

    def episodes(self, key: str) -> list[tuple[float, float, int]]:
        return [tuple(ep) for ep in self._episodes.get(key, [])]

    def total(self, key: str) -> int:
        return sum(ep[2] for ep in self._episodes.get(key, []))

    def __len__(self) -> int:
        return len(self._episodes)

    def merge(self, other: "KeyedEpisodes") -> "KeyedEpisodes":
        self._check(other)
        if other.gap != self.gap:
            raise SnapshotError(
                f"keyed_episodes: gap mismatch ({self.gap} vs {other.gap})"
            )
        for key, episodes in other._episodes.items():
            for start, end, count in episodes:
                self._insert(key, start, end, count)
        return self

    def snapshot(self) -> dict:
        return {
            "kind": self.kind, "v": 1, "gap": self.gap,
            "episodes": {k: [list(ep) for ep in v]
                         for k, v in self._episodes.items()},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "KeyedEpisodes":
        out = cls(gap=float(snapshot["gap"]))
        out._episodes = {
            str(k): sorted(
                ([float(ep[0]), float(ep[1]), int(ep[2])] for ep in v),
                key=lambda ep: ep[0],
            )
            for k, v in snapshot["episodes"].items()
        }
        return out


#: The attribute holding the map or set each kind's ``observe`` updates.
_LIVE = {
    LabeledCounter: "_counts",
    DistinctSet: "_items",
    KeyedDistinct: "_sets",
    KeyedMax: "_values",
}


def live_map(acc):
    """The dict or set that ``acc.observe`` updates — the hook for a bulk
    fold that writes it directly. The writer must do what ``observe``
    does: add to a count, add to a key's set, or keep the maximum."""
    return getattr(acc, _LIVE[type(acc)])
