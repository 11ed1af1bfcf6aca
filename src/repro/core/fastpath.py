"""Hot-path acceleration: fused regexes and bounded memo caches.

The paper's pipeline exists because 190M NDRs collapse onto ~10K
templates — per-*message* work should collapse onto per-*template* (or
per-*unique-string*) work.  This module holds the shared machinery:

* a process-wide switch (:func:`enabled` / :func:`disable`) so every
  cache can be turned off at once — the CLI exposes it as ``--no-cache``
  and the differential tests diff both modes byte-for-byte;
* :class:`LruMemo`, a bounded exact-key memo with hit/miss counters that
  export through ``repro.obs`` (one family,
  ``repro_fastpath_cache_events_total{event="<name>-hit|miss"}``) while
  staying zero-allocation when telemetry is off;
* fused single-pass versions of :func:`repro.core.drain.mask_message`
  and :func:`repro.core.tokenize.normalize_ndr` — the 6- and 8-pass
  regex cascades become one compiled alternation each, memoised by raw
  text.

Every cache here is **semantics-preserving**: simulate/stream output is
byte-identical with caches on or off (asserted in
``tests/test_fastpath.py`` and ``tests/test_cli.py``).  The fused
regexes are additionally pinned to the multi-pass references over the
full dataset NDR corpus.  Caches are keyed on exact inputs and
invalidated by the owners of any mutable state they summarise (see
``docs/PERFORMANCE.md`` for the invalidation rules).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Any, Callable

from repro.obs import metrics as obs_metrics
from repro.util.text import HOSTNAME_PATTERN

__all__ = [
    "MISSING",
    "CacheStats",
    "LruMemo",
    "enabled",
    "enable",
    "disable",
    "columnar_enabled",
    "enable_columnar",
    "disable_columnar",
    "reset",
    "register",
    "mask_message_fast",
    "normalize_ndr_fast",
    "stable_interval",
]

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISSING: Any = object()

_DEFAULT_CAPACITY = 65_536

_enabled = True


def enabled() -> bool:
    """Whether the fast-path caches are active (default: yes)."""
    return _enabled


def enable() -> None:
    """Turn the fast path on and reset all registered module caches."""
    global _enabled
    _enabled = True
    reset()


def disable() -> None:
    """Turn the fast path off (``--no-cache``); clears registered caches."""
    global _enabled
    _enabled = False
    reset()


_columnar = True


def columnar_enabled() -> bool:
    """Whether the columnar batch delivery engine may engage.

    Columnar execution rides on the same differential-oracle switch as
    the caches: it requires the fast path itself (``--no-cache`` implies
    reference execution) and can additionally be vetoed on its own with
    ``--no-columnar``, so the two accelerations can be diffed
    independently.
    """
    return _enabled and _columnar


def enable_columnar() -> None:
    """Allow the columnar batch engine (default)."""
    global _columnar
    _columnar = True


def disable_columnar() -> None:
    """Keep per-email reference execution (``--no-columnar``).

    Unlike :func:`disable` this does not clear any caches: columnar
    execution holds no state of its own.  Its plan rows are guarded,
    pure tables on the world, which reference engines never read and
    ``WorldModel.purge_caches`` drops.
    """
    global _columnar
    _columnar = False


_REGISTRY: list[Any] = []


def register(obj: Any) -> Any:
    """Track a module-level cache so :func:`reset` can clear/rebind it.

    Only module-level caches register here (they are created at import
    time, *before* the CLI may enable telemetry, so their obs binding
    must be refreshable).  Instance-level caches (EBRC, resolver, auth)
    are created after telemetry is configured and bind once.
    """
    _REGISTRY.append(obj)
    return obj


def reset() -> None:
    """Clear every registered cache and re-capture telemetry state.

    Call after ``repro.obs.metrics.enable()``/``disable()`` so the
    module-level memos pick up (or drop) their counters.  Memos marked
    ``pure`` keep their entries (a pure function of the exact key has
    no staleness to flush); everything else drops its data.
    """
    for obj in _REGISTRY:
        if getattr(obj, "pure", False):
            obj.stats.clear()
        else:
            obj.clear()
        obj.rebind()


class CacheStats:
    """Hit/miss bookkeeping for one named cache.

    Plain ``int`` counters are always maintained (they cost one add);
    ``repro.obs`` counters are bound once at construction/``rebind`` and
    are only incremented when telemetry was enabled at that point — the
    disabled path allocates nothing (see ``benchmarks/test_perf_obs.py``).
    """

    __slots__ = ("name", "hits", "misses", "_obs_on", "_c_hit", "_c_miss")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.rebind()

    def rebind(self) -> None:
        self._obs_on = obs_metrics.enabled()
        family = obs_metrics.counter(
            "repro_fastpath_cache_events_total",
            "Fast-path cache hits and misses by cache name.",
            label="event",
        )
        self._c_hit = family.labels(f"{self.name}-hit")
        self._c_miss = family.labels(f"{self.name}-miss")

    def clear(self) -> None:
        self.hits = 0
        self.misses = 0

    def hit(self) -> None:
        self.hits += 1
        if self._obs_on:
            self._c_hit.inc()

    def miss(self) -> None:
        self.misses += 1
        if self._obs_on:
            self._c_miss.inc()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LruMemo:
    """Bounded exact-key memo with least-recently-used eviction.

    ``get`` returns :data:`MISSING` on a miss; callers compute and
    ``put``.  Eviction relies on dict insertion order: a hit re-inserts
    the key at the tail, so the head is always the least recently used.
    """

    __slots__ = ("stats", "capacity", "data", "pure")

    def __init__(
        self, name: str, capacity: int = _DEFAULT_CAPACITY, pure: bool = False
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.stats = CacheStats(name)
        self.capacity = capacity
        self.data: dict[Any, Any] = {}
        #: A pure memo caches a pure function of its exact key, so its
        #: entries can never go stale; :func:`reset` keeps them (only
        #: the stats restart), which is what lets a disable/enable
        #: differential cycle re-enter the fast path warm.
        self.pure = pure

    def get(self, key: Any) -> Any:
        value = self.data.pop(key, MISSING)
        if value is not MISSING:
            self.data[key] = value
            self.stats.hit()
        return value

    def put(self, key: Any, value: Any) -> Any:
        data = self.data
        if len(data) >= self.capacity:
            del data[next(iter(data))]
        data[key] = value
        self.stats.miss()
        return value

    def lookup(self, key: Any, compute: Callable[[Any], Any]) -> Any:
        value = self.get(key)
        if value is MISSING:
            value = self.put(key, compute(key))
        return value

    def clear(self) -> None:
        self.data.clear()
        self.stats.clear()

    def rebind(self) -> None:
        self.stats.rebind()

    def __len__(self) -> int:
        return len(self.data)


# -- fused masking (repro.core.drain.mask_message) -----------------------------
#
# The reference applies six regex passes in sequence (emails, IPv4,
# URLs, hex ids, hostnames, numbers), all substituting "<*>".  Fusing
# them into one alternation preserves the per-position priority order:
# Python's `re` picks the first alternative that matches at the leftmost
# position, which is exactly "earlier pass wins" for every corpus input
# (tests/test_fastpath.py pins equality over the dataset NDR corpus).

_WILDCARD = "<*>"

_FUSED_MASK = re.compile(
    r"[\w.+-]+@[\w.-]+\.[a-zA-Z]{2,}"  # emails
    r"|\b\d{1,3}(?:\.\d{1,3}){3}\b"  # IPv4
    r"|https?://\S+"  # URLs
    r"|\b[0-9A-Fa-f]{8,}\b"  # hex queue ids
    rf"|{HOSTNAME_PATTERN}"  # hostnames (shared pattern)
    r"|\b\d+\b"  # bare numbers
)

_mask_memo = register(LruMemo("mask", pure=True))


def mask_message_fast(message: str) -> str:
    """Memoised single-pass equivalent of the drain masking cascade."""
    memo = _mask_memo
    value = memo.get(message)
    if value is MISSING:
        value = memo.put(message, _FUSED_MASK.sub(_WILDCARD, message))
    return value


# -- fused normalisation (repro.core.tokenize.normalize_ndr) -------------------
#
# The reference lowercases the body then applies eight passes with
# per-class replacement tokens.  Here each class is a named alternative
# and a single sub() call dispatches on `lastgroup`.  Inner groups are
# non-capturing so `lastgroup` is always the class name.

_FUSED_NORM = re.compile(
    r"(?P<url>https?://\S+)"
    r"|(?P<email>[\w.+-]+@[\w.-]+\.[a-zA-Z]{2,})"
    r"|(?P<ip>\b\d{1,3}(?:\.\d{1,3}){3}\b)"
    r"|(?P<hexid>\b[0-9A-Fa-f]{8,}\b)"
    # "552-5.2.3": the reference strips the enhanced code first, then
    # the number pass reduces the bare reply code to " <num> ".  A
    # single left-to-right scan would otherwise see the whole run as a
    # dotted hostname, so the combined shape gets its own alternative.
    r"|(?P<rcec>\b\d{1,3}-[245]\.\d{1,3}\.\d{1,3}\b)"
    r"|(?P<ec>\b[245]\.\d{1,3}\.\d{1,3}\b)"
    rf"|(?P<host>{HOSTNAME_PATTERN})"
    r"|(?P<num>\b\d+\b)"
    r"|(?P<junk>[^a-z0-9_<>.]+)"
)

_NORM_REPLACEMENTS = {
    "url": " <url> ",
    "email": " <email> ",
    "ip": " <ip> ",
    "hexid": " <id> ",
    "rcec": " <num> ",
    "ec": " ",
    "host": " <host> ",
    "num": " <num> ",
    "junk": " ",
}

_REPLY_RE = re.compile(r"^\s*(\d{3})[ \-]")
_ENHANCED_RE = re.compile(r"\b([245])\.(\d{1,3})\.(\d{1,3})\b")

_norm_memo = register(LruMemo("normalize", pure=True))


def _norm_repl(m: re.Match) -> str:
    return _NORM_REPLACEMENTS[m.lastgroup]


def _fused_normalize(text: str) -> str:
    raw = text.strip()
    tokens: list[str] = []
    reply = _REPLY_RE.match(raw)
    if reply:
        tokens.append(f"rc_{reply.group(1)}")
    enhanced = _ENHANCED_RE.search(raw)
    if enhanced:
        tokens.append(f"ec_{enhanced.group(0)}")
        tokens.append(f"ecc_{enhanced.group(1)}")
    body = _FUSED_NORM.sub(_norm_repl, raw.lower())
    tokens.extend(body.split())
    return " ".join(tokens)


def normalize_ndr_fast(text: str) -> str:
    """Memoised single-pass equivalent of the NDR normalisation cascade."""
    memo = _norm_memo
    value = memo.get(text)
    if value is MISSING:
        value = memo.put(text, _fused_normalize(text))
    return value


# -- interval helper -----------------------------------------------------------

_NEG_INF = float("-inf")
_POS_INF = float("inf")

#: Sorted window edges per windows-list, guarded the same way the
#: resolver's state token guards zones: identity plus length.  Window
#: lists only ever grow in place (registrar re-registration, fault
#: injection append), so a length match means the edge set is current.
_EDGE_CACHE: dict[int, tuple[object, int, list[float]]] = {}


def _window_edges(windows) -> list[float]:
    key = id(windows)
    hit = _EDGE_CACHE.get(key)
    if hit is not None and hit[0] is windows and hit[1] == len(windows):
        return hit[2]
    edges: list[float] = []
    for w in windows:
        edges.append(w.start)
        edges.append(w.end)
    edges.sort()
    _EDGE_CACHE[key] = (windows, len(windows), edges)
    return edges


def stable_interval(
    t: float,
    window_lists: tuple,
    points: tuple = (),
) -> tuple[float, float]:
    """Largest ``[start, end)`` around ``t`` where no window edge falls.

    Zone/mailbox predicates are piecewise-constant functions of time
    whose only breakpoints are ``Window.start``/``Window.end`` values
    (windows are half-open, ``start <= t < end``) plus any extra
    ``points`` (e.g. ``mx_disabled_from``).  Any cached answer computed
    at ``t`` is therefore exact for the whole returned interval.
    """
    start = _NEG_INF
    end = _POS_INF
    for windows in window_lists:
        if not windows:
            continue
        edges = _window_edges(windows)
        index = bisect_right(edges, t)
        if index:
            b = edges[index - 1]
            if b > start:
                start = b
        if index < len(edges):
            b = edges[index]
            if b < end:
                end = b
    for b in points:
        if b is None:
            continue
        if b <= t:
            if b > start:
                start = b
        elif b < end:
            end = b
    return start, end
