"""Time-aware resolver over the zone registry."""

from __future__ import annotations

from repro.core import fastpath
from repro.dnssim.records import RecordType, ResolveResult, ResolveStatus
from repro.dnssim.zone import Zone
from repro.obs import metrics as obs_metrics
from repro.util.rng import RandomSource

# Shared terminal results.  ResolveResult is frozen (and DnsRecords are
# frozen), so handing the same instance to every caller is safe.
_NXDOMAIN = ResolveResult(ResolveStatus.NXDOMAIN)
_SERVFAIL = ResolveResult(ResolveStatus.SERVFAIL)
_NO_DATA = ResolveResult(ResolveStatus.NO_DATA)

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class _ZoneState:
    """Cached pure zone state for one (domain, rtype) over ``[start, end)``.

    Only the rng-free predicates are cached (registered? broken? which
    records?); the transient-failure and broken-MX coin flips stay in
    :meth:`Resolver._answer` so the caller's rng stream is consumed
    exactly as without the cache.
    """

    __slots__ = (
        "start", "end", "token", "zone", "registered", "broken", "result",
        "mx_host", "mx_all_down",
    )

    def __init__(
        self, start, end, token, zone, registered, broken, result,
        mx_host=None, mx_all_down=False,
    ) -> None:
        self.start = start
        self.end = end
        self.token = token
        #: the Zone this entry guards (None for unknown domains) — kept on
        #: the entry so cache hits skip the zone-registry lookup.
        self.zone = zone
        self.registered = registered
        self.broken = broken
        self.result = result
        #: preferred *reachable* MX hostname precomputed from ``result``
        #: (MX entries only), so ``resolve_mx_host`` skips the per-call
        #: best-MX scan.  Hosts inside an SMTP outage window are skipped
        #: (sender fail-over); ``mx_all_down`` distinguishes "every host
        #: down" (connection timeouts) from "no MX published".
        self.mx_host = mx_host
        self.mx_all_down = mx_all_down


class Resolver:
    """Answers queries against the registered zones at a point in time.

    * Unknown or unregistered-at-``t`` domains → NXDOMAIN.
    * MX queries during an MX-misconfiguration window → SERVFAIL/NO_DATA
      (the manager has published a broken delegation or deleted the
      record), which is what produces the paper's T2 hard bounces.
    * Auth (SPF/DKIM/DMARC TXT) queries during an auth-misconfiguration
      window → NO_DATA, which receiver MTAs turn into T3 rejections.

    A small transient-failure probability models flaky resolution; callers
    that retry see it heal, unlike misconfiguration windows.
    """

    def __init__(self, transient_failure_rate: float = 0.0005) -> None:
        self._zones: dict[str, Zone] = {}
        self.transient_failure_rate = transient_failure_rate
        # Interval ("TTL") cache: (domain, rtype) -> _ZoneState valid on
        # [start, end), where the interval edges are the nearest
        # misconfiguration/registration window boundaries.  Entries also
        # carry a zone state token so mutations invalidate them.
        self._state_cache: dict[tuple[str, RecordType], _ZoneState] = {}
        self._registration_epoch = 0
        self._state_stats = fastpath.CacheStats("dns-state")
        # Telemetry (no-op unless repro.obs is enabled at construction).
        self._obs_on = obs_metrics.enabled()
        self._m_queries = obs_metrics.counter(
            "repro_dns_queries_total",
            "DNS queries answered, by record type and resolution status",
            label="result",
        )
        # Label children keyed by (rtype, status) so the per-query hot
        # path skips both the f-string format and the labels() lookup.
        self._m_query_children: dict = {}

    def purge_caches(self) -> None:
        """Drop every cached zone state (checkpoint save/restore).

        Entries rebuild on demand from the zones themselves, so purging is
        always semantics-preserving — it only matters that a restored
        resolver never carries another process's cache objects.
        """
        self._state_cache.clear()

    def rebind_telemetry(self) -> None:
        """Re-attach telemetry to *this process's* registry.

        A resolver restored from a checkpoint carries detached instrument
        copies pickled in another process; rebinding swaps them for live
        ones (or the shared no-ops when :mod:`repro.obs` is disabled).
        """
        self._state_stats = fastpath.CacheStats("dns-state")
        self._obs_on = obs_metrics.enabled()
        self._m_queries = obs_metrics.counter(
            "repro_dns_queries_total",
            "DNS queries answered, by record type and resolution status",
            label="result",
        )
        self._m_query_children = {}

    def register_zone(self, zone: Zone) -> None:
        key = zone.domain.lower()
        if key in self._zones:
            raise ValueError(f"zone already registered: {zone.domain}")
        self._zones[key] = zone
        # Invalidates any cached "unknown domain" entries.
        self._registration_epoch += 1

    def zone(self, domain: str) -> Zone | None:
        return self._zones.get(domain.lower())

    def __contains__(self, domain: str) -> bool:
        return domain.lower() in self._zones

    def __len__(self) -> int:
        return len(self._zones)

    def all_zones(self) -> list[Zone]:
        return list(self._zones.values())

    def query(
        self,
        domain: str,
        rtype: RecordType,
        t: float,
        rng: RandomSource | None = None,
    ) -> ResolveResult:
        result = self._answer(domain, rtype, t, rng)
        if self._obs_on:
            self._count_query(rtype, result.status)
        return result

    def _count_query(self, rtype: RecordType, status: "ResolveStatus") -> None:
        key = (rtype, status)
        child = self._m_query_children.get(key)
        if child is None:
            child = self._m_queries.labels(f"{rtype.value}:{status.value}")
            self._m_query_children[key] = child
        child.inc()

    def _answer(
        self,
        domain: str,
        rtype: RecordType,
        t: float,
        rng: RandomSource | None = None,
    ) -> ResolveResult:
        if not fastpath.enabled():
            return self._answer_reference(domain, rtype, t, rng)
        state = self._zone_state(domain.lower(), rtype, t)
        if not state.registered:
            return _NXDOMAIN
        # rng draws below happen in exactly the same cases and order as
        # in the reference path — the cache covers only pure predicates.
        if rng is not None and rng.chance(self.transient_failure_rate):
            return _SERVFAIL
        if state.broken:
            if rtype is RecordType.MX and rng is not None and rng.chance(0.5):
                return _SERVFAIL
            return _NO_DATA
        return state.result

    def _zone_state(self, key: str, rtype: RecordType, t: float) -> _ZoneState:
        cache_key = (key, rtype)
        entry = self._state_cache.get(cache_key)
        if entry is not None:
            zone = entry.zone
            if zone is None:
                # Unknown-domain entry: valid until any zone registration.
                if entry.token == self._registration_epoch:
                    self._state_stats.hit()
                    return entry
            else:
                # Compare the token components in place (no tuple build on
                # the hit path); equivalent to token == zone.state_token().
                tok = entry.token
                if (
                    tok[0] == zone._epoch
                    and tok[1] == len(zone.registrations)
                    and tok[2] == len(zone.records)
                    and entry.start <= t < entry.end
                ):
                    self._state_stats.hit()
                    return entry
        self._state_stats.miss()
        zone = self._zones.get(key)
        if zone is None:
            entry = _ZoneState(
                _NEG_INF, _POS_INF, self._registration_epoch, None, False, False, None
            )
        else:
            entry = self._build_state(zone, rtype, t, zone.state_token())
        self._state_cache[cache_key] = entry
        return entry

    def _build_state(
        self, zone: Zone, rtype: RecordType, t: float, token
    ) -> _ZoneState:
        window_lists: list = [zone.registrations]
        points: tuple = ()
        if rtype is RecordType.MX:
            window_lists.append(zone.mx_error_windows)
            if zone.mx_host_down_windows:
                # Per-host outage edges change which host mx_route picks,
                # so the stable interval must stop at each of them.
                window_lists.extend(zone.mx_host_down_windows.values())
            points = (zone.mx_disabled_from,)
            broken = zone.mx_broken_at(t)
        elif rtype is RecordType.TXT_SPF:
            window_lists.extend((zone.spf_error_windows, zone.auth_error_windows))
            broken = zone.spf_broken_at(t)
        elif rtype is RecordType.TXT_DKIM:
            window_lists.extend((zone.dkim_error_windows, zone.auth_error_windows))
            broken = zone.dkim_broken_at(t)
        elif rtype is RecordType.TXT_DMARC:
            window_lists.append(zone.dmarc_error_windows)
            broken = zone.dmarc_broken_at(t)
        else:
            broken = False
        start, end = fastpath.stable_interval(t, tuple(window_lists), points)
        registered = zone.registered_at(t)
        result = None
        mx_host = None
        mx_all_down = False
        if registered and not broken:
            records = tuple(zone.records_of(rtype))
            result = ResolveResult(ResolveStatus.OK, records) if records else _NO_DATA
            if rtype is RecordType.MX and result.ok:
                mx_host, mx_all_down = self._select_mx(zone, result, t)
        return _ZoneState(
            start, end, token, zone, registered, broken, result, mx_host, mx_all_down
        )

    @staticmethod
    def _select_mx(
        zone: Zone, result: ResolveResult, t: float
    ) -> tuple[str | None, bool]:
        """Preferred *reachable* MX host at ``t`` plus the all-down flag.

        Without per-host outage windows this is exactly ``best_mx()``;
        with them, the sender fails over to the lowest-priority host not
        currently down (ties resolve to record order, matching
        ``best_mx``'s stable ``min``).
        """
        if not zone.mx_host_down_windows:
            best = result.best_mx()
            return (best.value if best else None), False
        up = [
            r for r in result.records
            if r.rtype is RecordType.MX and not zone.mx_host_down_at(r.value, t)
        ]
        if not up:
            return None, True
        return min(up, key=lambda r: r.priority).value, False

    def state_span(
        self, domain: str, rtype: RecordType, t: float
    ) -> tuple[float, float, Zone | None, object]:
        """``(start, end, zone, token)`` of the stable state interval at ``t``.

        Consumers caching anything derived from this resolver's answers
        (e.g. the auth evaluator) intersect these spans and re-check the
        tokens with :meth:`state_token` on every cache hit.
        """
        entry = self._zone_state(domain.lower(), rtype, t)
        return entry.start, entry.end, entry.zone, entry.token

    def state_token(self, zone: Zone | None) -> object:
        """Current validation token for a zone (or the unknown-domain set)."""
        return self._registration_epoch if zone is None else zone.state_token()

    # -- bulk lookup (columnar prepass) -------------------------------------------

    def mx_state_span(
        self, domain: str, t: float
    ) -> tuple[bool, bool, bool, str | None, bool, float, float, Zone | None, object]:
        """RNG-free MX routing state at ``t`` with its validity interval.

        Returns ``(registered, broken, ok, mx_host, all_down, start,
        end, zone, token)``.  The columnar delivery planner snapshots
        this per receiver domain and replays the transient-failure /
        broken-MX coin flips itself in exactly the order of
        :meth:`mx_route`; ``ok`` distinguishes an answerable MX set from
        a registered-but-empty zone (NO_DATA), ``all_down`` marks an
        answerable set whose every host is in an SMTP outage window
        (``mx_host`` is then None), and the ``zone``/``token`` pair lets
        the plan row be revalidated with :meth:`state_token` on every
        reuse.
        """
        state = self._zone_state(domain.lower(), RecordType.MX, t)
        ok = state.result is not None and state.result.ok
        return (
            state.registered,
            state.broken,
            ok,
            state.mx_host,
            state.mx_all_down,
            state.start,
            state.end,
            state.zone,
            state.token,
        )

    def note_query(self, rtype: RecordType, status: "ResolveStatus") -> None:
        """Count a query answered by an external replayer.

        The columnar executor resolves MX state off plan rows instead of
        calling :meth:`resolve_mx_host`; it reports the outcome here so
        ``repro_dns_queries_total`` stays identical between modes."""
        if self._obs_on:
            self._count_query(rtype, status)

    def _answer_reference(
        self,
        domain: str,
        rtype: RecordType,
        t: float,
        rng: RandomSource | None = None,
    ) -> ResolveResult:
        zone = self._zones.get(domain.lower())
        if zone is None or not zone.registered_at(t):
            return ResolveResult(ResolveStatus.NXDOMAIN)

        if rng is not None and rng.chance(self.transient_failure_rate):
            return ResolveResult(ResolveStatus.SERVFAIL)

        if rtype is RecordType.MX and zone.mx_broken_at(t):
            # Broken delegations surface as SERVFAIL about as often as an
            # empty answer; both are fatal for routing.
            if rng is not None and rng.chance(0.5):
                return ResolveResult(ResolveStatus.SERVFAIL)
            return ResolveResult(ResolveStatus.NO_DATA)

        if rtype is RecordType.TXT_SPF and zone.spf_broken_at(t):
            return ResolveResult(ResolveStatus.NO_DATA)
        if rtype is RecordType.TXT_DKIM and zone.dkim_broken_at(t):
            return ResolveResult(ResolveStatus.NO_DATA)
        if rtype is RecordType.TXT_DMARC and zone.dmarc_broken_at(t):
            return ResolveResult(ResolveStatus.NO_DATA)

        records = tuple(zone.records_of(rtype))
        if not records:
            return ResolveResult(ResolveStatus.NO_DATA)
        return ResolveResult(ResolveStatus.OK, records)

    def resolve_mx_host(self, domain: str, t: float, rng: RandomSource | None = None) -> str | None:
        """Convenience: preferred reachable MX hostname, or None when
        unroutable (for any reason — unresolvable and all-hosts-down
        collapse together; :meth:`mx_route` keeps them apart)."""
        return self.mx_route(domain, t, rng)[0]

    def mx_route(
        self, domain: str, t: float, rng: RandomSource | None = None
    ) -> tuple[str | None, bool]:
        """Route one delivery: ``(preferred reachable MX host, all_down)``.

        The host is ``None`` when routing failed; ``all_down`` then
        distinguishes "DNS answered but every advertised host is inside
        an SMTP outage window" (the sender connects and times out → T14)
        from "no usable MX answer at all" (→ T2).  Draw order matches
        ``query(MX)`` exactly.
        """
        if fastpath.enabled():
            # Same state lookup, rng draws, and telemetry as query(MX), but
            # the preferred host comes precomputed off the state entry
            # instead of a per-call scan over the record set.
            state = self._zone_state(domain.lower(), RecordType.MX, t)
            if not state.registered:
                result = _NXDOMAIN
            elif rng is not None and rng.chance(self.transient_failure_rate):
                result = _SERVFAIL
            elif state.broken:
                if rng is not None and rng.chance(0.5):
                    result = _SERVFAIL
                else:
                    result = _NO_DATA
            else:
                result = state.result
            if self._obs_on:
                self._count_query(RecordType.MX, result.status)
            if result.ok:
                return state.mx_host, state.mx_all_down
            return None, False
        result = self.query(domain, RecordType.MX, t, rng)
        if not result.ok:
            return None, False
        zone = self._zones.get(domain.lower())
        return self._select_mx(zone, result, t)
