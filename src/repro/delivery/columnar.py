"""Columnar batch execution for the delivery engine.

The per-email :meth:`DeliveryEngine.deliver` path re-derives the same
RNG-free facts for every email: the receiver domain's MX state, its
policy gauntlet constants, the (sender country, receiver country) network
probabilities, the recipient's status interval.  This module splits each
day's sends into chunks and runs them in two stages:

1. **Prepass** (:meth:`ColumnarExecutor._prepass`): look up each unique
   receiver domain's plan row, recipient status span and sender DNS span
   once per chunk through the world's interval-guarded caches, then
   check every email's three validity intervals in one fused plain
   comparison.  A whole-column numpy stage measured slower than this
   comparison, so the simulator does not import numpy.
2. **Sequential RNG executor** (:meth:`ColumnarExecutor.deliver_chunk`):
   walk the chunk in input order and replay the *exact* per-email draw
   sequence of the reference path against the plan — same draws, same
   order, on the same :class:`~repro.util.rng.RandomSource` streams.

The RNG draw order is the invariant: the executor inlines each primitive
(``chance``, ``lognormal``, the weighted proxy pick) as the literal
arithmetic of its reference implementation, bound directly to the
underlying :class:`random.Random` methods.  Binding survives checkpoint
restore because :meth:`RandomSource.setstate` mutates the wrapped
``Random`` in place rather than replacing it.

Stateful or rare paths are not planned — they drop back to the
reference code:

- plan rows invalidated by a misconfiguration/registration window or a
  zone mutation token fall back to ``engine.deliver`` for that email;
- greylist checks, fleet-wide STARTTLS learning and DNSBL membership
  run live inside the executor (they are stateful but draw-free);
- every retry past attempt 1 hands off to ``engine._run_attempts``,
  the reference retry loop, resumed from the executor's partial state.

Chunks never cross a simulated day boundary, so checkpoint cuts (which
happen on day edges) see exactly the same draw history under columnar
and reference execution.  ``tests/test_columnar.py`` asserts record
streams *and* RNG cursors stay byte-identical chunk by chunk.
"""

from __future__ import annotations

from bisect import bisect_right
from math import cos, exp, log, pi, sin, sqrt
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.auth.evaluator import AuthFailureMode
from repro.core.taxonomy import BounceType
from repro.delivery.records import AttemptRecord, DeliveryRecord
from repro.dnssim.records import RecordType, ResolveStatus
from repro.mta.filters import SpamVerdict
from repro.mta.receiver import RecipientStatus
from repro.obs import profile as obs_profile
from repro.smtp.ndr import SUCCESS_RESULT, is_success
from repro.smtp.templates import TemplateDialect
from repro.util.clock import DAY_SECONDS
from repro.util.text import split_address
from repro.workload.spec import EmailSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.delivery.engine import DeliveryEngine

__all__ = ["ColumnarExecutor", "DEFAULT_CHUNK_SIZE"]

#: Upper bound on emails per chunk.  Chunks are additionally cut at
#: simulated-day boundaries; this bounds prepass working-set size.
DEFAULT_CHUNK_SIZE = 2048

#: Sentinel for "no envelope limit" on domains without a modelled service.
_NO_LIMIT = 1 << 62

#: Unused here: ``benchmarks/perf/workloads.py`` imports it to split its
#: traced chunk counts at the size where an older prepass switched to
#: numpy.  Delete it with that import.
_SCALAR_CUTOFF = 64

#: Local missing-key sentinel (the greylist store itself may be None).
_UNSET = object()

#: ``random.py``'s TWOPI, for the inlined ``Random.gauss`` replica.
_TWOPI = 2.0 * pi

_MX = RecordType.MX
_ST_OK = ResolveStatus.OK
_ST_NX = ResolveStatus.NXDOMAIN
_ST_NO_DATA = ResolveStatus.NO_DATA
_ST_SERVFAIL = ResolveStatus.SERVFAIL

_T1 = BounceType.T1
_T2 = BounceType.T2
_T3 = BounceType.T3
_T4 = BounceType.T4
_T5 = BounceType.T5
_T6 = BounceType.T6
_T7 = BounceType.T7
_T8 = BounceType.T8
_T9 = BounceType.T9
_T10 = BounceType.T10
_T11 = BounceType.T11
_T12 = BounceType.T12
_T13 = BounceType.T13
_T14 = BounceType.T14
_T15 = BounceType.T15
_T4_VALUE = BounceType.T4.value
_T6_VALUE = BounceType.T6.value

_T3_TAGS = ["both", "either"]
_T3_WEIGHTS = [0.43, 0.57]

_STATUS_CODE = {
    RecipientStatus.OK: 0,
    RecipientStatus.NO_SUCH_USER: 1,
    RecipientStatus.INACTIVE: 2,
    RecipientStatus.FULL: 3,
    RecipientStatus.OVER_RATE: 4,
}

class _DomainRow:
    """Engine-lifetime, RNG-free facts of one receiver domain.

    Valid for ``start <= t < end`` (the MX zone state's interval,
    intersected with the domain's DNSBL adoption edge) while ``token``
    still matches the zone — the same guard discipline as the world's
    fast-path caches, checked per unique domain per chunk."""

    __slots__ = (
        "zone",
        "token",
        "start",
        "end",
        "registered",
        "broken",
        "mx_ok",
        "mx_host",
        "mx_all_down",
        "has_service",
        "mta",
        "ips",
        "dead",
        "country",
        "tls_mandatory",
        "dnsbl_gate",
        "dnsbl",
        "dnsbl_p",
        "rate_p",
        "enforces_auth",
        "max_rcpt",
        "max_bytes",
        "rrate_p",
        "spam_threshold",
        "spam_sigma",
        "net",
    )


class _ChunkPlan:
    """Plain-list view of the prepass output, ready for the executor.

    ``addr_entries``/``sender_entries`` keep the full ``(value, start,
    end)`` spans (not just attempt-1 validity): the executor rechecks
    them at each retry time, falling back to the reference loop when a
    retry lands outside any span."""

    __slots__ = ("rows", "domains", "sender_domains", "addr_entries",
                 "sender_entries", "fallback")

    def __init__(self, rows, domains, sender_domains, addr_entries,
                 sender_entries, fallback):
        self.rows = rows
        self.domains = domains
        self.sender_domains = sender_domains
        self.addr_entries = addr_entries
        self.sender_entries = sender_entries
        self.fallback = fallback


class ColumnarExecutor:
    """Chunked plan-and-replay executor bound to one engine.

    Owns only pure, revalidated derived state (domain plan rows, network
    plan tuples); every mutable simulation fact (RNG cursors, greylists,
    TLS learning, auth cache) stays on the engine/world, so checkpoint
    snapshot/restore works unchanged."""

    def __init__(self, engine: "DeliveryEngine", chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._engine = engine
        self._chunk_size = chunk_size
        self._rows: dict[str, _DomainRow] = {}

    # -- chunking ----------------------------------------------------------------

    def deliver_stream(self, specs: Iterable[EmailSpec]) -> Iterator[DeliveryRecord]:
        """Consume ``specs`` lazily in day-bounded chunks.

        A chunk never spans a simulated day boundary: day edges are where
        checkpoint cuts and per-day slice hand-offs happen, and keeping
        chunks inside them guarantees the draw history at every cut is
        identical to the per-email path's."""
        start_ts = self._engine.world.clock.start_ts
        limit = self._chunk_size
        chunk: list[EmailSpec] = []
        append = chunk.append
        day = -1.0
        for spec in specs:
            spec_day = (spec.t - start_ts) // DAY_SECONDS
            if chunk and (spec_day != day or len(chunk) >= limit):
                yield from self.deliver_chunk(chunk)
                chunk = []
                append = chunk.append
            day = spec_day
            append(spec)
        if chunk:
            yield from self.deliver_chunk(chunk)

    # -- prepass -----------------------------------------------------------------

    def _row_for(self, domain: str, t: float) -> _DomainRow:
        row = self._rows.get(domain)
        if (
            row is not None
            and row.start <= t < row.end
            and self._engine.world.resolver.state_token(row.zone) == row.token
        ):
            return row
        row = self._build_row(domain, t)
        self._rows[domain] = row
        return row

    def _build_row(self, domain: str, t: float) -> _DomainRow:
        world = self._engine.world
        (registered, broken, mx_ok, mx_host, mx_all_down, start, end, zone, token) = (
            world.resolver.mx_state_span(domain, t)
        )
        row = _DomainRow()
        row.zone = zone
        row.token = token
        row.registered = registered
        row.broken = broken
        row.mx_ok = mx_ok
        row.mx_host = mx_host
        row.mx_all_down = mx_all_down
        row.net = {}
        rdomain = world.receiver_domains.get(domain)
        row.has_service = rdomain is not None
        if rdomain is None:
            row.mta = None
            row.ips = ()
            row.dead = False
            row.country = ""
            row.tls_mandatory = False
            row.dnsbl_gate = False
            row.dnsbl = None
            row.dnsbl_p = 0.0
            row.rate_p = 0.0
            row.enforces_auth = False
            row.max_rcpt = _NO_LIMIT
            row.max_bytes = _NO_LIMIT
            row.rrate_p = 0.0
            row.spam_threshold = 2.0
            row.spam_sigma = 0.0
        else:
            mta = world.receiver_mtas[domain]
            profile = mta.gauntlet_profile()
            row.mta = mta
            row.ips = rdomain.ips
            row.dead = rdomain.dead_server
            row.country = rdomain.mta_country
            row.tls_mandatory = profile.tls_mandatory
            gate = False
            if profile.has_dnsbl and profile.uses_dnsbl:
                # Split the row's validity at the adoption edge so the
                # gate is a plain flag inside the interval.
                adoption = profile.dnsbl_adoption_ts
                if t >= adoption:
                    gate = True
                    if adoption > start:
                        start = adoption
                elif adoption < end:
                    end = adoption
            row.dnsbl_gate = gate
            row.dnsbl = mta.dnsbl
            row.dnsbl_p = profile.dnsbl_reject_probability
            row.rate_p = profile.rate_limit_probability
            row.enforces_auth = profile.enforces_auth
            row.max_rcpt = profile.max_recipients
            row.max_bytes = profile.max_message_bytes
            row.rrate_p = profile.recipient_rate_probability
            row.spam_threshold = profile.spam_threshold
            row.spam_sigma = profile.spam_noise_sigma
        row.start = start
        row.end = end
        return row

    def _net_plan(self, row: _DomainRow, sender_country: str) -> tuple:
        """``(timeout_p, interrupt_p, log_median_ms, cap_ms)`` for one
        (proxy country, receiver domain) pair, cached on the row."""
        network = self._engine.world.network
        receiver_country = row.country
        log_median, cap = network.latency_plan(sender_country, receiver_country)
        plan = (
            network.timeout_probability(sender_country, receiver_country),
            network.interrupt_probability(sender_country, receiver_country),
            log_median,
            cap,
        )
        row.net[sender_country] = plan
        return plan

    def _prepass(self, specs: list[EmailSpec]) -> _ChunkPlan:
        world = self._engine.world
        row_for = self._row_for
        status_span = world.recipient_status_span
        sender_span = world.sender_dns_broken_span
        status_code = _STATUS_CODE

        # Column extraction runs as comprehensions (C-speed iteration);
        # only the memo-filling loops below touch each element in Python,
        # and those fire once per *unique* domain/address per chunk.
        ts = [spec.t for spec in specs]
        domains = [spec.receiver.rsplit("@", 1)[-1] for spec in specs]
        sender_domains = [spec.sender.rsplit("@", 1)[-1] for spec in specs]

        dom_rows: dict[str, _DomainRow] = {}
        addr_memo: dict[str, tuple[int, float, float]] = {}
        sender_memo: dict[str, tuple[bool, float, float]] = {}
        for spec, t, domain, sdomain in zip(specs, ts, domains, sender_domains):
            if domain not in dom_rows:
                dom_rows[domain] = row_for(domain, t)
            address = spec.receiver
            if address not in addr_memo:
                status, start, end = status_span(address, t)
                addr_memo[address] = (status_code[status], start, end)
            if sdomain not in sender_memo:
                sender_memo[sdomain] = sender_span(sdomain, t)

        addr_entries = [addr_memo[spec.receiver] for spec in specs]
        sender_entries = [sender_memo[sdomain] for sdomain in sender_domains]
        rows = [dom_rows[domain] for domain in domains]

        fallback = [
            not (row.start <= t < row.end
                 and a[1] <= t < a[2] and s[1] <= t < s[2])
            for t, row, a, s in zip(ts, rows, addr_entries, sender_entries)
        ]
        return _ChunkPlan(
            rows, domains, sender_domains, addr_entries, sender_entries, fallback
        )

    # -- execution ---------------------------------------------------------------

    _gap_cache: tuple[tuple, list[float]] | None = None

    def _gap_lambdas(self, config, max_budget: int) -> list[float]:
        key = (config.retry_gap_mean_s, config.retry_backoff_multiplier, max_budget)
        cached = self._gap_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        table = [
            1.0 / (config.retry_gap_mean_s * config.retry_backoff_multiplier ** k)
            for k in range(max_budget)
        ]
        self._gap_cache = (key, table)
        return table

    def deliver_chunk(self, specs: list[EmailSpec]) -> list[DeliveryRecord]:
        """Plan ``specs`` then replay the reference draw sequence.

        Every branch below mirrors one reference code path draw for
        draw; comments name the mirrored primitive.  An email whose plan
        row is invalid falls back to ``engine.deliver`` *before* any
        draw; a retry whose time lands outside any plan span hands the
        partial state to ``engine._run_attempts``, so the stream stays
        aligned either way."""
        engine = self._engine
        obs_on = engine._obs_on
        if obs_on:
            chunk_t0 = perf_counter()
        plan = self._prepass(specs)
        world = engine.world
        config = world.config
        spam_budget = config.spam_attempts
        normal_budget = config.max_attempts
        nonretryable_budget = config.nonretryable_attempts
        sticky_proxies = config.proxy_policy == "sticky"
        # Per-attempt retry-gap rates: the reference computes
        # ``1.0 / (retry_gap_mean_s * backoff ** (len(attempts) - 1))``
        # fresh each time; the identical floats, precomputed per index.
        gap_lambdas = self._gap_lambdas(config, max(spam_budget, normal_budget))
        coremail = world.coremail_filter
        cm_sigma = coremail.noise_sigma
        cm_threshold = coremail.threshold
        spam_flag = SpamVerdict.SPAM.value
        normal_flag = SpamVerdict.NORMAL.value
        latency_sigma = world.network.latency_sigma
        transient_p = world.resolver.transient_failure_rate
        bank_render = world.bank.render
        note_query = world.resolver.note_query
        sender_dialect = TemplateDialect.POSTFIX

        tls_learned = engine._tls_learned
        auth_evaluate = engine._auth.evaluate
        greylist_for = engine._greylist_for
        greylists_get = engine._greylists.get
        run_attempts = engine._run_attempts
        finish_record = engine._finish_record
        deliver_reference = engine.deliver
        reject_unknown = engine._reject_unknown_service
        build_context = engine._context
        retryable_types = _retryable_types()

        engine_rng = engine.rng
        # Bound Random methods: draw-identical to the RandomSource
        # wrappers, and stable across setstate (which mutates in place).
        _rng = engine_rng._rng
        rand = _rng.random
        getrandbits = _rng.getrandbits
        rng_expovariate = _rng.expovariate
        weighted_choice = engine_rng.weighted_choice
        fleet_rand = engine._fleet_rng._rng.random
        # WeightedSampler.draw, inlined (ProxySession.pick_random).
        fleet_items, fleet_cum, fleet_total = engine._fleet.sampler_table()
        fleet_n = len(fleet_items)
        net_plan = self._net_plan

        if obs_on:
            m_attempts_labels = engine._m_attempts.labels
            m_latency_observe = engine._m_latency.observe
            m_retry_observe = engine._m_retry_wait.observe

        records: list[DeliveryRecord] = []
        add_record = records.append

        for (
            spec,
            fell_back,
            row,
            domain,
            sender_domain,
            addr_entry,
            sender_entry,
        ) in zip(
            specs,
            plan.fallback,
            plan.rows,
            plan.domains,
            plan.sender_domains,
            plan.addr_entries,
            plan.sender_entries,
        ):
            if fell_back:
                add_record(deliver_reference(spec))
                continue
            t = spec.t

            # SpamFilter.classify (coremail outgoing): one gauss draw,
            # Random.gauss inlined (the pair-caching Lambert Meertens
            # form of random.py, literally).
            z = _rng.gauss_next
            _rng.gauss_next = None
            if z is None:
                x2pi = rand() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - rand()))
                z = cos(x2pi) * g2rad
                _rng.gauss_next = sin(x2pi) * g2rad
            score = spec.spamminess + (0.0 + z * cm_sigma)
            if score < 0.0:
                score = 0.0
            elif score > 1.0:
                score = 1.0
            if score >= cm_threshold:
                email_flag = spam_flag
                budget = spam_budget
            else:
                email_flag = normal_flag
                budget = normal_budget
            if budget < 1:
                _budget_error(budget)

            status_code, addr_lo, addr_hi = addr_entry
            sender_is_broken, sender_lo, sender_hi = sender_entry
            row_lo = row.start
            row_hi = row.end

            attempts: list[AttemptRecord] = []
            proxy = None
            nonretryable_seen = 0
            succeeded = False
            while len(attempts) < budget:
                if proxy is None:
                    # ProxySession.pick_random == WeightedSampler.draw.
                    u = fleet_rand() * fleet_total
                    index = bisect_right(fleet_cum, u)
                    if index >= fleet_n:
                        index = fleet_n - 1
                    proxy = fleet_items[index]
                else:
                    # Retry: the plan spans were checked at spec.t only;
                    # a retry time outside any of them resumes on the
                    # reference loop with the partial state.
                    if not (
                        row_lo <= t < row_hi
                        and addr_lo <= t < addr_hi
                        and sender_lo <= t < sender_hi
                    ):
                        succeeded = run_attempts(
                            spec, budget, attempts, t, proxy, nonretryable_seen
                        )
                        break
                    # DeliveryEngine._pick_proxy(previous, last_type):
                    # sticky policies and greylist deferrals (T6) keep
                    # the previous host; otherwise pick_different.
                    if (
                        not sticky_proxies
                        and attempts[-1].truth_type != _T6_VALUE
                        and fleet_n > 1
                    ):
                        for _ in range(8):
                            u = fleet_rand() * fleet_total
                            index = bisect_right(fleet_cum, u)
                            if index >= fleet_n:
                                index = fleet_n - 1
                            candidate = fleet_items[index]
                            if candidate.index != proxy.index:
                                proxy = candidate
                                break
                from_ip = proxy.ip

                # Resolver.mx_route, replayed from the plan row.
                mx_host = None
                if not row.registered:
                    status = _ST_NX
                elif transient_p > 0.0 and (
                    transient_p >= 1.0 or rand() < transient_p
                ):
                    status = _ST_SERVFAIL
                elif row.broken:
                    status = _ST_SERVFAIL if rand() < 0.5 else _ST_NO_DATA
                elif row.mx_ok:
                    status = _ST_OK
                    mx_host = row.mx_host
                else:
                    status = _ST_NO_DATA
                if obs_on:
                    note_query(_MX, status)

                if mx_host is None and status is _ST_OK:
                    # DNS answered but every MX host is in an SMTP outage
                    # window (row.mx_all_down): connects time out → T14.
                    ndr = bank_render(
                        _T14,
                        sender_dialect,
                        engine_rng,
                        context=build_context(spec, proxy, f"mx1.{domain}"),
                    )
                    attempt = AttemptRecord(
                        t, from_ip, "", ndr.text,
                        # network.timeout_latency_ms: rng.uniform(290_000, 330_000)
                        int(290_000.0 + 40_000.0 * rand()),
                        ndr.truth_type, ndr.ambiguous,
                    )
                elif mx_host is None:
                    # Unroutable: T2 in the sender's own dialect.
                    ndr = bank_render(
                        _T2,
                        sender_dialect,
                        engine_rng,
                        context=build_context(spec, proxy, f"mx1.{domain}"),
                    )
                    attempt = AttemptRecord(
                        t, from_ip, "", ndr.text,
                        # rng.uniform(400, 4_000)
                        int(400.0 + 3600.0 * rand()), ndr.truth_type, ndr.ambiguous,
                    )
                elif not row.has_service:
                    attempt = reject_unknown(spec, proxy, t, mx_host)
                else:
                    # rng.choice(row.ips): _randbelow(n) inlined — draw
                    # getrandbits(n.bit_length()) until the value is < n.
                    ips = row.ips
                    n_ips = len(ips)
                    k = n_ips.bit_length()
                    v = getrandbits(k)
                    while v >= n_ips:
                        v = getrandbits(k)
                    to_ip = ips[v]
                    net = row.net.get(proxy.country)
                    if net is None:
                        net = net_plan(row, proxy.country)
                    timeout_p = net[0]
                    # chance(timeout_p), short-circuited by dead servers.
                    if row.dead or (
                        timeout_p > 0.0 and (timeout_p >= 1.0 or rand() < timeout_p)
                    ):
                        ndr = bank_render(
                            _T14,
                            sender_dialect,
                            engine_rng,
                            context=build_context(spec, proxy, mx_host),
                        )
                        attempt = AttemptRecord(
                            t, from_ip, to_ip, ndr.text,
                            # rng.uniform(290_000, 330_000)
                            int(290_000.0 + 40_000.0 * rand()),
                            ndr.truth_type, ndr.ambiguous,
                        )
                    else:
                        interrupt_p = net[1]
                        if interrupt_p > 0.0 and (
                            interrupt_p >= 1.0 or rand() < interrupt_p
                        ):
                            ndr = bank_render(
                                _T15,
                                sender_dialect,
                                engine_rng,
                                context=build_context(spec, proxy, mx_host),
                            )
                            attempt = AttemptRecord(
                                t, from_ip, to_ip, ndr.text,
                                # rng.uniform(8_000, 120_000)
                                int(8_000.0 + 112_000.0 * rand()),
                                ndr.truth_type, ndr.ambiguous,
                            )
                        else:
                            # The gauntlet, plan-backed.  Auth is
                            # evaluated eagerly (before the walk) exactly
                            # like the reference: draw-free, but its
                            # resolver queries feed the same caches and
                            # telemetry.
                            auth_result = None
                            if row.enforces_auth:
                                auth_result = auth_evaluate(sender_domain, from_ip, t)
                            mta = row.mta
                            # _greylist_for: created eagerly at gauntlet
                            # entry like the reference (it is an argument
                            # to mta.evaluate there), so engine snapshots
                            # stay identical even when an earlier policy
                            # check bounces first.  Method call on miss.
                            greylist = greylists_get(domain, _UNSET)
                            if greylist is _UNSET:
                                greylist = greylist_for(domain, mta)
                            bounce_type = None
                            tag = ""
                            if row.tls_mandatory and domain not in tls_learned:
                                bounce_type = _T4
                            if (
                                bounce_type is None
                                and row.dnsbl_gate
                                and row.dnsbl.is_listed(from_ip, t)
                            ):
                                p = row.dnsbl_p
                                if p > 0.0 and (p >= 1.0 or rand() < p):
                                    bounce_type = _T5
                            if bounce_type is None:
                                if greylist is not None and not greylist.check(
                                    from_ip, spec.sender, spec.receiver, t
                                ):
                                    bounce_type = _T6
                            if bounce_type is None:
                                p = row.rate_p
                                if p > 0.0 and (p >= 1.0 or rand() < p):
                                    bounce_type = _T7
                            if bounce_type is None:
                                if sender_is_broken:
                                    bounce_type = _T1
                                elif (
                                    auth_result is not None
                                    and not auth_result.authenticated
                                ):
                                    if auth_result.failure_mode is _DMARC_MODE:
                                        tag = "dmarc"
                                    else:
                                        tag = weighted_choice(_T3_TAGS, _T3_WEIGHTS)
                                    bounce_type = _T3
                            if bounce_type is None:
                                if status_code == 1:
                                    bounce_type = _T8
                                elif status_code == 2:
                                    bounce_type = _T8
                                    tag = "inactive"
                                elif status_code == 3:
                                    bounce_type = _T9
                                elif spec.recipient_count > row.max_rcpt:
                                    bounce_type = _T10
                                elif spec.size_bytes > row.max_bytes:
                                    bounce_type = _T12
                                elif status_code == 4:
                                    bounce_type = _T11
                                else:
                                    p = row.rrate_p
                                    if p > 0.0 and (p >= 1.0 or rand() < p):
                                        bounce_type = _T11
                                    else:
                                        # Receiver SpamFilter.classify
                                        # (gauss inlined as above).
                                        z = _rng.gauss_next
                                        _rng.gauss_next = None
                                        if z is None:
                                            x2pi = rand() * _TWOPI
                                            g2rad = sqrt(
                                                -2.0 * log(1.0 - rand())
                                            )
                                            z = cos(x2pi) * g2rad
                                            _rng.gauss_next = sin(x2pi) * g2rad
                                        observed = spec.spamminess + (
                                            0.0 + z * row.spam_sigma
                                        )
                                        if observed < 0.0:
                                            observed = 0.0
                                        elif observed > 1.0:
                                            observed = 1.0
                                        if observed >= row.spam_threshold:
                                            bounce_type = _T13

                            if bounce_type is None:
                                if obs_on:
                                    mta.note_accept()
                                # NetworkModel.latency_ms via latency_plan
                                # (gauss inlined as above).
                                z = _rng.gauss_next
                                _rng.gauss_next = None
                                if z is None:
                                    x2pi = rand() * _TWOPI
                                    g2rad = sqrt(-2.0 * log(1.0 - rand()))
                                    z = cos(x2pi) * g2rad
                                    _rng.gauss_next = sin(x2pi) * g2rad
                                value = exp(
                                    net[2] + latency_sigma * (0.0 + z * 1.0)
                                )
                                cap = net[3]
                                if value > cap:
                                    value = cap
                                latency = int(value)
                                if latency < 200:
                                    latency = 200
                                attempt = AttemptRecord(
                                    t, from_ip, to_ip, SUCCESS_RESULT, latency, None,
                                )
                            else:
                                user, _ = split_address(spec.receiver)
                                ndr = mta.render_reject(
                                    bounce_type,
                                    engine_rng,
                                    {
                                        "address": spec.receiver,
                                        "user": user,
                                        "domain": mta.domain,
                                        "sender_domain": sender_domain,
                                        "ip": from_ip,
                                        "mx": mx_host,
                                    },
                                    tag,
                                )
                                attempt = AttemptRecord(
                                    t, from_ip, to_ip, ndr.text,
                                    # rng.uniform(800, 12_000)
                                    int(800.0 + 11_200.0 * rand()),
                                    ndr.truth_type, ndr.ambiguous,
                                )

                # The reference loop's tail, draw for draw.
                attempts.append(attempt)
                truth = attempt.truth_type
                succeeded = True if truth is None else is_success(attempt.result)
                if obs_on:
                    m_attempts_labels(truth or "delivered").inc()
                    m_latency_observe(attempt.latency_ms)
                if succeeded:
                    break
                if truth == _T4_VALUE:
                    tls_learned.add(domain)
                if truth not in retryable_types:
                    nonretryable_seen += 1
                    if nonretryable_seen >= nonretryable_budget:
                        break
                # The reference draws the next gap even when the budget
                # is already exhausted; keep that draw.
                t = attempt.t + rng_expovariate(gap_lambdas[len(attempts) - 1])
                if obs_on:
                    m_retry_observe(t - attempt.t)
            if obs_on:
                add_record(finish_record(spec, email_flag, attempts, succeeded))
            else:
                # _finish_record without telemetry is just the construction.
                last = attempts[-1]
                add_record(
                    DeliveryRecord(
                        spec.sender,
                        spec.receiver,
                        spec.t,
                        last.t + last.latency_ms / 1000.0,
                        email_flag,
                        attempts,
                        spec.tags,
                        spec.spamminess,
                    )
                )

        if obs_on:
            obs_profile.add("delivery", perf_counter() - chunk_t0)
        return records


def _retryable_types():
    from repro.delivery.engine import _RETRYABLE_TYPES

    return _RETRYABLE_TYPES


def _budget_error(budget: int) -> None:
    from repro.delivery.engine import _require_budget

    _require_budget(budget)


_DMARC_MODE = AuthFailureMode.DMARC
