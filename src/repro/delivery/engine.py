"""The delivery engine: Coremail's distributed proxy strategy (Figure 2).

For each email the engine

1. applies Coremail's outgoing spam filter (the dataset's ``email_flag``;
   mail flagged Spam gets exactly one attempt),
2. picks a proxy MTA (randomly by default; ``sticky`` keeps the first
   proxy — the ablation of DESIGN.md),
3. resolves the receiver's MX (typo domains and broken MX configurations
   fail here, producing sender-side T2 NDRs),
4. runs the network leg (dead servers and poor routes yield T14/T15),
5. hands the session to the receiver-MTA policy gauntlet,
6. on failure, retries from a re-chosen proxy with an exponential gap —
   full budget for source-level failures, a short confirmation budget for
   recipient-level ones.

The engine learns per-domain TLS requirements the way Coremail does:
the first plaintext attempt at a mandatory-TLS domain bounces T4, and
the fleet remembers to use STARTTLS with that domain next time (STARTTLS
support is operator-level configuration, shared across all proxies).
Greylist deferrals (T6) retry from the *same* proxy: the deferred message
sits in that proxy's queue, and the queue host performs the retry — which
is also what lets the retry match the greylist tuple it was deferred on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

from repro.core import fastpath
from repro.core.taxonomy import BounceDegree, BounceType
from repro.delivery.proxies import ProxyMTA
from repro.delivery.records import AttemptRecord, DeliveryRecord
from repro.mta.filters import SpamVerdict
from repro.mta.greylist import Greylist
from repro.mta.receiver import AttemptContext
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.smtp.ndr import render_success
from repro.smtp.templates import TemplateDialect
from repro.util.rng import RandomSource
from repro.util.text import split_address
from repro.workload.spec import EmailSpec
from repro.world.model import WorldModel

#: Dialect of sender-side (Coremail proxy) generated error text.
_SENDER_DIALECT = TemplateDialect.POSTFIX

#: Sentinel distinguishing "no greylist store created yet" from a cached
#: ``None`` ("this domain doesn't greylist").
_GREYLIST_UNSET = object()

#: Version of the :meth:`DeliveryEngine.state_snapshot` payload.
ENGINE_STATE_VERSION = 1

def _require_budget(budget: int) -> None:
    """Reject non-positive attempt budgets with a clear error.

    :class:`SimulationConfig` validates the budgets at construction, but
    the config dataclass is mutable — without this guard a budget
    mutated below 1 surfaces as an ``IndexError`` on an empty attempt
    list deep inside delivery."""
    if budget < 1:
        raise ValueError(
            f"attempt budget must be >= 1, got {budget}: spam_attempts and "
            "max_attempts must not be lowered below 1 after "
            "SimulationConfig validation"
        )


#: Bounce types that justify a full retry budget (see ``_retryable``).
_RETRYABLE_TYPES = frozenset(
    t.value
    for t in (
        BounceType.T4,
        BounceType.T5,
        BounceType.T6,
        BounceType.T7,
        BounceType.T11,
        BounceType.T14,
        BounceType.T15,
    )
)


class DeliveryEngine:
    def __init__(self, world: WorldModel, rng: RandomSource) -> None:
        self.world = world
        self.rng = rng
        #: Receiver domains known to require STARTTLS (fleet-wide: one
        #: T4 bounce teaches every proxy, mirroring operator-level
        #: TLS-policy configuration shared across the fleet).
        self._tls_learned: set[str] = set()
        #: Engine-owned proxy selection: draws come from this engine's
        #: random stream, so proxy choices are independent of any other
        #: engine sharing the world's fleet (parallel slices).  The fleet
        #: stream is kept addressable so checkpoints can snapshot and
        #: restore its cursor alongside the main engine stream.
        self._fleet_rng = rng.child("fleet")
        self._fleet = world.fleet.session(self._fleet_rng)
        #: Engine-owned greylist stores, one per receiver domain (lazily
        #: created).  Greylist state accumulates per execution slice, not
        #: in the shared world, so slices are order-independent.
        self._greylists: dict[str, object] = {}
        # Fast-path switch (captured once; the CLI toggles fastpath
        # before the engine is constructed).  The per-receiver-domain
        # policy snapshots and per-country-pair network probabilities it
        # enables are pure lookups that never touch the random streams,
        # kept on the world so every engine of a process shares them.
        self._fast = fastpath.enabled()
        self._domain_snap: dict[str, list] = world._domain_snap
        self._net_probs: dict[tuple[str, str], tuple[float, float]] = world._net_probs
        # Telemetry: instruments resolve to shared no-ops when repro.obs is
        # disabled (the default); the cached flag keeps the disabled cost
        # of a delivery to one boolean check.  None of this touches the
        # random streams, so metered runs stay byte-identical.
        self._obs_on = obs_metrics.enabled()
        self._m_emails = obs_metrics.counter(
            "repro_delivery_emails_total",
            "Emails delivered, by final bounce degree",
            label="degree",
        )
        self._m_attempts = obs_metrics.counter(
            "repro_delivery_attempts_total",
            "Delivery attempts, by outcome (delivered or true bounce type)",
            label="outcome",
        )
        self._m_latency = obs_metrics.histogram(
            "repro_delivery_attempt_latency_ms",
            "Per-attempt SMTP latency in milliseconds (log-2 buckets)",
            min_bound=1.0,
        )
        self._m_retry_wait = obs_metrics.histogram(
            "repro_delivery_retry_wait_seconds",
            "Scheduled backoff before a retry attempt (log-2 buckets)",
            min_bound=1.0,
        )
        # Columnar batch execution (plan-backed first attempts).
        self._batch = None
        if fastpath.columnar_enabled():
            from repro.delivery.columnar import ColumnarExecutor

            self._batch = ColumnarExecutor(self)

    # -- checkpoint support -------------------------------------------------------

    def state_snapshot(self) -> dict:
        """JSON-encodable snapshot of every simulation-mutable engine field.

        Engine construction consumes zero random draws, so restoring this
        payload into a freshly constructed engine (same world, same named
        stream) resumes delivery exactly where the snapshotted engine
        stopped.  The fast-path tables the engine reads belong to the
        world, not the engine; they are deliberately excluded.
        """
        greylists: dict[str, dict | None] = {}
        for domain, store in self._greylists.items():
            greylists[domain] = None if store is None else store.getstate()
        return {
            "version": ENGINE_STATE_VERSION,
            "rng": self.rng.getstate(),
            "fleet_rng": self._fleet_rng.getstate(),
            "tls_learned": sorted(self._tls_learned),
            "greylists": greylists,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_snapshot` payload into this engine."""
        if state.get("version") != ENGINE_STATE_VERSION:
            raise ValueError(
                f"engine state version {state.get('version')!r} is not "
                f"{ENGINE_STATE_VERSION}"
            )
        self.rng.setstate(state["rng"])
        self._fleet_rng.setstate(state["fleet_rng"])
        self._tls_learned = set(state["tls_learned"])
        self._greylists = {
            domain: None if payload is None else Greylist.fromstate(payload)
            for domain, payload in state["greylists"].items()
        }

    # -- public API ---------------------------------------------------------------

    def deliver(self, spec: EmailSpec) -> DeliveryRecord:
        world = self.world
        config = world.config

        coremail_verdict = world.coremail_filter.classify(spec.spamminess, self.rng)
        email_flag = coremail_verdict.value
        if coremail_verdict is SpamVerdict.SPAM:
            budget = config.spam_attempts
        else:
            budget = config.max_attempts
        _require_budget(budget)

        attempts: list[AttemptRecord] = []
        succeeded = self._run_attempts(spec, budget, attempts, spec.t, None, 0)
        return self._finish_record(spec, email_flag, attempts, succeeded)

    def deliver_all(self, specs: Iterable[EmailSpec]):
        """Deliver a whole workload (any iterable, consumed lazily);
        yields records in input order.

        With the columnar switch on, specs are consumed in day-bounded
        chunks: a vectorized prepass plans each chunk, then the
        sequential executor replays the per-email draw sequence — the
        record stream and every RNG cursor are byte-identical to the
        per-email path (asserted in ``tests/test_columnar.py``)."""
        batch = self._batch
        if batch is not None:
            yield from batch.deliver_stream(specs)
            return
        if not self._obs_on:
            for spec in specs:
                yield self.deliver(spec)
            return
        for spec in specs:
            t0 = perf_counter()
            record = self.deliver(spec)
            obs_profile.add("delivery", perf_counter() - t0)
            yield record

    # -- internals ---------------------------------------------------------------------

    def _run_attempts(
        self,
        spec: EmailSpec,
        budget: int,
        attempts: list[AttemptRecord],
        t: float,
        proxy: ProxyMTA | None,
        nonretryable_seen: int,
    ) -> bool:
        """The retry loop, runnable from a partial state.

        ``deliver`` enters with an empty attempt list; the columnar
        executor hands off here after its plan-backed first attempt
        (``attempts`` holds the failed attempt, ``t`` the already-drawn
        retry time).  Returns whether the final attempt succeeded."""
        config = self.world.config
        rng = self.rng
        succeeded = False
        while len(attempts) < budget:
            last_type = attempts[-1].truth_type if attempts else None
            proxy = self._pick_proxy(proxy, last_type)
            attempt = self._attempt(spec, proxy, t)
            attempts.append(attempt)
            succeeded = attempt.succeeded
            if self._obs_on:
                self._m_attempts.labels(attempt.truth_type or "delivered").inc()
                self._m_latency.observe(attempt.latency_ms)
            if succeeded:
                break
            if attempt.truth_type == BounceType.T4.value:
                # Learned (fleet-wide): this domain requires STARTTLS.
                self._tls_learned.add(spec.receiver_domain)
            if not self._retryable(attempt):
                nonretryable_seen += 1
                if nonretryable_seen >= config.nonretryable_attempts:
                    break
            gap_mean = config.retry_gap_mean_s * (
                config.retry_backoff_multiplier ** (len(attempts) - 1)
            )
            t = attempt.t + rng.expovariate(1.0 / gap_mean)
            if self._obs_on:
                self._m_retry_wait.observe(t - attempt.t)
        return succeeded

    def _finish_record(
        self,
        spec: EmailSpec,
        email_flag: str,
        attempts: list[AttemptRecord],
        succeeded: bool,
    ) -> DeliveryRecord:
        record = DeliveryRecord(
            sender=spec.sender,
            receiver=spec.receiver,
            start_time=spec.t,
            end_time=attempts[-1].t + attempts[-1].latency_ms / 1000.0,
            email_flag=email_flag,
            attempts=attempts,
            truth_tags=spec.tags,
            truth_spamminess=spec.spamminess,
        )
        if self._obs_on:
            # The loop breaks the moment an attempt succeeds, so the final
            # `succeeded` IS record.delivered; recomputing the degree from
            # it avoids re-parsing every attempt's reply code (the
            # bounce_degree property costs ~3us per record, which would
            # dominate the telemetry overhead).
            if not succeeded:
                degree = BounceDegree.HARD_BOUNCED.value
            elif len(attempts) == 1:
                degree = BounceDegree.NON_BOUNCED.value
            else:
                degree = BounceDegree.SOFT_BOUNCED.value
            self._m_emails.labels(degree).inc()
        return record

    def _pick_proxy(
        self, previous: ProxyMTA | None, last_type: str | None = None
    ) -> ProxyMTA:
        fleet = self._fleet
        if previous is None:
            return fleet.pick_random()
        if self.world.config.proxy_policy == "sticky":
            return previous
        if last_type == BounceType.T6.value:
            # Greylist deferral: the message sits in `previous`'s queue and
            # that host retries, so the retry matches the deferred tuple.
            return previous
        return fleet.pick_different(previous)

    def _greylist_for(self, domain: str, mta) -> object:
        store = self._greylists.get(domain, _GREYLIST_UNSET)
        if store is _GREYLIST_UNSET:
            store = mta.new_greylist()
            self._greylists[domain] = store
        return store

    def _attempt(self, spec: EmailSpec, proxy: ProxyMTA, t: float) -> AttemptRecord:
        """One delivery attempt."""
        world = self.world
        rng = self.rng
        receiver_domain = spec.receiver_domain

        # 1. route: resolve the receiver's MX.
        mx_host, mx_all_down = world.resolver.mx_route(receiver_domain, t, rng)
        if mx_host is None:
            if mx_all_down:
                # DNS answered, but every advertised MX host is inside an
                # SMTP outage window (correlated backup-MX failure): the
                # connection attempts time out, a retryable T14.
                ndr = world.bank.render(
                    BounceType.T14,
                    _SENDER_DIALECT,
                    rng,
                    context=self._context(spec, proxy, f"mx1.{receiver_domain}"),
                )
                return AttemptRecord(
                    t=t,
                    from_ip=proxy.ip,
                    to_ip="",
                    result=ndr.text,
                    latency_ms=world.network.timeout_latency_ms(rng),
                    truth_type=ndr.truth_type,
                    ambiguous=ndr.ambiguous,
                )
            ndr = world.bank.render(
                BounceType.T2,
                _SENDER_DIALECT,
                rng,
                context=self._context(spec, proxy, f"mx1.{receiver_domain}"),
            )
            return AttemptRecord(
                t=t,
                from_ip=proxy.ip,
                to_ip="",
                result=ndr.text,
                latency_ms=int(rng.uniform(400, 4_000)),
                truth_type=ndr.truth_type,
                ambiguous=ndr.ambiguous,
            )

        snap = None
        if self._fast:
            snap = self._domain_snap.get(receiver_domain)
            if snap is None:
                snap = [world.receiver_domains.get(receiver_domain), None]
                self._domain_snap[receiver_domain] = snap
            rdomain = snap[0]
        else:
            rdomain = world.receiver_domains.get(receiver_domain)
        if rdomain is None:
            # Registered domain without a mail service we model (e.g. a
            # re-registered squat without mailboxes): treat as unknown user.
            return self._reject_unknown_service(spec, proxy, t, mx_host)

        to_ip = rng.choice(rdomain.ips)

        # 2. network leg.
        interrupt_p = None
        if self._fast:
            pair = (proxy.country, rdomain.mta_country)
            probs = self._net_probs.get(pair)
            if probs is None:
                probs = (
                    world.network.timeout_probability(*pair),
                    world.network.interrupt_probability(*pair),
                )
                self._net_probs[pair] = probs
            timeout_p, interrupt_p = probs
        else:
            timeout_p = world.network.timeout_probability(proxy.country, rdomain.mta_country)
        if rdomain.dead_server or rng.chance(timeout_p):
            ndr = world.bank.render(
                BounceType.T14,
                _SENDER_DIALECT,
                rng,
                context=self._context(spec, proxy, mx_host),
            )
            return AttemptRecord(
                t=t,
                from_ip=proxy.ip,
                to_ip=to_ip,
                result=ndr.text,
                latency_ms=world.network.timeout_latency_ms(rng),
                truth_type=ndr.truth_type,
                ambiguous=ndr.ambiguous,
            )
        if interrupt_p is None:
            interrupt_p = world.network.interrupt_probability(
                proxy.country, rdomain.mta_country
            )
        if rng.chance(interrupt_p):
            ndr = world.bank.render(
                BounceType.T15,
                _SENDER_DIALECT,
                rng,
                context=self._context(spec, proxy, mx_host),
            )
            return AttemptRecord(
                t=t,
                from_ip=proxy.ip,
                to_ip=to_ip,
                result=ndr.text,
                latency_ms=world.network.interrupt_latency_ms(rng),
                truth_type=ndr.truth_type,
                ambiguous=ndr.ambiguous,
            )

        # 3. the receiver's policy gauntlet.
        sender_domain = spec.sender_domain
        if snap is not None:
            mta = snap[1]
            if mta is None:
                mta = world.receiver_mtas[receiver_domain]
                snap[1] = mta
        else:
            mta = world.receiver_mtas[receiver_domain]
        auth_result = None
        if mta.policy.enforces_auth:
            auth_result = world.auth_evaluator().evaluate(sender_domain, proxy.ip, t)
        ctx = AttemptContext(
            t=t,
            proxy_ip=proxy.ip,
            sender_address=spec.sender,
            receiver_address=spec.receiver,
            uses_tls=receiver_domain in self._tls_learned,
            spamminess=spec.spamminess,
            size_bytes=spec.size_bytes,
            recipient_count=spec.recipient_count,
            sender_domain_unresolvable=world.sender_dns_broken(sender_domain, t),
            auth_result=auth_result,
            recipient_status=world.recipient_status(spec.receiver, t),
            mx_host=mx_host,
        )
        decision = mta.evaluate(
            ctx, rng, greylist=self._greylist_for(receiver_domain, mta)
        )

        if decision.accepted:
            latency = world.network.latency_ms(proxy.country, rdomain.mta_country, rng)
            return AttemptRecord(
                t=t,
                from_ip=proxy.ip,
                to_ip=to_ip,
                result=render_success(),
                latency_ms=latency,
                truth_type=None,
            )

        assert decision.ndr is not None
        return AttemptRecord(
            t=t,
            from_ip=proxy.ip,
            to_ip=to_ip,
            result=decision.ndr.text,
            latency_ms=int(rng.uniform(800, 12_000)),
            truth_type=decision.ndr.truth_type,
            ambiguous=decision.ndr.ambiguous,
        )

    def _reject_unknown_service(
        self, spec: EmailSpec, proxy: ProxyMTA, t: float, mx_host: str
    ) -> AttemptRecord:
        ndr = self.world.bank.render(
            BounceType.T8,
            TemplateDialect.GENERIC,
            self.rng,
            context=self._context(spec, proxy, mx_host),
        )
        return AttemptRecord(
            t=t,
            from_ip=proxy.ip,
            to_ip="",
            result=ndr.text,
            latency_ms=int(self.rng.uniform(900, 9_000)),
            truth_type=ndr.truth_type,
            ambiguous=ndr.ambiguous,
        )

    def _context(self, spec: EmailSpec, proxy: ProxyMTA, mx_host: str) -> dict[str, str]:
        user, domain = split_address(spec.receiver)
        return {
            "address": spec.receiver,
            "user": user,
            "domain": domain,
            "sender_domain": spec.sender_domain,
            "ip": proxy.ip,
            "mx": mx_host,
        }

    @staticmethod
    def _retryable(attempt: AttemptRecord) -> bool:
        """Source-level and transport failures justify a full retry budget;
        recipient-level rejections only get a confirmation retry."""
        return attempt.truth_type in _RETRYABLE_TYPES
