"""World construction.

``build_world(config)`` assembles every substrate into a single
:class:`WorldModel`:

* the proxy fleet and its DNSBL listing history,
* the receiver-domain population (named majors + long tail) with zones,
  mailboxes, policies, and per-domain :class:`ReceiverMTA` engines,
* the sender population (benign orgs with contact lists, username-guessing
  campaigns, bulk spammers) with their zones and misconfiguration windows,
* the breach corpus and the registrar/WHOIS substrate.

The builder is deliberately verbose: every prevalence knob comes from
:class:`~repro.world.config.SimulationConfig`, and DESIGN.md documents why
each default is set where it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.core import fastpath
from repro.delivery.proxies import ProxyFleet
from repro.dnsbl.service import DNSBLService, build_spamhaus_listings
from repro.dnssim.misconfig import AUTH_PROFILE, MX_HEAD_PROFILE, MX_PROFILE, QUOTA_PROFILE, MisconfigModel
from repro.dnssim.records import RecordType
from repro.dnssim.resolver import Resolver
from repro.dnssim.zone import Zone
from repro.geo.asn import AS_REGISTRY, AutonomousSystem, as_by_number, make_generic_as
from repro.geo.countries import COUNTRIES, Country
from repro.geo.ipaddr import GeoLookup, IPAllocator
from repro.mta.filters import COREMAIL_FILTER, SpamFilter
from repro.mta.policies import ReceiverPolicy, TLSRequirement
from repro.mta.receiver import ReceiverMTA, RecipientStatus
from repro.netsim.quality import NetworkModel
from repro.smtp.templates import NDRTemplateBank, TemplateDialect
from repro.typosquat.generate import sample_domain_typo, sample_username_typo
from repro.util.clock import DAY_SECONDS, SimClock, Window
from repro.util.rng import RandomSource, WeightedSampler
from repro.util.text import split_address
from repro.world.breach import BreachCorpus
from repro.world.config import SimulationConfig
from repro.world.domains import NAMED_MAJORS, TAIL_DIALECTS, ReceiverDomain
from repro.world.mailboxes import POPULAR_WEBSITES, Mailbox
from repro.world.names import make_domain_name, make_org_name, make_username
from repro.world.registrar import Registrar
from repro.world.senders import Contact, SenderDomain, SenderKind, SenderUser

#: DNSBL late adopters switch on in February 2023 (Fig 6's step change).
DNSBL_LATE_ADOPTION = datetime(2023, 2, 1, tzinfo=timezone.utc)

#: Countries whose forced domains exist to populate Table 5 / Fig 8.
_FORCED_COUNTRY_MIN_DOMAINS = 2

#: Attacker-targeted countries (Table 5's "Malicious Email Delivery" rows).
GUESS_TARGET_COUNTRIES = ("TJ", "KG", "NZ", "RO")
#: Stale-mailing-list countries (Table 5's "Improper User Operation" rows).
STALE_LIST_COUNTRIES = ("QA", "LV", "IR", "MM")


class _StatusEntry:
    """Cached recipient status for one address over ``[start, end)``.

    Mailbox predicates are piecewise-constant in time (full/inactive
    windows, a deletion point), so the status computed at ``t`` holds
    until the next window edge.  Guards capture the mailbox state the
    answer was derived from; any reassignment or growth of the window
    lists invalidates the entry.
    """

    __slots__ = (
        "status", "start", "end", "rdomain", "n_boxes", "box",
        "full_windows", "n_full", "inactive_windows", "n_inactive",
        "deleted_at", "high_volume",
    )

    def __init__(self, status, start, end, rdomain, n_boxes, box) -> None:
        self.status = status
        self.start = start
        self.end = end
        self.rdomain = rdomain
        self.n_boxes = n_boxes
        self.box = box
        if box is not None:
            self.full_windows = box.full_windows
            self.n_full = len(box.full_windows)
            self.inactive_windows = box.inactive_windows
            self.n_inactive = len(box.inactive_windows)
            self.deleted_at = box.deleted_at
            self.high_volume = box.high_volume

    def valid(self, world: "WorldModel", t: float) -> bool:
        if not self.start <= t < self.end:
            return False
        if self.rdomain is None:
            return len(world.receiver_domains) == self.n_boxes
        box = self.box
        if box is None:
            return len(self.rdomain.mailboxes) == self.n_boxes
        return (
            box.full_windows is self.full_windows
            and len(box.full_windows) == self.n_full
            and box.inactive_windows is self.inactive_windows
            and len(box.inactive_windows) == self.n_inactive
            and box.deleted_at == self.deleted_at
            and box.high_volume == self.high_volume
        )


@dataclass
class WorldModel:
    config: SimulationConfig
    clock: SimClock
    allocator: IPAllocator
    geo: GeoLookup
    resolver: Resolver
    bank: NDRTemplateBank
    fleet: ProxyFleet
    dnsbl: DNSBLService
    network: NetworkModel
    registrar: Registrar
    breach: BreachCorpus
    receiver_domains: dict[str, ReceiverDomain]
    receiver_mtas: dict[str, ReceiverMTA]
    sender_domains: list[SenderDomain]
    coremail_filter: SpamFilter = COREMAIL_FILTER
    #: Popularity sampler over receiver domains (built once).
    _domain_sampler: WeightedSampler[ReceiverDomain] | None = None
    #: Flat list of benign sender users with activity weights.
    _sender_sampler: WeightedSampler[SenderUser] | None = None
    #: Fast-path interval caches (address -> _StatusEntry, domain -> tuple).
    _status_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _sender_dns_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- checkpoint support ------------------------------------------------------

    def purge_caches(self) -> None:
        """Drop every fast-path cache reachable from the world.

        Called before pickling a checkpoint and after restoring one: the
        caches rebuild on demand (they are all identity/epoch/interval
        guarded pure lookups), so purging never changes behaviour — it
        keeps snapshots small and guarantees cached and ``--no-cache``
        restores resume from the same bytes.
        """
        self._status_cache.clear()
        self._sender_dns_cache.clear()
        self.resolver.purge_caches()
        self.dnsbl.purge_caches()

    def rebind_runtime(self) -> None:
        """Re-attach process-local runtime to a world restored from a
        checkpoint: purge caches and rebind telemetry instruments to this
        process's metrics registry."""
        self.purge_caches()
        self.resolver.rebind_telemetry()
        for mta in self.receiver_mtas.values():
            mta.rebind_telemetry()

    # -- samplers -------------------------------------------------------------

    def domain_sampler(self, rng: RandomSource) -> WeightedSampler[ReceiverDomain]:
        if self._domain_sampler is None:
            domains = list(self.receiver_domains.values())
            weights = [d.popularity for d in domains]
            self._domain_sampler = rng.sampler(domains, weights)
        return self._domain_sampler

    def sender_sampler(self, rng: RandomSource) -> WeightedSampler[SenderUser]:
        if self._sender_sampler is None:
            users: list[SenderUser] = []
            for sd in self.sender_domains:
                if sd.kind is SenderKind.BENIGN:
                    users.extend(sd.users)
            n_automation = sum(1 for u in users if u.is_automation)
            n_human = len(users) - n_automation
            # Automation accounts jointly produce a fixed ~0.6% slice of
            # traffic regardless of population size.
            auto_weight = 0.0
            if n_automation:
                auto_weight = 0.006 * max(n_human, 1) / n_automation
            weights = [auto_weight if u.is_automation else 1.0 for u in users]
            self._sender_sampler = rng.sampler(users, weights)
        return self._sender_sampler

    # -- lookups ----------------------------------------------------------------

    def recipient_status(self, address: str, t: float) -> RecipientStatus:
        """Receiver-side recipient validation (the engine feeds this into
        the MTA's AttemptContext).  Answers are cached per address with
        an exact validity interval when the fast path is on."""
        if not fastpath.enabled():
            return self._recipient_status_impl(address, t)
        entry = self._status_cache.get(address)
        if entry is not None and entry.valid(self, t):
            return entry.status
        entry = self._build_status_entry(address, t)
        self._status_cache[address] = entry
        return entry.status

    def _recipient_status_impl(self, address: str, t: float) -> RecipientStatus:
        user, domain = split_address(address)
        rdomain = self.receiver_domains.get(domain)
        if rdomain is None:
            return RecipientStatus.NO_SUCH_USER
        box = rdomain.mailbox(user)
        if box is None or not box.exists_at(t):
            return RecipientStatus.NO_SUCH_USER
        if box.inactive_at(t):
            return RecipientStatus.INACTIVE
        if box.full_at(t):
            return RecipientStatus.FULL
        if box.high_volume:
            return RecipientStatus.OVER_RATE
        return RecipientStatus.OK

    def _build_status_entry(self, address: str, t: float) -> _StatusEntry:
        neg_inf, pos_inf = float("-inf"), float("inf")
        user, domain = split_address(address)
        rdomain = self.receiver_domains.get(domain)
        if rdomain is None:
            return _StatusEntry(
                RecipientStatus.NO_SUCH_USER, neg_inf, pos_inf,
                None, len(self.receiver_domains), None,
            )
        box = rdomain.mailbox(user)
        if box is None:
            return _StatusEntry(
                RecipientStatus.NO_SUCH_USER, neg_inf, pos_inf,
                rdomain, len(rdomain.mailboxes), None,
            )
        status = self._recipient_status_impl(address, t)
        start, end = fastpath.stable_interval(
            t,
            (box.full_windows, box.inactive_windows),
            (box.deleted_at,),
        )
        return _StatusEntry(status, start, end, rdomain, len(rdomain.mailboxes), box)

    # -- bulk lookup (columnar prepass) --------------------------------------

    def recipient_status_span(
        self, address: str, t: float
    ) -> tuple[RecipientStatus, float, float]:
        """Recipient status plus its exact validity interval.

        The columnar delivery planner snapshots one entry per unique
        address per chunk and validates emails against the interval with
        a vectorized comparison; the entry itself comes from (and feeds)
        the same guarded cache :meth:`recipient_status` uses, so both
        paths always agree.
        """
        entry = self._status_cache.get(address)
        if entry is None or not entry.valid(self, t):
            entry = self._build_status_entry(address, t)
            self._status_cache[address] = entry
        return entry.status, entry.start, entry.end

    def sender_dns_broken_span(
        self, domain: str, t: float
    ) -> tuple[bool, float, float]:
        """:meth:`sender_dns_broken` plus its validity interval (shares
        the same token-guarded cache)."""
        entry = self._sender_dns_cache.get(domain)
        if entry is not None:
            zone, token, start, end, value = entry
            if start <= t < end and self.resolver.state_token(zone) == token:
                return value, start, end
        zone = self.resolver.zone(domain)
        token = self.resolver.state_token(zone)
        if zone is None:
            value, start, end = False, float("-inf"), float("inf")
        else:
            value = zone.dns_broken_at(t)
            start, end = fastpath.stable_interval(t, (zone.dns_error_windows,))
        self._sender_dns_cache[domain] = (zone, token, start, end, value)
        return value, start, end

    def sender_zone(self, domain: str) -> Zone | None:
        return self.resolver.zone(domain)

    def sender_auth_broken(self, domain: str, t: float) -> bool:
        zone = self.resolver.zone(domain)
        return zone is not None and zone.auth_broken_at(t)

    def sender_dns_broken(self, domain: str, t: float) -> bool:
        if not fastpath.enabled():
            zone = self.resolver.zone(domain)
            return zone is not None and zone.dns_broken_at(t)
        return self.sender_dns_broken_span(domain, t)[0]

    def benign_sender_domains(self) -> list[SenderDomain]:
        return [d for d in self.sender_domains if d.kind is SenderKind.BENIGN]

    def attacker_domains(self) -> list[SenderDomain]:
        return [d for d in self.sender_domains if d.is_attacker]

    def top_domains(self, n: int) -> list[ReceiverDomain]:
        ordered = sorted(
            self.receiver_domains.values(), key=lambda d: d.popularity, reverse=True
        )
        return ordered[:n]

    def all_mailboxes(self):
        for domain in self.receiver_domains.values():
            yield from domain.mailboxes.values()


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def build_world(config: SimulationConfig) -> WorldModel:
    rng = RandomSource(config.seed, name="world")
    clock = SimClock(config.start, config.end)
    allocator = IPAllocator()
    resolver = Resolver()
    bank = NDRTemplateBank(standardized=config.standardized_ndr)

    fleet = ProxyFleet.build(allocator, rng.child("proxies"), config.n_proxies)
    _register_outgoing_spf_zone(resolver, fleet, clock)
    dnsbl = build_spamhaus_listings(rng.child("dnsbl"), clock, fleet.ips)
    network = NetworkModel()
    breach = BreachCorpus()

    receiver_domains: dict[str, ReceiverDomain] = {}
    receiver_mtas: dict[str, ReceiverMTA] = {}

    builder = _ReceiverBuilder(config, clock, rng, allocator, resolver, bank, dnsbl)
    for domain in builder.build_majors():
        receiver_domains[domain.name] = domain
    for domain in builder.build_tail():
        receiver_domains[domain.name] = domain
    receiver_mtas.update(builder.mtas)
    _register_squatted_typo_domains(config, rng.child("squats"), resolver, clock)

    sender_builder = _SenderBuilder(config, clock, rng, resolver, receiver_domains, breach)
    sender_domains = sender_builder.build()

    # Spamhaus also flags most bulk-spam sender domains on its domain
    # blocklist (the paper: 23 of 31 malicious sender domains flagged).
    dbl_rng = rng.child("dbl")
    for sender_domain in sender_domains:
        if sender_domain.kind is SenderKind.BULK_SPAMMER and dbl_rng.chance(0.74):
            start = clock.start_ts + dbl_rng.uniform(0.1, 0.5) * (
                clock.end_ts - clock.start_ts
            )
            dnsbl.flag_domain(
                sender_domain.name, Window(start, clock.end_ts + 365 * DAY_SECONDS)
            )

    world = WorldModel(
        config=config,
        clock=clock,
        allocator=allocator,
        geo=GeoLookup(allocator),
        resolver=resolver,
        bank=bank,
        fleet=fleet,
        dnsbl=dnsbl,
        network=network,
        registrar=Registrar(resolver),
        breach=breach,
        receiver_domains=receiver_domains,
        receiver_mtas=receiver_mtas,
        sender_domains=sender_domains,
    )
    sender_builder.attach_contacts(world)
    # Seeded after contacts so deleted-account addresses are included.
    _seed_breach_corpus(config, rng.child("breach"), receiver_domains, breach)
    if config.scenario:
        from repro.world.overlay import apply_scenario

        apply_scenario(world, config.scenario, rng.child("scenario"))
    return world


def _register_squatted_typo_domains(
    config: SimulationConfig,
    rng: RandomSource,
    resolver: Resolver,
    clock: SimClock,
) -> None:
    """A few typo domains of the majors are *already registered* by third
    parties (the paper's cases 2/3 of domain typos: the typo domain
    provides service).  They resolve and accept SMTP, so mistyped mail
    there bounces T8 (no such user) rather than T2 — and, correctly, the
    domain-typo squatting pipeline must NOT flag them as available."""
    n = max(2, config.scaled(3))
    made = 0
    for major in ("gmail.com", "hotmail.com", "yahoo.com", "outlook.com"):
        if made >= n:
            break
        typo = sample_domain_typo(major, rng.child(major))
        if typo is None or typo.text in resolver:
            continue
        zone = Zone(domain=typo.text)
        zone.add_record(RecordType.MX, f"mx1.{typo.text}", priority=10)
        zone.registrations = [
            Window(clock.start_ts - 365 * DAY_SECONDS, clock.end_ts + 365 * DAY_SECONDS)
        ]
        zone.registrants = [f"squatter-{typo.text}"]
        resolver.register_zone(zone)
        made += 1


def _register_outgoing_spf_zone(resolver: Resolver, fleet: ProxyFleet, clock: SimClock) -> None:
    """The shared outgoing infrastructure's SPF target: customer zones say
    ``include:coremail-out.net``, whose record whitelists every proxy."""
    zone = Zone(domain="coremail-out.net")
    mechanisms = " ".join(f"ip4:{ip}" for ip in fleet.ips)
    zone.add_record(RecordType.TXT_SPF, f"v=spf1 {mechanisms} -all")
    zone.registrations = [
        Window(clock.start_ts - 365 * DAY_SECONDS, clock.end_ts + 365 * DAY_SECONDS)
    ]
    zone.registrants = ["coremail"]
    resolver.register_zone(zone)


# ---------------------------------------------------------------------------
# receiver side
# ---------------------------------------------------------------------------


class _ReceiverBuilder:
    def __init__(
        self,
        config: SimulationConfig,
        clock: SimClock,
        rng: RandomSource,
        allocator: IPAllocator,
        resolver: Resolver,
        bank: NDRTemplateBank,
        dnsbl: DNSBLService,
    ) -> None:
        self.config = config
        self.clock = clock
        self.rng = rng.child("receivers")
        self.allocator = allocator
        self.resolver = resolver
        self.bank = bank
        self.dnsbl = dnsbl
        self.mtas: dict[str, ReceiverMTA] = {}
        self._mx_model = MisconfigModel(MX_PROFILE)
        self._quota_model = MisconfigModel(QUOTA_PROFILE)
        self._tail_dialect_sampler = self.rng.sampler(
            [d for d, _ in TAIL_DIALECTS], [w for _, w in TAIL_DIALECTS]
        )
        self._country_sampler = self.rng.sampler(
            COUNTRIES, [c.receiver_weight for c in COUNTRIES]
        )
        self._greylist_covered: set[str] = set()

    # -- majors ---------------------------------------------------------------

    def build_majors(self) -> list[ReceiverDomain]:
        domains = []
        for major in NAMED_MAJORS:
            stream = self.rng.child(f"major/{major.name}")
            try:
                asn = as_by_number(major.as_number)
            except KeyError:
                asn = make_generic_as(major.as_number - 60000, major.country)
            ips = [self.allocator.allocate(major.country, asn) for _ in range(4)]
            domain = ReceiverDomain(
                name=major.name,
                mta_country=major.country,
                home_country=major.country,
                asn=asn,
                dialect=major.dialect,
                mx_host=f"mx1.{major.name}",
                ips=ips,
                popularity=major.volume_weight,
                is_named_major=True,
            )
            self._populate_mailboxes(
                domain,
                stream,
                count=self.config.scaled(major.mailbox_count_hint * 0.25),
                quota_fraction=(0.012 if major.name == "gmail.com" else self.config.quota_issue_fraction),
                deletion_rate=(0.010 if major.name == "yahoo.com" else 0.0012),
            )
            policy = self._major_policy(major, stream)
            self._register_receiver_zone(domain, stream)
            self._make_mta(domain, policy, stream)
            domains.append(domain)
        return domains

    def _major_policy(self, major, stream: RandomSource) -> ReceiverPolicy:
        policy = ReceiverPolicy()
        policy.uses_dnsbl = major.uses_dnsbl and not self.config.disable_dnsbl
        # Webmail giants score listed sources rather than hard-failing
        # every connection (their Table 3 soft ratios are ~10-13%, not
        # the ~45% a hard-fail would produce).
        policy.dnsbl_reject_probability = 0.30
        policy.spam_threshold = {
            "gmail.com": 0.68,
            "hotmail.com": 0.66,
            "yahoo.com": 0.64,
            "outlook.com": 0.66,
            "apple.com": 0.72,
        }.get(major.name, 0.88)
        policy.enforces_auth = major.name in ("gmail.com", "yahoo.com")
        if major.dialect is TemplateDialect.EXCHANGE:
            policy.ambiguity = self.config.ambiguity_exchange
        # Webmail giants rate-limit hot recipients and bursty sources.
        if major.name in ("gmail.com", "yahoo.com", "hotmail.com", "outlook.com"):
            policy.rate_limit_probability = 0.038
            policy.recipient_rate_probability = 0.012
        return policy

    # -- tail --------------------------------------------------------------------

    def build_tail(self) -> list[ReceiverDomain]:
        config = self.config
        domains: list[ReceiverDomain] = []
        n_tail = max(0, config.scaled(config.n_receiver_domains) - len(NAMED_MAJORS))

        forced: list[Country] = []
        for country in COUNTRIES:
            copies = max(1, config.scaled(_FORCED_COUNTRY_MIN_DOMAINS))
            forced.extend([country] * copies)
        # Guarantee coverage of the named countries, but never let forced
        # placement crowd out weight-based sampling (at small scales the
        # long-tail filler countries simply go uncovered).
        forced = forced[: max(0, n_tail // 2)]

        used_names: set[str] = {m.name for m in NAMED_MAJORS}
        # Forced-coverage countries take the *bottom* popularity ranks:
        # the high-traffic tail head stays in weight-sampled (mostly
        # well-connected) countries, as in the real receiver distribution.
        forced_start = n_tail - len(forced)
        for i in range(n_tail):
            stream = self.rng.child(f"tail/{i}")
            if i >= forced_start:
                home = forced[i - forced_start]
            else:
                home = self._country_sampler.draw()
            name = self._unique_domain_name(stream, used_names)
            domain = self._build_tail_domain(
                name, home, i, n_tail, stream, forced_rank=(i >= forced_start)
            )
            domains.append(domain)

        self._mark_dead_servers(domains)
        self._normalize_popularity(domains)
        self._apply_receiver_misconfigs(domains)
        self._apply_dnsbl_adoption(domains)
        return domains

    def _apply_dnsbl_adoption(self, domains: list[ReceiverDomain]) -> None:
        """Quota-based DNSBL adoption over the tail, weighted by
        popularity so the adopting *volume share* is stable across seeds
        (the majors' adoption is fixed in _major_policy)."""
        config = self.config
        if config.disable_dnsbl:
            return
        eligible = [d for d in domains if not d.is_named_major]
        if not eligible:
            return
        rng = self.rng.child("dnsbl-adoption")
        n_adopt = max(1, round(config.dnsbl_adoption_tail * len(eligible)))
        # sqrt weighting: adoption leans popular but stays dispersed, so
        # no single small country's traffic is dominated by one adopter.
        sampler = rng.sampler(eligible, [d.popularity ** 0.5 for d in eligible])
        chosen: set[str] = set()
        guard = 0
        while len(chosen) < min(n_adopt, len(eligible)) and guard < 60 * n_adopt:
            guard += 1
            chosen.add(sampler.draw().name)
        for name in sorted(chosen):
            policy = self.mtas[name].policy
            policy.uses_dnsbl = True
            if rng.child(f"late/{name}").chance(config.dnsbl_late_adopter_fraction):
                policy.dnsbl_adoption_ts = DNSBL_LATE_ADOPTION.timestamp()

    def _normalize_popularity(self, domains: list[ReceiverDomain]) -> None:
        """Rescale tail popularity so the named majors keep the paper's
        ~15% share of incoming volume (Table 3: top-10 = 45.4M of 298M),
        and clamp individual tail domains below the smallest major so the
        InEmailRank top-10 is the majors, as in Table 3."""
        majors_weight = sum(m.volume_weight for m in NAMED_MAJORS)
        tail_weight = sum(d.popularity for d in domains)
        if tail_weight <= 0:
            return
        target_tail = majors_weight * (1.0 - 0.1523) / 0.1523
        factor = target_tail / tail_weight
        cap = 0.72 * min(m.volume_weight for m in NAMED_MAJORS)
        for domain in domains:
            domain.popularity = min(domain.popularity * factor, cap)

    def _apply_receiver_misconfigs(self, domains: list[ReceiverDomain]) -> None:
        """Quota-based post-pass: exactly ``round(fraction * n)`` tail
        domains get broken-MX episodes, and another slice gets an expiring
        registration (the squatting raw material)."""
        config = self.config
        rng = self.rng.child("receiver-misconfig")
        clock = self.clock
        eligible = [d for d in domains if not d.is_named_major and not d.dead_server]
        if not eligible:
            return

        # MX breakage skews to higher-traffic domains (the paper's 684
        # affected domains account for 11.37% of all bounces — they are not
        # tiny); sample the quota proportionally to popularity.
        n_mx = max(1, round(config.mx_misconfig_fraction * len(eligible)))
        by_pop = sorted(eligible, key=lambda d: d.popularity, reverse=True)
        head = by_pop[: max(4, len(by_pop) // 8)]
        mx_chosen: set[str] = set()
        # Guarantee that a slice of the broken domains is high-traffic
        # (the paper's 684 MX-broken domains account for 11.37% of all
        # bounces — they are not tiny).
        for domain in rng.pick_k(head, max(1, n_mx // 4)):
            mx_chosen.add(domain.name)
        mx_sampler = rng.sampler(eligible, [d.popularity for d in eligible])
        guard = 0
        while len(mx_chosen) < min(n_mx, len(eligible)) and guard < 50 * n_mx:
            guard += 1
            mx_chosen.add(mx_sampler.draw().name)
        # Any broken domain outside the bottom popularity quartile is a
        # staffed operation: frequent-but-short outages, never persistent.
        # Only abandoned micro-domains stay MX-broken indefinitely.
        staffed_names = {d.name for d in by_pop[: max(8, (3 * len(by_pop)) // 4)]}
        head_model = MisconfigModel(MX_HEAD_PROFILE)
        for name in sorted(mx_chosen):
            zone = self.resolver.zone(name)
            if zone is not None:
                model = head_model if name in staffed_names else self._mx_model
                zone.mx_error_windows = model.sample_windows(
                    rng.child(f"mx/{name}"), clock
                )

        # Expiring domains are dying businesses: draw from the bottom
        # quartile of popularity (the paper's 592 expired domains received
        # ~157 emails each over 15 months — small operations).
        by_popularity = sorted(eligible, key=lambda d: d.popularity)
        lower_quartile = by_popularity[: max(2, len(by_popularity) // 4)]
        n_expire = max(1, round(config.expiring_domain_fraction * len(eligible)))
        for domain in rng.pick_k(lower_quartile, min(n_expire, len(lower_quartile))):
            zone = self.resolver.zone(domain.name)
            if zone is None or zone.mx_error_windows:
                continue
            stream = rng.child(f"expire/{domain.name}")
            expiry = clock.start_ts + stream.uniform(0.55, 0.90) * (clock.end_ts - clock.start_ts)
            zone.registrations = [Window(clock.start_ts - 365 * DAY_SECONDS, expiry)]
            zone.registrants = [f"orig-{domain.name}"]
            if stream.chance(config.reregistration_fraction):
                # Re-registrations land between the paper's two probes
                # (availability check ~1 month after the window; WHOIS
                # re-check ~4 months later).
                restart = clock.end_ts + stream.uniform(35, 140) * DAY_SECONDS
                changed = stream.chance(config.registrant_change_fraction)
                registrant = f"new-{domain.name}" if changed else f"orig-{domain.name}"
                zone.registrations.append(
                    Window(restart, clock.end_ts + 365 * DAY_SECONDS)
                )
                zone.registrants.append(registrant)
                if not stream.chance(0.6):
                    # Most re-registrations are parked without mail.
                    zone.records = [
                        r for r in zone.records if r.rtype is not RecordType.MX
                    ]

    def _unique_domain_name(self, stream: RandomSource, used: set[str]) -> str:
        for _ in range(50):
            name = make_domain_name(stream)
            if name not in used:
                used.add(name)
                return name
        raise RuntimeError("domain-name space exhausted")

    def _build_tail_domain(
        self,
        name: str,
        home: Country,
        rank: int,
        n_tail: int,
        stream: RandomSource,
        forced_rank: bool = False,
    ) -> ReceiverDomain:
        config = self.config
        cloud_prob = 0.50 if home.fast_internet else 0.08
        cloud_as: AutonomousSystem | None = None
        if stream.chance(cloud_prob):
            cloud_as = stream.weighted_choice(AS_REGISTRY, [a.weight for a in AS_REGISTRY])
        if cloud_as is not None:
            mta_country = cloud_as.country
            asn = cloud_as
            if cloud_as.number == 15169:
                dialect = TemplateDialect.GMAIL
            elif cloud_as.number == 8075:
                dialect = TemplateDialect.EXCHANGE
            elif cloud_as.org.startswith("Proofpoint"):
                dialect = TemplateDialect.PROOFPOINT
            elif "Ironport" in cloud_as.org:
                dialect = TemplateDialect.IRONPORT
            else:
                dialect = TemplateDialect.GENERIC
        else:
            mta_country = home.code
            asn = make_generic_as(rank, home.code)
            dialect = self._tail_dialect_sampler.draw()

        ips = [self.allocator.allocate(mta_country, asn) for _ in range(stream.randint(1, 2))]
        # Zipf-flavoured popularity over tail ranks; a mild head so tail
        # domain #1 is much smaller than the named majors.  Forced-coverage
        # domains (the bottom ranks) get a fixed modest popularity so every
        # covered country clears the analysis volume thresholds.
        if forced_rank:
            popularity = 220.0 / (n_tail // 3 + 14) ** 1.03
        else:
            popularity = 220.0 / (rank + 14) ** 1.03
        domain = ReceiverDomain(
            name=name,
            mta_country=mta_country,
            home_country=home.code,
            asn=asn,
            dialect=dialect,
            mx_host=f"mx1.{name}",
            ips=ips,
            popularity=popularity,
        )

        large = stream.chance(0.03)
        lo, hi = config.n_mailboxes_large if large else config.n_mailboxes_small
        self._populate_mailboxes(
            domain,
            stream,
            count=max(2, config.scaled(stream.randint(lo, hi) * 0.5)),
            quota_fraction=config.quota_issue_fraction,
            deletion_rate=0.0012,
        )

        policy = self._tail_policy(domain, home, rank, stream)
        domain.greylisting = policy.greylisting
        self._register_receiver_zone(domain, stream)
        self._make_mta(domain, policy, stream)
        return domain

    def _tail_policy(
        self, domain: ReceiverDomain, home: Country, rank: int, stream: RandomSource
    ) -> ReceiverPolicy:
        config = self.config
        policy = ReceiverPolicy()
        # DNSBL adoption is assigned as a quota in a post-pass (see
        # _apply_dnsbl_adoption) so the adopting volume share is stable.
        greylisting = stream.chance(home.greylist_prevalence)
        if (
            home.greylist_prevalence >= 0.4
            and home.code not in self._greylist_covered
        ):
            # Guarantee at least one greylister in greylist-heavy
            # countries (the Table 5 soft rows).
            greylisting = True
        if greylisting:
            self._greylist_covered.add(home.code)
        policy.greylisting = greylisting and not config.disable_greylisting
        policy.greylist_network_prefix = config.greylist_network_prefix
        policy.enforces_auth = stream.chance(config.auth_enforcement_tail)
        top_cut = max(5, config.scaled(90))
        tls_prob = config.tls_mandatory_top100 if rank < top_cut else config.tls_mandatory_tail
        if stream.chance(tls_prob):
            policy.tls = TLSRequirement.MANDATORY
        policy.spam_threshold = min(max(stream.gauss(0.82, 0.07), 0.62), 0.96)
        if domain.dialect is TemplateDialect.EXCHANGE:
            policy.ambiguity = config.ambiguity_exchange
        elif domain.dialect is TemplateDialect.CORPORATE:
            policy.ambiguity = config.ambiguity_tail
        else:
            policy.ambiguity = 0.04
        return policy

    def _mark_dead_servers(self, domains: list[ReceiverDomain]) -> None:
        """A few self-hosted domains in Venezuela/Belize run dead MTAs —
        every session times out (Table 5's hard-T14 rows)."""
        quota = {"VE": 2, "BZ": 1}
        for domain in domains:
            want = quota.get(domain.mta_country, 0)
            if want > 0 and not domain.is_named_major:
                domain.dead_server = True
                quota[domain.mta_country] = want - 1

    # -- shared helpers ------------------------------------------------------------

    def _populate_mailboxes(
        self,
        domain: ReceiverDomain,
        stream: RandomSource,
        count: int,
        quota_fraction: float,
        deletion_rate: float,
    ) -> None:
        clock = self.clock
        used: set[str] = set()
        for i in range(count):
            username = make_username(stream)
            if username in used:
                username = f"{username}{stream.randint(100, 999)}"
                if username in used:
                    continue
            used.add(username)
            box = Mailbox(username=username, domain=domain.name)
            if stream.chance(quota_fraction):
                box.full_windows = self._quota_model.sample_windows(stream, clock)
            if stream.chance(self.config.inactive_fraction):
                start = clock.start_ts + stream.uniform(0, clock.end_ts - clock.start_ts)
                if stream.chance(0.6):
                    box.inactive_windows = [Window(start, clock.end_ts)]
                else:
                    box.inactive_windows = [
                        Window(start, min(start + stream.uniform(10, 120) * DAY_SECONDS, clock.end_ts))
                    ]
            if stream.chance(deletion_rate):
                box.deleted_at = clock.start_ts + stream.uniform(0.05, 0.8) * (
                    clock.end_ts - clock.start_ts
                )
                if stream.chance(0.05):
                    box.website_accounts = tuple(
                        stream.pick_k(POPULAR_WEBSITES, stream.randint(1, 4))
                    )
            if stream.chance(0.002):
                box.high_volume = True
            domain.add_mailbox(box)

    def _register_receiver_zone(self, domain: ReceiverDomain, stream: RandomSource) -> None:
        clock = self.clock
        zone = Zone(domain=domain.name)
        zone.add_record(RecordType.MX, domain.mx_host, priority=10)
        for ip in domain.ips:
            zone.add_record(RecordType.A, ip)
        zone.add_record(RecordType.NS, f"ns1.{domain.name}")
        zone.registrations = [
            Window(clock.start_ts - 365 * DAY_SECONDS, clock.end_ts + 365 * DAY_SECONDS)
        ]
        zone.registrants = [f"orig-{domain.name}"]
        self.resolver.register_zone(zone)

    def _make_mta(self, domain: ReceiverDomain, policy: ReceiverPolicy, stream: RandomSource) -> None:
        spam_filter = SpamFilter(
            name=f"filter.{domain.name}",
            threshold=policy.spam_threshold,
            noise_sigma=0.18,
        )
        self.mtas[domain.name] = ReceiverMTA(
            domain=domain.name,
            dialect=domain.dialect,
            policy=policy,
            spam_filter=spam_filter,
            bank=self.bank,
            dnsbl=self.dnsbl,
        )


# ---------------------------------------------------------------------------
# sender side
# ---------------------------------------------------------------------------


class _SenderBuilder:
    def __init__(
        self,
        config: SimulationConfig,
        clock: SimClock,
        rng: RandomSource,
        resolver: Resolver,
        receiver_domains: dict[str, ReceiverDomain],
        breach: BreachCorpus,
    ) -> None:
        self.config = config
        self.clock = clock
        self.rng = rng.child("senders")
        self.resolver = resolver
        self.receiver_domains = receiver_domains
        self.breach = breach
        self._auth_model = MisconfigModel(AUTH_PROFILE)

    def build(self) -> list[SenderDomain]:
        config = self.config
        domains: list[SenderDomain] = []
        used: set[str] = set()
        n_total = config.scaled(config.n_sender_domains)
        n_guess = min(max(2, config.scaled(config.n_guessing_campaigns)), n_total // 6 + 1)
        n_spam = min(max(2, config.scaled(config.n_bulk_spam_domains)), n_total // 6 + 1)
        n_benign = max(1, n_total - n_guess - n_spam)

        for i in range(n_benign):
            stream = self.rng.child(f"benign/{i}")
            name = self._unique_org_name(stream, used)
            domain = SenderDomain(name=name, kind=SenderKind.BENIGN)
            lo, hi = config.n_sender_users_per_domain
            n_users = max(1, config.scaled(stream.randint(lo, hi) * 0.4))
            for j in range(n_users):
                address = f"{make_username(stream)}@{name}"
                domain.users.append(SenderUser(address=address))
            domains.append(domain)
            self._register_sender_zone(domain, stream)

        # A couple of automation accounts with huge volume (typo'd targets
        # are attached with the contact lists).
        automation_candidates = [u for d in domains for u in d.users]
        for user in self.rng.pick_k(automation_candidates, 3):
            user.is_automation = True

        domains.extend(self._build_guessers(used, n_guess))
        domains.extend(self._build_bulk_spammers(used, n_spam))
        self._apply_sender_misconfigs(domains)
        return domains

    def _unique_org_name(self, stream: RandomSource, used: set[str]) -> str:
        for _ in range(50):
            name = make_org_name(stream)
            if name not in used and name not in self.receiver_domains:
                used.add(name)
                return name
        raise RuntimeError("org-name space exhausted")

    def _register_sender_zone(self, domain: SenderDomain, stream: RandomSource) -> None:
        clock = self.clock
        zone = Zone(domain=domain.name)
        zone.add_record(RecordType.TXT_SPF, "v=spf1 include:coremail-out.net ~all")
        zone.add_record(RecordType.TXT_DKIM, "v=DKIM1; k=rsa; p=MIGf...")
        zone.add_record(RecordType.TXT_DMARC, "v=DMARC1; p=quarantine")
        zone.registrations = [
            Window(clock.start_ts - 365 * DAY_SECONDS, clock.end_ts + 365 * DAY_SECONDS)
        ]
        zone.registrants = [f"orig-{domain.name}"]
        self.resolver.register_zone(zone)

    def _apply_sender_misconfigs(self, domains: list[SenderDomain]) -> None:
        """Quota-based selection (robust at small scale): exactly
        ``round(fraction * n)`` benign sender domains get broken DKIM/SPF
        windows, and a smaller set gets whole-zone DNS outages."""
        config = self.config
        benign = [d for d in domains if d.kind is SenderKind.BENIGN]
        if not benign:
            return
        rng = self.rng.child("sender-misconfig")
        n_auth = max(1, round(config.auth_misconfig_fraction * len(benign)))
        # Failure modes shaped like the paper's T3 NDR mix: 42.09% of
        # rejections cite both SPF and DKIM, 55.19% one mechanism, 2.72%
        # a DMARC policy rejection.
        modes = ["both", "spf", "dkim", "dmarc"]
        mode_weights = [0.42, 0.28, 0.27, 0.03]
        for domain in rng.pick_k(benign, n_auth):
            zone = self.resolver.zone(domain.name)
            if zone is None:
                continue
            stream = rng.child(f"auth/{domain.name}")
            windows = self._auth_model.sample_windows(stream, self.clock)
            mode = stream.weighted_choice(modes, mode_weights)
            if mode == "both":
                zone.auth_error_windows = windows
            elif mode == "spf":
                # SPF-only deployment whose SPF record breaks.
                zone.records = [
                    r for r in zone.records if r.rtype is not RecordType.TXT_DKIM
                ]
                zone.spf_error_windows = windows
            elif mode == "dkim":
                # DKIM-only deployment whose DKIM record breaks.
                zone.records = [
                    r for r in zone.records if r.rtype is not RecordType.TXT_SPF
                ]
                zone.dkim_error_windows = windows
            else:
                # DMARC mode: both records break AND the domain publishes
                # p=reject, so receivers cite the DMARC policy.
                zone.auth_error_windows = windows
                zone.records = [
                    r for r in zone.records if r.rtype is not RecordType.TXT_DMARC
                ]
                zone.add_record(RecordType.TXT_DMARC, "v=DMARC1; p=reject")
        n_dns = max(1, round(config.sender_dns_misconfig_fraction * len(benign)))
        for domain in rng.pick_k(benign, n_dns):
            zone = self.resolver.zone(domain.name)
            if zone is None:
                continue
            stream = rng.child(f"dns/{domain.name}")
            windows = []
            for _ in range(stream.randint(1, 3)):
                start = self.clock.start_ts + stream.uniform(0, 0.9) * (
                    self.clock.end_ts - self.clock.start_ts
                )
                windows.append(
                    Window(
                        start,
                        min(
                            start + stream.uniform(2.0, 30.0) * DAY_SECONDS,
                            self.clock.end_ts,
                        ),
                    )
                )
            zone.dns_error_windows = windows

    # -- attackers ---------------------------------------------------------------

    def _build_guessers(self, used: set[str], count: int) -> list[SenderDomain]:
        config = self.config
        out: list[SenderDomain] = []
        targets = self._pick_guess_targets(count)
        for i in range(count):
            stream = self.rng.child(f"guesser/{i}")
            name = self._unique_org_name(stream, used)
            domain = SenderDomain(name=name, kind=SenderKind.GUESSER)
            domain.users.append(SenderUser(address=f"notice@{name}"))
            target = targets[i % len(targets)] if targets else None
            if target is not None:
                domain.guess_target_domain = target.name
                domain.guess_candidates = self._make_guess_candidates(target, stream)
            self._register_sender_zone(domain, stream)
            out.append(domain)
        return out

    def _viable_guess_target(self, domain: ReceiverDomain) -> bool:
        """Attackers probe living domains: skip dead servers, broken MX,
        and expiring registrations (their mail never reaches the
        recipient check, which defeats the probe)."""
        if domain.is_named_major or domain.dead_server or domain.n_mailboxes < 8:
            return False
        zone = self.resolver.zone(domain.name)
        if zone is None or zone.mx_error_windows:
            return False
        if zone.registrations and zone.registrations[0].end < self.clock.end_ts:
            return False
        return True

    def _pick_guess_targets(self, count: int) -> list[ReceiverDomain]:
        preferred = [
            d
            for d in self.receiver_domains.values()
            if d.mta_country in GUESS_TARGET_COUNTRIES and self._viable_guess_target(d)
        ]
        others = [
            d
            for d in self.receiver_domains.values()
            if self._viable_guess_target(d)
        ]
        targets = preferred[:count]
        for domain in others:
            if len(targets) >= count:
                break
            if domain not in targets:
                targets.append(domain)
        return targets

    def _make_guess_candidates(self, target: ReceiverDomain, stream: RandomSource) -> list[str]:
        """Usernames a guesser tries: mutations of human-style names, a
        fraction of which happen to exist (the paper's 0.91% success)."""
        config = self.config
        n = max(60, config.scaled(config.guessed_usernames_per_campaign))
        n_hits = max(1, round(n * config.guess_success_rate))
        existing = list(target.mailboxes.keys())
        hits = stream.pick_k(existing, n_hits)
        candidates = list(hits)
        attempts = 0
        while len(candidates) < n and attempts < n * 20:
            attempts += 1
            base = stream.choice(existing) if existing and stream.chance(0.7) else make_username(stream)
            typo = sample_username_typo(base, stream)
            candidate = typo.text if typo is not None else make_username(stream)
            if candidate not in target.mailboxes and candidate not in candidates:
                candidates.append(candidate)
        stream.shuffle(candidates)
        return candidates

    def _build_bulk_spammers(self, used: set[str], count: int) -> list[SenderDomain]:
        config = self.config
        out: list[SenderDomain] = []
        for i in range(count):
            stream = self.rng.child(f"spammer/{i}")
            name = self._unique_org_name(stream, used)
            domain = SenderDomain(name=name, kind=SenderKind.BULK_SPAMMER)
            for j in range(stream.randint(1, 4)):
                domain.users.append(SenderUser(address=f"{make_username(stream)}@{name}"))
            total_benign = config.emails_per_day_scaled * 450
            per_domain = total_benign * config.bulk_spam_volume_share / max(count, 1)
            domain.campaign_volume = max(5, int(per_domain * stream.uniform(0.5, 1.6)))
            self._register_sender_zone(domain, stream)
            out.append(domain)
        return out

    # -- contacts (needs the full world) ----------------------------------------

    def attach_contacts(self, world: WorldModel) -> None:
        """Build benign users' contact lists over the receiver world, then
        correlate mailbox pathologies with actual usage (a mailbox can only
        fill up if people mail it)."""
        rng = self.rng.child("contacts")
        domain_sampler = world.domain_sampler(rng)
        expiring = [
            d
            for d in world.receiver_domains.values()
            if (zone := world.resolver.zone(d.name)) is not None
            and zone.registrations
            and zone.registrations[0].end < world.clock.end_ts
        ]
        stale_candidates: list[str] = []
        for domain in expiring:
            boxes = list(domain.mailboxes.values())
            for box in rng.pick_k(boxes, min(4, len(boxes))):
                stale_candidates.append(box.address)

        for sender_domain in world.benign_sender_domains():
            for user in sender_domain.users:
                stream = rng.child(user.address)
                if user.is_automation:
                    self._attach_automation_contact(user, world, stream)
                    continue
                n_contacts = stream.randint(2, 30)
                for k in range(n_contacts):
                    rdomain = domain_sampler.draw()
                    boxes = rdomain.mailboxes
                    if not boxes:
                        continue
                    username = stream.choice(list(boxes.keys()))
                    weight = 1.0 / (k + 1) ** 0.8
                    user.contacts.append(
                        Contact(address=f"{username}@{rdomain.name}", weight=weight)
                    )
                if stale_candidates and stream.chance(self.config.stale_contact_fraction):
                    address = stream.choice(stale_candidates)
                    user.contacts.append(Contact(address=address, weight=0.3, stale=True))
                if not user.contacts:
                    user.contacts.append(
                        Contact(address="postmaster@gmail.com", weight=0.5)
                    )
        # Every expiring domain keeps at least a couple of correspondents
        # who never learn it died — the residual-trust mail stream the
        # squatting analysis measures.
        all_users = [u for d in world.benign_sender_domains() for u in d.users]
        for domain in expiring:
            boxes = list(domain.mailboxes.values())
            if not boxes or not all_users:
                continue
            stream = rng.child(f"stale/{domain.name}")
            for user in stream.pick_k(all_users, stream.randint(1, 2)):
                box = stream.choice(boxes)
                user.contacts.append(
                    Contact(address=box.address, weight=0.08, stale=True)
                )
        self._assign_contacted_pathologies(world, rng.child("pathologies"))

    def _assign_contacted_pathologies(self, world: WorldModel, rng: RandomSource) -> None:
        """Quota-full and inactivity episodes hit *contacted* mailboxes
        (weighted by how much mail they attract; Gmail boxes over-weighted
        to reproduce Table 3's 'Gmail hard bounces are mostly quota')."""
        config = self.config
        clock = world.clock
        quota_model = MisconfigModel(QUOTA_PROFILE)
        weights: dict[str, float] = {}
        for sender_domain in world.benign_sender_domains():
            for user in sender_domain.users:
                for contact in user.contacts:
                    weights[contact.address] = weights.get(contact.address, 0.0) + contact.weight
        boxes = []
        box_weights = []
        for address, weight in sorted(weights.items()):
            try:
                username, domain_name = split_address(address)
            except ValueError:
                continue
            rdomain = world.receiver_domains.get(domain_name)
            if rdomain is None:
                continue
            zone = world.resolver.zone(domain_name)
            if zone is None or (
                zone.registrations and zone.registrations[0].end < clock.end_ts
            ):
                # Boxes at expiring domains bounce T2, never T9/T8-inactive.
                continue
            box = rdomain.mailbox(username)
            if box is None or box.deleted_at is not None:
                continue
            boxes.append(box)
            box_weights.append(weight * (6.0 if domain_name == "gmail.com" else 1.0))
        if not boxes:
            return
        # Square the weights: pathologies concentrate on the most-mailed
        # boxes, which is what makes their bounce episodes observable.
        sampler = rng.sampler(boxes, [w * w for w in box_weights])
        n_quota = max(1, round(config.contacted_quota_fraction * len(boxes)))
        chosen: set[str] = set()
        attempts = 0
        while len(chosen) < min(n_quota, len(boxes)) and attempts < 30 * n_quota:
            attempts += 1
            box = sampler.draw()
            if box.address in chosen:
                continue
            chosen.add(box.address)
            box.full_windows = quota_model.sample_windows(
                rng.child(f"quota/{box.address}"), clock
            )
        n_inactive = max(1, round(config.contacted_inactive_fraction * len(boxes)))
        inactive_chosen: set[str] = set()
        attempts = 0
        while len(inactive_chosen) < min(n_inactive, len(boxes)) and attempts < 30 * n_inactive:
            attempts += 1
            box = sampler.draw()
            if box.address in chosen or box.address in inactive_chosen:
                continue
            inactive_chosen.add(box.address)
            stream = rng.child(f"inactive/{box.address}")
            start = clock.start_ts + stream.uniform(0.1, 0.9) * (clock.end_ts - clock.start_ts)
            if stream.chance(0.6):
                box.inactive_windows = [Window(start, clock.end_ts)]
            else:
                box.inactive_windows = [
                    Window(
                        start,
                        min(start + stream.uniform(10, 120) * DAY_SECONDS, clock.end_ts),
                    )
                ]
        # Account deletions among contacted boxes: the raw material of
        # username squatting (Yahoo's lax re-registration policy makes its
        # deleted names disproportionately vulnerable).
        n_delete = max(2, round(config.contacted_deletion_fraction * len(boxes)))
        yahoo_boxes = [b for b in boxes if b.domain == "yahoo.com"]
        yahoo_weights = [w for b, w in zip(boxes, box_weights) if b.domain == "yahoo.com"]
        yahoo_sampler = rng.sampler(yahoo_boxes, yahoo_weights) if yahoo_boxes else None
        deleted: set[str] = set()
        attempts = 0
        while len(deleted) < min(n_delete, len(boxes)) and attempts < 60 * n_delete:
            attempts += 1
            # Yahoo recycles accounts aggressively (the paper: 21 of 25
            # once-working vulnerable usernames were Yahoo's).
            if yahoo_sampler is not None and rng.chance(0.55):
                box = yahoo_sampler.draw()
            else:
                box = sampler.draw()
            if box.address in deleted or box.full_windows or box.inactive_windows:
                continue
            deleted.add(box.address)
            stream = rng.child(f"delete/{box.address}")
            box.deleted_at = clock.start_ts + stream.uniform(0.1, 0.7) * (
                clock.end_ts - clock.start_ts
            )
            if stream.chance(0.25):
                box.website_accounts = tuple(
                    stream.pick_k(POPULAR_WEBSITES, stream.randint(1, 4))
                )

    def _attach_automation_contact(self, user: SenderUser, world: WorldModel, stream: RandomSource) -> None:
        """Automation accounts bake a username typo into their one target
        (the paper's 'five username typos received over 20K emails')."""
        for _ in range(30):
            rdomain = world.domain_sampler(stream).draw()
            if not rdomain.mailboxes:
                continue
            username = stream.choice(list(rdomain.mailboxes.keys()))
            typo = sample_username_typo(username, stream)
            if typo is None or typo.text in rdomain.mailboxes:
                continue
            user.contacts.append(
                Contact(address=f"{typo.text}@{rdomain.name}", weight=50.0, stale=True)
            )
            return
        user.contacts.append(Contact(address="reports@gmail.com", weight=10.0))


# ---------------------------------------------------------------------------
# breach corpus
# ---------------------------------------------------------------------------


def _seed_breach_corpus(
    config: SimulationConfig,
    rng: RandomSource,
    receiver_domains: dict[str, ReceiverDomain],
    breach: BreachCorpus,
) -> None:
    """Leaked corpus: all deleted accounts, a slice of live accounts, and
    a majority of dead (never-existed) addresses at real domains — which is
    what makes leaked-list spam bounce so hard (70% in the paper)."""
    live: list[str] = []
    for domain in receiver_domains.values():
        for box in domain.mailboxes.values():
            if box.deleted_at is not None:
                breach.add(box.address)
            else:
                live.append(box.address)
    for address in rng.subset(live, 0.06):
        breach.add(address)
    n_live = max(1, len(breach))
    domains = [d for d in receiver_domains.values() if d.mailboxes]
    n_dead = int(n_live * 1.6)
    for i in range(n_dead):
        domain = rng.choice(domains)
        breach.add(f"{make_username(rng)}{rng.randint(100, 99999)}@{domain.name}")
