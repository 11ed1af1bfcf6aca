"""World inspection: summary statistics and canonical deep digests.

Used by debugging sessions and the CLI to sanity-check what a
configuration produced, and by :mod:`repro.checkpoint` to fingerprint
the complete world+engine state: :func:`world_digest` walks every
reachable simulation object through a canonical serializer, so *any*
mutated field — a truncated misconfiguration window, one greylist tuple,
a single RNG cursor position — changes the digest.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum

from repro.mta.policies import TLSRequirement
from repro.util.rng import RandomSource, WeightedSampler
from repro.world.model import WorldModel


@dataclass(frozen=True)
class WorldSummary:
    n_receiver_domains: int
    n_mailboxes: int
    n_sender_domains: int
    n_sender_users: int
    n_proxies: int
    n_countries: int
    n_dnsbl_adopters: int
    n_greylisting: int
    n_tls_mandatory: int
    n_auth_enforcing: int
    n_expiring_domains: int
    n_mx_broken_domains: int
    n_auth_broken_senders: int
    n_attackers: int
    breach_corpus_size: int

    def render(self) -> str:
        lines = [
            f"receiver domains: {self.n_receiver_domains} "
            f"({self.n_mailboxes} mailboxes, {self.n_countries} countries)",
            f"sender domains:   {self.n_sender_domains} "
            f"({self.n_sender_users} users, {self.n_attackers} attackers)",
            f"proxies:          {self.n_proxies}",
            f"policies:         dnsbl={self.n_dnsbl_adopters} "
            f"greylist={self.n_greylisting} tls-mandatory={self.n_tls_mandatory} "
            f"auth-enforcing={self.n_auth_enforcing}",
            f"pathologies:      expiring={self.n_expiring_domains} "
            f"mx-broken={self.n_mx_broken_domains} "
            f"auth-broken-senders={self.n_auth_broken_senders}",
            f"breach corpus:    {self.breach_corpus_size} addresses",
        ]
        return "\n".join(lines)


def summarize_world(world: WorldModel) -> WorldSummary:
    mtas = world.receiver_mtas
    zones = {z.domain: z for z in world.resolver.all_zones()}
    receiver_zones = [zones[n] for n in world.receiver_domains if n in zones]
    benign = world.benign_sender_domains()
    sender_zones = [zones[d.name] for d in benign if d.name in zones]
    return WorldSummary(
        n_receiver_domains=len(world.receiver_domains),
        n_mailboxes=sum(d.n_mailboxes for d in world.receiver_domains.values()),
        n_sender_domains=len(world.sender_domains),
        n_sender_users=sum(len(d.users) for d in world.sender_domains),
        n_proxies=len(world.fleet),
        n_countries=len({d.mta_country for d in world.receiver_domains.values()}),
        n_dnsbl_adopters=sum(1 for m in mtas.values() if m.policy.uses_dnsbl),
        n_greylisting=sum(1 for m in mtas.values() if m.policy.greylisting),
        n_tls_mandatory=sum(
            1 for m in mtas.values() if m.policy.tls is TLSRequirement.MANDATORY
        ),
        n_auth_enforcing=sum(1 for m in mtas.values() if m.policy.enforces_auth),
        n_expiring_domains=sum(
            1
            for z in receiver_zones
            if z.registrations and z.registrations[0].end < world.clock.end_ts
        ),
        n_mx_broken_domains=sum(1 for z in receiver_zones if z.mx_error_windows),
        n_auth_broken_senders=sum(
            1
            for z in sender_zones
            if z.auth_error_windows or z.spf_error_windows or z.dkim_error_windows
        ),
        n_attackers=sum(1 for d in world.sender_domains if d.is_attacker),
        breach_corpus_size=len(world.breach),
    )


def country_distribution(world: WorldModel) -> Counter:
    return Counter(d.mta_country for d in world.receiver_domains.values())


def dialect_distribution(world: WorldModel) -> Counter:
    return Counter(d.dialect for d in world.receiver_domains.values())


# -- canonical deep digest -----------------------------------------------------------
#
# The checkpoint fingerprint.  Every reachable simulation object is folded
# through a canonical serializer (sorted dict keys, sorted set elements,
# sorted attribute names, type-tagged primitives), so the digest is
# independent of dict iteration quirks and object identity but sensitive
# to every *value*.  Derived state that rebuilds deterministically —
# fast-path caches, telemetry bindings, lazily-built samplers — is
# excluded, which keeps the digest stable across a pickle round-trip and
# across cached vs ``--no-cache`` runs.

#: Attribute names excluded from the digest: rebuildable caches and
#: telemetry bindings (see the module docstring of ``repro.checkpoint``).
_SKIP_ATTRS = frozenset(
    {
        "_status_cache",
        "_sender_dns_cache",
        "_auth",
        "_domain_rows",
        "_split_cache",
        "_domain_sampler",
        "_sender_sampler",
        "_state_cache",
        "_ip_state",
        "_domain_snap",
        "_net_probs",
        "_fast",
        "_contact_cum",
        "_state_stats",
        "_stats",
        "_obs_on",
        # Cache-invalidation counters: two worlds differing only in how
        # often an attribute was (re)assigned are semantically identical.
        "_epoch",
        "_registration_epoch",
    }
)

#: Attribute-name prefixes excluded (bound telemetry instruments).
_SKIP_PREFIXES = ("_m_",)


def _skip_attr(name: str) -> bool:
    return name in _SKIP_ATTRS or name.startswith(_SKIP_PREFIXES)


def _instance_attrs(obj: object) -> list[tuple[str, object]]:
    if hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        names = []
        for klass in type(obj).__mro__:
            names.extend(getattr(klass, "__slots__", ()))
        items = [(n, getattr(obj, n)) for n in names if hasattr(obj, n)]
    return sorted((n, v) for n, v in items if not _skip_attr(n))


def _canon(obj: object, memo: dict[int, bytes], stack: set[int]) -> bytes:
    """Canonical bytes for ``obj``: literal encodings for primitives,
    hash-of-children digests for composites (bounds memory on big worlds)."""
    if obj is None:
        return b"none"
    kind = type(obj)
    if kind is bool:
        return b"bool:1" if obj else b"bool:0"
    if kind is int:
        return b"int:%d" % obj
    if kind is float:
        return f"float:{obj!r}".encode("ascii")
    if kind is str:
        return b"str:" + obj.encode("utf-8", "surrogatepass")
    if kind is bytes:
        return b"bytes:" + obj
    if isinstance(obj, Enum):
        return f"enum:{kind.__qualname__}.{obj.name}".encode("utf-8")
    if isinstance(obj, (datetime, date)):
        return f"time:{obj.isoformat()}".encode("ascii")
    if isinstance(obj, (list, tuple)):
        h = hashlib.sha256(b"seq")
        for item in obj:
            h.update(_canon(item, memo, stack))
        return h.digest()
    if isinstance(obj, dict):
        pairs = sorted(
            (_canon(k, memo, stack), _canon(v, memo, stack)) for k, v in obj.items()
        )
        h = hashlib.sha256(b"map")
        for kb, vb in pairs:
            h.update(kb)
            h.update(vb)
        return h.digest()
    if isinstance(obj, (set, frozenset)):
        h = hashlib.sha256(b"set")
        for eb in sorted(_canon(e, memo, stack) for e in obj):
            h.update(eb)
        return h.digest()
    if isinstance(obj, RandomSource):
        h = hashlib.sha256(b"rng")
        h.update(_canon(obj.getstate(), memo, stack))
        return h.digest()
    if isinstance(obj, WeightedSampler):
        h = hashlib.sha256(b"sampler")
        h.update(_canon(obj._items, memo, stack))
        h.update(_canon(obj._cumulative, memo, stack))
        h.update(_canon(obj._total, memo, stack))
        h.update(_canon(obj._rng, memo, stack))
        return h.digest()
    # Generic instance: type tag plus sorted (name, value) attributes.
    # Shared objects (the template bank, the DNSBL service) are digested
    # once and memoized by identity; objects currently on the walk stack
    # mark a reference cycle rather than recursing forever.
    key = id(obj)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if key in stack:
        return b"cycle"
    attrs = _instance_attrs(obj)
    stack.add(key)
    try:
        h = hashlib.sha256(b"obj:" + kind.__qualname__.encode("utf-8"))
        for name, value in attrs:
            h.update(name.encode("utf-8"))
            h.update(_canon(value, memo, stack))
    finally:
        stack.discard(key)
    digest = h.digest()
    memo[key] = digest
    return digest


def world_digest(world: WorldModel) -> str:
    """Hex digest of the complete world state (zones, windows, listings,
    mailboxes, policies, samplers' tables, breach corpus, clock — every
    reachable value except rebuildable caches and telemetry)."""
    return hashlib.sha256(b"world:1" + _canon(world, {}, set())).hexdigest()


def state_digest(world: WorldModel, engine_states: object = None) -> str:
    """Checkpoint fingerprint: the world digest folded together with the
    per-slice progress payloads (engine RNG cursors, greylist tuples,
    learned STARTTLS sets).  Any mutated field on either side changes it."""
    memo: dict[int, bytes] = {}
    stack: set[int] = set()
    h = hashlib.sha256(b"state:1")
    h.update(_canon(world, memo, stack))
    h.update(_canon(engine_states, memo, stack))
    return h.hexdigest()
