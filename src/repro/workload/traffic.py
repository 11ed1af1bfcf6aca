"""Benign traffic generation.

Each email is composed by a sender user picked from the benign population
(automation accounts weighted up), addressed to a contact from their list.
Typed addresses are then corrupted with the paper's user-error rates:
username typos (before @) and domain typos (after @).  Stale contacts are
mailed as stored — including ones at expired domains.

Content: most mail is clean (low latent spamminess); a marketing slice is
borderline; Coremail's outgoing filter flag is applied by the engine.
"""

from __future__ import annotations

import hashlib
import random as _pyrandom
from bisect import bisect_left, bisect_right
from operator import attrgetter
from itertools import accumulate
from math import cos, exp, log, pi, sin, sqrt
from typing import Iterator

from repro.core import fastpath
from repro.typosquat.generate import sample_domain_typo, sample_username_typo
from repro.util.rng import RandomSource
from repro.util.text import split_address
from repro.workload.schedule import ArrivalSchedule
from repro.workload.spec import EmailSpec
from repro.world.model import WorldModel
from repro.world.senders import SenderUser

#: ``math.log`` of the size log-normal's median (``_sample_size``); the
#: fast compose path inlines ``RandomSource.lognormal`` around it.
_LOG_SIZE_MEDIAN = log(42_000)

#: ``random.Random.seed``'s C implementation.  For an int argument the
#: Python wrapper only type-checks, calls this, and clears ``gauss_next``
#: — the fast compose loop does the same without the wrapper frame.
_RAW_SEED = _pyrandom.Random.__mro__[1].seed

#: ``random.py``'s TWOPI, for the inlined ``Random.gauss`` replica.
_TWOPI = 2.0 * pi


class TrafficGenerator:
    """Generates the benign email stream (attacker flows are separate)."""

    def __init__(self, world: WorldModel, rng: RandomSource) -> None:
        self.world = world
        self.rng = rng
        self.schedule = ArrivalSchedule(world.clock, world.config.emails_per_day_scaled)
        self._sender_sampler = world.sender_sampler(rng.child("senders"))
        # Per-user cumulative contact weights (fast path only), shared by
        # every generator on the world.  Guarded by the contact list's
        # identity and length so a rebuilt or extended list recomputes
        # the table.
        self._contact_cum: dict[str, tuple[list, list[float], float]] = world._contact_cum
        # Reusable per-email child stream (fast path only): reseeding the
        # wrapped Random in place is draw-identical to constructing the
        # child RandomSource the reference path builds per email.
        self._scratch: RandomSource | None = None
        # Contact-address splits (fast path only): the same few thousand
        # contact addresses recur every day, so one world-scoped dict
        # probe replaces the split_address call in the hot loop.
        self._split_cache: dict[str, tuple[str, str]] = world._split_cache

    def generate(self) -> list[EmailSpec]:
        """The full benign stream across the measurement window, in time
        order within each day."""
        return list(self.iter_specs())

    def day_specs(self, day: int) -> list[EmailSpec]:
        """One day's benign emails, sorted by send time.

        Every random input of a day — times, typos, content, *and* sender
        identities — draws from the day's own named random stream (sender
        picks go through a per-day view of the world's shared popularity
        sampler), so any day can be generated independently of any other.
        That independence is what lets the parallel runtime partition the
        window into day-range slices without perturbing the output.
        """
        day_rng = self.rng.child(f"day/{day}")
        volume = self.schedule.day_volume(day, day_rng)
        sender_rng = day_rng.child("senders")
        sender_sampler = self._sender_sampler.with_rng(sender_rng)
        if fastpath.enabled():
            return self._day_specs_fast(day, day_rng, sender_rng, sender_sampler, volume)
        out: list[EmailSpec] = []
        for i in range(volume):
            spec = self._compose(day, day_rng.child(str(i)), sender_sampler)
            if spec is not None:
                out.append(spec)
        out.sort(key=attrgetter("t"))
        return out

    def _day_specs_fast(
        self, day: int, day_rng: RandomSource, sender_rng: RandomSource,
        sender_sampler, volume: int,
    ) -> list[EmailSpec]:
        """:meth:`day_specs`, draw for draw, with the per-email ceremony
        inlined (see docs/PERFORMANCE.md).

        Three costs dominate the reference compose loop and all three are
        replayable exactly: the per-email child ``RandomSource`` (replaced
        by one reusable stream reseeded in place with the same sha256-derived
        seed, the prefix hashed once per day), the sampling helpers (inlined
        as the literal arithmetic of their reference implementations on
        bound ``random.Random`` methods), and the schedule/config attribute
        walks (hoisted out of the loop — all pure values)."""
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = RandomSource(0, name="compose-scratch")
        r = scratch._rng
        rand = r.random
        getrandbits = r.getrandbits
        randint = r.randint
        # RandomSource.child(str(i)) == Random(sha256(f"{seed}:{i}")[:8]).
        prefix = hashlib.sha256(f"{day_rng.seed}:".encode())
        # WeightedSampler.draw over the shared popularity table.
        s_rand = sender_rng._rng.random
        s_items, s_cum, s_total = sender_sampler.table()
        s_n = len(s_items)
        schedule = self.schedule
        hour_cdf = schedule._hour_cdf
        day_start = schedule.clock.day_start(day)
        config = self.world.config
        u_rate = config.username_typo_rate
        d_rate = config.domain_typo_rate
        contact_cum = self._contact_cum
        split_cache = self._split_cache
        split_get = split_cache.get
        out: list[EmailSpec] = []
        append = out.append
        for i in range(volume):
            h = prefix.copy()
            h.update(str(i).encode())
            scratch.seed = seed = int.from_bytes(h.digest()[:8], "big")
            _RAW_SEED(r, seed)
            r.gauss_next = None
            # sender_sampler.draw()
            u = s_rand() * s_total
            index = bisect_right(s_cum, u)
            if index >= s_n:
                index = s_n - 1
            user = s_items[index]
            # _pick_contact: weighted_choice_cum over the cached table.
            contacts = user.contacts
            if not contacts:
                continue
            address = user.address
            entry = contact_cum.get(address)
            if (
                entry is None
                or entry[0] is not contacts
                or len(entry[1]) != len(contacts)
            ):
                cum = list(accumulate(c.weight for c in contacts))
                entry = (contacts, cum, cum[-1] + 0.0)
                contact_cum[address] = entry
            total = entry[2]
            if total <= 0.0:
                raise ValueError("total of weights must be greater than zero")
            contact = contacts[
                bisect_right(entry[1], rand() * total, 0, len(contacts) - 1)
            ]
            # ArrivalSchedule.sample_send_time: the linear CDF scan picks
            # the first hour whose edge is >= u, which is bisect_left; the
            # sum is parenthesised exactly like the reference (day_start +
            # offset) so no 1-ulp association drift can creep in.
            u = rand()
            hour = bisect_left(hour_cdf, u)
            t = day_start + (hour * 3600.0 + 3600.0 * rand())
            # _apply_typos (chance() inlined; samplers only on a hit)
            caddr = contact.address
            receiver = caddr
            tags: tuple[str, ...] = ()
            parts = split_get(caddr)
            if parts is None:
                parts = split_cache[caddr] = split_address(caddr)
            user_part, domain_part = parts
            typoed = False
            if u_rate > 0.0 and (u_rate >= 1.0 or rand() < u_rate):
                typo = sample_username_typo(user_part, scratch)
                if typo is not None:
                    receiver = f"{typo.text}@{domain_part}"
                    tags = ("username_typo",)
                    typoed = True
            if not typoed and d_rate > 0.0 and (d_rate >= 1.0 or rand() < d_rate):
                typo = sample_domain_typo(domain_part, scratch)
                if typo is not None:
                    receiver = f"{user_part}@{typo.text}"
                    tags = ("domain_typo",)
            if contact.stale:
                tags = tags + ("stale_contact",)
                if user.is_automation:
                    tags = tags + ("automation",)
            # _sample_spamminess (Random.gauss inlined; one draw, the
            # branch only picks mu/sigma)
            roll = rand()
            z = r.gauss_next
            r.gauss_next = None
            if z is None:
                x2pi = rand() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - rand()))
                z = cos(x2pi) * g2rad
                r.gauss_next = sin(x2pi) * g2rad
            if roll < 0.86:
                spamminess = 0.08 + z * 0.06
            elif roll < 0.982:
                spamminess = 0.42 + z * 0.14
            else:
                spamminess = 0.80 + z * 0.10
            if spamminess < 0.0:
                spamminess = 0.0
            elif spamminess > 1.0:
                spamminess = 1.0
            # _sample_size (lognormal inlined; the huge-attachment slice
            # keeps the library randint — it is too rare to matter)
            if rand() < 0.0008:
                size = randint(27_000_000, 65_000_000)
            else:
                z = r.gauss_next
                r.gauss_next = None
                if z is None:
                    x2pi = rand() * _TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - rand()))
                    z = cos(x2pi) * g2rad
                    r.gauss_next = sin(x2pi) * g2rad
                value = exp(_LOG_SIZE_MEDIAN + 1.6 * (0.0 + z * 1.0))
                if value > 20_000_000.0:
                    value = 20_000_000.0
                size = int(value)
                if size < 600:
                    size = 600
            # _sample_recipient_count: randint(a, b) == a + _randbelow(b+1-a),
            # and _randbelow(n) draws getrandbits(n.bit_length()) until the
            # value falls under n — inlined with the literal widths (4, 56,
            # 340 have bit lengths 3, 6, 9).
            if rand() < 0.985:
                v = getrandbits(3)
                while v >= 4:
                    v = getrandbits(3)
                rcpt = 1 + v
            elif rand() < 0.9:
                v = getrandbits(6)
                while v >= 56:
                    v = getrandbits(6)
                rcpt = 5 + v
            else:
                v = getrandbits(9)
                while v >= 340:
                    v = getrandbits(9)
                rcpt = 61 + v
            append(EmailSpec(t, address, receiver, spamminess, size, rcpt, tags))
        out.sort(key=attrgetter("t"))
        return out

    def iter_specs(self) -> Iterator[EmailSpec]:
        """Lazily yield the benign stream in time order, holding at most
        one day's specs in memory.

        Send times never cross day boundaries, so per-day sorted chunks
        concatenate into the exact sequence a global stable sort of the
        whole window would produce.
        """
        return self.iter_day_range(0, self.world.clock.n_days)

    def iter_day_range(self, day_start: int, day_end: int) -> Iterator[EmailSpec]:
        """Lazily yield days ``[day_start, day_end)`` in time order — the
        per-slice entry point of the parallel runtime."""
        for day in range(day_start, day_end):
            yield from self.day_specs(day)

    def _compose(self, day: int, rng: RandomSource, sender_sampler) -> EmailSpec | None:
        user = sender_sampler.draw()
        contact = self._pick_contact(user, rng)
        if contact is None:
            return None
        t = self.schedule.sample_send_time(day, rng)
        receiver, tags = self._apply_typos(contact.address, rng)
        if contact.stale:
            tags = tags + ("stale_contact",)
            if user.is_automation:
                tags = tags + ("automation",)
        return EmailSpec(
            t=t,
            sender=user.address,
            receiver=receiver,
            spamminess=self._sample_spamminess(rng),
            size_bytes=self._sample_size(rng),
            recipient_count=self._sample_recipient_count(rng),
            tags=tags,
        )

    def _pick_contact(self, user: SenderUser, rng: RandomSource):
        contacts = user.contacts
        if not contacts:
            return None
        if fastpath.enabled():
            entry = self._contact_cum.get(user.address)
            if (
                entry is None
                or entry[0] is not contacts
                or len(entry[1]) != len(contacts)
            ):
                cum = list(accumulate(c.weight for c in contacts))
                entry = (contacts, cum, cum[-1] + 0.0)
                self._contact_cum[user.address] = entry
            return rng.weighted_choice_cum(contacts, entry[1], entry[2])
        weights = [c.weight for c in contacts]
        return rng.weighted_choice(contacts, weights)

    def _apply_typos(self, address: str, rng: RandomSource) -> tuple[str, tuple[str, ...]]:
        config = self.world.config
        user, domain = split_address(address)
        if rng.chance(config.username_typo_rate):
            typo = sample_username_typo(user, rng)
            if typo is not None:
                return f"{typo.text}@{domain}", ("username_typo",)
        if rng.chance(config.domain_typo_rate):
            typo = sample_domain_typo(domain, rng)
            if typo is not None:
                return f"{user}@{typo.text}", ("domain_typo",)
        return address, ()

    @staticmethod
    def _sample_spamminess(rng: RandomSource) -> float:
        """Latent content score: mostly clean, a marketing shoulder, and a
        thin genuinely-spammy tail even among customer mail."""
        roll = rng.random()
        if roll < 0.86:
            return min(max(rng.gauss(0.08, 0.06), 0.0), 1.0)
        if roll < 0.982:
            return min(max(rng.gauss(0.42, 0.14), 0.0), 1.0)
        return min(max(rng.gauss(0.80, 0.10), 0.0), 1.0)

    @staticmethod
    def _sample_size(rng: RandomSource) -> int:
        """Log-normal body of message sizes plus a rare huge-attachment
        slice that exceeds common 25 MiB limits (drives T12)."""
        if rng.chance(0.0008):
            return rng.randint(27_000_000, 65_000_000)
        size = rng.lognormal(42_000, 1.6, cap=20_000_000)
        return max(600, int(size))

    @staticmethod
    def _sample_recipient_count(rng: RandomSource) -> int:
        if rng.chance(0.985):
            return rng.randint(1, 4)
        if rng.chance(0.9):
            return rng.randint(5, 60)
        return rng.randint(61, 400)
