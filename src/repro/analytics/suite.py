"""The streaming table suite: every paper table from one pass.

:class:`TableSuite` folds :class:`~repro.delivery.records.DeliveryRecord`
streams into the accumulator algebra of
:mod:`repro.analytics.accumulators` and reconstructs each table/figure
computation of :mod:`repro.analysis` (rootcause, rankings, blocklist,
misconfig, squatting) from accumulated state:

* the *records-only* suite — :meth:`tables` / the shared renderer — needs
  nothing but the stream and is what `repro report --shards` byte-diffs
  against the materialized batch twin in
  :mod:`repro.analytics.batch`;
* the *world twins* — :meth:`root_causes`, :meth:`table4`,
  :meth:`squatting`, … — additionally take the simulator-side services
  the batch functions take (breach corpus, resolver, geo, registrar) and
  return the **same dataclasses** as the batch implementations.

Suites merge like telemetry snapshots: ``merge`` is commutative and
associative, so per-worker partials combine to the same state for any
worker count, and every rendered number is either an integer, a ratio of
integers, an exactly-summed (Fraction) mean, a sketch statistic, or a
float sum over a deterministically sorted list — all invariant under
stream partitioning.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.blocklist import FilterDivergence
from repro.analysis.label import RuleLabeler
from repro.analysis.malicious import BulkSpamReport, GuessingCampaign
from repro.analysis.misconfig import DurationReport, ErrorEpisode
from repro.analysis.rankings import BounceRateRow, CountryRow
from repro.analysis.rootcause import RootCauseReport, RootCauseRow
from repro.analysis.squatting import (
    PROBED_PROVIDERS,
    SquattingReport,
    VulnerableDomain,
    VulnerableUsername,
    WeeklySeries,
)
from repro.analysis.typos import DomainTypoFinding, UsernameTypoFinding
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
    live_map,
    restore,
)
from repro.core.taxonomy import BounceType, RootCause
from repro.dnssim.records import RecordType, ResolveStatus
from repro.smtp.ndr import is_success
from repro.typosquat.generate import classify_typo, domain_typos
from repro.util.clock import DAY_SECONDS, WEEK_SECONDS, SimClock
from repro.util.text import similarity_ratio, split_address

SUITE_SNAPSHOT_VERSION = 1

#: Field separator inside compound accumulator keys.  U+001F never occurs
#: in the dataset's addresses or domains.
SEP = "\x1f"

#: CDF grid (days) for the Fig 7 duration curves.
DURATION_GRID_DAYS = (1.0, 2.0, 4.0, 7.0, 14.0, 30.0, 60.0, 120.0)

#: The accumulators whose maps :meth:`TableSuite.observe_many` writes
#: directly, per record and per record outline, in the order it unpacks
#: them.
_RECORD_MAPS = (
    "day_degree", "monthly", "week_dom_n", "week_dom_senders",
    "week_addr_n", "week_addr_senders", "last_success",
)
_OUTLINE_MAPS = (
    "totals", "rd_volume", "rd_hard", "rd_soft", "sd_volume", "sd_hard",
    "sd_soft", "ip_volume", "ip_hard", "ip_soft", "pair_traffic",
    "pair_delivered_n", "types", "rd_type", "ip_type", "delivered_domains",
    "delivered_addrs", "spam_recipients", "rd_senders", "pair_hit_users",
    "deliv_user_sets", "pair_t8_users",
)

#: Distinct record outlines the fold counts before it writes them.
_OUTLINE_CAP = 4096

#: Entries a fold memo holds before it starts over.
_MEMO_CAP = 1 << 16

#: Seconds into a UTC day past which ``clock.month_key`` may round into
#: the next day.
_LAST_INSTANT = DAY_SECONDS - 1e-6


def clock_from_ts(start_ts: float, end_ts: float) -> SimClock:
    """Rebuild a :class:`SimClock` from serialized epoch bounds."""
    from datetime import datetime, timezone

    return SimClock(
        start=datetime.fromtimestamp(start_ts, tz=timezone.utc),
        end=datetime.fromtimestamp(end_ts, tz=timezone.utc),
    )


def recovery_sketch() -> QuantileSketch:
    """Soft-bounce recovery delays in hours (sub-second floor)."""
    return QuantileSketch(min_bound=1e-3)


def greylist_sketch() -> QuantileSketch:
    """Greylist pass delays in seconds."""
    return QuantileSketch(min_bound=1.0)


def episode_stats(episodes: list[ErrorEpisode]) -> dict:
    """Deterministic summary of a misconfiguration-episode population.

    Both the streaming and the batch path feed their episodes through
    this one function, with one canonical sort order, so the float sums
    match bit for bit.
    """
    ordered = sorted(episodes, key=lambda e: (e.entity, e.start, e.end))
    durations = [e.duration_days for e in ordered]
    n = len(durations)
    stats = {
        "n_entities": len({e.entity for e in ordered}),
        "n_episodes": n,
        "n_censored": sum(1 for e in ordered if e.censored),
        "mean_days": sum(durations) / n if n else 0.0,
        "median_days": _median(durations),
        "over_30d": sum(1 for d in durations if d > 30.0) / n if n else 0.0,
        "cdf": [
            [g, (sum(1 for d in durations if d <= g) / n) if n else 0.0]
            for g in DURATION_GRID_DAYS
        ],
    }
    open_durations = [e.duration_days for e in ordered if not e.censored]
    m = len(open_durations)
    stats["uncensored"] = {
        "n": m,
        "mean_days": sum(open_durations) / m if m else 0.0,
        "median_days": _median(open_durations),
    }
    return stats


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _remember(memo: dict, key, value):
    """``memo[key] = value``, emptying ``memo`` first when it is full."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _receiver_facts(receiver: str, providers: tuple[str, ...]) -> tuple:
    """What the fold needs of one receiver address: the receiver domain,
    the lower-cased address and user, the ``split_address`` pair with the
    user lower-cased (None when it raises), and whether the lower-cased
    address's domain and the receiver domain are probed providers."""
    rd = receiver.rsplit("@", 1)[-1]
    lower = receiver.lower()
    try:
        user, dlow = split_address(receiver)
    except ValueError:
        split = None
    else:
        split = (user.lower(), dlow)
    return (
        rd, lower, receiver.split("@", 1)[0].lower(), split,
        lower.rsplit("@", 1)[-1] in providers, rd in providers,
    )


class TableSuite:
    """One-pass mergeable twin of the batch analysis suite."""

    def __init__(
        self,
        clock: SimClock | None = None,
        providers: tuple[str, ...] = PROBED_PROVIDERS,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.providers = tuple(providers)
        self.n_records = 0
        self._labeler = RuleLabeler()
        #: UTC epoch day -> ``clock.month_key`` of that day.
        self._months: dict[int, str] = {}
        #: Fold memos (see :meth:`observe_many`), each capped at
        #: ``_MEMO_CAP`` entries: reply text -> is_success, sender ->
        #: sender domain, receiver -> :func:`_receiver_facts`.
        self._reply_ok: dict[str, bool] = {}
        self._sender_domains: dict[str, str] = {}
        self._receivers: dict[str, tuple] = {}
        self._acc = {
            # overview / Fig 5
            "totals": LabeledCounter(),
            "soft_attempts": ScalarStat(),
            "recovery_hours": ScalarStat(),
            "recovery_sketch": recovery_sketch(),
            "types": LabeledCounter(),
            "day_degree": LabeledCounter(),
            "monthly": LabeledCounter(),
            # rankings (Tables 3-5)
            "rd_volume": LabeledCounter(),
            "rd_hard": LabeledCounter(),
            "rd_soft": LabeledCounter(),
            "rd_type": LabeledCounter(),
            "ip_volume": LabeledCounter(),
            "ip_hard": LabeledCounter(),
            "ip_soft": LabeledCounter(),
            "ip_type": LabeledCounter(),
            "sd_volume": LabeledCounter(),
            "sd_hard": LabeledCounter(),
            "sd_soft": LabeledCounter(),
            # blocklist / greylist / filters (Fig 6)
            "t5_day": LabeledCounter(),
            "t5_first_seen": KeyedMin(),
            "t6_domains": DistinctSet(),
            "greylist_delay_s": ScalarStat(),
            "greylist_sketch": greylist_sketch(),
            # misconfiguration episodes (Fig 7; the paper's gap defaults)
            "auth_eps": KeyedEpisodes(gap=10.0 * DAY_SECONDS),
            "mx_eps": KeyedEpisodes(gap=4.0 * DAY_SECONDS),
            "quota_eps": KeyedEpisodes(gap=40.0 * DAY_SECONDS),
            "last_success": KeyedMax(),
            # root-cause decision tuples (Table 2)
            "t8_dec": LabeledCounter(),
            "t13_dec": LabeledCounter(),
            "t2_dec": LabeledCounter(),
            # guessing / bulk-spam detector inputs
            "pair_traffic": LabeledCounter(),
            "pair_delivered_n": LabeledCounter(),
            "pair_t8_users": KeyedDistinct(),
            "pair_hit_users": KeyedDistinct(),
            "spam_recipients": KeyedDistinct(),
            # typo detector inputs
            "t8_addr_senders": KeyedDistinct(),
            "t8_addr_counts": LabeledCounter(),
            "deliv_user_sets": KeyedDistinct(),
            "rd_senders": KeyedDistinct(),
            "t2_senders": KeyedDistinct(),
            "delivered_domains": DistinctSet(),
            "delivered_addrs": DistinctSet(),
            # squatting (Fig 9)
            "prov_t8_counts": LabeledCounter(),
            "prov_t8_senders": KeyedDistinct(),
            "week_dom_n": LabeledCounter(),
            "week_dom_senders": KeyedDistinct(),
            "week_addr_n": LabeledCounter(),
            "week_addr_senders": KeyedDistinct(),
        }
        self._bind()

    # -- ingestion -------------------------------------------------------------

    def _bind(self) -> None:
        """Point the fold at the live maps of its hot accumulators.

        Called whenever ``_acc`` gets new accumulator objects (here and in
        :meth:`from_snapshot`); ``merge`` updates these maps in place.
        """
        a = self._acc
        self._record_maps = tuple(live_map(a[name]) for name in _RECORD_MAPS)
        self._outline_maps = tuple(live_map(a[name]) for name in _OUTLINE_MAPS)

    def _month_key(self, t: float) -> str:
        """``clock.month_key(t)``, memoised per UTC epoch day (a day never
        spans two months)."""
        day = int(t // DAY_SECONDS)
        if t - day * DAY_SECONDS > _LAST_INSTANT:
            # month_key rounds to whole microseconds, which can carry the
            # last instant of a day into the next one.
            return self.clock.month_key(t)
        month = self._months.get(day)
        if month is None:
            month = self._months[day] = self.clock.month_key(day * DAY_SECONDS)
        return month

    def _sender_domain(self, sender: str) -> str:
        sd = self._sender_domains.get(sender)
        if sd is None:
            sd = _remember(self._sender_domains, sender, sender.rsplit("@", 1)[-1])
        return sd

    def _receiver(self, receiver: str) -> tuple:
        facts = self._receivers.get(receiver)
        if facts is None:
            facts = _remember(
                self._receivers, receiver, _receiver_facts(receiver, self.providers)
            )
        return facts

    def observe(self, record) -> None:
        """Fold one delivery record into every accumulator."""
        self.observe_many((record,))

    def observe_many(self, records) -> int:
        """Fold delivery records into every accumulator; returns how many.

        The fold writes the hot counters, sets and maxima as their
        ``observe`` methods would, without a method call per observation.
        A record's writes that need its times or its failure text are made
        record by record. The others depend only on its *outline* —
        sender, receiver, bounce degree, first receiving IP, flag and
        bounce types — so the fold counts outlines and writes each
        distinct one once, with its count (:meth:`_fold_outlines`), when
        the batch ends or ``_OUTLINE_CAP`` outlines have piled up. Either
        way every accumulator first sees its keys in the order the records
        bring them, so the state is the one per-record observation gives.

        What depends on one field alone is worked out once per distinct
        value and memoised on the suite: per reply text whether it is a
        success, per sender its domain, per receiver
        :func:`_receiver_facts`. A record is read in full, its outline
        hashed included, before its first write, and its only writes that
        can raise (the delay statistics, on a non-finite time) come first,
        so a record that raises leaves the suite as the records before it
        left it.
        """
        (day_degree, monthly, week_dom_n, week_dom_senders, week_addr_n,
         week_addr_senders, last_success) = self._record_maps
        a = self._acc
        reply_ok = self._reply_ok
        sender_domains = self._sender_domains
        receivers = self._receivers
        classify = self._labeler.classify
        months = self._months
        start_ts = self.clock.start_ts
        n_days = self.clock.n_days
        T6 = BounceType.T6
        T8 = BounceType.T8
        outlines: dict[tuple, int] = {}
        n = 0
        try:
            for record in records:
                # -- read
                attempts = record.attempts
                if not attempts:
                    raise ValueError("record has no attempts")
                ok = []
                for att in attempts:
                    good = reply_ok.get(att.result)
                    if good is None:
                        good = _remember(reply_ok, att.result, is_success(att.result))
                    ok.append(good)
                delivered = True in ok
                deg = "non" if ok[0] else "soft" if delivered else "hard"
                t0 = record.start_time
                sender = record.sender
                sd = sender_domains.get(sender)
                if sd is None:
                    sd = self._sender_domain(sender)
                receiver = record.receiver
                facts = receivers.get(receiver)
                if facts is None:
                    facts = self._receiver(receiver)
                rd = facts[0]
                # clock.day_index, clock.week_index and _month_key's memo
                day = int((t0 - start_ts) // DAY_SECONDS)
                week = int((t0 - start_ts) // WEEK_SECONDS)
                epoch_day = int(t0 // DAY_SECONDS)
                month = months.get(epoch_day)
                if month is None or t0 - epoch_day * DAY_SECONDS > _LAST_INSTANT:
                    month = self._month_key(t0)
                ip = None
                for att in attempts:
                    if att.to_ip:
                        ip = att.to_ip
                        break
                bounced = False in ok
                btype = failure = None
                if bounced:
                    failure = attempts[ok.index(False)]
                    btype = classify(failure.result)
                final_t8 = not delivered and classify(attempts[-1].result) is T8
                if deg == "soft" or (delivered and btype is T6):
                    delay = attempts[ok.index(True)].t - t0
                if delivered:
                    # KeyedMax.observe over the successes, into a local
                    latest = last_success.get(rd)
                    for att, good in zip(attempts, ok):
                        if good and (latest is None or att.t > latest):
                            latest = att.t
                outline = (sender, sd, receiver, deg, ip, record.email_flag,
                           bounced, btype, final_t8)
                count = outlines.get(outline, 0)

                # -- write
                if deg == "soft":
                    a["recovery_hours"].observe(delay / 3600.0)
                    a["recovery_sketch"].observe(delay / 3600.0)
                    a["soft_attempts"].observe(len(attempts))
                if delivered and btype is T6:
                    a["greylist_delay_s"].observe(delay)
                    a["greylist_sketch"].observe(delay)
                in_days = 0 <= day < n_days
                if in_days:
                    key = f"{day}{SEP}{deg}"
                    day_degree[key] = day_degree.get(key, 0) + 1
                monthly[month] = monthly.get(month, 0) + 1
                # Fig 9 weekly series keys are deliberately NOT range-guarded
                # — the batch persistence estimator isn't either; the guard is
                # applied when rendering the series.
                key = f"{rd}{SEP}{week}"
                week_dom_n[key] = week_dom_n.get(key, 0) + 1
                week_dom_senders.setdefault(key, set()).add(sender)
                if facts[4]:
                    key = f"{facts[1]}{SEP}{week}"
                    n_key = f"{key}{SEP}{rd}"
                    week_addr_n[n_key] = week_addr_n.get(n_key, 0) + 1
                    week_addr_senders.setdefault(key, set()).add(sender)
                if delivered:
                    last_success[rd] = latest
                if btype is not None:
                    self._observe_type(
                        btype, record, failure.result, sd, facts,
                        day if in_days else None,
                    )
                outlines[outline] = count + 1
                n += 1
                if len(outlines) >= _OUTLINE_CAP:
                    self._fold_outlines(outlines)
                    outlines.clear()
        finally:
            self._fold_outlines(outlines)
            self.n_records += n
        return n

    def _fold_outlines(self, outlines: dict[tuple, int]) -> None:
        """Write each outline of :meth:`observe_many` as many times as it
        was counted, in the order the records first brought them."""
        (totals, rd_volume, rd_hard, rd_soft, sd_volume, sd_hard, sd_soft,
         ip_volume, ip_hard, ip_soft, pair_traffic, pair_delivered_n,
         types, rd_type, ip_type, delivered_domains, delivered_addrs,
         spam_recipients, rd_senders, pair_hit_users, deliv_user_sets,
         pair_t8_users) = self._outline_maps
        for (sender, sd, receiver, deg, ip, flag, bounced, btype, final_t8), n in (
            outlines.items()
        ):
            rd, recv_lower, user_lower, split, _, _ = self._receiver(receiver)
            delivered = deg != "hard"
            totals["emails"] = totals.get("emails", 0) + n
            totals[deg] = totals.get(deg, 0) + n
            if flag == "Spam":
                totals["flag_spam"] = totals.get("flag_spam", 0) + n
                if delivered:
                    totals["flag_spam_delivered"] = totals.get("flag_spam_delivered", 0) + n
            rd_volume[rd] = rd_volume.get(rd, 0) + n
            sd_volume[sd] = sd_volume.get(sd, 0) + n
            if deg == "hard":
                rd_hard[rd] = rd_hard.get(rd, 0) + n
                sd_hard[sd] = sd_hard.get(sd, 0) + n
            elif deg == "soft":
                rd_soft[rd] = rd_soft.get(rd, 0) + n
                sd_soft[sd] = sd_soft.get(sd, 0) + n
            if ip is not None:
                ip_volume[ip] = ip_volume.get(ip, 0) + n
                if deg == "hard":
                    ip_hard[ip] = ip_hard.get(ip, 0) + n
                elif deg == "soft":
                    ip_soft[ip] = ip_soft.get(ip, 0) + n

            pair = f"{sd}{SEP}{rd}"
            pair_traffic[pair] = pair_traffic.get(pair, 0) + n
            spam_recipients.setdefault(sd, set()).add(recv_lower)
            rd_senders.setdefault(rd, set()).add(sender)
            if delivered:
                pair_delivered_n[pair] = pair_delivered_n.get(pair, 0) + n
                pair_hit_users.setdefault(pair, set()).add(user_lower)
                delivered_domains.add(rd)
                delivered_addrs.add(recv_lower)
                if split is not None:
                    user, dlow = split
                    deliv_user_sets.setdefault(f"{sender}{SEP}{dlow}", set()).add(user)
            elif final_t8:
                pair_t8_users.setdefault(pair, set()).add(user_lower)

            if not bounced:
                continue
            totals["bounced"] = totals.get("bounced", 0) + n
            if btype is None:
                totals["ambiguous"] = totals.get("ambiguous", 0) + n
                continue
            t = btype.value
            types[t] = types.get(t, 0) + n
            if deg != "non":
                key = f"{rd}{SEP}{t}"
                rd_type[key] = rd_type.get(key, 0) + n
                if ip is not None:
                    key = f"{ip}{SEP}{t}"
                    ip_type[key] = ip_type.get(key, 0) + n
            if btype is BounceType.T5:
                totals["t5"] = totals.get("t5", 0) + n
                if delivered:
                    totals["t5_recovered"] = totals.get("t5_recovered", 0) + n
            elif btype is BounceType.T13 and flag == "Normal":
                totals["t13_normal"] = totals.get("t13_normal", 0) + n

    def _observe_type(self, btype, record, text, sd, facts, day) -> None:
        """A bounced record's writes that depend on its bounce type and
        need more than its outline: ``text`` is its first failure, ``day``
        its clock day, or None outside the clock window."""
        a = self._acc
        rd, recv_lower, _, _, _, rd_probed = facts
        t0 = record.start_time
        sender = record.sender
        if btype is BounceType.T5:
            if day is not None:
                flag = "s" if record.email_flag == "Spam" else "n"
                a["t5_day"].observe(f"{day}{SEP}{flag}")
            a["t5_first_seen"].observe(rd, t0)
        elif btype is BounceType.T6:
            a["t6_domains"].observe(rd)
        elif btype is BounceType.T13:
            a["t13_dec"].observe(sd)
        elif btype is BounceType.T2:
            a["t2_dec"].observe(rd)
            a["t2_senders"].observe(rd, sender)
            a["mx_eps"].observe(rd, t0)
        elif btype is BounceType.T3:
            a["auth_eps"].observe(sd, t0)
        elif btype is BounceType.T9:
            a["quota_eps"].observe(recv_lower, t0)
        elif btype is BounceType.T8:
            text = text.lower()
            inactive = "inactive" in text or "disabled" in text
            a["t8_dec"].observe(
                f"{sd}{SEP}{rd}{SEP}{recv_lower}{SEP}{1 if inactive else 0}"
            )
            if not inactive:
                a["t8_addr_senders"].observe(recv_lower, sender)
                a["t8_addr_counts"].observe(recv_lower)
            if rd_probed:
                a["prov_t8_counts"].observe(recv_lower)
                a["prov_t8_senders"].observe(recv_lower, sender)

    @classmethod
    def from_records(cls, records, clock: SimClock | None = None) -> "TableSuite":
        suite = cls(clock)
        suite.observe_many(records)
        return suite

    # -- algebra ---------------------------------------------------------------

    def merge(self, other: "TableSuite") -> "TableSuite":
        if not isinstance(other, TableSuite):
            raise SnapshotError(f"cannot merge {type(other).__name__} into TableSuite")
        if (
            other.clock.start_ts != self.clock.start_ts
            or other.clock.end_ts != self.clock.end_ts
            or other.providers != self.providers
        ):
            raise SnapshotError("table suites disagree on clock window or providers")
        self.n_records += other.n_records
        for name, acc in self._acc.items():
            acc.merge(other._acc[name])
        return self

    def snapshot(self) -> dict:
        return {
            "kind": "table_suite",
            "v": SUITE_SNAPSHOT_VERSION,
            "clock": [self.clock.start_ts, self.clock.end_ts],
            "providers": list(self.providers),
            "n_records": self.n_records,
            "acc": {name: acc.snapshot() for name, acc in self._acc.items()},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "TableSuite":
        if not isinstance(snapshot, dict) or snapshot.get("kind") != "table_suite":
            raise SnapshotError("not a table_suite snapshot")
        version = snapshot.get("v")
        if not isinstance(version, int) or not 1 <= version <= SUITE_SNAPSHOT_VERSION:
            raise SnapshotError(
                f"table_suite: cannot restore snapshot version {version!r} "
                f"(this build reads versions 1..{SUITE_SNAPSHOT_VERSION})"
            )
        start_ts, end_ts = snapshot["clock"]
        clock = clock_from_ts(start_ts, end_ts)
        suite = cls(clock, providers=tuple(snapshot["providers"]))
        suite.n_records = int(snapshot["n_records"])
        saved = snapshot["acc"]
        # Entries this build no longer keeps (the ``top_senders`` /
        # ``top_receivers`` TopK summaries of older v1 snapshots) are
        # ignored.
        for name in suite._acc:
            if name not in saved:
                raise SnapshotError(f"table_suite snapshot missing accumulator {name!r}")
            suite._acc[name] = restore(saved[name])
        suite._bind()
        return suite

    def merge_snapshot(self, snapshot: dict) -> "TableSuite":
        return self.merge(TableSuite.from_snapshot(snapshot))

    # -- internal views --------------------------------------------------------

    def _split2(self, name: str) -> dict[str, dict[str, int]]:
        """A two-level view of a SEP-compound counter."""
        out: dict[str, dict[str, int]] = {}
        for key, n in self._acc[name].items():
            left, right = key.rsplit(SEP, 1)
            out.setdefault(left, {})[right] = n
        return out

    def _day_series(self, name: str, labels: tuple[str, ...]) -> dict[str, list[int]]:
        n_days = self.clock.n_days
        series = {label: [0] * n_days for label in labels}
        for key, n in self._acc[name].items():
            day, label = key.split(SEP)
            series[label][int(day)] = n
        return series

    # -- rankings (Tables 3-5) -------------------------------------------------

    def _rate_rows(self, volume, hard, soft, type_counts) -> list[BounceRateRow]:
        rows = []
        for key, n in volume.items():
            tc = type_counts.get(key)
            major = None
            share = 0.0
            if tc:
                major_value, count = min(tc.items(), key=lambda kv: (-kv[1], kv[0]))
                major = BounceType(major_value)
                share = count / sum(tc.values())
            rows.append(
                BounceRateRow(
                    key=key,
                    email_volume=n,
                    hard_fraction=hard.get(key, 0) / n,
                    soft_fraction=soft.get(key, 0) / n,
                    major_type=major,
                    major_type_share=share,
                )
            )
        rows.sort(key=lambda r: (-r.email_volume, r.key))
        return rows

    def table3(self, top: int = 10) -> list[BounceRateRow]:
        """Streaming twin of :func:`repro.analysis.rankings.table3_top_domains`."""
        a = self._acc
        rows = self._rate_rows(
            dict(a["rd_volume"].items()), a["rd_hard"], a["rd_soft"], self._split2("rd_type")
        )
        return rows[:top]

    def _rows_by_ip_group(self, key_of) -> list[BounceRateRow]:
        a = self._acc
        volume: dict[str, int] = {}
        hard: dict[str, int] = {}
        soft: dict[str, int] = {}
        types: dict[str, dict[str, int]] = {}
        ip_types = self._split2("ip_type")
        for ip, n in a["ip_volume"].items():
            group = key_of(ip)
            if group is None:
                continue
            volume[group] = volume.get(group, 0) + n
            hard[group] = hard.get(group, 0) + a["ip_hard"].get(ip)
            soft[group] = soft.get(group, 0) + a["ip_soft"].get(ip)
            for t, c in ip_types.get(ip, {}).items():
                bucket = types.setdefault(group, {})
                bucket[t] = bucket.get(t, 0) + c
        return self._rate_rows(volume, hard, soft, types)

    def table4(self, geo, top: int = 10) -> list[BounceRateRow]:
        """Streaming twin of :func:`repro.analysis.rankings.table4_top_ases`."""

        def as_of(ip: str) -> str | None:
            try:
                return geo.asn(ip).label
            except KeyError:
                return None

        return self._rows_by_ip_group(as_of)[:top]

    def table5(self, geo, min_emails: int = 50) -> list[CountryRow]:
        """Streaming twin of :func:`repro.analysis.rankings.table5_countries`."""

        def country_of(ip: str) -> str | None:
            try:
                return geo.country(ip)
            except KeyError:
                return None

        rows = self._rows_by_ip_group(country_of)
        return [
            CountryRow(
                country=r.key,
                email_volume=r.email_volume,
                hard_fraction=r.hard_fraction,
                soft_fraction=r.soft_fraction,
                major_type=r.major_type,
                major_type_share=r.major_type_share,
            )
            for r in rows
            if r.email_volume >= min_emails
        ]

    # -- detectors (Section 4.2.1 / 4.3.2) ------------------------------------

    def guessing_campaigns(
        self,
        min_distinct_nonexistent: int = 15,
        min_target_share: float = 0.6,
    ) -> list[GuessingCampaign]:
        """Streaming twin of :func:`repro.analysis.malicious.detect_guessing_campaigns`."""
        a = self._acc
        per_sender: dict[str, dict[str, set[str]]] = {}
        for pair, users in a["pair_t8_users"].items():
            sd, rd = pair.split(SEP)
            per_sender.setdefault(sd, {})[rd] = users
        campaigns: list[GuessingCampaign] = []
        for sender_domain, per_target in sorted(per_sender.items()):
            total = a["sd_volume"].get(sender_domain)
            for target, users in sorted(per_target.items()):
                if len(users) < min_distinct_nonexistent:
                    continue
                pair = f"{sender_domain}{SEP}{target}"
                if a["pair_traffic"].get(pair) / total < min_target_share:
                    continue
                campaign = GuessingCampaign(
                    sender_domain=sender_domain, target_domain=target
                )
                campaign.candidates |= users
                n_emails = a["pair_traffic"].get(pair)
                n_delivered = a["pair_delivered_n"].get(pair)
                hits = a["pair_hit_users"].get(pair)
                campaign.hits |= hits
                campaign.candidates |= hits
                campaign.n_emails = n_emails
                campaign.n_bounced = n_emails - n_delivered
                campaign.n_delivered_to_hits = n_delivered
                campaigns.append(campaign)
        return campaigns

    def bulk_spammers(
        self,
        breach,
        pwned_threshold: float = 0.8,
        min_recipients: int = 30,
        dnsbl=None,
        probe_time: float | None = None,
    ) -> list[BulkSpamReport]:
        """Streaming twin of :func:`repro.analysis.malicious.detect_bulk_spammers`."""
        a = self._acc
        reports: list[BulkSpamReport] = []
        for sender_domain, addresses in sorted(a["spam_recipients"].items()):
            if len(addresses) < min_recipients:
                continue
            fraction = breach.pwned_fraction(sorted(addresses))
            if fraction <= pwned_threshold:
                continue
            flagged = False
            if dnsbl is not None and probe_time is not None:
                flagged = dnsbl.is_domain_listed(sender_domain, probe_time)
            reports.append(
                BulkSpamReport(
                    sender_domain=sender_domain,
                    n_recipients=len(addresses),
                    pwned_fraction=fraction,
                    n_emails=a["sd_volume"].get(sender_domain),
                    n_hard=a["sd_hard"].get(sender_domain),
                    n_soft=a["sd_soft"].get(sender_domain),
                    spamhaus_flagged=flagged,
                )
            )
        reports.sort(key=lambda r: (-r.n_emails, r.sender_domain))
        return reports

    def _never_resolved(self) -> dict[str, int]:
        delivered = self._acc["delivered_domains"]
        return {
            rd: n for rd, n in self._acc["t2_dec"].items() if rd not in delivered
        }

    def domain_typos(
        self, resolver, probe_time: float, top_k: int = 100
    ) -> list[DomainTypoFinding]:
        """Streaming twin of :func:`repro.analysis.typos.detect_domain_typos`."""
        a = self._acc
        candidates: dict[str, tuple[str, object]] = {}
        for original, _ in a["rd_volume"].top(top_k):
            for cand in domain_typos(original):
                candidates.setdefault(cand.text, (original, cand.kind))
        findings: list[DomainTypoFinding] = []
        for domain, n_emails in sorted(self._never_resolved().items()):
            result = resolver.query(domain, RecordType.A, probe_time)
            if result.status is not ResolveStatus.NXDOMAIN:
                continue
            hit = candidates.get(domain)
            if hit is None:
                continue
            original, kind = hit
            findings.append(
                DomainTypoFinding(
                    typo_domain=domain,
                    original_domain=original,
                    kind=kind,
                    n_senders=a["rd_senders"].count(domain),
                    n_emails=n_emails,
                )
            )
        findings.sort(key=lambda f: (-f.n_emails, f.typo_domain))
        return findings

    def username_typos(
        self, similarity_threshold: float = 0.9
    ) -> list[UsernameTypoFinding]:
        """Streaming twin of :func:`repro.analysis.typos.detect_username_typos`."""
        a = self._acc
        findings: dict[str, UsernameTypoFinding] = {}
        for address, senders in a["t8_addr_senders"].items():
            try:
                bad_user, domain = split_address(address)
            except ValueError:
                continue
            for sender in sorted(senders):
                for candidate in sorted(
                    a["deliv_user_sets"].get(f"{sender}{SEP}{domain}")
                ):
                    if similarity_ratio(bad_user, candidate) <= similarity_threshold:
                        continue
                    kind = classify_typo(bad_user, candidate)
                    if kind is None:
                        continue
                    findings[address] = UsernameTypoFinding(
                        typo_address=address,
                        candidate_address=f"{candidate}@{domain}",
                        kind=kind,
                        n_senders=len(senders),
                        n_emails=a["t8_addr_counts"].get(address),
                    )
                    break
                if address in findings:
                    break
        out = list(findings.values())
        out.sort(key=lambda f: (-f.n_emails, f.typo_address))
        return out

    # -- root causes (Table 2) -------------------------------------------------

    def type_distribution(self) -> Counter:
        """Table 1 twin: counts per recovered type (Counter of BounceType)."""
        return Counter({BounceType(t): n for t, n in self._acc["types"].items()})

    def root_causes(self, breach, resolver, probe_time: float) -> RootCauseReport:
        """Streaming twin of :func:`repro.analysis.rootcause.attribute_root_causes`."""
        a = self._acc
        guess_keys = {
            (c.sender_domain, c.target_domain) for c in self.guessing_campaigns()
        }
        spam_senders = {r.sender_domain for r in self.bulk_spammers(breach)}
        typo_domain_names = {
            f.typo_domain for f in self.domain_typos(resolver, probe_time)
        }
        typo_addresses = {f.typo_address for f in self.username_typos()}

        counts: dict[str, int] = {}

        def bump(key: str, n: int) -> None:
            counts[key] = counts.get(key, 0) + n

        for compound, n in a["t8_dec"].items():
            sender_domain, receiver_domain, address, inactive = compound.split(SEP)
            if (sender_domain, receiver_domain) in guess_keys:
                bump("guess", n)
            elif sender_domain in spam_senders:
                bump("bulk_spam", n)
            elif address in typo_addresses:
                bump("username_typo", n)
            elif inactive == "1":
                bump("inactive", n)
            else:
                bump("unattributed_t8", n)
        for sender_domain, n in a["t13_dec"].items():
            bump("bulk_spam" if sender_domain in spam_senders else "spam_filter", n)
        for receiver_domain, n in a["t2_dec"].items():
            bump(
                "domain_typo" if receiver_domain in typo_domain_names else "mx_error",
                n,
            )
        types = a["types"]
        counts["blocklist"] = types.get("T5")
        counts["greylist"] = types.get("T6")
        counts["too_fast"] = types.get("T7")
        counts["too_much_email"] = types.get("T11")
        counts["auth_failure"] = types.get("T3")
        counts["starttls"] = types.get("T4")
        counts["mailbox_full"] = types.get("T9")
        counts["timeout"] = types.get("T14")

        c = counts.get
        rows = [
            RootCauseRow(RootCause.MALICIOUS_EMAIL_DELIVERY, "T8",
                         "Guess victim email addresses", c("guess", 0)),
            RootCauseRow(RootCause.MALICIOUS_EMAIL_DELIVERY, "T8/T13",
                         "Delivering large amounts of spam", c("bulk_spam", 0)),
            RootCauseRow(RootCause.SPAM_BLOCKING_POLICY, "T5",
                         "Sender MTA listed in blocklists", c("blocklist", 0)),
            RootCauseRow(RootCause.SPAM_BLOCKING_POLICY, "T6",
                         "Sender MTA blocked by greylisting", c("greylist", 0)),
            RootCauseRow(RootCause.SPAM_BLOCKING_POLICY, "T7",
                         "Sender MTA delivers too fast", c("too_fast", 0)),
            RootCauseRow(RootCause.SPAM_BLOCKING_POLICY, "T13",
                         "Email detected as spam", c("spam_filter", 0)),
            RootCauseRow(RootCause.SPAM_BLOCKING_POLICY, "T11",
                         "User gets too much email", c("too_much_email", 0)),
            RootCauseRow(RootCause.SERVER_MANAGER_MISCONFIGURATION, "T3",
                         "Sender authentication failure", c("auth_failure", 0)),
            RootCauseRow(RootCause.SERVER_MANAGER_MISCONFIGURATION, "T4",
                         "Server does not support STARTTLS", c("starttls", 0)),
            RootCauseRow(RootCause.SERVER_MANAGER_MISCONFIGURATION, "T2",
                         "Error MX record for receiver domain", c("mx_error", 0)),
            RootCauseRow(RootCause.IMPROPER_USER_OPERATION, "T2",
                         "Receiver domain name typo", c("domain_typo", 0)),
            RootCauseRow(RootCause.IMPROPER_USER_OPERATION, "T8",
                         "Receiver username typo", c("username_typo", 0)),
            RootCauseRow(RootCause.IMPROPER_USER_OPERATION, "T8",
                         "Receiver email address is inactive", c("inactive", 0)),
            RootCauseRow(RootCause.IMPROPER_USER_OPERATION, "T9",
                         "Receiver mailbox is full", c("mailbox_full", 0)),
            RootCauseRow(RootCause.POOR_EMAIL_INFRASTRUCTURE, "T14",
                         "SMTP session timeout", c("timeout", 0)),
        ]
        return RootCauseReport(
            n_classified=types.total,
            n_ambiguous=self._acc["totals"].get("ambiguous"),
            type_distribution=self.type_distribution(),
            rows=rows,
        )

    # -- misconfiguration durations (Fig 7) -----------------------------------

    def _duration_report(
        self, name: str, min_bounces: int, confirm_success: bool = False
    ) -> DurationReport:
        keyed = self._acc[name]
        clock = self.clock
        edge = 3 * DAY_SECONDS
        last_success = self._acc["last_success"]
        episodes: list[ErrorEpisode] = []
        for entity in keyed.entities():
            eps = keyed.episodes(entity)
            if sum(e[2] for e in eps) < min_bounces:
                continue
            for start, end, n in eps:
                if n < min_bounces:
                    continue
                censored = (
                    start - clock.start_ts < edge or clock.end_ts - end < edge
                )
                if confirm_success and not (
                    last_success.get(entity, float("-inf")) > end
                ):
                    censored = True
                episodes.append(
                    ErrorEpisode(
                        entity=entity, start=start, end=end,
                        n_bounces=n, censored=censored,
                    )
                )
        episodes.sort(key=lambda e: (e.entity, e.start, e.end))
        return DurationReport(episodes)

    def auth_durations(self, min_bounces: int = 2) -> DurationReport:
        """Twin of :func:`repro.analysis.misconfig.auth_error_durations` (gap 10 d)."""
        return self._duration_report("auth_eps", min_bounces)

    def mx_durations(self, min_bounces: int = 3) -> DurationReport:
        """Twin of :func:`repro.analysis.misconfig.mx_error_durations` (gap 4 d)."""
        return self._duration_report("mx_eps", min_bounces, confirm_success=True)

    def quota_durations(self, min_bounces: int = 2) -> DurationReport:
        """Twin of :func:`repro.analysis.misconfig.quota_error_durations` (gap 40 d)."""
        return self._duration_report("quota_eps", min_bounces)

    # -- blocklists and filters (Fig 6) ---------------------------------------

    def t5_daily_counts(self) -> tuple[list[int], list[int]]:
        """Twin of :func:`repro.analysis.blocklist.t5_daily_counts`."""
        series = self._day_series("t5_day", ("n", "s"))
        return series["n"], series["s"]

    def blocklist_recovery_rate(self) -> float:
        totals = self._acc["totals"]
        total = totals.get("t5")
        return totals.get("t5_recovered") / total if total else 0.0

    def greylisting_domains(self) -> set[str]:
        return self._acc["t6_domains"].as_set()

    def filter_divergence(self) -> FilterDivergence:
        totals = self._acc["totals"]
        return FilterDivergence(
            coremail_spam_receiver_accepts=totals.get("flag_spam_delivered"),
            coremail_spam_total=totals.get("flag_spam"),
            receiver_spam_coremail_normal=totals.get("t13_normal"),
            receiver_spam_total=self._acc["types"].get("T13"),
        )

    def dnsbl_adoption_counts(self) -> Counter:
        clock = self.clock
        return Counter(
            clock.month_key(t) for _, t in self._acc["t5_first_seen"].items()
        )

    # -- squatting (Section 5 / Fig 9) ----------------------------------------

    def squatting(self, world, probe_time: float | None = None) -> SquattingReport:
        """Streaming twin of :func:`repro.analysis.squatting.squatting_report`."""
        if probe_time is None:
            probe_time = world.clock.end_ts + 30 * 86_400
        return SquattingReport(
            domains=self._vulnerable_domains(world, probe_time),
            usernames=self._vulnerable_usernames(world, probe_time),
        )

    def _vulnerable_domains(self, world, probe_time: float) -> list[VulnerableDomain]:
        a = self._acc
        registrar = world.registrar
        received_ok = a["delivered_domains"]
        out: list[VulnerableDomain] = []
        recheck_time = probe_time + 120 * 86_400
        for domain, n_emails in sorted(a["t2_dec"].items()):
            if not registrar.available_for_registration(domain, probe_time):
                continue
            vd = VulnerableDomain(
                domain=domain,
                n_senders=a["t2_senders"].count(domain),
                n_emails=n_emails,
                historically_received=domain in received_ok,
            )
            whois_after = registrar.whois(domain, recheck_time)
            if whois_after.registered:
                vd.reregistered = True
                vd.registrant_changed = registrar.registrant_changed(
                    domain, world.clock.start_ts, recheck_time
                )
                vd.serves_mail = registrar.serves_mail(domain, recheck_time)
            out.append(vd)
        out.sort(key=lambda d: (-d.n_emails, d.domain))
        return out

    def _vulnerable_usernames(
        self, world, probe_time: float, min_incoming: int = 3
    ) -> list[VulnerableUsername]:
        a = self._acc
        delivered_ever = a["delivered_addrs"]
        out: list[VulnerableUsername] = []
        for address, count in sorted(a["prov_t8_counts"].items()):
            if count < min_incoming:
                continue
            username, provider = address.split("@", 1)
            rdomain = world.receiver_domains.get(provider)
            if rdomain is None:
                continue
            box = rdomain.mailbox(username)
            if box is not None:
                registrable = box.registrable_at(probe_time)
                websites = box.website_accounts if registrable else ()
                history = address in delivered_ever
            else:
                registrable = True
                websites = ()
                history = False
            if not registrable:
                continue
            out.append(
                VulnerableUsername(
                    address=address,
                    provider=provider,
                    n_senders=a["prov_t8_senders"].count(address),
                    n_emails=count,
                    historically_received=history,
                    website_accounts=websites,
                )
            )
        out.sort(key=lambda u: (-u.n_emails, u.address))
        return out

    def weekly_vulnerable(self, report: SquattingReport) -> WeeklySeries:
        """Streaming twin of :func:`repro.analysis.squatting.weekly_vulnerable_series`."""
        a = self._acc
        vulnerable_domains = {d.domain for d in report.domains}
        vulnerable_addresses = {u.address for u in report.usernames}
        n_weeks = self.clock.n_weeks
        senders_per_week: list[set[str]] = [set() for _ in range(n_weeks)]
        emails_per_week = [0] * n_weeks

        for key, n in a["week_dom_n"].items():
            domain, week = key.split(SEP)
            week = int(week)
            if domain in vulnerable_domains and 0 <= week < n_weeks:
                emails_per_week[week] += n
        # Records counted under a vulnerable *domain* above must not be
        # double-counted when their address is vulnerable too, hence the
        # receiver-domain component in the week_addr_n key.
        for key, n in a["week_addr_n"].items():
            address, week, receiver_domain = key.split(SEP)
            week = int(week)
            if (
                address in vulnerable_addresses
                and receiver_domain not in vulnerable_domains
                and 0 <= week < n_weeks
            ):
                emails_per_week[week] += n

        for key, senders in a["week_dom_senders"].items():
            domain, week = key.rsplit(SEP, 1)
            week = int(week)
            if domain in vulnerable_domains and 0 <= week < n_weeks:
                senders_per_week[week] |= senders
        for key, senders in a["week_addr_senders"].items():
            address, week = key.rsplit(SEP, 1)
            week = int(week)
            if address in vulnerable_addresses and 0 <= week < n_weeks:
                senders_per_week[week] |= senders

        return WeeklySeries(
            weeks=list(range(n_weeks)),
            senders=[len(s) for s in senders_per_week],
            emails=emails_per_week,
        )

    def persistently_vulnerable_fraction(
        self, names: set[str], min_weeks: int = 36, by_domain: bool = True
    ) -> float:
        """Twin of :func:`repro.analysis.squatting.persistently_vulnerable_fraction`."""
        if not names:
            return 0.0
        weeks_seen: dict[str, set[int]] = {}
        if by_domain:
            for key in self._acc["week_dom_n"].keys():
                domain, week = key.split(SEP)
                if domain in names:
                    weeks_seen.setdefault(domain, set()).add(int(week))
        else:
            for key in self._acc["week_addr_n"].keys():
                address, week, _rd = key.split(SEP)
                if address in names:
                    weeks_seen.setdefault(address, set()).add(int(week))
        return (
            sum(1 for n in names if len(weeks_seen.get(n, ())) >= min_weeks)
            / len(names)
        )

    # -- the records-only payload ---------------------------------------------

    def tables(self, top: int = 10) -> dict:
        """The full records-only table payload (JSON-ready).

        Every value is computed from accumulator state alone, and every
        float is invariant under stream partitioning — this is the
        payload `repro report` renders and byte-diffs against
        :func:`repro.analytics.batch.batch_tables`.
        """
        a = self._acc
        totals = a["totals"]
        n_emails = totals.get("emails")
        recovery = a["recovery_hours"]
        rec_sketch = a["recovery_sketch"]
        grey = a["greylist_delay_s"]
        grey_sketch = a["greylist_sketch"]
        daily = self._day_series("day_degree", ("non", "soft", "hard"))
        blocked_normal, blocked_spam = self.t5_daily_counts()
        divergence = self.filter_divergence()

        return {
            "version": SUITE_SNAPSHOT_VERSION,
            "n_records": self.n_records,
            "overview": {
                "n_emails": n_emails,
                "n_non": totals.get("non"),
                "n_soft": totals.get("soft"),
                "n_hard": totals.get("hard"),
                "mean_attempts_soft": a["soft_attempts"].mean,
                "recovery": {
                    "n": recovery.n,
                    "mean_h": recovery.mean,
                    "p50_h": rec_sketch.quantile(0.5),
                    "p90_h": rec_sketch.quantile(0.9),
                },
            },
            "types": {
                "rows": [[t, n] for t, n in a["types"].top()],
                "n_classified": a["types"].total,
                "n_ambiguous": totals.get("ambiguous"),
                "n_bounced": totals.get("bounced"),
            },
            "volume": {
                "monthly": [
                    [k, a["monthly"].get(k)] for k in self.clock.month_keys()
                ],
                "daily": daily,
            },
            "top_domains": [
                [
                    r.key,
                    r.email_volume,
                    r.hard_fraction,
                    r.soft_fraction,
                    r.major_type.value if r.major_type else "",
                    r.major_type_share,
                ]
                for r in self.table3(top)
            ],
            "blocklist": {
                "blocked_normal": sum(blocked_normal),
                "blocked_spam": sum(blocked_spam),
                "blocked_normal_per_day": blocked_normal,
                "blocked_spam_per_day": blocked_spam,
                "recovery_rate": self.blocklist_recovery_rate(),
                "n_greylist_domains": len(a["t6_domains"]),
                "greylist_delay": {
                    "n": grey.n,
                    "mean_s": grey.mean,
                    "p50_s": grey_sketch.quantile(0.5),
                    "p95_s": grey_sketch.quantile(0.95),
                },
                "divergence": {
                    "spam_total": divergence.coremail_spam_total,
                    "spam_accepted": divergence.coremail_spam_receiver_accepts,
                    "t13_total": divergence.receiver_spam_total,
                    "t13_normal": divergence.receiver_spam_coremail_normal,
                },
                "adoption": sorted(
                    [k, v] for k, v in self.dnsbl_adoption_counts().items()
                ),
            },
            "misconfig": {
                "auth": episode_stats(self.auth_durations().episodes),
                "mx": episode_stats(self.mx_durations().episodes),
                "quota": episode_stats(self.quota_durations().episodes),
            },
            "squatting_inputs": {
                "n_failed_domains": len(a["t2_dec"]),
                "n_failed_domain_emails": a["t2_dec"].total,
                "n_provider_t8_addresses": len(a["prov_t8_counts"]),
                "n_provider_t8_emails": a["prov_t8_counts"].total,
                "n_delivered_domains": len(a["delivered_domains"]),
                "n_delivered_addresses": len(a["delivered_addrs"]),
            },
        }

    def live_payload(self, top: int = 10) -> dict:
        """The serve-side live view: the table payload plus the heaviest
        sender and receiver domains as ``[key, count, error]`` rows.  The
        rows come from the exact volume counters, so ``error`` is 0."""
        payload = self.tables(top)
        payload["heavy_hitters"] = {
            side: {
                "exact": True,
                "top": [[key, n, 0] for key, n in self._acc[name].top(top)],
            }
            for side, name in (("senders", "sd_volume"), ("receivers", "rd_volume"))
        }
        return payload

    # -- sketch gauges for /metrics -------------------------------------------

    def sketch_gauges(self) -> dict[str, dict[str, float]]:
        """Quantile gauges for the Prometheus surface."""
        return {
            "repro_report_recovery_hours": self._acc["recovery_sketch"].quantiles(),
            "repro_report_greylist_delay_seconds": self._acc["greylist_sketch"].quantiles(),
        }
