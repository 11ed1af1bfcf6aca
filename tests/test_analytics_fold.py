"""The table suite's fold against a per-record reference fold.

:func:`reference_observe` is the suite's fold written the plain way: one
record at a time, one public accumulator ``observe`` call per
observation.  Every way of feeding a suite must leave the snapshot that
fold leaves, byte for byte — ``json.dumps`` without ``sort_keys``, so
dict insertion order counts — on the session dataset and on generated
records that reach the corners the fold's memos and its outline counting
must get right.
"""

import hashlib
import json
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SimulationConfig, run_simulation
from repro.analysis.label import RuleLabeler
from repro.analysis.squatting import PROBED_PROVIDERS
from repro.analytics import TableSuite
from repro.analytics import suite as suite_module
from repro.analytics.suite import SEP
from repro.core.taxonomy import BounceType
from repro.delivery.records import AttemptRecord, DeliveryRecord
from repro.smtp.ndr import is_success
from repro.smtp.templates import all_template_texts
from repro.util.clock import DAY_SECONDS, SimClock
from repro.util.text import split_address


def reference_observe(suite: TableSuite, record) -> None:
    """Fold one delivery record into every accumulator of ``suite``, one
    public ``observe`` call per observation: the per-record fold the
    suite's own fold must match byte for byte.

    Each attempt's outcome is parsed once, into ``ok``; the bounce
    degree, the delivered flag, the first success and the first
    failure all derive from that list.
    """
    attempts = record.attempts
    if not attempts:
        raise ValueError("record has no attempts")
    ok = [is_success(att.result) for att in attempts]
    delivered = True in ok
    deg = "non" if ok[0] else "soft" if delivered else "hard"
    a = suite._acc
    clock = suite.clock
    suite.n_records += 1

    totals = a["totals"]
    totals.observe("emails")
    totals.observe(deg)

    t0 = record.start_time
    day = clock.day_index(t0)
    in_days = 0 <= day < clock.n_days
    if in_days:
        a["day_degree"].observe(f"{day}{SEP}{deg}")
    a["monthly"].observe(suite._month_key(t0))

    sd = record.sender_domain
    rd = record.receiver_domain
    sender = record.sender
    receiver = record.receiver
    recv_lower = receiver.lower()

    a["rd_volume"].observe(rd)
    a["sd_volume"].observe(sd)
    if deg == "hard":
        a["rd_hard"].observe(rd)
        a["sd_hard"].observe(sd)
    elif deg == "soft":
        a["rd_soft"].observe(rd)
        a["sd_soft"].observe(sd)
    ip = next((att.to_ip for att in attempts if att.to_ip), None)
    if ip is not None:
        a["ip_volume"].observe(ip)
        if deg == "hard":
            a["ip_hard"].observe(ip)
        elif deg == "soft":
            a["ip_soft"].observe(ip)

    if deg == "soft":
        a["soft_attempts"].observe(len(attempts))
        delay_h = (attempts[ok.index(True)].t - t0) / 3600.0
        a["recovery_hours"].observe(delay_h)
        a["recovery_sketch"].observe(delay_h)

    if record.email_flag == "Spam":
        totals.observe("flag_spam")
        if delivered:
            totals.observe("flag_spam_delivered")

    pair = f"{sd}{SEP}{rd}"
    a["pair_traffic"].observe(pair)
    a["spam_recipients"].observe(sd, recv_lower)
    a["rd_senders"].observe(rd, sender)

    if delivered:
        a["pair_delivered_n"].observe(pair)
        a["pair_hit_users"].observe(pair, record.receiver_user.lower())
        a["delivered_domains"].observe(rd)
        a["delivered_addrs"].observe(recv_lower)
        try:
            user, dlow = split_address(receiver)
        except ValueError:
            pass
        else:
            a["deliv_user_sets"].observe(f"{sender}{SEP}{dlow}", user.lower())
        last_success = a["last_success"]
        for att, good in zip(attempts, ok):
            if good:
                last_success.observe(rd, att.t)
    else:
        final_type = suite._labeler.classify(attempts[-1].result)
        if final_type is BounceType.T8:
            a["pair_t8_users"].observe(pair, record.receiver_user.lower())

    # Fig 9 weekly series keys are deliberately NOT range-guarded —
    # the batch persistence estimator isn't either; the guard is
    # applied when rendering the series.
    week = clock.week_index(t0)
    a["week_dom_n"].observe(f"{rd}{SEP}{week}")
    a["week_dom_senders"].observe(f"{rd}{SEP}{week}", sender)
    addr_domain = recv_lower.rsplit("@", 1)[-1]
    if addr_domain in suite.providers:
        a["week_addr_n"].observe(f"{recv_lower}{SEP}{week}{SEP}{rd}")
        a["week_addr_senders"].observe(f"{recv_lower}{SEP}{week}", sender)

    if False not in ok:
        return
    failure = attempts[ok.index(False)]
    totals.observe("bounced")
    btype = suite._labeler.classify(failure.result)
    if btype is None:
        totals.observe("ambiguous")
        return
    t = btype.value
    a["types"].observe(t)
    if deg != "non":
        a["rd_type"].observe(f"{rd}{SEP}{t}")
        if ip is not None:
            a["ip_type"].observe(f"{ip}{SEP}{t}")

    if btype is BounceType.T5:
        totals.observe("t5")
        if delivered:
            totals.observe("t5_recovered")
        if in_days:
            flag = "s" if record.email_flag == "Spam" else "n"
            a["t5_day"].observe(f"{day}{SEP}{flag}")
        a["t5_first_seen"].observe(rd, t0)
    elif btype is BounceType.T6:
        a["t6_domains"].observe(rd)
        if delivered:
            delay = attempts[ok.index(True)].t - t0
            a["greylist_delay_s"].observe(delay)
            a["greylist_sketch"].observe(delay)
    elif btype is BounceType.T13:
        a["t13_dec"].observe(sd)
        if record.email_flag == "Normal":
            totals.observe("t13_normal")
    elif btype is BounceType.T2:
        a["t2_dec"].observe(rd)
        a["t2_senders"].observe(rd, sender)
        a["mx_eps"].observe(rd, t0)
    elif btype is BounceType.T3:
        a["auth_eps"].observe(sd, t0)
    elif btype is BounceType.T9:
        a["quota_eps"].observe(recv_lower, t0)
    elif btype is BounceType.T8:
        text = failure.result.lower()
        inactive = "inactive" in text or "disabled" in text
        a["t8_dec"].observe(
            f"{sd}{SEP}{rd}{SEP}{recv_lower}{SEP}{1 if inactive else 0}"
        )
        if not inactive:
            a["t8_addr_senders"].observe(recv_lower, sender)
            a["t8_addr_counts"].observe(recv_lower)
        if rd in suite.providers:
            a["prov_t8_counts"].observe(recv_lower)
            a["prov_t8_senders"].observe(recv_lower, sender)


def wire(suite: TableSuite) -> str:
    return json.dumps(suite.snapshot())


def digest(suite: TableSuite) -> str:
    """The sha256 of :func:`wire`: a failed comparison prints two short
    digests instead of diffing megabytes of JSON."""
    return hashlib.sha256(wire(suite).encode()).hexdigest()


def fed_every_way(records: list, clock: SimClock, seed: int) -> dict[str, str]:
    """The snapshot of ``records`` fed through the reference fold, one
    ``observe_many``, per-record ``observe``, and contiguous random chunks
    folded apart and merged by snapshot; and one more ``observe_many``
    that writes its outlines every 3 distinct ones."""
    oracle = TableSuite(clock)
    for record in records:
        reference_observe(oracle, record)
    many = TableSuite(clock)
    assert many.observe_many(records) == len(records)
    capped = TableSuite(clock)
    with mock.patch.object(suite_module, "_OUTLINE_CAP", 3):
        capped.observe_many(records)
    single = TableSuite(clock)
    for record in records:
        single.observe(record)
    rng = random.Random(seed)
    merged = TableSuite(clock)
    start = 0
    while start < len(records):
        end = start + rng.randint(1, max(1, len(records) // 3))
        part = TableSuite.from_records(records[start:end], clock)
        merged.merge_snapshot(json.loads(wire(part)))
        start = end
    return {
        "reference": digest(oracle), "observe_many": digest(many),
        "observe": digest(single), "merged chunks": digest(merged),
        "observe_many, outline cap 3": digest(capped),
    }


def assert_all_equal(ways: dict[str, str]) -> None:
    assert len(set(ways.values())) == 1, ways


def test_session_dataset_folds_identically(dataset, clock):
    assert_all_equal(fed_every_way(list(dataset), clock, seed=7))


# -- generated records -----------------------------------------------------------

CLOCK = SimClock()

SUCCESSES = ["250 OK", "250 2.0.0 Ok: queued as 4F2A1B9C", "  250-mx.example accepts"]
#: Every template text (all 16 types), ambiguous wordings, a reply with no
#: code, and T8 texts with and without "inactive"/"disabled".
FAILURES = sorted(set(all_template_texts())) + [
    "550 Access denied. AS(2201)",
    "554 5.7.1 Message rejected due to local policy",
    "550 5.7.1 Relay access denied",
    "Connection timed out",
    "550 5.2.1 The account bob is disabled",
    "550 5.1.1 Inactive user",
    "550 5.2.1 Account ALICE is INACTIVE",
    "550 5.1.1 User unknown",
]
SENDERS = [
    "alice@sender.example", "Alice@Sender.Example", "ops@other.example",
    "bare-sender", "a@b@sender.example",
]
#: Case variants, provider domains that differ from their lower-cased
#: form only by case, no "@", two "@"s, and whitespace in the user.
RECEIVERS = [
    "bob@gmail.com", "Bob@Gmail.com", "BOB@GMAIL.COM", "amy@Hotmail.com",
    "eve@outlook.com", "carl@receiver.example", "Carl@Receiver.Example",
    "nobody", "a@b@yahoo.com", "x@y@Receiver.Example", "dan smith@aol.com",
]
IPS = ["", "198.51.100.7", "203.0.113.9", "192.0.2.44"]


@st.composite
def delivery_records(draw) -> DeliveryRecord:
    span = CLOCK.n_days * DAY_SECONDS
    t0 = CLOCK.start_ts + draw(st.floats(
        min_value=-10 * DAY_SECONDS, max_value=span + 10 * DAY_SECONDS,
        allow_nan=False, allow_infinity=False,
    ))
    t = t0
    attempts = []
    for i in range(draw(st.integers(1, 5))):
        if i:
            t += draw(st.floats(min_value=0.0, max_value=3 * DAY_SECONDS,
                                allow_nan=False, allow_infinity=False))
        result = draw(st.one_of(st.sampled_from(SUCCESSES), st.sampled_from(FAILURES)))
        attempts.append(
            AttemptRecord(t, "192.0.2.1", draw(st.sampled_from(IPS)), result, 10)
        )
    return DeliveryRecord(
        sender=draw(st.sampled_from(SENDERS)),
        receiver=draw(st.sampled_from(RECEIVERS)),
        start_time=t0, end_time=t,
        email_flag=draw(st.sampled_from(["Normal", "Spam"])),
        attempts=attempts,
    )


def _splits(address: str) -> bool:
    try:
        split_address(address)
    except ValueError:
        return False
    return True


def test_generated_pools_reach_every_corner():
    labeler = RuleLabeler()
    assert all(is_success(t) for t in SUCCESSES)
    assert not any(is_success(t) for t in FAILURES)
    assert {labeler.classify(t) for t in FAILURES} == set(BounceType) | {None}
    t8 = [t.lower() for t in FAILURES if labeler.classify(t) is BounceType.T8]
    inactive = ["inactive" in t or "disabled" in t for t in t8]
    assert any(inactive) and not all(inactive)
    assert not all(map(_splits, RECEIVERS)) and any(map(_splits, RECEIVERS))
    assert any(r.count("@") == 0 for r in RECEIVERS)
    assert any(r.count("@") == 2 for r in RECEIVERS)
    case_only = [
        r for r in RECEIVERS
        if r.rsplit("@", 1)[-1] not in PROBED_PROVIDERS
        and r.lower().rsplit("@", 1)[-1] in PROBED_PROVIDERS
    ]
    assert case_only


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(delivery_records(), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
def test_generated_records_fold_identically(records, seed):
    assert_all_equal(fed_every_way(records, CLOCK, seed))


# -- errors and restores -------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_log():
    """The scale-0.03, seed-9 log: 6,811 records, most of them delivered."""
    sim = run_simulation(SimulationConfig(scale=0.03, seed=9))
    return list(sim.dataset), sim.world.clock


@pytest.mark.parametrize("where", ["11th", "last"])
def test_a_record_that_raises_leaves_the_records_before_it(mixed_log, where):
    records, clock = mixed_log
    bad = 10 if where == "11th" else len(records) - 1
    fed = records[:bad] + [replace(records[bad], attempts=[])] + records[bad + 1:]
    suite = TableSuite(clock)
    with pytest.raises(ValueError, match="no attempts"):
        suite.observe_many(fed)
    assert suite.n_records == bad
    assert digest(suite) == digest(TableSuite.from_records(records[:bad], clock))


def test_restored_half_fed_the_rest_equals_the_whole(mixed_log):
    """A restored suite folds into the accumulators it restored, not into
    the ones it was built with."""
    records, clock = mixed_log
    half = len(records) // 2
    first = TableSuite.from_records(records[:half], clock)
    restored = TableSuite.from_snapshot(json.loads(wire(first)))
    restored.observe_many(records[half:])
    assert digest(restored) == digest(TableSuite.from_records(records, clock))
