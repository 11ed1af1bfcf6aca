"""Differential tests for the fast-path caches (repro.core.fastpath).

Every cache in the fast path is semantics-preserving: with
``fastpath.enabled()`` on or off, every public function must return the
same values and consume its rng stream identically.  These tests pin
that contract against the session simulation's real NDR corpus and
against targeted DNS/auth scenarios, and cover the cache plumbing itself
(LRU eviction, hit/miss counters, zone invalidation tokens).
"""

from __future__ import annotations

import pytest

from repro.core import fastpath
from repro.core.drain import _MASKS, Drain, mask_message, mask_message_reference
from repro.core.ebrc import EBRC
from repro.core.features import TfidfVectorizer
from repro.core.tokenize import _HOST, normalize_ndr, normalize_ndr_reference
from repro.dnssim.records import DnsRecord, RecordType
from repro.dnssim.resolver import Resolver
from repro.dnssim.zone import Zone
from repro.util.clock import Window
from repro.util.rng import RandomSource
from repro.util.text import HOSTNAME_PATTERN


@pytest.fixture(autouse=True)
def _caches_on_after():
    """Each test may toggle the switch; always restore the default."""
    yield
    fastpath.enable()


@pytest.fixture(scope="module")
def ndr_corpus(dataset):
    corpus = dataset.ndr_messages()
    assert len(corpus) > 1000
    return corpus


# -- fused text normalisation (tentpole part 1) --------------------------------


class TestFusedMasking:
    def test_mask_message_matches_reference_on_corpus(self, ndr_corpus):
        fastpath.enable()
        for message in ndr_corpus:
            assert mask_message(message) == mask_message_reference(message)

    def test_normalize_ndr_matches_reference_on_corpus(self, ndr_corpus):
        fastpath.enable()
        for message in ndr_corpus:
            assert normalize_ndr(message) == normalize_ndr_reference(message)

    def test_disabled_dispatches_to_reference(self):
        probe = "552-5.2.3 Your message exceeded quota at mx1.example.com"
        fastpath.disable()
        assert mask_message(probe) == mask_message_reference(probe)
        assert normalize_ndr(probe) == normalize_ndr_reference(probe)

    def test_memo_returns_same_result_on_repeat(self):
        fastpath.enable()
        probe = "550 5.1.1 user unknown at host.example.org from 10.1.2.3"
        assert mask_message(probe) == mask_message(probe)
        assert normalize_ndr(probe) == normalize_ndr(probe)


# -- shared hostname pattern (satellite S2) ------------------------------------


class TestHostnameUnification:
    def test_drain_and_tokenizer_share_the_pattern(self):
        host_masks = [p.pattern for p, _ in _MASKS if p.pattern == HOSTNAME_PATTERN]
        assert host_masks, "drain _MASKS no longer uses the shared hostname pattern"
        assert _HOST.pattern == HOSTNAME_PATTERN

    def test_corpus_hostnames_masked_identically(self, ndr_corpus):
        # The regression this guards: drain and tokenize drifting apart on
        # what counts as a hostname.  Everything the tokenizer's _HOST sees
        # as a hostname in the real corpus, the drain masker must mask.
        fastpath.enable()
        hosts = set()
        for message in ndr_corpus[:300]:
            hosts.update(_HOST.findall(message.lower()))
        assert len(hosts) > 20
        for host in hosts:
            assert mask_message(host) == "<*>", host


# -- Drain early-exit scan -----------------------------------------------------


class TestDrainEarlyExit:
    def test_best_match_equals_reference(self, ndr_corpus):
        drain = Drain()
        drain.fit(ndr_corpus[:2000])
        for message in ndr_corpus[:1000]:
            tokens = mask_message(message).split()
            leaf = drain._route(tokens, create=False)
            if leaf is None:
                continue
            fast = drain._best_match(leaf, tokens)
            ref = drain._best_match_reference(leaf, tokens)
            if ref is None:
                assert fast is None
            else:
                assert fast is ref  # first-wins tie-break preserved

    def test_match_identical_on_and_off(self, ndr_corpus):
        fastpath.enable()
        drain = Drain()
        drain.fit(ndr_corpus[:2000])

        def match_ids():
            return [
                tpl.template_id if (tpl := drain.match(m)) is not None else None
                for m in ndr_corpus[:800]
            ]

        on = match_ids()
        fastpath.disable()
        off = match_ids()
        assert on == off


# -- batched TF-IDF ------------------------------------------------------------


class TestBatchedTfidf:
    @pytest.mark.parametrize("sublinear", [True, False])
    def test_transform_bitwise_identical(self, ndr_corpus, sublinear):
        vec = TfidfVectorizer(sublinear_tf=sublinear)
        vec.fit(ndr_corpus[:1500])
        probe = ndr_corpus[:400]
        fastpath.enable()
        x_on = vec.transform(probe)
        fastpath.disable()
        x_off = vec.transform(probe)
        assert x_on.dtype == x_off.dtype
        assert x_on.tobytes() == x_off.tobytes()


# -- EBRC template-label cache + LRU (tentpole part 2) -------------------------


class TestEBRCCaches:
    @pytest.fixture(scope="class")
    def ebrc(self, ndr_corpus):
        fastpath.enable()
        return EBRC().fit(ndr_corpus[:3000])

    def test_classify_identical_on_and_off(self, ebrc, ndr_corpus):
        probe = ndr_corpus[:1200]
        fastpath.enable()
        on = ebrc.classify_many(probe)
        on_again = ebrc.classify_many(probe)  # memo-hit pass
        fastpath.disable()
        off = ebrc.classify_many(probe)
        assert on == off == on_again

    def test_template_label_table_matches_classify(self, ebrc, ndr_corpus):
        fastpath.disable()
        for message in ndr_corpus[:400]:
            template = ebrc.drain.match(message)
            if template is None:
                continue
            assert ebrc.template_label(template.template_id) == ebrc.classify(message)

    def test_classify_memo_counts_hits(self, ebrc):
        fastpath.enable()
        probe = "550 5.1.1 mailbox does not exist"
        before = ebrc._classify_memo.stats.hits
        ebrc.classify(probe)
        ebrc.classify(probe)
        assert ebrc._classify_memo.stats.hits > before

    def test_save_load_round_trips_label_table(self, ebrc, ndr_corpus, tmp_path):
        path = tmp_path / "ebrc.json"
        ebrc.save(path)
        loaded = EBRC.load(path)
        assert loaded._template_labels == ebrc._template_labels
        probe = ndr_corpus[:600]
        assert loaded.classify_many(probe) == ebrc.classify_many(probe)

    def test_loaded_classifier_starts_warm(self, ebrc, ndr_corpus, tmp_path):
        """A loaded EBRC must hit its template-label table exactly like the
        freshly fitted one — same memo hit/miss counts over the same probe."""
        path = tmp_path / "ebrc.json"
        ebrc.save(path)
        loaded = EBRC.load(path)
        fastpath.enable()
        probe = ndr_corpus[:600]
        loaded.classify_many(probe)
        fit_memo = fastpath.LruMemo("probe-fit")
        assert loaded._classify_memo is not None
        # Replaying the probe is all hits: the first pass warmed the LRU.
        hits_before = loaded._classify_memo.stats.hits
        misses_before = loaded._classify_memo.stats.misses
        loaded.classify_many(probe)
        assert loaded._classify_memo.stats.misses == misses_before
        assert loaded._classify_memo.stats.hits >= hits_before + len(set(probe))
        del fit_memo


# -- LruMemo / CacheStats plumbing ---------------------------------------------


class TestLruMemo:
    def test_eviction_order_and_capacity(self):
        memo = fastpath.LruMemo("t", capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes "a"
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("b") is fastpath.MISSING
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        assert len(memo) == 2

    def test_counters(self):
        memo = fastpath.LruMemo("t2", capacity=4)
        assert memo.get("x") is fastpath.MISSING is not None
        memo.put("x", 42)
        memo.get("x")
        assert memo.stats.misses == 1
        assert memo.stats.hits == 1
        assert 0.0 < memo.stats.hit_rate < 1.0

    def test_lookup_computes_once(self):
        memo = fastpath.LruMemo("t3", capacity=4)
        calls = []

        def compute(key):
            calls.append(key)
            return "v"

        assert memo.lookup("k", compute) == "v"
        assert memo.lookup("k", compute) == "v"
        assert len(calls) == 1

    def test_reset_clears_registered_memos(self):
        memo = fastpath.register(fastpath.LruMemo("t4", capacity=4))
        memo.put("k", 1)
        fastpath.reset()
        assert memo.get("k") is fastpath.MISSING
        fastpath._REGISTRY.remove(memo)

    def test_reset_empties_the_window_edge_cache(self):
        """Each run's window lists stay in the edge cache until a reset;
        two runs with a reset between them leave no more than one."""
        from repro import SimulationConfig
        from repro.stream.runner import stream_simulation

        def run() -> int:
            for _ in stream_simulation(SimulationConfig(scale=0.02, seed=3)).records:
                pass
            return len(fastpath._EDGE_CACHE)

        fastpath.reset()
        one = run()
        assert one > 0
        fastpath.reset()
        assert run() <= one

    def test_enable_disable_roundtrip(self):
        assert fastpath.enabled()
        fastpath.disable()
        assert not fastpath.enabled()
        fastpath.enable()
        assert fastpath.enabled()


# -- DNS interval cache + auth cache (tentpole part 4) -------------------------


def _make_resolver() -> tuple[Resolver, Zone]:
    resolver = Resolver(transient_failure_rate=0.05)
    zone = Zone(
        domain="example.com",
        records=[
            DnsRecord("example.com", RecordType.MX, "mx2.example.com", priority=20),
            DnsRecord("example.com", RecordType.MX, "mx1.example.com", priority=10),
            DnsRecord("example.com", RecordType.TXT_SPF, "v=spf1 ip4:10.0.0.0/8 -all"),
        ],
        registrations=[Window(0.0, 1e9)],
        mx_error_windows=[Window(5_000.0, 6_000.0)],
    )
    resolver.register_zone(zone)
    return resolver, zone


class TestDnsIntervalCache:
    def test_query_stream_identical_on_and_off(self):
        times = [100.0, 5_500.0, 5_999.0, 6_000.0, 7_000.0, 100.0]
        fastpath.enable()
        r_on, _ = _make_resolver()
        rng_on = RandomSource(99, "dns")
        on = [
            (res.status, res.records)
            for t in times
            for res in [r_on.query("example.com", RecordType.MX, t, rng_on)]
        ]
        fastpath.disable()
        r_off, _ = _make_resolver()
        rng_off = RandomSource(99, "dns")
        off = [
            (res.status, res.records)
            for t in times
            for res in [r_off.query("example.com", RecordType.MX, t, rng_off)]
        ]
        assert on == off
        # identical rng consumption, too
        assert rng_on.random() == rng_off.random()

    def test_resolve_mx_host_identical_on_and_off(self):
        times = [100.0, 200.0, 5_500.0, 6_100.0, 100.0]
        fastpath.enable()
        r_on, _ = _make_resolver()
        rng_on = RandomSource(7, "mx")
        on = [r_on.resolve_mx_host("example.com", t, rng_on) for t in times]
        fastpath.disable()
        r_off, _ = _make_resolver()
        rng_off = RandomSource(7, "mx")
        off = [r_off.resolve_mx_host("example.com", t, rng_off) for t in times]
        assert on == off
        assert rng_on.random() == rng_off.random()
        assert "mx1.example.com" in on  # preferred (lowest priority) MX

    def test_unknown_domain_cache_invalidated_by_registration(self):
        fastpath.enable()
        resolver = Resolver(transient_failure_rate=0.0)
        assert resolver.query("late.example", RecordType.MX, 10.0).status.value == "NXDOMAIN"
        zone = Zone(
            domain="late.example",
            records=[DnsRecord("late.example", RecordType.MX, "mx.late.example")],
            registrations=[Window(0.0, 1e9)],
        )
        resolver.register_zone(zone)
        assert resolver.query("late.example", RecordType.MX, 10.0).ok

    def test_zone_mutation_invalidates_cached_state(self):
        fastpath.enable()
        resolver, zone = _make_resolver()
        assert resolver.query("example.com", RecordType.MX, 100.0).ok
        zone.mx_disabled_from = 50.0  # assignment bumps the epoch
        assert not resolver.query("example.com", RecordType.MX, 100.0).ok

    def test_in_place_mutation_needs_invalidate(self):
        fastpath.enable()
        resolver, zone = _make_resolver()
        assert resolver.query("example.com", RecordType.MX, 100.0).ok
        # In-place window mutation is invisible to the epoch; the
        # documented contract is to call invalidate() afterwards.
        zone.mx_error_windows[0] = Window(0.0, 200.0)
        zone.invalidate()
        assert not resolver.query("example.com", RecordType.MX, 100.0).ok

    def test_zone_epoch_bumps_on_assignment(self):
        zone = Zone(domain="e.example")
        before = zone._epoch
        zone.mx_disabled_from = 1.0
        assert zone._epoch > before
        token = zone.state_token()
        zone.invalidate()
        assert zone.state_token() != token


class TestAuthEvalCache:
    def test_world_auth_identical_on_and_off(self, world):
        from repro.auth.evaluator import AuthEvaluator

        clock = world.clock
        zones = [z for z in world.resolver.all_zones() if z.registrations][:40]
        times = [clock.start_ts + f * (clock.end_ts - clock.start_ts)
                 for f in (0.1, 0.5, 0.9, 0.5, 0.1)]
        fastpath.enable()
        ev_on = AuthEvaluator(world.resolver)
        on = [
            ev_on.evaluate(z.domain, "10.0.0.1", t)
            for z in zones
            for t in times
        ]
        fastpath.disable()
        ev_off = AuthEvaluator(world.resolver)
        off = [
            ev_off.evaluate(z.domain, "10.0.0.1", t)
            for z in zones
            for t in times
        ]
        assert on == off
        fastpath.enable()
        assert ev_on._stats.hits > 0  # repeats actually hit the cache


class TestDnsblIntervalCache:
    def test_is_listed_identical_on_and_off(self, world):
        dnsbl = world.dnsbl
        clock = world.clock
        ips = world.fleet.ips[:10]
        times = [clock.start_ts + f * (clock.end_ts - clock.start_ts)
                 for f in (0.0, 0.25, 0.5, 0.75, 0.99, 0.5)]
        fastpath.enable()
        on = [dnsbl.is_listed(ip, t) for ip in ips for t in times]
        fastpath.disable()
        off = [dnsbl.is_listed(ip, t) for ip in ips for t in times]
        assert on == off
        assert any(on), "expected at least one listed (ip, t) in the probe"


# -- weighted-choice table reuse -----------------------------------------------


class TestWeightedChoiceCum:
    def test_identical_draw_stream(self):
        from itertools import accumulate

        items = ["a", "b", "c", "d"]
        weights = [0.1, 3.0, 0.5, 1.4]
        cum = list(accumulate(weights))
        total = cum[-1] + 0.0
        r1 = RandomSource(31337, "wc")
        r2 = RandomSource(31337, "wc")
        for _ in range(500):
            assert r1.weighted_choice(items, weights) == r2.weighted_choice_cum(
                items, cum, total
            )
        assert r1.random() == r2.random()

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            RandomSource(1, "wc").weighted_choice_cum(["a"], [0.0], 0.0)


# -- world-model caches --------------------------------------------------------


class TestWorldModelCaches:
    def test_recipient_status_identical_on_and_off(self, world, dataset):
        clock = world.clock
        receivers = [r.receiver for r in list(dataset)[:300]]
        times = [clock.start_ts + f * (clock.end_ts - clock.start_ts)
                 for f in (0.2, 0.8, 0.2)]
        fastpath.enable()
        on = [world.recipient_status(a, t) for a in receivers for t in times]
        fastpath.disable()
        off = [world.recipient_status(a, t) for a in receivers for t in times]
        assert on == off

    def test_sender_dns_broken_identical_on_and_off(self, world, dataset):
        clock = world.clock
        domains = list({r.sender.split("@", 1)[1] for r in list(dataset)[:300]})
        times = [clock.start_ts + f * (clock.end_ts - clock.start_ts)
                 for f in (0.3, 0.7, 0.3)]
        fastpath.enable()
        on = [world.sender_dns_broken(d, t) for d in domains for t in times]
        fastpath.disable()
        off = [world.sender_dns_broken(d, t) for d in domains for t in times]
        assert on == off
