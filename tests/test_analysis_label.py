"""Tests for the labeling layer (rule labeler + labeled dataset)."""

import json

from repro.analysis import label
from repro.analysis.label import RuleLabeler
from repro.analytics.suite import TableSuite
from repro.core.taxonomy import BounceType


class TestRuleLabeler:
    def test_cache_consistency(self):
        labeler = RuleLabeler()
        msg = "550 5.1.1 user a@b.c does not exist"
        assert labeler.classify(msg) is BounceType.T8
        assert labeler.classify(msg) is BounceType.T8

    def test_ambiguous_none(self):
        labeler = RuleLabeler()
        assert labeler.classify("454 Relay access denied Q1") is None

    def test_unknown_is_t16(self):
        labeler = RuleLabeler()
        assert labeler.classify("591 novel wording entirely") is BounceType.T16

    def test_cache_stays_under_its_cap_in_a_suite(self, dataset, clock, monkeypatch):
        """A suite's labeler forgets past the cap and its tables do not
        change: the cache is a memo, never a source of state."""
        records = list(dataset)
        uncapped = TableSuite(clock)
        uncapped.observe_many(records)
        assert len(uncapped._labeler._cache) > 100

        monkeypatch.setattr(label, "_CACHE_CAP", 37)
        sizes = []

        class Cache(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        capped = TableSuite(clock)
        capped._labeler._cache = Cache()
        for start in range(0, len(records), 1000):
            capped.observe_many(records[start:start + 1000])
        assert max(sizes) == 37
        assert sizes.count(1) > 1  # it started over
        assert json.dumps(capped.snapshot()) == json.dumps(uncapped.snapshot())


class TestLabeledDataset:
    def test_every_bounced_record_labeled(self, labeled):
        bounced = labeled.dataset.bounced()
        assert labeled.n_bounced() == len(bounced)

    def test_labels_match_ground_truth(self, labeled):
        """Rule labelling of unambiguous NDRs must agree with simulator
        ground truth almost always (the rules and the bank are independent
        codebases tied only by the English wording)."""
        agree = total = 0
        for i, t in labeled.record_types.items():
            record = labeled.dataset[i]
            failure = record.first_failure()
            if failure.ambiguous or t is None:
                continue
            total += 1
            agree += t.value == failure.truth_type
        assert total > 500
        assert agree / total > 0.97

    def test_ambiguous_records_excluded(self, labeled):
        assert labeled.n_ambiguous() > 0
        classified = sum(labeled.type_distribution().values())
        assert classified + labeled.n_ambiguous() == labeled.n_bounced()

    def test_distribution_keys_are_types(self, labeled):
        for key in labeled.type_distribution():
            assert isinstance(key, BounceType)

    def test_records_of_type(self, labeled):
        t5 = labeled.records_of_type(BounceType.T5)
        assert t5
        for record in t5[:50]:
            assert not record.attempts[0].succeeded

    def test_inactive_helper(self, labeled):
        hits = [
            r
            for r, t in labeled.classified_records()
            if t is BounceType.T8 and labeled.ndr_mentions_inactive(r)
        ]
        for record in hits[:10]:
            text = record.first_failure().result.lower()
            assert "inactive" in text or "disabled" in text
