"""Attaching bounce types to delivery records.

Two interchangeable labelers:

* :class:`EBRCLabeler` — the paper's pipeline: train an
  :class:`~repro.core.ebrc.EBRC` on the dataset's NDR corpus, classify by
  template lookup.  What the benches use.
* :class:`RuleLabeler` — the expert rule engine applied per message.
  Orders of magnitude faster; used by tests and as an ablation baseline.

:class:`LabeledDataset` caches one type per *record* (the type of its
first failed attempt — the paper's per-email bounce reason) and exposes
the groupings every downstream analysis needs.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Protocol

from repro.core.labeling import UNKNOWN_TYPE_PATTERNS, rule_verdict
from repro.core.taxonomy import BounceType
from repro.delivery.dataset import DeliveryDataset
from repro.delivery.records import DeliveryRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ebrc import EBRCConfig


class NDRLabeler(Protocol):
    """Anything that maps one NDR line to a type (None = ambiguous)."""

    def classify(self, message: str) -> BounceType | None: ...


#: Distinct messages a :class:`RuleLabeler` remembers before it starts
#: over: the cap of the table suite's fold memos, so a long-lived suite
#: (serve's ``/observe``, ``watch --report-every``) stays bounded.
_CACHE_CAP = 1 << 16


class RuleLabeler:
    """Per-message expert rules, with a memoisation cache.

    NDR corpora are template-dominated, so the cache hit rate is high and
    labelling a million messages stays cheap.  The cache empties when it
    holds ``_CACHE_CAP`` messages.
    """

    def __init__(self) -> None:
        self._cache: dict[str, BounceType | None] = {}

    def classify(self, message: str) -> BounceType | None:
        cache = self._cache
        if message in cache:
            return cache[message]
        ambiguous, result = rule_verdict(message)
        if result is None and not ambiguous:
            result = BounceType.T16
        if len(cache) >= _CACHE_CAP:
            cache.clear()
        cache[message] = result
        return result


class EBRCLabeler:
    """The full EBRC pipeline, fitted lazily on the dataset's NDR corpus."""

    def __init__(self, config: EBRCConfig | None = None) -> None:
        # Imported here: the classifier stack (and numpy) loads only when
        # a caller asks for the EBRC, not for every ``repro.analysis`` use.
        from repro.core.ebrc import EBRC

        self.ebrc = EBRC(config)
        self._fitted = False
        self._cache: dict[str, BounceType | None] = {}

    def fit(self, messages: list[str]) -> "EBRCLabeler":
        self.ebrc.fit(messages)
        self._fitted = True
        return self

    def classify(self, message: str) -> BounceType | None:
        if not self._fitted:
            raise RuntimeError("EBRCLabeler must be fitted first")
        if message in self._cache:
            return self._cache[message]
        result = self.ebrc.classify(message)
        self._cache[message] = result
        return result


class LabeledDataset:
    """A dataset with a bounce type attached to every bounced record."""

    def __init__(self, dataset: DeliveryDataset, labeler: NDRLabeler | None = None) -> None:
        self.dataset = dataset
        if labeler is None:
            labeler = RuleLabeler()
        if isinstance(labeler, EBRCLabeler) and not labeler._fitted:
            labeler.fit(dataset.ndr_messages())
        self.labeler = labeler
        #: record index -> type of its first failed attempt (None when the
        #: NDR was ambiguous — the paper excludes those 6M emails).
        self.record_types: dict[int, BounceType | None] = {}
        self._label_all()

    def _label_all(self) -> None:
        for i, record in enumerate(self.dataset):
            failure = record.first_failure()
            if failure is None:
                continue
            self.record_types[i] = self.labeler.classify(failure.result)

    # -- views -----------------------------------------------------------------

    def bounced_records(self) -> Iterable[tuple[DeliveryRecord, BounceType | None]]:
        for i, t in self.record_types.items():
            yield self.dataset[i], t

    def classified_records(self) -> Iterable[tuple[DeliveryRecord, BounceType]]:
        """Bounced records with a recovered type (ambiguous excluded)."""
        for record, t in self.bounced_records():
            if t is not None:
                yield record, t

    def records_of_type(self, bounce_type: BounceType) -> list[DeliveryRecord]:
        return [r for r, t in self.classified_records() if t is bounce_type]

    def type_distribution(self) -> Counter:
        """Table 1: counts per type over classified bounced emails."""
        return Counter(t for _, t in self.classified_records())

    def n_ambiguous(self) -> int:
        return sum(1 for t in self.record_types.values() if t is None)

    def n_bounced(self) -> int:
        return len(self.record_types)

    @staticmethod
    def ndr_mentions_inactive(record: DeliveryRecord) -> bool:
        """Sub-reason split within T8: inactive-account wording."""
        failure = record.first_failure()
        if failure is None:
            return False
        text = failure.result.lower()
        return "inactive" in text or "disabled" in text

    @staticmethod
    def ndr_is_unknown_style(record: DeliveryRecord) -> bool:
        failure = record.first_failure()
        if failure is None:
            return False
        return any(p.search(failure.result) for p in UNKNOWN_TYPE_PATTERNS)
