"""Dataset container: a collection of delivery records with the filters
and summaries the analysis layer builds on, and the one NDJSON record
decoder (:func:`iter_ndjson_records`) behind saved logs and stdin."""

from __future__ import annotations

import gzip
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.taxonomy import BounceDegree
from repro.delivery.records import DeliveryRecord


class RecordDecodeError(ValueError):
    """A line of a record stream could not be decoded into a record."""

    def __init__(self, source: str, line_no: int, reason: str) -> None:
        self.source = source
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{source}: line {line_no}: {reason}")


def iter_ndjson_records(
    lines: Iterable[str], source: str = "<stdin>"
) -> Iterator[DeliveryRecord]:
    """Decode NDJSON lines into records, skipping blank lines.

    Raises :class:`RecordDecodeError` naming ``source`` and the 1-based
    line number on the first malformed line.
    """
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordDecodeError(source, line_no, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(data, dict):
            raise RecordDecodeError(
                source, line_no, f"expected a JSON object, got {type(data).__name__}"
            )
        try:
            yield DeliveryRecord.from_json_dict(data)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise RecordDecodeError(
                source, line_no, f"not a delivery record ({exc.__class__.__name__}: {exc})"
            ) from exc


@dataclass
class DatasetSummary:
    n_emails: int
    n_non_bounced: int
    n_soft_bounced: int
    n_hard_bounced: int
    n_sender_domains: int
    n_receiver_domains: int
    n_attempts: int

    @property
    def first_attempt_failure_rate(self) -> float:
        bounced = self.n_soft_bounced + self.n_hard_bounced
        return bounced / self.n_emails if self.n_emails else 0.0

    @property
    def soft_recovery_rate(self) -> float:
        """Fraction of first-attempt failures eventually delivered."""
        bounced = self.n_soft_bounced + self.n_hard_bounced
        return self.n_soft_bounced / bounced if bounced else 0.0


class DeliveryDataset:
    """In-memory dataset of delivery records."""

    def __init__(self, records: list[DeliveryRecord] | None = None) -> None:
        self.records: list[DeliveryRecord] = records or []

    # -- collection protocol ----------------------------------------------------

    def append(self, record: DeliveryRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[DeliveryRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # -- filters --------------------------------------------------------------------

    def filter(self, predicate: Callable[[DeliveryRecord], bool]) -> "DeliveryDataset":
        return DeliveryDataset([r for r in self.records if predicate(r)])

    def bounced(self) -> "DeliveryDataset":
        return self.filter(lambda r: r.bounced)

    def hard_bounced(self) -> "DeliveryDataset":
        return self.filter(lambda r: r.bounce_degree is BounceDegree.HARD_BOUNCED)

    def soft_bounced(self) -> "DeliveryDataset":
        return self.filter(lambda r: r.bounce_degree is BounceDegree.SOFT_BOUNCED)

    def to_domain(self, domain: str) -> "DeliveryDataset":
        return self.filter(lambda r: r.receiver_domain == domain)

    # -- summaries ---------------------------------------------------------------------

    def summary(self) -> DatasetSummary:
        degrees = Counter(r.bounce_degree for r in self.records)
        return DatasetSummary(
            n_emails=len(self.records),
            n_non_bounced=degrees.get(BounceDegree.NON_BOUNCED, 0),
            n_soft_bounced=degrees.get(BounceDegree.SOFT_BOUNCED, 0),
            n_hard_bounced=degrees.get(BounceDegree.HARD_BOUNCED, 0),
            n_sender_domains=len({r.sender_domain for r in self.records}),
            n_receiver_domains=len({r.receiver_domain for r in self.records}),
            n_attempts=sum(r.n_attempts for r in self.records),
        )

    def ndr_messages(self) -> list[str]:
        """All failure result lines (the raw material of the EBRC)."""
        out: list[str] = []
        for record in self.records:
            for attempt in record.attempts:
                if not attempt.succeeded:
                    out.append(attempt.result)
        return out

    def receiver_domain_volume(self) -> Counter:
        """InEmailRank raw material: incoming email count per domain."""
        return Counter(r.receiver_domain for r in self.records)

    # -- persistence --------------------------------------------------------------------

    @staticmethod
    def _open(path: Path, mode: str):
        """gzip transparently for ``.gz`` paths."""
        if path.suffix == ".gz":
            return gzip.open(path, mode + "t", encoding="utf-8")
        return path.open(mode, encoding="utf-8")

    def write_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        with self._open(path, "w") as fh:
            for record in self.records:
                fh.write(record.to_json())
                fh.write("\n")

    @classmethod
    def iter_jsonl(cls, path: str | Path) -> Iterator[DeliveryRecord]:
        """Stream records without materialising the whole dataset; a
        malformed line raises :class:`RecordDecodeError` naming ``path``
        and the line."""
        path = Path(path)
        with cls._open(path, "r") as fh:
            yield from iter_ndjson_records(fh, source=str(path))

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "DeliveryDataset":
        return cls(list(cls.iter_jsonl(path)))
