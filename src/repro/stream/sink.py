"""Sharded delivery-log storage.

A :class:`ShardWriter` splits a record stream into rotating JSONL shards
(optionally gzip-compressed) and writes a ``manifest.json`` describing
them — record counts, start-time ranges, payload checksums — so analyses
can plan shard-by-shard passes (or skip shards entirely by time range)
without reading every byte.

Checksums cover the *uncompressed* JSONL payload, not the file bytes:
gzip embeds a modification time, so file-level hashes of identical data
would differ between runs.

A :class:`ShardReader` iterates a shard directory back in order, with
optional checksum verification, shard-level time filtering, and the same
record type the batch :class:`~repro.delivery.dataset.DeliveryDataset`
uses — ``DeliveryDataset.read_jsonl`` and a shard round-trip agree.

Durability contract (docs/ROBUSTNESS.md): manifests are written
atomically (temp file + fsync + ``os.replace``); a writer that exits
abnormally records its progress in ``manifest.partial.json`` and never
finalises ``manifest.json``; and :func:`recover_shards` salvages a
crashed directory by truncating torn trailing data and re-hashing what
survived.  :mod:`repro.faults` hooks into the write path for chaos
testing.
"""

from __future__ import annotations

import gzip
import hashlib
import heapq
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

from repro import faults
from repro.delivery.records import DeliveryRecord, line_record
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile

MANIFEST_NAME = "manifest.json"
#: Written on abnormal writer exit (and by :func:`recover_shards`): the
#: directory is detectably incomplete but its progress is recorded.
PARTIAL_MANIFEST_NAME = "manifest.partial.json"
MANIFEST_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Durably replace ``path`` with ``text``: write a sibling temp file,
    fsync it, then ``os.replace`` (atomic on POSIX) and fsync the
    directory.  A crash at any point leaves either the old file or the
    new one — never a torn half-write."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Binary flavour of :func:`atomic_write_text` (same durability
    discipline); checkpoint world snapshots are written through this."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return path
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


class ShardIntegrityError(RuntimeError):
    """A shard's payload does not match its manifest checksum."""


class ShardDecodeError(ShardIntegrityError):
    """A shard line is not a decodable delivery record (torn write or
    on-disk corruption); the message names the file and record index."""


@dataclass(frozen=True)
class ShardInfo:
    """Manifest entry for one shard file."""

    name: str
    n_records: int
    t_min: float
    t_max: float
    sha256: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "n_records": self.n_records,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "sha256": self.sha256,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ShardInfo":
        return cls(
            name=data["name"],
            n_records=int(data["n_records"]),
            t_min=float(data["t_min"]),
            t_max=float(data["t_max"]),
            sha256=data["sha256"],
        )


@dataclass
class ShardManifest:
    """The directory-level index of a sharded delivery log."""

    shards: list[ShardInfo]
    compression: str = "none"  # "none" | "gzip"
    version: int = MANIFEST_VERSION
    #: Optional producer identity (config hash + slice key + shard
    #: options); the resume machinery uses it to decide whether a slice
    #: directory on disk belongs to the run being resumed.
    fingerprint: str | None = None

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.shards)

    @property
    def t_min(self) -> float | None:
        starts = [s.t_min for s in self.shards if s.n_records]
        return min(starts) if starts else None

    @property
    def t_max(self) -> float | None:
        ends = [s.t_max for s in self.shards if s.n_records]
        return max(ends) if ends else None

    def to_json_dict(self) -> dict:
        data = {
            "version": self.version,
            "compression": self.compression,
            "n_records": self.n_records,
            "shards": [s.to_json_dict() for s in self.shards],
        }
        if self.fingerprint is not None:
            data["fingerprint"] = self.fingerprint
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ShardManifest":
        return cls(
            shards=[ShardInfo.from_json_dict(s) for s in data["shards"]],
            compression=data.get("compression", "none"),
            version=int(data.get("version", MANIFEST_VERSION)),
            fingerprint=data.get("fingerprint"),
        )

    def save(self, directory: str | Path) -> Path:
        # Atomic + fsync'd: a crash mid-save must never leave a torn
        # manifest.json that makes the whole directory unreadable.
        return atomic_write_text(
            Path(directory) / MANIFEST_NAME,
            json.dumps(self.to_json_dict(), indent=2) + "\n",
        )

    @classmethod
    def load(cls, directory: str | Path) -> "ShardManifest":
        path = Path(directory) / MANIFEST_NAME
        return cls.from_json_dict(json.loads(path.read_text(encoding="utf-8")))


class ShardWriter:
    """Rotating shard writer; usable as a context manager.

    ::

        with ShardWriter(out_dir, shard_size=50_000, compress=True) as w:
            for record in iter_simulation(config):
                w.write(record)
        manifest = w.manifest
    """

    def __init__(
        self,
        directory: str | Path,
        shard_size: int = 100_000,
        compress: bool = False,
        prefix: str = "shard",
        fingerprint: str | None = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_size = shard_size
        self.compress = compress
        self.prefix = prefix
        self.fingerprint = fingerprint
        # Chaos hooks (None outside fault-injection runs; cached once so
        # the write path pays a single attribute check).
        self._fault_plan = faults.active_plan()
        self._shards: list[ShardInfo] = []
        self._fh = None
        self._hash = None
        self._shard_count = 0
        self._shard_t_min = 0.0
        self._shard_t_max = 0.0
        self._closed = False
        self.manifest: ShardManifest | None = None
        # Telemetry (no-op unless repro.obs is enabled at construction).
        self._obs_on = obs_metrics.enabled()
        self._m_records = obs_metrics.counter(
            "repro_shard_records_total", "Delivery records written to shards"
        )
        self._m_bytes = obs_metrics.counter(
            "repro_shard_bytes_total", "Uncompressed JSONL bytes written to shards"
        )
        self._m_shards = obs_metrics.counter(
            "repro_shards_total", "Shard files finalised"
        )

    # -- writing ---------------------------------------------------------------

    @property
    def n_written(self) -> int:
        return sum(s.n_records for s in self._shards) + self._shard_count

    def _shard_name(self, index: int) -> str:
        suffix = ".jsonl.gz" if self.compress else ".jsonl"
        return f"{self.prefix}-{index:05d}{suffix}"

    def _open_shard(self) -> None:
        name = self._shard_name(len(self._shards))
        path = self.directory / name
        # Binary handles: each line is encoded once, and the same bytes
        # are written and hashed.
        self._fh = gzip.open(path, "wb") if self.compress else path.open("wb")
        self._hash = hashlib.sha256()
        self._shard_count = 0

    def _close_shard(self) -> None:
        if self._fh is None:
            return
        self._fh.close()
        name = self._shard_name(len(self._shards))
        self._shards.append(
            ShardInfo(
                name=name,
                n_records=self._shard_count,
                t_min=self._shard_t_min,
                t_max=self._shard_t_max,
                sha256=self._hash.hexdigest(),
            )
        )
        self._fh = None
        self._hash = None
        # Reset so ``n_written`` never double-counts the shard that was
        # just folded into ``_shards`` (it previously did between a
        # rotation and the next write, and after close()).
        self._shard_count = 0
        if self._obs_on:
            self._m_shards.inc()
        if self._fault_plan is not None:
            # Bit-rot injection happens after hashing, so the manifest
            # checksum records the true payload and verification catches
            # the corruption.
            self._fault_plan.on_shard_close(self.directory / name)

    def write(self, record: DeliveryRecord) -> None:
        if self._closed:
            raise RuntimeError("writer is closed")
        if not self._obs_on:
            self._write_impl(record)
            return
        t0 = perf_counter()
        self._write_impl(record)
        obs_profile.add("shard-io", perf_counter() - t0)

    def _write_impl(self, record: DeliveryRecord) -> None:
        if self._fault_plan is not None:
            self._fault_plan.on_shard_write(str(self.directory), self.n_written + 1)
        if self._fh is None:
            self._open_shard()
        payload = (record.to_json() + "\n").encode("utf-8")
        self._fh.write(payload)
        self._hash.update(payload)
        if self._obs_on:
            self._m_records.inc()
            self._m_bytes.inc(len(payload))
        t = record.start_time
        if self._shard_count == 0:
            self._shard_t_min = t
            self._shard_t_max = t
        else:
            self._shard_t_min = min(self._shard_t_min, t)
            self._shard_t_max = max(self._shard_t_max, t)
        self._shard_count += 1
        if self._shard_count >= self.shard_size:
            self._close_shard()

    def write_all(self, records) -> int:
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def close(self) -> ShardManifest:
        """Flush the open shard and write the manifest."""
        if self._closed:
            return self.manifest
        self._close_shard()
        self._closed = True
        self.manifest = ShardManifest(
            shards=self._shards,
            compression="gzip" if self.compress else "none",
            fingerprint=self.fingerprint,
        )
        self.manifest.save(self.directory)
        # A clean finalise supersedes any earlier partial state (ours, a
        # previous crashed run's, or recover_shards' salvage record).
        (self.directory / PARTIAL_MANIFEST_NAME).unlink(missing_ok=True)
        return self.manifest

    def abort(self) -> None:
        """Abnormal-exit path: close the open shard file and record the
        progress made in ``manifest.partial.json`` — never the final
        manifest, so a crashed producer stays distinguishable from a
        complete one."""
        if self._closed:
            return
        open_shard = None
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - best effort
                pass
            open_shard = {
                "name": self._shard_name(len(self._shards)),
                "n_records": self._shard_count,
                "t_min": self._shard_t_min,
                "t_max": self._shard_t_max,
                # What the producer *handed* the writer; the file tail may
                # hold less (buffering), which recover_shards detects.
                "sha256": self._hash.hexdigest(),
            }
            self._fh = None
            self._hash = None
        self._closed = True
        partial = {
            "version": MANIFEST_VERSION,
            "compression": "gzip" if self.compress else "none",
            "complete_shards": [s.to_json_dict() for s in self._shards],
            "open_shard": open_shard,
        }
        if self.fingerprint is not None:
            partial["fingerprint"] = self.fingerprint
        try:
            atomic_write_text(
                self.directory / PARTIAL_MANIFEST_NAME,
                json.dumps(partial, indent=2) + "\n",
            )
        except OSError:  # pragma: no cover - must not mask the original error
            pass

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Only a clean exit finalises the manifest; on an exception the
        # directory is left manifest-less (detectably incomplete).
        if exc_type is None:
            self.close()
        else:
            self.abort()


class ShardReader:
    """Reads a sharded delivery log back, shard by shard, in write order."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest = ShardManifest.load(self.directory)

    def __len__(self) -> int:
        return self.manifest.n_records

    def _open(self, info: ShardInfo):
        path = self.directory / info.name
        if self.manifest.compression == "gzip":
            return gzip.open(path, "rt", encoding="utf-8")
        return path.open("r", encoding="utf-8")

    def iter_lines(self, info: ShardInfo, verify: bool = False) -> Iterator[str]:
        digest = hashlib.sha256() if verify else None
        with self._open(info) as fh:
            for line in fh:
                if digest is not None:
                    digest.update(line.encode("utf-8"))
                line = line.strip()
                if line:
                    yield line
        if digest is not None and digest.hexdigest() != info.sha256:
            raise ShardIntegrityError(
                f"shard {info.name}: payload checksum mismatch "
                f"(expected {info.sha256}, got {digest.hexdigest()})"
            )

    def iter_shard(self, info: ShardInfo, verify: bool = False) -> Iterator[DeliveryRecord]:
        return self._records(info, verify, DeliveryRecord.from_json)

    def _records(self, info: ShardInfo, verify: bool, decode) -> Iterator[DeliveryRecord]:
        """``decode(line)`` of every line of one shard."""
        for n, line in enumerate(self.iter_lines(info, verify=verify), 1):
            try:
                yield decode(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise ShardDecodeError(
                    f"{self.directory / info.name}: record {n}: undecodable "
                    f"line ({exc.__class__.__name__}: {exc}); if the "
                    f"producing run crashed mid-write, "
                    f"repro.stream.sink.recover_shards() can salvage the "
                    f"directory"
                ) from exc

    def iter_records(
        self,
        verify: bool = False,
        t_min: float | None = None,
        t_max: float | None = None,
    ) -> Iterator[DeliveryRecord]:
        """All records in order; ``t_min``/``t_max`` skip whole shards whose
        manifest time range falls outside the filter, then filter records."""
        return self._select(DeliveryRecord.from_json, verify, t_min, t_max)

    def _select(self, decode, verify, t_min, t_max) -> Iterator[DeliveryRecord]:
        """``decode(line)`` of every line of every shard, time-filtered."""
        for info in self.manifest.shards:
            if t_min is not None and info.t_max < t_min:
                continue
            if t_max is not None and info.t_min > t_max:
                continue
            for record in self._records(info, verify, decode):
                if t_min is not None and record.start_time < t_min:
                    continue
                if t_max is not None and record.start_time > t_max:
                    continue
                yield record

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self.iter_records()

    def verify(self) -> None:
        """Re-hash every shard against the manifest; raises on mismatch."""
        for info in self.manifest.shards:
            for _ in self.iter_lines(info, verify=True):
                pass


class MultiShardReader:
    """Reads several shard directories (each with its own manifest) as one
    delivery log — the per-worker outputs of a parallel run, or any set of
    runs a caller wants to analyse together.

    ``order="concat"`` yields each directory fully before the next, in the
    given directory order.  ``order="time"`` k-way merges the directories
    by record start time; the merge is stable across directories (ties
    resolve by directory position), which is exactly the discipline the
    parallel runtime's canonical merge relies on.

    Records are line-backed (:func:`repro.delivery.records.line_record`):
    the merge reads only each line's start time, and a caller that only
    writes records back out (``to_json``, ``start_time``,
    ``bounce_degree``) decodes nothing.  Since no line is parsed whole,
    :meth:`iter_records` re-hashes every shard payload against its
    manifest by default (``verify=True``), as :meth:`ShardReader.verify`
    does.
    """

    def __init__(
        self,
        directories: Iterable[str | Path],
        order: str = "concat",
    ) -> None:
        if order not in ("concat", "time"):
            raise ValueError(f"unknown order {order!r} (use 'concat' or 'time')")
        self.directories = [Path(d) for d in directories]
        if not self.directories:
            raise ValueError("need at least one shard directory")
        self.order = order
        self.readers = [ShardReader(d) for d in self.directories]

    @property
    def n_records(self) -> int:
        return sum(len(r) for r in self.readers)

    def __len__(self) -> int:
        return self.n_records

    @property
    def t_min(self) -> float | None:
        starts = [r.manifest.t_min for r in self.readers if r.manifest.t_min is not None]
        return min(starts) if starts else None

    @property
    def t_max(self) -> float | None:
        ends = [r.manifest.t_max for r in self.readers if r.manifest.t_max is not None]
        return max(ends) if ends else None

    def iter_records(
        self,
        verify: bool = True,
        t_min: float | None = None,
        t_max: float | None = None,
    ) -> Iterator[DeliveryRecord]:
        streams = (
            reader._select(line_record, verify, t_min, t_max)
            for reader in self.readers
        )
        if self.order == "time":
            return heapq.merge(*streams, key=lambda record: record.start_time)
        return itertools.chain.from_iterable(streams)

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return self.iter_records()

    def verify(self) -> None:
        """Re-hash every shard of every directory; raises on mismatch."""
        for reader in self.readers:
            reader.verify()


def iter_delivery_log(path: str | Path) -> Iterator[DeliveryRecord]:
    """Records from either a shard directory (with manifest) or a plain
    JSONL/JSONL.gz file — whatever ``repro-bounce watch`` is pointed at."""
    from repro.delivery.dataset import DeliveryDataset

    path = Path(path)
    if path.is_dir():
        return ShardReader(path).iter_records()
    return DeliveryDataset.iter_jsonl(path)


# -- crash recovery ------------------------------------------------------------------


@dataclass(frozen=True)
class SalvagedShard:
    """The outcome of salvaging one shard file."""

    name: str
    n_records: int
    #: Torn/undecodable trailing lines dropped from the file.
    n_dropped_lines: int
    #: True when the file was rewritten (something was truncated, or a
    #: torn gzip stream was re-encoded).
    rewritten: bool
    sha256: str
    t_min: float
    t_max: float

    def to_info(self) -> ShardInfo:
        return ShardInfo(
            name=self.name,
            n_records=self.n_records,
            t_min=self.t_min,
            t_max=self.t_max,
            sha256=self.sha256,
        )


@dataclass
class RecoveryReport:
    """What :func:`recover_shards` found (and fixed) in a directory."""

    directory: Path
    shards: list[SalvagedShard]
    #: The directory already had a valid final manifest; nothing was done.
    already_complete: bool = False
    #: A final manifest was written for the salvaged shards.
    finalized: bool = False

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.shards)

    @property
    def n_dropped_lines(self) -> int:
        return sum(s.n_dropped_lines for s in self.shards)

    @property
    def torn(self) -> bool:
        return any(s.rewritten for s in self.shards)


def _salvage_payload(path: Path, compressed: bool) -> tuple[bytes, bool]:
    """The decodable payload prefix of a shard file, plus whether the
    byte stream itself was torn (truncated gzip)."""
    raw = path.read_bytes()
    if not compressed:
        return raw, False
    import zlib

    out = bytearray()
    torn = False
    decoder = zlib.decompressobj(wbits=31)
    try:
        for i in range(0, len(raw), 1 << 16):
            out += decoder.decompress(raw[i : i + (1 << 16)])
        out += decoder.flush()
        if not decoder.eof:
            torn = True  # stream ended mid-member (killed producer)
    except zlib.error:
        torn = True  # corrupt tail; keep the decodable prefix
    return bytes(out), torn


def _salvage_shard(path: Path) -> SalvagedShard:
    """Validate one shard file line by line, truncating a torn tail.

    A *trailing* run of undecodable bytes — an unterminated final line, a
    half-flushed gzip member, garbage after a kill — is dropped and the
    file rewritten in place (atomically).  The salvaged payload is
    re-hashed so the returned checksum matches what a reader will see.
    """
    compressed = path.name.endswith(".gz")
    payload, stream_torn = _salvage_payload(path, compressed)
    lines = payload.split(b"\n")
    tail = lines.pop()  # b"" for a cleanly terminated file
    kept: list[bytes] = []
    n_dropped = 1 if tail else 0
    times: list[float] = []
    for i, line in enumerate(lines):
        try:
            record = DeliveryRecord.from_json(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            # Keep only the clean prefix: everything from the first
            # undecodable line on is part of the torn tail.
            n_dropped += len(lines) - i
            break
        kept.append(line)
        times.append(record.start_time)

    digest = hashlib.sha256()
    for line in kept:
        digest.update(line + b"\n")
    rewritten = n_dropped > 0 or stream_torn
    if rewritten:
        tmp = path.with_name(path.name + ".tmp")
        if compressed:
            with gzip.open(tmp, "wb") as fh:
                for line in kept:
                    fh.write(line + b"\n")
        else:
            tmp.write_bytes(b"".join(line + b"\n" for line in kept))
        os.replace(tmp, path)
    return SalvagedShard(
        name=path.name,
        n_records=len(kept),
        n_dropped_lines=n_dropped,
        rewritten=rewritten,
        sha256=digest.hexdigest(),
        t_min=min(times) if times else 0.0,
        t_max=max(times) if times else 0.0,
    )


def recover_shards(directory: str | Path, finalize: bool = False) -> RecoveryReport:
    """Salvage a shard directory whose producer exited abnormally.

    Scans every shard file, truncates torn trailing data (an interrupted
    JSONL line, a half-flushed gzip stream), re-hashes the salvaged
    payload, and records the result in ``manifest.partial.json`` — the
    directory becomes readable again while staying detectably incomplete.
    An unreadable (torn, pre-atomic-writer) ``manifest.json`` is treated
    the same way: discarded and rebuilt from the files on disk.

    ``finalize=True`` instead writes a **final** ``manifest.json`` for
    the salvaged shards — an explicit declaration that the partial data
    is acceptable as-is.  The finalized manifest carries no fingerprint,
    so the resume machinery still treats the slice as incomplete and
    re-runs it rather than trusting salvaged data.

    A directory whose final manifest loads cleanly is returned untouched
    (``already_complete=True``).
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        try:
            ShardManifest.load(directory)
            return RecoveryReport(directory, [], already_complete=True)
        except (OSError, ValueError, KeyError):
            manifest_path.unlink()  # torn manifest; rebuild from the shards
    shard_files = sorted(
        p for p in directory.iterdir()
        if p.name.endswith(".jsonl") or p.name.endswith(".jsonl.gz")
    )
    shards = [_salvage_shard(path) for path in shard_files]
    compression = (
        "gzip" if any(s.name.endswith(".gz") for s in shards) else "none"
    )
    report = RecoveryReport(directory, shards, finalized=finalize)
    if finalize:
        ShardManifest(
            shards=[s.to_info() for s in shards], compression=compression
        ).save(directory)
        (directory / PARTIAL_MANIFEST_NAME).unlink(missing_ok=True)
    else:
        atomic_write_text(
            directory / PARTIAL_MANIFEST_NAME,
            json.dumps(
                {
                    "version": MANIFEST_VERSION,
                    "compression": compression,
                    "complete_shards": [s.to_info().to_json_dict() for s in shards],
                    "open_shard": None,
                    "recovered": True,
                    "n_dropped_lines": report.n_dropped_lines,
                },
                indent=2,
            )
            + "\n",
        )
    obs_metrics.counter(
        "repro_shard_recoveries_total",
        "Shard directories salvaged by recover_shards",
    ).inc()
    return report
