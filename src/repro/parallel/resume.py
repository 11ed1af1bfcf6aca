"""Resume support for the parallel runtime.

A parallel run writes one shard directory per slice; resuming a killed
run means deciding, per slice directory, "does this hold exactly the
records the current run would produce?"  The answer is yes iff:

1. a **final** ``manifest.json`` exists and loads — an aborted writer
   leaves ``manifest.partial.json`` instead, and a hard-killed one
   leaves nothing (:mod:`repro.stream.sink`);
2. its **fingerprint** matches — a hash of the full config, the slice
   key (plus shipped specs for extra slices) and the segment (cut day
   and starting record count), so a directory produced by a different
   config, seed, workload or segment is never silently reused;
3. every shard payload **re-hashes** to its manifest checksum —
   catching on-disk corruption between runs.

Slices are deterministic pure functions of ``(config, slice)``
(docs/PARALLELISM.md), which is what makes skip-and-merge sound: a
verified directory's bytes equal what re-running the slice would write.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

from repro.parallel.partition import SimSlice
from repro.stream.sink import MANIFEST_NAME, ShardManifest, ShardReader
from repro.world.config import SimulationConfig

#: Bump when the fingerprint payload changes shape; old directories then
#: verify as stale and are re-run rather than misread.
FINGERPRINT_VERSION = 3


def _jsonify(value):
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def config_digest(config: SimulationConfig) -> str:
    """Stable hash of every config field (datetimes ISO-formatted)."""
    payload = {k: _jsonify(v) for k, v in asdict(config).items()}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def slice_fingerprint(
    config: SimulationConfig, sim_slice: SimSlice, until_day: int, n_delivered: int
) -> str:
    """The identity a slice directory's manifest must carry to be
    reusable: config hash + slice key + the segment it holds (the cut
    and the slice's starting ``n_delivered``), so a segment's directory
    never verifies as a complete full-run slice.  Telemetry and the
    acceleration switches are deliberately excluded — they never change
    the record stream."""
    payload = {
        "version": FINGERPRINT_VERSION,
        "config": config_digest(config),
        "slice": sim_slice.key,
        "until_day": int(until_day),
        "n_delivered": int(n_delivered),
    }
    if sim_slice.specs is not None:
        # Extra slices carry caller-materialised specs; a changed
        # workload must invalidate the directory even at equal config.
        payload["specs"] = [_jsonify(asdict(s)) for s in sim_slice.specs]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def load_completed_slice(
    directory: str | Path, fingerprint: str
) -> ShardManifest | None:
    """The directory's manifest iff it holds a complete, matching,
    uncorrupted slice — ``None`` means "re-run this slice".

    Any defect — missing/partial/unreadable manifest, fingerprint
    mismatch, missing shard file, checksum mismatch — degrades to
    ``None`` rather than raising: resume treats a damaged directory as
    work to redo, never as an error.
    """
    directory = Path(directory)
    if not (directory / MANIFEST_NAME).exists():
        return None
    try:
        manifest = ShardManifest.load(directory)
    except (OSError, ValueError, KeyError):
        return None
    if manifest.fingerprint != fingerprint:
        return None
    try:
        ShardReader(directory).verify()
    except Exception:
        return None
    return manifest


def clean_stale_run_files(shard_root: str | Path) -> int:
    """Remove worker result/error files left by a previous (crashed)
    run, so the resuming parent can only ever read files its own workers
    wrote.  Returns the number of files removed."""
    root = Path(shard_root)
    stale = list(root.glob("worker-*.json")) + list(root.glob("worker-*.error.txt"))
    for path in stale:
        path.unlink(missing_ok=True)
    return len(stale)
