"""Parallel reduction of sharded delivery logs into one TableSuite.

``suite_from_shards`` is the engine behind `repro report --shards`: it
streams every shard of every directory through a :class:`TableSuite`
without materializing the corpus.  With ``workers > 1`` the shard files
are dealt round-robin to worker processes under the parallel runtime's
supervisor (:func:`repro.parallel.runner.run_workers`); each worker folds
its share into a private suite and writes the suite's snapshot as its
result file, and the parent merges the partials in worker-index order —
the same shape as a parallel simulation merging telemetry snapshots.
Merge is commutative and associative, so the result is identical for any
worker count.  A worker that fails or dies fails the reduction at once
with the supervisor's typed errors, naming its shard files.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from repro.analytics.suite import TableSuite, clock_from_ts
from repro.stream.sink import ShardReader
from repro.util.clock import SimClock


def shard_units(directories: Sequence[str | Path]) -> list[tuple[str, str]]:
    """All ``(directory, shard_name)`` pairs, in manifest order."""
    units: list[tuple[str, str]] = []
    for directory in directories:
        reader = ShardReader(directory)
        for info in reader.manifest.shards:
            units.append((str(directory), info.name))
    return units


def _observe_units(
    suite: TableSuite, units: Iterable[tuple[str, str]]
) -> None:
    readers: dict[str, ShardReader] = {}
    for directory, shard_name in units:
        reader = readers.get(directory)
        if reader is None:
            reader = readers[directory] = ShardReader(directory)
        info = next(s for s in reader.manifest.shards if s.name == shard_name)
        suite.observe_many(reader.iter_shard(info))


def _label(units: list[tuple[str, str]]) -> str:
    return "shards: " + ", ".join(str(Path(d) / name) for d, name in units)


def _report_worker(
    worker_index: int,
    units: list[tuple[str, str]],
    clock_ts: tuple[float, float],
    root: str,
) -> None:
    """Process entry point: fold ``units`` into a suite and write its
    snapshot as this worker's result file."""
    from repro.parallel.worker import fail_worker, finish_worker

    try:
        suite = TableSuite(clock_from_ts(*clock_ts))
        _observe_units(suite, units)
        finish_worker(root, worker_index, suite.snapshot())
    except BaseException:
        fail_worker(root, worker_index, _label(units))


def suite_from_shards(
    directories: Sequence[str | Path],
    clock: SimClock | None = None,
    workers: int = 1,
) -> TableSuite:
    """Stream every shard in ``directories`` into one merged TableSuite."""
    clock = clock if clock is not None else SimClock()
    units = shard_units(directories)
    suite = TableSuite(clock)
    if workers <= 1 or len(units) <= 1:
        _observe_units(suite, units)
        return suite

    from repro.parallel.runner import run_workers

    workers = min(workers, len(units))
    shares = [units[i::workers] for i in range(workers)]
    clock_ts = (clock.start_ts, clock.end_ts)
    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as root:
        snapshots = run_workers(
            _report_worker,
            [(i, share, clock_ts, root) for i, share in enumerate(shares)],
            [_label(share) for share in shares],
            Path(root),
        )
    # Merge in worker-index order (merge is commutative, but a fixed
    # order keeps runs reproducible down to accumulator internals).
    for snapshot in snapshots:
        suite.merge_snapshot(snapshot)
    return suite
