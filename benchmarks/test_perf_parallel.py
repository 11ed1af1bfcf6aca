"""Parallel runtime scaling: wall-clock of the serial runner and of 1/2/4
worker processes.

The `serial` row times `stream_simulation`, drained, in this process; the
worker rows time end-to-end `run_parallel_simulation` (spawn + per-slice
shards) and the drain of its merged stream.  Every row is the best of
``REPEATS`` runs by wall-clock and splits it into ``run_s`` (until the
runner returns) and ``drain_s`` (reading every record).  For worker rows
``run_s`` is spawn, world builds and delivery and ``drain_s`` the
parent's merge of ``iter_records()``; the serial stream is lazy, so its
``run_s`` is the world build and its ``drain_s`` the delivery.  One run
per row cannot show a change to the merge: spawn and per-worker world
builds spread worker runs by far more than the drain takes.  The rows go to
``BENCH_parallel.json`` next to the repo root so perf PRs can diff them.

The speedup assertion only arms on runners with >= 4 cores: on a 1-core
box the parallel path is pure overhead (process spawn, world rebuilt per
worker, shard round-trip) and a wall-clock ratio proves nothing.  The
determinism property is what CI asserts everywhere; scaling is asserted
where the hardware can express it.
"""

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro import SimulationConfig
from repro.parallel import run_parallel_simulation
from repro.stream.runner import stream_simulation
from repro.util.provenance import bench_provenance

PERF_SCALE = 0.04
PERF_SEED = 11
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3

_CORES = multiprocessing.cpu_count()
_OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _timed(workers: int | None) -> dict:
    """One run: the serial runner for ``workers=None``, else the parallel
    runner at ``workers``."""
    config = SimulationConfig(scale=PERF_SCALE, seed=PERF_SEED)
    t0 = time.perf_counter()
    if workers is None:
        run = stream_simulation(config)
        records = run.records
    else:
        run = run_parallel_simulation(config, workers)
        records = run.iter_records()
    t1 = time.perf_counter()
    n = sum(1 for _ in records)
    t2 = time.perf_counter()
    if workers is not None:
        run.close()
    return {"n_records": n, "elapsed_s": round(t2 - t0, 3),
            "run_s": round(t1 - t0, 3), "drain_s": round(t2 - t1, 3)}


def _best(workers: int | None) -> dict:
    row = min((_timed(workers) for _ in range(REPEATS)),
              key=lambda r: r["elapsed_s"])
    return {"row": "serial" if workers is None else f"workers={workers}",
            "workers": workers, **row}


@pytest.fixture(scope="module")
def timings():
    # Warm-up so import/compile costs land on no row.
    _timed(None)
    rows = {"serial": _best(None)}
    for workers in WORKER_COUNTS:
        rows[workers] = _best(workers)
    for row in rows.values():
        print(f"{row['row']}: {row['n_records']:,} records in "
              f"{row['elapsed_s']:.2f}s (run {row['run_s']:.2f}s, "
              f"drain {row['drain_s']:.2f}s)")
    # On a small runner (< 4 cores) the 4-worker wall-clock ratio is pure
    # spawn/merge overhead, not a scaling measurement: record it as
    # unarmed rather than checking in a misleading sub-1.0 number.
    if _CORES >= 4:
        speedup_4w = round(rows["serial"]["elapsed_s"] / rows[4]["elapsed_s"], 3)
        gate = "armed"
    else:
        speedup_4w = None
        gate = "unarmed"
    _OUT.write_text(json.dumps({
        "scale": PERF_SCALE,
        "seed": PERF_SEED,
        "cpu_count": _CORES,
        "repeats": REPEATS,
        "runs": list(rows.values()),
        "speedup_4w": speedup_4w,
        "gate": gate,
        "provenance": bench_provenance(),
    }, indent=2) + "\n", encoding="utf-8")
    return rows


def test_every_row_yields_same_record_count(timings):
    counts = {row["n_records"] for row in timings.values()}
    assert len(counts) == 1 and counts.pop() > 5000


@pytest.mark.skipif(
    _CORES < 4,
    reason=f"speedup needs >= 4 cores (runner has {_CORES}); "
    "determinism is asserted in tests/test_parallel.py regardless",
)
def test_four_workers_beat_serial(timings):
    speedup = timings["serial"]["elapsed_s"] / timings[4]["elapsed_s"]
    print(f"4-worker speedup over serial: {speedup:.2f}x on {_CORES} cores")
    assert speedup >= 1.5


def test_bench_artifact_written(timings):
    payload = json.loads(_OUT.read_text(encoding="utf-8"))
    assert [r["workers"] for r in payload["runs"]] == [None, *WORKER_COUNTS]
    assert all(
        r["run_s"] + r["drain_s"] == pytest.approx(r["elapsed_s"], abs=0.002)
        for r in payload["runs"]
    )
    assert payload["cpu_count"] == _CORES
