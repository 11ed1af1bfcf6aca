"""Streaming analytics: observe throughput and bounded peak memory.

``repro report --shards`` must hold peak memory at the accumulator-state
floor — independent of corpus size — because the whole point of the
suite is live tables over *unbounded* sharded corpora.  Measured here by
folding the bench corpus once and then the same shard directory twice
(double the records, identical distinct-key population): the peaks must
be flat.  Results go to ``BENCH_analytics.json`` at the repo root so
perf PRs can diff them (on a shared 2-vCPU box: ~121k records/s, ~21 MB
peak, 2x/1x ratio ~1.04).  Throughput is the best of ``FOLDS`` folds,
each on a fresh suite, because single folds on a shared box spread by
more than a 20% change; the artifact keeps every sample.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.analytics.parallel import suite_from_shards
from repro.analytics.suite import TableSuite
from repro.stream.sink import ShardWriter
from repro.util.provenance import bench_provenance

_OUT = Path(__file__).resolve().parent.parent / "BENCH_analytics.json"

#: Conservative floors/ceilings: ~10x slack on a dev box so only real
#: regressions (quadratic state, corpus retention) trip them on CI.
THROUGHPUT_FLOOR_RPS = 3000.0
PEAK_CEILING_MB = 120.0
DOUBLE_CORPUS_RATIO_CEILING = 1.25

#: Timed folds of the whole corpus; the best one is the throughput.
FOLDS = 5


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory, dataset):
    directory = tmp_path_factory.mktemp("perf-analytics") / "shards"
    with ShardWriter(directory, shard_size=8000) as writer:
        for record in dataset:
            writer.write(record)
    return directory


@pytest.fixture(scope="module")
def measurements(shard_dir, dataset, world):
    records = list(dataset)

    # Warm-up so lazily-built caches don't land in the cold measurement.
    TableSuite(world.clock).observe_many(records[:2000])

    samples = []
    for _ in range(FOLDS):
        t0 = time.perf_counter()
        TableSuite(world.clock).observe_many(records)
        samples.append(time.perf_counter() - t0)
    observe_s = min(samples)
    del records

    def peak_of(directories):
        tracemalloc.start()
        merged = suite_from_shards(directories, world.clock)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return merged.n_records, peak

    n_1x, peak_1x = peak_of([shard_dir])
    n_2x, peak_2x = peak_of([shard_dir, shard_dir])

    out = {
        "n_records": len(dataset),
        "folds": FOLDS,
        "observe_s": round(observe_s, 4),
        "observe_s_samples": [round(s, 4) for s in samples],
        "throughput_rps": round(len(dataset) / observe_s, 1),
        "throughput_rps_samples": [round(len(dataset) / s, 1) for s in samples],
        "throughput_floor_rps": THROUGHPUT_FLOOR_RPS,
        "peak_mb_1x": round(peak_1x / 1e6, 2),
        "peak_mb_2x": round(peak_2x / 1e6, 2),
        "peak_ceiling_mb": PEAK_CEILING_MB,
        "double_corpus_ratio": round(peak_2x / peak_1x, 4),
        "n_records_1x": n_1x,
        "n_records_2x": n_2x,
        "provenance": bench_provenance(),
    }
    print(f"analytics observe: {out['throughput_rps']:,.0f} records/s "
          f"over {out['n_records']:,} records (best of {FOLDS} folds)")
    print(f"analytics peak: {out['peak_mb_1x']:.1f} MB at 1x corpus, "
          f"{out['peak_mb_2x']:.1f} MB at 2x "
          f"(ratio {out['double_corpus_ratio']:.3f})")
    _OUT.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return out


def test_observe_throughput_floor(measurements):
    assert measurements["throughput_rps"] >= THROUGHPUT_FLOOR_RPS


def test_peak_memory_under_ceiling(measurements):
    assert measurements["peak_mb_1x"] <= PEAK_CEILING_MB
    assert measurements["peak_mb_2x"] <= PEAK_CEILING_MB


def test_peak_memory_flat_as_corpus_doubles(measurements):
    assert measurements["n_records_2x"] == 2 * measurements["n_records_1x"]
    assert measurements["double_corpus_ratio"] <= DOUBLE_CORPUS_RATIO_CEILING


def test_bench_artifact_written(measurements):
    payload = json.loads(_OUT.read_text(encoding="utf-8"))
    assert payload["n_records"] == measurements["n_records"]
    assert len(payload["observe_s_samples"]) == FOLDS
    assert payload["observe_s"] == min(payload["observe_s_samples"])
    assert payload["double_corpus_ratio"] <= DOUBLE_CORPUS_RATIO_CEILING
