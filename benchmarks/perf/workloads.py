"""The batch workloads: ``simulate``, ``simulate-workers`` and ``report``.

A run repeats one user-visible job over ``INPUTS`` simulated worlds, in
turn, for the run's ``--seconds``, and keeps each world's fastest job:
on a shared machine, interference from other tenants only ever adds
time, so the fastest repeat is the steadiest estimate of the job's own
cost.  A job calls the same public functions the CLI calls, with
telemetry off and GC on:

* ``simulate`` — ``stream_simulation(cfg)`` into ``ShardWriter`` (the
  ``repro stream`` path);
* ``simulate-workers`` — ``run_parallel_simulation(cfg, workers=2)``
  merged into one JSONL file (the ``simulate --workers 2`` path);
* ``report`` — ``suite_from_shards`` over a saved shard directory, then
  ``render_report`` (the ``repro report --shards`` path).

Before every job the process is put back in the state a fresh
``repro`` process starts in: no garbage left from the previous job and
every fastpath memo empty, so each job pays the cold costs a user's run
pays.

With ``trace`` on, one more job runs on the first world with spans (see
``spans.py``) and yields the per-layer metrics; ``simulate`` also runs
the acceleration ablation there.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import shutil
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

from repro.analysis.label import RuleLabeler
from repro.analytics.batch import batch_tables
from repro.analytics.parallel import suite_from_shards
from repro.analytics.render import render_report
from repro.analytics.suite import TableSuite
from repro.core import fastpath
from repro.delivery.columnar import _SCALAR_CUTOFF, ColumnarExecutor
from repro.delivery.dataset import DeliveryDataset
from repro.delivery.engine import DeliveryEngine
from repro.delivery.records import DeliveryRecord
from repro.parallel import run_parallel_simulation
from repro.parallel.partition import plan_slices
from repro.smtp.templates import NDRTemplateBank
from repro.stream.runner import iter_slice_specs, merge_record_streams, stream_simulation
from repro.stream.sink import ShardReader, ShardWriter
from repro.util.rng import RandomSource
from repro.world.config import SimulationConfig
from repro.world.model import build_world

from spans import NULL, Tracer, patched

#: Worlds per run.  How fast a job goes depends on its world (how many
#: emails bounce, how many campaigns run), so one run averages over
#: several rather than hanging on one.
INPUTS = 4
#: ``repro stream``'s default rotation size.
SHARD_SIZE = 50_000
#: ``repro report``'s default ranking depth.
TOP = 10
#: Worker processes for ``simulate-workers``; sized for a 2-core box.
WORKERS = 2
#: Worker start-up probes per ``simulate-workers`` run.
STARTUP_PROBES = 5
#: Rounds of each ablation mode; the median is reported.
ABLATION_ROUNDS = 3


@dataclass
class Run:
    """One workload invocation."""

    workload: str
    seed: int
    scale: float
    seconds: float
    trace: bool
    work: Path

    def configs(self) -> list[SimulationConfig]:
        """The run's worlds, seeded from ``--seed``."""
        return [
            SimulationConfig(scale=self.scale, seed=self.seed * INPUTS + i)
            for i in range(INPUTS)
        ]


@dataclass(frozen=True)
class Job:
    wall_s: float
    items: int
    digest: str
    setup_s: float = 0.0


@dataclass
class Outcome:
    """What a workload measured; ``metrics`` are end-to-end for an
    untraced run and per-layer for a traced one."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    output_sha256: str
    checks: list[dict] = field(default_factory=list)
    spans: list[dict] | None = None
    info: dict = field(default_factory=dict)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})


# -- shared helpers ----------------------------------------------------------------


def fresh_process_state() -> None:
    """No garbage and every fastpath memo empty, as in a new process.
    ``fastpath.reset()`` keeps the entries of memos marked pure, which a
    new process would not have, so those are cleared through the
    registry too."""
    gc.collect()
    fastpath.reset()
    for memo in fastpath._REGISTRY:
        memo.clear()


def cycle_for(seconds: float, n_inputs: int, job) -> list[list[Job]]:
    """Run ``job(i)`` over the inputs in turn until ``seconds`` have
    passed and every input ran at least once; returns each input's jobs."""
    jobs: list[list[Job]] = [[] for _ in range(n_inputs)]
    deadline = perf_counter() + seconds
    n = 0
    while n < n_inputs or perf_counter() < deadline:
        fresh_process_state()
        jobs[n % n_inputs].append(job(n % n_inputs))
        n += 1
    return jobs


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    import resource

    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def fastest(jobs: list[Job]) -> float:
    return min(j.wall_s for j in jobs)


def e2e_metrics(setup_s: float, per_input: list[list[Job]]) -> dict[str, float]:
    """Throughput over all worlds from each world's fastest job; latency
    is the fastest job time averaged over the worlds."""
    walls = [fastest(jobs) for jobs in per_input]
    items = [jobs[0].items for jobs in per_input]
    return {
        "setup_s": setup_s,
        "throughput": sum(items) / sum(walls),
        "latency_ms": fmean(walls) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def batch_outcome(setup_s: float, per_input: list[list[Job]]) -> Outcome:
    """The untraced result, with every repeated job checked against the
    first job on the same world."""
    outcome = Outcome(
        metrics=e2e_metrics(setup_s, per_input),
        attempted=sum(j.items for jobs in per_input for j in jobs),
        failed=sum(j.items for jobs in per_input for j in jobs
                   if j.digest != jobs[0].digest),
        output_sha256=hashlib.sha256(
            "".join(jobs[0].digest for jobs in per_input).encode()
        ).hexdigest(),
        info={"items": [jobs[0].items for jobs in per_input],
              "job_s": [[round(j.wall_s, 4) for j in jobs] for jobs in per_input]},
    )
    outcome.expect("repeated jobs reproduce their bytes", outcome.failed == 0,
                   f"{outcome.failed} items differ")
    return outcome


def expect_traced(outcome: Outcome, first: Job, digest: str, items: int) -> None:
    outcome.expect("traced digest equals untraced", digest == first.digest, digest[:12])
    outcome.attempted += items
    if digest != first.digest:
        outcome.failed += items


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def shards_sha256(directory: Path) -> str:
    """Digest of the concatenated shard payloads, in manifest order."""
    manifest = ShardReader(directory).manifest
    return sha256_files(directory / info.name for info in manifest.shards)


def bytes_under(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*.jsonl"))


def trace_metrics(tracer: Tracer, untraced_s: float,
                  traced_s: float | None = None) -> dict[str, float]:
    """Overhead compares ``traced_s`` (default: the traced wall) with the
    untraced time of the same work."""
    wall = tracer.wall_s
    return {
        "trace.wall_s": wall,
        "trace.overhead": (wall if traced_s is None else traced_s) / untraced_s - 1.0,
        "trace.unattributed": tracer.root.self_s / wall,
    }


def io_targets(tracer: Tracer) -> list:
    """Record encode/decode and shard I/O, wherever they are called."""
    return [
        (DeliveryRecord, "to_json", lambda f: tracer.wrap("record.encode", f)),
        (ShardWriter, "write", lambda f: tracer.wrap("shard.write", f)),
        (ShardWriter, "close", lambda f: tracer.wrap("shard.write", f)),
        (ShardReader, "iter_lines", lambda f: tracer.wrap_iter("shard.read", f)),
        (ShardReader, "iter_shard", lambda f: tracer.wrap_iter("record.decode", f)),
    ]


# -- simulate ----------------------------------------------------------------------


def stream_to_shards(config: SimulationConfig, out_dir: Path) -> Job:
    """One ``repro stream`` job; set-up is the ``stream_simulation`` call
    (world build and slice plan)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = perf_counter()
    run = stream_simulation(config)
    t1 = perf_counter()
    with ShardWriter(out_dir, shard_size=SHARD_SIZE) as writer:
        n = writer.write_all(run.records)
    wall = perf_counter() - t0
    return Job(wall_s=wall, items=n, digest=shards_sha256(out_dir), setup_s=t1 - t0)


def simulate(run: Run) -> Outcome:
    configs = run.configs()
    out_dir = run.work / "shards"
    per_input = cycle_for(run.seconds, len(configs),
                          lambda i: stream_to_shards(configs[i], out_dir))
    outcome = batch_outcome(
        median(j.setup_s for jobs in per_input for j in jobs), per_input
    )
    if run.trace:
        traced_simulate(run, outcome, per_input[0])
    return outcome


def delivery_targets(tracer: Tracer, chunks: dict) -> list:
    """Spans inside delivery: the columnar prepass and executor, the two
    hand-offs to the reference path, and NDR rendering.  The wrapped
    methods are private; they are the only seam from outside ``src/``."""

    def prepass(original):
        traced = tracer.wrap("columnar.prepass", original)

        def counted(self, specs):
            chunks["scalar" if len(specs) < _SCALAR_CUTOFF else "numpy"] += 1
            return traced(self, specs)

        return counted

    return [
        (ColumnarExecutor, "deliver_chunk", lambda f: tracer.wrap("columnar.executor", f)),
        (ColumnarExecutor, "_prepass", prepass),
        # Called straight from the executor, these are the pre-draw and
        # retry fallbacks; the reference path's own calls stay untraced.
        (DeliveryEngine, "deliver",
         lambda f: tracer.wrap("columnar.fallback_predraw", f, under="columnar.executor")),
        (DeliveryEngine, "_run_attempts",
         lambda f: tracer.wrap("columnar.fallback_retry", f, under="columnar.executor")),
        (NDRTemplateBank, "render", lambda f: tracer.wrap("ndr.render", f)),
        (NDRTemplateBank, "render_unknown", lambda f: tracer.wrap("ndr.render", f)),
    ]


def traced_stream(config: SimulationConfig, out_dir: Path, tracer: Tracer,
                  chunks: dict) -> int:
    """``stream_simulation`` + ``ShardWriter`` rebuilt from public calls so
    each stage gets its own span; the record bytes must not change."""
    with patched(delivery_targets(tracer, chunks) + io_targets(tracer)):
        world = tracer.call("world.build", build_world, config)
        rng = RandomSource(config.seed, name="sim")
        traffic, streams = [], []
        for sim_slice in plan_slices(config):
            specs = tracer.iterate(
                "workload.gen", iter_slice_specs(world, rng, sim_slice)
            )
            engine = DeliveryEngine(world, rng.child(f"engine/{sim_slice.key}"))
            stream = tracer.iterate("delivery", engine.deliver_all(specs))
            (traffic if sim_slice.kind == "traffic" else streams).append(stream)
        if traffic:
            streams.insert(0, chain.from_iterable(traffic))
        records = tracer.iterate("merge", merge_record_streams(streams))
        with ShardWriter(out_dir, shard_size=SHARD_SIZE) as writer:
            n = writer.write_all(records)
    tracer.finish()
    return n


def traced_simulate(run: Run, outcome: Outcome, untraced: list[Job]) -> None:
    config = run.configs()[0]
    out_dir = run.work / "traced"
    fresh_process_state()
    tracer = Tracer(f"{run.workload}-{run.seed}")
    chunks = {"numpy": 0, "scalar": 0}
    n = traced_stream(config, out_dir, tracer, chunks)
    expect_traced(outcome, untraced[0], shards_sha256(out_dir), n)

    attempts = bounced = 0
    for record in ShardReader(out_dir).iter_records():
        attempts += record.n_attempts
        bounced += record.bounced
    n_slices = len(plan_slices(config))
    predraw = tracer.calls("columnar.fallback_predraw")
    delivery_layers = ("delivery", "columnar.executor", "columnar.prepass",
                       "columnar.fallback_predraw", "columnar.fallback_retry")
    metrics = trace_metrics(tracer, fastest(untraced))
    metrics.update({
        "world.build_s": tracer.self_s("world.build"),
        "workload.gen_s": tracer.self_s("workload.gen"),
        # Each slice's spec iterator ends with one empty next().
        "workload.specs": tracer.calls("workload.gen") - n_slices,
        "delivery.s": sum(tracer.self_s(name) for name in delivery_layers),
        "delivery.emails": n,
        "delivery.attempts": attempts,
        "delivery.bounced": bounced,
        "columnar.prepass_s": tracer.self_s("columnar.prepass"),
        "columnar.executor_s": tracer.self_s("columnar.executor"),
        "columnar.chunks_numpy": chunks["numpy"],
        "columnar.chunks_scalar": chunks["scalar"],
        "columnar.fallback_predraw": predraw,
        "columnar.fallback_retry": tracer.calls("columnar.fallback_retry"),
        "columnar.fallback_s": tracer.self_s("columnar.fallback_predraw")
        + tracer.self_s("columnar.fallback_retry"),
        "columnar.plan_hit_ratio": (n - predraw) / n,
        "ndr.render_s": tracer.self_s("ndr.render"),
        "ndr.renders": tracer.calls("ndr.render"),
        "merge.s": tracer.self_s("merge"),
        "record.encode_s": tracer.self_s("record.encode"),
        "shard.write_s": tracer.self_s("shard.write"),
        "shard.bytes": bytes_under(out_dir),
    })
    metrics.update(ablation(config, outcome))
    outcome.metrics = metrics
    outcome.spans = tracer.to_json()


# -- ablation ----------------------------------------------------------------------

ABLATION_MODES = ("reference", "fastpath", "columnar")


def set_acceleration(mode: str) -> None:
    """Select one ablation mode through the public switches."""
    if mode == "reference":
        fastpath.disable()
    else:
        fastpath.enable()
        if mode == "fastpath":
            fastpath.disable_columnar()
        else:
            fastpath.enable_columnar()
    fresh_process_state()


def ablation(config: SimulationConfig, outcome: Outcome) -> dict[str, float]:
    """Delivery time of the first traffic slice plus the first campaign
    slice under reference, fastpath-only and fastpath+columnar execution.

    Worlds and specs are rebuilt per mode (world caches read the switch
    at construction) and left out of the timing."""
    slices = plan_slices(config)
    picked = []
    for kind in ("traffic", "campaign"):
        first = next((s for s in slices if s.kind == kind), None)
        if first is not None:
            picked.append(first)
    times: dict[str, list[float]] = {mode: [] for mode in ABLATION_MODES}
    digests: set[str] = set()
    n_emails = 0
    try:
        for _ in range(ABLATION_ROUNDS):
            for mode in ABLATION_MODES:
                set_acceleration(mode)
                world = build_world(config)
                rng = RandomSource(config.seed, name="sim")
                work = [(s, list(iter_slice_specs(world, rng, s))) for s in picked]
                gc.collect()
                t0 = perf_counter()
                delivered = [
                    list(DeliveryEngine(world, rng.child(f"engine/{s.key}"))
                         .deliver_all(specs))
                    for s, specs in work
                ]
                times[mode].append(perf_counter() - t0)
                digest = hashlib.sha256()
                for records in delivered:
                    for record in records:
                        digest.update(record.to_json().encode())
                        digest.update(b"\n")
                digests.add(digest.hexdigest())
                n_emails = sum(len(records) for records in delivered)
    finally:
        fastpath.enable()
        fastpath.enable_columnar()
        fastpath.reset()
    outcome.expect("ablation modes produce identical records", len(digests) == 1,
                   f"{len(digests)} distinct digests")
    reference, fast, columnar = (median(times[m]) for m in ABLATION_MODES)
    outcome.info["gain_bases"] = (
        "ablation.fastpath_gain=reference_s/fastpath_s,"
        "ablation.columnar_gain=fastpath_s/columnar_s"
    )
    return {
        "ablation.emails": n_emails,
        "ablation.reference_s": reference,
        "ablation.fastpath_s": fast,
        "ablation.columnar_s": columnar,
        "ablation.fastpath_gain": reference / fast,
        "ablation.columnar_gain": fast / columnar,
    }


# -- simulate-workers --------------------------------------------------------------


def worker_startup_s(config: SimulationConfig) -> float:
    """Spawn one process that imports the package and builds the world —
    what each parallel worker does before it delivers."""
    proc = multiprocessing.get_context("spawn").Process(
        target=build_world, args=(config,)
    )
    t0 = perf_counter()
    proc.start()
    proc.join(timeout=120)
    elapsed = perf_counter() - t0
    if proc.exitcode != 0:
        raise RuntimeError(f"worker start-up probe exited with {proc.exitcode}")
    return elapsed


def parallel_to_jsonl(config: SimulationConfig, root: Path, out_file: Path,
                      tracer=NULL) -> tuple[Job, list[dict], int]:
    """One ``simulate --workers 2`` job; also returns the per-worker
    results and the shard bytes the workers wrote."""
    shutil.rmtree(root, ignore_errors=True)
    t0 = perf_counter()
    par = tracer.call("parallel.workers", run_parallel_simulation,
                      config, workers=WORKERS, shard_root=root)
    n = 0
    with tracer.span("parallel.merge"), open(out_file, "w", encoding="utf-8") as fh:
        for record in tracer.iterate("merge", par.iter_records()):
            fh.write(record.to_json())
            fh.write("\n")
            n += 1
    wall = perf_counter() - t0
    shard_bytes = bytes_under(root)
    shutil.rmtree(root)
    job = Job(wall_s=wall, items=n, digest=sha256_files([out_file]))
    return job, par.worker_results, shard_bytes


def simulate_workers(run: Run) -> Outcome:
    configs = run.configs()
    root = run.work / "slices"
    out_file = run.work / "merged.jsonl"
    startup = [worker_startup_s(configs[0]) for _ in range(STARTUP_PROBES)]
    per_input = cycle_for(run.seconds, len(configs),
                          lambda i: parallel_to_jsonl(configs[i], root, out_file)[0])
    outcome = batch_outcome(median(startup), per_input)
    outcome.info["setup_s"] = [round(s, 4) for s in startup]
    # The parallel byte-identity contract: the merged JSONL equals the
    # serial `repro stream` shard payload, world by world.
    serial_dir = run.work / "serial"
    differ = [
        i for i, config in enumerate(configs)
        if stream_to_shards(config, serial_dir).digest != per_input[i][0].digest
    ]
    outcome.expect("workers output equals serial stream", not differ,
                   f"worlds {differ}" if differ else "")
    if differ:
        outcome.failed = outcome.attempted
    if run.trace:
        traced_workers(run, outcome, per_input[0])
    return outcome


def traced_workers(run: Run, outcome: Outcome, untraced: list[Job]) -> None:
    fresh_process_state()
    tracer = Tracer(f"{run.workload}-{run.seed}")
    with patched(io_targets(tracer)):
        job, results, shard_bytes = parallel_to_jsonl(
            run.configs()[0], run.work / "traced-slices", run.work / "traced.jsonl",
            tracer,
        )
    tracer.finish()
    expect_traced(outcome, untraced[0], job.digest, job.items)
    busy = [r["elapsed_s"] for r in results]
    metrics = trace_metrics(tracer, fastest(untraced))
    metrics.update({
        "parallel.workers_s": tracer.busy_s("parallel.workers"),
        "parallel.worker_busy_max_s": max(busy),
        "parallel.worker_busy_min_s": min(busy),
        "parallel.merge_s": tracer.busy_s("parallel.merge"),
        "merge.s": tracer.self_s("merge"),
        "record.encode_s": tracer.self_s("record.encode"),
        "record.decode_s": tracer.self_s("record.decode"),
        "shard.read_s": tracer.self_s("shard.read"),
        "shard.bytes": shard_bytes,
    })
    outcome.metrics = metrics
    outcome.spans = tracer.to_json()


# -- report ------------------------------------------------------------------------


def render(suite: TableSuite) -> tuple[str, int]:
    payload = suite.tables(TOP)
    return render_report(payload, TOP), payload["n_records"]


def report_once(log_dir: Path, tracer=NULL) -> Job:
    """One ``repro report --shards`` job; the digest is the report text's."""
    t0 = perf_counter()
    suite = suite_from_shards([log_dir])
    text, n = tracer.call("analytics.render", render, suite)
    wall = perf_counter() - t0
    return Job(wall_s=wall, items=n, digest=hashlib.sha256(text.encode()).hexdigest())


def report(run: Run) -> Outcome:
    # Set-up writes each world's log the `repro stream` way.
    logs = [run.work / f"log-{i}" for i in range(INPUTS)]
    setups = []
    for config, log in zip(run.configs(), logs):
        fresh_process_state()
        setups.append(stream_to_shards(config, log).wall_s)
    per_input = cycle_for(run.seconds, len(logs), lambda i: report_once(logs[i]))
    outcome = batch_outcome(median(setups), per_input)
    outcome.info["setup_s"] = [round(s, 4) for s in setups]
    covered = all(jobs[0].items == len(ShardReader(log))
                  for jobs, log in zip(per_input, logs))
    outcome.expect("report covers every record of the log", covered)
    differ = []
    for i, log in enumerate(logs):
        dataset = DeliveryDataset(list(ShardReader(log).iter_records()))
        batch = render_report(batch_tables(dataset, top=TOP, labeler=RuleLabeler()), TOP)
        if hashlib.sha256(batch.encode()).hexdigest() != per_input[i][0].digest:
            differ.append(i)
    outcome.expect("streaming report equals batch oracle", not differ,
                   f"worlds {differ}" if differ else "")
    if differ or not covered:
        outcome.failed = outcome.attempted
    if run.trace:
        traced_report(run, outcome, logs[0], per_input[0])
    return outcome


def traced_report(run: Run, outcome: Outcome, log_dir: Path, untraced: list[Job]) -> None:
    fresh_process_state()
    tracer = Tracer(f"{run.workload}-{run.seed}")
    observe = [(TableSuite, "observe_many",
                lambda f: tracer.wrap("analytics.observe", f))]
    with patched(io_targets(tracer) + observe):
        job = report_once(log_dir, tracer)
    tracer.finish()
    expect_traced(outcome, untraced[0], job.digest, job.items)
    metrics = trace_metrics(tracer, fastest(untraced))
    metrics.update({
        "analytics.observe_s": tracer.self_s("analytics.observe"),
        "analytics.records": job.items,
        "analytics.render_s": tracer.self_s("analytics.render"),
        "record.decode_s": tracer.self_s("record.decode"),
        "shard.read_s": tracer.self_s("shard.read"),
        "shard.bytes": bytes_under(log_dir),
    })
    outcome.metrics = metrics
    outcome.spans = tracer.to_json()
