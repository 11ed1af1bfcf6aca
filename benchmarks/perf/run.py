"""The repository benchmark: four workloads, measured end to end.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--scale S]
                                   [--seconds N] [--trace [0|1]]

With ``--workload`` the workload runs in this process: it builds its
inputs from ``--seed`` at simulation scale ``--scale``, repeats its job
for ``--seconds``, checks every output, prints each metric with its unit
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs the same loop, then one traced
job, and reports the per-layer metrics instead (a layer the workload
never enters reads 0).  The exit code is 1 when any output check fails.

Without ``--workload`` every workload runs in a fresh child process,
followed by a traced child when ``--trace`` is given.

Results go to ``.perf-results/`` at the repository root:
``<workload>.json`` / ``<workload>-trace.json`` (stamped with
``bench_provenance()``) and ``trace-<workload>.json`` (the spans).
Scratch files live under ``.perf-work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / ".perf-results"
WORK = ROOT / ".perf-work"

WORKLOADS = ("simulate", "simulate-workers", "report", "serve")


def catalogue() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as ``BENCHMARK.json`` names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload here (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="simulation scale of one job's input")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the job loop measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics from a traced job")
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``spawn`` workers start."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def measure(args: argparse.Namespace):
    """Run the workload in a scratch directory inside the checkout."""
    from serving import serve
    from workloads import Run, report, simulate, simulate_workers

    jobs = {"simulate": simulate, "simulate-workers": simulate_workers,
            "report": report, "serve": serve}
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # Anything that asks for a temporary file, here or in a child, stays
    # inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        return jobs[args.workload](Run(
            workload=args.workload, seed=args.seed, scale=args.scale,
            seconds=args.seconds, trace=bool(args.trace), work=work,
        ))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()


def run_workload(args: argparse.Namespace) -> int:
    from repro.util.provenance import bench_provenance

    end_to_end, per_layer = catalogue()
    wanted = per_layer if args.trace else end_to_end
    outcome = measure(args)

    unknown = sorted(set(outcome.metrics) - set(wanted))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(end_to_end) - set(outcome.metrics))
    if not args.trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    outcome.expect("every metric is finite", finite)
    correct = outcome.failed == 0 and all(c["ok"] for c in outcome.checks)

    provenance = bench_provenance()
    if args.workload == "simulate-workers":
        # A 1-core box cannot run workers in parallel; never read such a
        # result as a parallel number.
        provenance["parallel"] = "armed" if (os.cpu_count() or 1) >= 2 else "unarmed"
    suffix = "-trace" if args.trace else ""
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}{suffix}.json").write_text(json.dumps({
        "provenance": provenance,
        "workload": args.workload,
        "config": {"seed": args.seed, "scale": args.scale,
                   "seconds": args.seconds, "trace": args.trace},
        "output_sha256": outcome.output_sha256,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "info": outcome.info,
        "metrics": metrics,
    }, indent=2) + "\n", encoding="utf-8")
    if outcome.spans is not None:
        (RESULTS / f"trace-{args.workload}.json").write_text(json.dumps({
            "provenance": provenance,
            "workload": args.workload,
            "spans": outcome.spans,
        }, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload}: seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in outcome.info.items()
                     if not isinstance(v, list)))
    if provenance.get("parallel") == "unarmed":
        print(f"{args.workload}: parallel unarmed (cpu_count < 2)")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'output_sha256':28s} {outcome.output_sha256}")
    for check in outcome.checks:
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  check {status} {args.workload}: {check['check']}{detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process; a traced child follows
    when ``--trace`` is given."""
    code = 0
    summary: dict[str, dict] = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--scale", str(args.scale),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            print(child.stdout, end="", flush=True)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"{workload}: failed (exit {child.returncode})", file=sys.stderr)
                code = 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            key = f"{workload}-trace" if trace else workload
            summary[key] = result["metrics"]
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no package at {SRC / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload is None:
        return run_all(args)
    # Unwind on SIGTERM too, so servers and workers are stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
