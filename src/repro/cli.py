"""Command-line interface.

Subcommands:

* ``simulate`` — run a simulation and write the delivery log as JSONL
  (the paper's Figure 3 record format).
* ``stream``   — streaming simulate: records go straight into rotating
  JSONL shards with a checksummed manifest (bounded memory).
* ``recover``  — salvage a shard directory left behind by a crashed
  producer (truncate torn tails, re-hash, rebuild the manifest).
* ``watch``    — replay a saved log (file or shard dir) through the
  online EBRC and the sliding-window deliverability monitors.
* ``report``   — paper tables over a saved log, shard directories
  (``--shards``, optionally fanned across ``--workers``), or NDJSON
  records on stdin (``-``) — all through the streaming accumulator
  suite (docs/ANALYTICS.md); ``--batch`` runs the in-memory oracle.
* ``classify`` — classify NDR lines with an EBRC trained on a saved log
  or loaded from a saved artifact; ``-`` reads lines from stdin.
* ``fit``      — train an EBRC on a saved log and save the artifact
  (the model file ``repro serve`` loads and hot-reloads).
* ``serve``    — long-running classify/monitor HTTP daemon with
  backpressure, hot model reload, and graceful drain (docs/SERVING.md).
* ``loadtest`` — closed-loop load generator against a running daemon;
  verifies responses against serial classification and writes
  ``BENCH_serve.json``.
* ``explain``  — reconstruct the SMTP dialogue behind one email's attempts.
* ``trace``    — reconstruct delivery span trees from a saved log.
* ``metrics``  — run with telemetry on and render the metrics, or
  re-render a saved JSON snapshot.
* ``squat``    — run the squatting audit on a fresh simulation.
* ``branch``   — apply declared what-if interventions to a saved
  checkpoint and write the branched checkpoint with lineage
  (docs/CHECKPOINTS.md; ``--list-interventions`` for the catalog).
* ``diff-runs`` — per-bounce-type/per-table deltas between two delivery
  logs, rendered through the streaming analytics suite.
* ``version``  — print the package version (also ``--version``).

``simulate`` also does temporal segmentation: ``--until DAY`` stops at
a day boundary, ``--save-checkpoint DIR`` captures the complete
simulation state there, and ``--from-checkpoint DIR`` resumes it —
chained segments are byte-identical to one uninterrupted run at any
worker count.

Output conventions: *data* (tables, JSONL, traces, metric expositions)
goes to stdout; progress and status chatter goes to stderr, and
``--quiet`` silences it.  Telemetry flags (``--metrics-out``,
``--trace-sample``) turn collection on for that invocation only; the
simulation output stays byte-identical either way.

Entry point: ``repro`` / ``repro-bounce`` (or ``python -m repro.cli``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro import SimulationConfig, __version__, run_simulation
from repro.delivery.dataset import DeliveryDataset

#: Set per-invocation by :func:`main`; silences :func:`_status` output.
_QUIET = False


def _status(message: str = "") -> None:
    """Progress/status chatter: stderr, suppressed by ``--quiet``."""
    if not _QUIET:
        print(message, file=sys.stderr)


def _add_quiet(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps the top-level --quiet value when the subcommand-level
    # flag is absent (both write the same dest).
    parser.add_argument("-q", "--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress progress/status output")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="collect telemetry and write metrics to PATH "
                             "('-' = stdout)")
    parser.add_argument("--metrics-format", choices=("prometheus", "json"),
                        default="prometheus")
    parser.add_argument("--trace-sample", type=int, default=0, metavar="N",
                        help="trace every Nth email (0 = tracing off)")
    parser.add_argument("--trace-out", default="traces.jsonl", metavar="PATH",
                        help="where traced span trees go, as JSONL "
                             "('-' = stdout)")
    parser.add_argument("--trace-capacity", type=int, default=256,
                        help="ring-buffer size for kept traces")


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the fast-path caches (repro.core.fastpath); output "
             "is byte-identical either way — this exists for verification "
             "and benchmarking")
    parser.add_argument(
        "--no-columnar", action="store_true",
        help="deliver email-by-email instead of through the columnar "
             "batch engine (repro.delivery.columnar); output is "
             "byte-identical either way — this exists so the batch "
             "engine can be diffed independently of the caches "
             "(--no-cache implies reference delivery already)")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the simulation across N worker processes; output is "
             "byte-identical to a single-process run for every N "
             "(1 = in-process, the default)")
    parser.add_argument(
        "--resume", action="store_true",
        help="keep per-slice shards in a persistent <output>.slices "
             "directory and reuse verified-complete slices from a "
             "previous (killed) run; output stays byte-identical to an "
             "uninterrupted run")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bounce",
        description="Bounce-in-the-Wild reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", default=False,
                        help="suppress progress/status output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a simulation, write JSONL")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="delivery_log.jsonl")
    p.add_argument("--until", type=int, default=None, metavar="DAY",
                   help="stop at this day boundary (records with t < day "
                        "DAY only); combine with --save-checkpoint to "
                        "resume later")
    p.add_argument("--from-checkpoint", default=None, metavar="DIR",
                   dest="from_checkpoint",
                   help="resume simulated time from a checkpoint directory "
                        "(--scale/--seed are taken from it)")
    p.add_argument("--save-checkpoint", default=None, metavar="DIR",
                   dest="save_checkpoint",
                   help="save the end-of-run state as a checkpoint")
    _add_workers(p)
    _add_cache_flag(p)
    _add_obs_flags(p)
    _add_quiet(p)

    p = sub.add_parser("stream", help="streaming simulate -> sharded JSONL")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-dir", default="delivery_shards")
    p.add_argument("--shard-size", type=int, default=50_000,
                   help="records per shard before rotation")
    p.add_argument("--gzip", action="store_true", help="compress shards")
    _add_workers(p)
    p.add_argument("--progress-every", type=int, default=10_000,
                   help="print progress every N records (0 = quiet)")
    _add_cache_flag(p)
    _add_obs_flags(p)
    _add_quiet(p)

    p = sub.add_parser("recover", help="salvage a shard directory whose "
                                       "producer crashed mid-write")
    p.add_argument("directory", help="shard directory to salvage")
    p.add_argument("--finalize", action="store_true",
                   help="write a final manifest for the salvaged shards "
                        "(default: record them in manifest.partial.json, "
                        "keeping the directory detectably incomplete)")
    _add_quiet(p)

    p = sub.add_parser("watch", help="replay a log through the online "
                                     "EBRC + deliverability monitors")
    p.add_argument("log", help="delivery log: JSONL file or shard directory")
    p.add_argument("--labeler", choices=("online-ebrc", "rules"),
                   default="online-ebrc")
    p.add_argument("--warmup", type=int, default=2000,
                   help="NDR lines buffered before the first EBRC fit")
    p.add_argument("--window-hours", type=float, default=48.0,
                   help="sliding-window span for rate/type monitors")
    p.add_argument("--bounce-rate-threshold", type=float, default=0.35)
    p.add_argument("--max-alerts", type=int, default=0,
                   help="stop after N alerts (0 = no limit)")
    p.add_argument("--report-every", type=int, default=0, metavar="N",
                   help="print the live paper tables every N replayed "
                        "records (0 = off); the final print matches "
                        "`repro report` over the same log")
    p.add_argument("--report-top", type=int, default=10, metavar="K",
                   help="rows per ranking table in --report-every output")
    _add_obs_flags(p)
    _add_quiet(p)

    p = sub.add_parser("metrics", help="run with telemetry on and render "
                                       "metrics, or re-render a snapshot")
    p.add_argument("snapshot", nargs="?", default=None,
                   help="saved JSON snapshot to re-render (default: run a "
                        "fresh streaming simulation with telemetry on)")
    p.add_argument("--format", choices=("prometheus", "json"),
                   default="prometheus")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=7)
    _add_quiet(p)

    p = sub.add_parser("trace", help="reconstruct delivery span trees "
                                     "from a saved log")
    p.add_argument("log", help="delivery log: JSONL file or shard directory")
    p.add_argument("--message-id", default=None,
                   help="show the span tree of this message id")
    p.add_argument("--index", type=int, default=None,
                   help="show the span tree of the Nth record")
    p.add_argument("--list", type=int, default=0, dest="list_n", metavar="N",
                   help="list the first N message ids instead")
    p.add_argument("--json", action="store_true",
                   help="emit span trees as JSON instead of rendered text")
    _add_quiet(p)

    p = sub.add_parser("report", help="paper tables over a saved delivery "
                                      "log (streaming accumulators)")
    p.add_argument("dataset", nargs="?", default=None,
                   help="delivery log: JSONL file, shard directory, or '-' "
                        "(NDJSON records on stdin)")
    p.add_argument("--shards", action="append", default=[], metavar="DIR",
                   help="stream a shard directory instead of a dataset "
                        "(repeatable; directories merge in order)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="with --shards: fold shards across N processes and "
                        "merge the partial suites; output is byte-identical "
                        "for every N")
    p.add_argument("--batch", action="store_true",
                   help="compute with the in-memory batch oracle instead of "
                        "the streaming suite; output is byte-identical — "
                        "this exists for verification")
    p.add_argument("--labeler", choices=("rules", "ebrc"), default="rules",
                   help="'ebrc' trains on the dataset's NDRs and implies "
                        "--batch (the streaming suite labels with rules)")
    p.add_argument("--top", type=int, default=10)
    _add_quiet(p)

    p = sub.add_parser("classify", help="classify NDR lines (EBRC)")
    p.add_argument("dataset", nargs="?", default=None,
                   help="training corpus (saved delivery log); optional "
                        "with --artifact")
    p.add_argument("lines", nargs="?", default=None,
                   help="file of NDR lines to classify, '-' = stdin")
    p.add_argument("--artifact", default=None, metavar="PATH",
                   help="load a saved EBRC artifact (repro fit / EBRC.save) "
                        "instead of training on the dataset")
    p.add_argument("--message", action="append", default=[],
                   help="NDR line to classify (repeatable); stdin otherwise")
    _add_quiet(p)

    p = sub.add_parser("fit", help="train an EBRC on a saved delivery log "
                                   "and save the artifact")
    p.add_argument("dataset", help="delivery log: JSONL file or shard directory")
    p.add_argument("--out", default="ebrc.json",
                   help="where the artifact goes (repro serve loads this)")
    _add_quiet(p)

    p = sub.add_parser("serve", help="long-running classify/monitor daemon "
                                     "(docs/SERVING.md)")
    p.add_argument("--artifact", required=True, metavar="PATH",
                   help="saved EBRC artifact to serve (hot-reloaded on change)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="listen port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="requests executing at once before queueing")
    p.add_argument("--max-queue", type=int, default=32,
                   help="bounded request queue depth (429 beyond this)")
    p.add_argument("--max-wait-ms", type=float, default=500.0,
                   help="longest a queued request waits before 429")
    p.add_argument("--reload-interval", type=float, default=2.0, metavar="S",
                   help="artifact poll interval for hot reload (0 = off)")
    p.add_argument("--trace-sample", type=int, default=0, metavar="N",
                   help="keep a span tree for every Nth observed record")
    p.add_argument("--trace-capacity", type=int, default=256,
                   help="ring-buffer size for kept traces (GET /traces)")
    p.add_argument("--snapshot-out", default=None, metavar="PATH",
                   help="write a final metrics snapshot (JSON) on drain")
    _add_quiet(p)

    p = sub.add_parser("loadtest", help="closed-loop load harness against a "
                                        "running repro serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="read the daemon's port from this file instead")
    p.add_argument("--artifact", required=True, metavar="PATH",
                   help="the SAME artifact the daemon serves — the serial "
                        "oracle every response is verified against")
    p.add_argument("--requests", type=int, default=2000)
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--batch", type=int, default=1,
                   help="messages per request (1 = POST /classify, "
                        ">1 = POST /classify_many)")
    p.add_argument("--corpus-scale", type=float, default=0.01,
                   help="simulation scale the NDR corpus is synthesized at")
    p.add_argument("--corpus-seed", type=int, default=7)
    p.add_argument("--retry-cap", type=float, default=1.0, metavar="S",
                   help="cap on honoured Retry-After sleeps")
    p.add_argument("--out", default="BENCH_serve.json",
                   help="bench artifact path ('-' = skip)")
    _add_quiet(p)

    p = sub.add_parser("explain", help="show the SMTP dialogue of one email")
    p.add_argument("dataset")
    p.add_argument("--index", type=int, default=None,
                   help="record index (default: first bounced record)")
    _add_quiet(p)

    p = sub.add_parser("squat", help="squatting audit on a fresh simulation")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    _add_quiet(p)

    p = sub.add_parser("recommend", help="postmaster recommendations (§6.2)")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    _add_quiet(p)

    p = sub.add_parser("world-info", help="summarise the synthetic world")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    _add_quiet(p)

    p = sub.add_parser("compare", help="paper-vs-measured scorecard")
    p.add_argument("--scale", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=7)
    _add_quiet(p)

    p = sub.add_parser("full-report", help="run every analysis on a fresh simulation")
    p.add_argument("--scale", type=float, default=0.12)
    p.add_argument("--seed", type=int, default=7)
    _add_quiet(p)

    p = sub.add_parser("branch", help="apply what-if interventions to a "
                                      "saved checkpoint")
    p.add_argument("checkpoint", nargs="?", default=None,
                   help="source checkpoint directory")
    p.add_argument("out", nargs="?", default=None,
                   help="destination checkpoint directory")
    p.add_argument("--apply", action="append", default=[],
                   metavar="NAME[:ARG]",
                   help="intervention spec (repeatable); see "
                        "--list-interventions")
    p.add_argument("--list-interventions", action="store_true",
                   help="print the intervention catalog and exit")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the deep state-digest check on load")
    _add_quiet(p)

    p = sub.add_parser("diff-runs", help="per-table deltas between two "
                                         "delivery logs")
    p.add_argument("run_a", help="baseline log (JSONL file or shard dir)")
    p.add_argument("run_b", help="branch log (JSONL file or shard dir)")
    p.add_argument("--top", type=int, default=10,
                   help="receiver domains per side in the domain table")
    p.add_argument("--label-a", default="baseline")
    p.add_argument("--label-b", default="branch")
    p.add_argument("--json", action="store_true",
                   help="emit the structured diff as JSON instead of tables")
    _add_quiet(p)

    p = sub.add_parser("scenario", help="list, render, or run the scenario "
                                        "packs (repro.scenario)")
    p.add_argument("action", choices=("list", "show", "run"),
                   help="list packs, show a pack's compiled ops, or run one")
    p.add_argument("pack", nargs="?", default=None,
                   help="pack name (see `repro scenario list`)")
    p.add_argument("--scale", type=float, default=None,
                   help="override the pack's pinned scale")
    p.add_argument("--seed", type=int, default=None,
                   help="override the pack's pinned seed")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the delivery log as JSONL (default: "
                        "<pack>.jsonl; '-' = don't write)")
    p.add_argument("--no-report", action="store_true",
                   help="skip the recovery analysis report")
    _add_workers(p)
    _add_cache_flag(p)
    _add_quiet(p)

    sub.add_parser("version", help="print the package version")
    return parser


@contextmanager
def _run(args, config, slices_dir, ckpt=None, until=None):
    """A run of ``config`` (or of checkpoint ``ckpt``) up to day ``until``
    (``None``: the whole window): across worker processes with
    ``--workers N`` (N > 1) or ``--resume``, which keeps per-slice shards
    in ``slices_dir`` and reuses the verified ones; in process otherwise.
    Either way it is a segment from the checkpoint's progress, or from
    fresh progress."""
    if args.workers > 1 or args.resume:
        from repro.parallel.runner import run_parallel_simulation

        with run_parallel_simulation(
            config if ckpt is None else ckpt, args.workers,
            shard_root=slices_dir if args.resume else None,
            resume=args.resume, until_day=until,
        ) as run:
            _status(f"parallel run: {run.workers} worker(s), "
                    f"{len(run.slices)} slice(s), {run.elapsed_s:.1f}s")
            if args.resume:
                _status(f"resume: reused {len(run.resumed_slices)} slice(s), "
                        f"re-ran {len(run.rerun_slices)}; slices kept in "
                        f"{slices_dir}")
            yield run
        return
    from repro.stream.runner import fresh_progress, run_segment

    if ckpt is not None:
        world, progress = ckpt.world, ckpt.progress
    else:
        from repro.obs import profile as obs_profile
        from repro.world.model import build_world

        with obs_profile.stage("world-build"):
            world = build_world(config)
        progress = fresh_progress(config)
    yield run_segment(world, progress, world.clock.n_days if until is None else until)


def _cmd_simulate(args) -> int:
    """Run days ``[from, until)`` of a fresh config or of a checkpoint
    and stream the records into ``--out`` (gzip for ``.gz``);
    ``--save-checkpoint`` then saves the state at the cut
    (docs/CHECKPOINTS.md)."""
    from collections import Counter
    from pathlib import Path

    from repro.analysis.degrees import DegreeBreakdown
    from repro.analysis.report import pct
    from repro.core.taxonomy import BounceDegree
    from repro.util.clock import SimClock

    checkpointed = (args.until is not None or args.from_checkpoint
                    or args.save_checkpoint)
    if args.resume and checkpointed:
        print("simulate: --resume restarts slices within one run; "
              "checkpoints resume simulated time — use --from-checkpoint",
              file=sys.stderr)
        return 2
    ckpt = None
    if args.from_checkpoint:
        from repro.checkpoint import CheckpointError, load_checkpoint

        try:
            ckpt = load_checkpoint(args.from_checkpoint)
        except CheckpointError as exc:
            print(f"simulate: {exc}", file=sys.stderr)
            return 2
        config, from_day = ckpt.config, ckpt.day
        _status(f"restored {ckpt.name!r} at day {from_day} "
                f"(digest {ckpt.meta['digest'][:12]})")
    else:
        config, from_day = SimulationConfig(scale=args.scale, seed=args.seed), 0
    n_days = SimClock(config.start, config.end).n_days
    until = n_days if args.until is None else args.until
    if not from_day < until <= n_days:
        print(f"simulate: --until must be a day in ({from_day}, {n_days}]",
              file=sys.stderr)
        return 2

    degrees: Counter = Counter()
    with _run(args, config, f"{args.out}.slices", ckpt,
              until if checkpointed else None) as run:
        with DeliveryDataset._open(Path(args.out), "w") as fh:
            for record in run:
                fh.write(record.to_json())
                fh.write("\n")
                degrees[record.bounce_degree] += 1
        progress = run.progress
    breakdown = DegreeBreakdown(
        n_emails=sum(degrees.values()),
        n_non=degrees[BounceDegree.NON_BOUNCED],
        n_soft=degrees[BounceDegree.SOFT_BOUNCED],
        n_hard=degrees[BounceDegree.HARD_BOUNCED],
    )
    _status(f"simulated {breakdown.n_emails:,} emails, days [{from_day}, "
            f"{until}) (scale={config.scale}, seed={config.seed})")
    _status(f"non/soft/hard: {pct(breakdown.non_fraction)} / "
            f"{pct(breakdown.soft_fraction)} / {pct(breakdown.hard_fraction)}")
    _status(f"wrote {args.out}")
    if args.save_checkpoint:
        from repro.checkpoint import save_checkpoint

        save_checkpoint(args.save_checkpoint, run.world, until, progress)
        _status(f"checkpoint saved: {args.save_checkpoint} (day {until})")
    return 0


def _cmd_branch(args) -> int:
    from repro.checkpoint import (
        CheckpointError,
        branch_checkpoint,
        intervention_catalog,
    )

    if args.list_interventions:
        print(intervention_catalog())
        return 0
    if not args.checkpoint or not args.out:
        print("branch: need SOURCE and DEST checkpoint directories "
              "(or --list-interventions)", file=sys.stderr)
        return 2
    if not args.apply:
        print("branch: need at least one --apply NAME[:ARG]; see "
              "--list-interventions", file=sys.stderr)
        return 2
    try:
        summaries = branch_checkpoint(
            args.checkpoint, args.out, args.apply,
            verify=not args.no_verify,
        )
    except (CheckpointError, ValueError) as exc:
        print(f"branch: {exc}", file=sys.stderr)
        return 2
    for line in summaries:
        _status(f"  {line}")
    _status(f"branched {args.checkpoint} -> {args.out}")
    print(args.out)
    return 0


def _cmd_diff_runs(args) -> int:
    import json

    from repro.checkpoint import diff_runs

    try:
        diff, text = diff_runs(
            args.run_a, args.run_b, top=args.top,
            label_a=args.label_a, label_b=args.label_b,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"diff-runs: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, sort_keys=True))
    else:
        print(text, end="")
    return 0


def _cmd_stream(args) -> int:
    from repro.stream.sink import ShardWriter
    from repro.util.clock import SimClock

    config = SimulationConfig(scale=args.scale, seed=args.seed)
    clock = SimClock(config.start, config.end)
    with _run(args, config, f"{args.out_dir}.slices") as run, ShardWriter(
        args.out_dir, shard_size=args.shard_size, compress=args.gzip
    ) as writer:
        for record in run:
            writer.write(record)
            n = writer.n_written
            if args.progress_every and n % args.progress_every == 0:
                _status(f"  {n:,} records "
                        f"(sim day {clock.day_index(record.start_time)}"
                        f"/{clock.n_days})")
    manifest = writer.manifest
    _status(f"streamed {manifest.n_records:,} records into "
            f"{len(manifest.shards)} shard(s) under {args.out_dir} "
            f"(scale={args.scale}, seed={args.seed})")
    _status(f"manifest: {args.out_dir}/manifest.json")
    return 0


def _cmd_recover(args) -> int:
    from repro.stream.sink import recover_shards

    report = recover_shards(args.directory, finalize=args.finalize)
    if report.already_complete:
        _status(f"{args.directory}: final manifest is valid; nothing to do")
        return 0
    for shard in report.shards:
        note = ""
        if shard.rewritten:
            note = f"  (truncated, dropped {shard.n_dropped_lines} line(s))"
        print(f"{shard.name}  records={shard.n_records}{note}")
    print(f"salvaged {report.n_records:,} record(s) in "
          f"{len(report.shards)} shard(s)"
          + (f", dropped {report.n_dropped_lines} torn line(s)"
             if report.torn else ""))
    if report.finalized:
        _status(f"wrote final manifest: {args.directory}/manifest.json")
    else:
        _status(f"recorded salvage in {args.directory}/manifest.partial.json "
                "(--finalize writes a final manifest)")
    return 0


def _cmd_watch(args) -> int:
    from repro.stream.monitor import (
        BounceRateMonitor,
        BounceTypeMonitor,
        DeliverabilityMonitor,
        RecordClassifier,
    )
    from repro.stream.online import OnlineEBRC
    from repro.stream.sink import iter_delivery_log
    from repro.util.clock import SimClock

    clock = SimClock()
    window_s = args.window_hours * 3600.0
    monitor = DeliverabilityMonitor(
        bounce_rate=BounceRateMonitor(
            window_s=window_s, threshold=args.bounce_rate_threshold
        ),
        bounce_types=BounceTypeMonitor(window_s=window_s),
    )

    # Watch has no delivery engine, so --trace-sample reconstructs trees
    # from replayed records instead of tracing live — using the same
    # content-keyed 1-in-N rule as the live tracer, so a watch over a
    # shard dir traces exactly the emails a live traced run would have.
    trace_fh = None
    n_traced = 0
    if args.trace_sample:
        from repro.obs.trace import sample_hit, span_tree_from_record

        trace_fh = (sys.stdout if args.trace_out == "-"
                    else open(args.trace_out, "w", encoding="utf-8"))

    reporter = None
    if args.report_every:
        from repro.stream.report_hook import PeriodicTableReporter

        reporter = PeriodicTableReporter(args.report_every,
                                         top=args.report_top)

    def records():
        nonlocal n_traced
        for record in iter_delivery_log(args.log):
            if trace_fh is not None and sample_hit(
                record.message_id, args.trace_sample
            ):
                trace_fh.write(span_tree_from_record(record).to_json() + "\n")
                n_traced += 1
            if reporter is not None:
                rendered = reporter.feed(record)
                if rendered is not None:
                    print(f"--- live tables @ {reporter.n_records:,} "
                          f"records ---")
                    print(rendered, end="")
            yield record

    if args.labeler == "rules":
        from repro.analysis.label import RuleLabeler

        labeler = RuleLabeler()

        def pairs():
            for record in records():
                failure = record.first_failure()
                bounce_type = (
                    labeler.classify(failure.result) if failure else None
                )
                yield record, bounce_type

        online = None
        stream = pairs()
    else:
        online = OnlineEBRC(warmup=args.warmup)
        classifier = RecordClassifier(online)

        def pairs():
            for record in records():
                yield from classifier.feed(record)
            yield from classifier.finalize()

        stream = pairs()

    n_alerts = 0
    try:
        for alert in monitor.watch(stream):
            print(alert.render(clock))
            if not alert.cleared:
                n_alerts += 1
                if args.max_alerts and n_alerts >= args.max_alerts:
                    _status(f"stopping after {n_alerts} alerts (--max-alerts)")
                    break
    finally:
        if trace_fh is not None and trace_fh is not sys.stdout:
            trace_fh.close()
    if reporter is not None:
        rendered = reporter.final()
        if rendered is not None:
            print(f"--- final tables @ {reporter.n_records:,} records ---")
            print(rendered, end="")
    _status()
    _status(f"watch summary: {monitor.summary()}")
    if online is not None and online.fitted:
        _status(f"online EBRC: {online.n_templates} templates, "
                f"{online.stats.n_flushed:,} classified, "
                f"cache hit rate {online.stats.cache_hit_rate:.1%}, "
                f"novel fraction {online.novel_fraction:.2%}")
    if trace_fh is not None:
        _status(f"traced {n_traced} record(s) -> {args.trace_out}")
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import build_snapshot, load_snapshot, write_metrics

    if args.snapshot is not None:
        snapshot = load_snapshot(args.snapshot)
        write_metrics(args.out, args.format, snapshot)
        return 0

    from repro.obs import profile as obs_profile
    from repro.stream.runner import iter_simulation

    obs_metrics.enable()
    obs_metrics.reset()
    obs_profile.reset()
    # Module-level fastpath memos bound their (no-op) counters at import;
    # rebind them now that telemetry is live.
    from repro.core import fastpath

    fastpath.reset()
    try:
        config = SimulationConfig(scale=args.scale, seed=args.seed)
        n = 0
        for _ in iter_simulation(config):
            n += 1
        _status(f"simulated {n:,} emails with telemetry on "
                f"(scale={args.scale}, seed={args.seed})")
        write_metrics(args.out, args.format, build_snapshot())
    finally:
        obs_metrics.disable()
        obs_metrics.reset()
        obs_profile.reset()
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.report import render_table
    from repro.obs.trace import span_tree_from_record
    from repro.stream.sink import iter_delivery_log

    if args.list_n:
        rows = []
        for i, record in enumerate(iter_delivery_log(args.log)):
            if i >= args.list_n:
                break
            rows.append([i, record.message_id, record.sender, record.receiver,
                         record.bounce_degree.value, record.n_attempts])
        print(render_table(
            "Traceable emails",
            ["#", "message_id", "sender", "receiver", "degree", "attempts"],
            rows,
        ))
        return 0

    target = None
    if args.message_id is not None:
        for record in iter_delivery_log(args.log):
            if record.message_id == args.message_id:
                target = record
                break
        if target is None:
            print(f"no record with message id {args.message_id}",
                  file=sys.stderr)
            return 1
    else:
        index = args.index if args.index is not None else 0
        for i, record in enumerate(iter_delivery_log(args.log)):
            if i == index:
                target = record
                break
        if target is None:
            print(f"index {index} out of range", file=sys.stderr)
            return 1

    tree = span_tree_from_record(target)
    if args.json:
        print(tree.to_json())
    else:
        print(tree.render())
    return 0


def _cmd_report(args) -> int:
    from repro.analytics.render import render_report
    from repro.delivery.dataset import RecordDecodeError
    from repro.parallel.errors import ParallelExecutionError
    from repro.stream.sink import ShardIntegrityError

    batch = args.batch or args.labeler == "ebrc"
    if args.shards and (args.dataset is not None or batch):
        print("report: --shards cannot be combined with a dataset "
              "positional, --batch, or --labeler ebrc", file=sys.stderr)
        return 2
    if not args.shards and args.dataset is None:
        print("report: need a dataset path, '-' (stdin), or --shards",
              file=sys.stderr)
        return 2
    if args.dataset == "-" and batch:
        print("report: --batch/--labeler ebrc need a saved dataset, "
              "not stdin", file=sys.stderr)
        return 2
    try:
        payload = _report_payload(args, batch)
    except (RecordDecodeError, ShardIntegrityError,
            ParallelExecutionError) as exc:
        # A worker's error names the failure on its first line; the rest
        # is the worker's traceback.
        first_line = str(exc).partition("\n")[0]
        print(f"report: {first_line}", file=sys.stderr)
        return 2
    if not payload["n_records"]:
        print("empty dataset", file=sys.stderr)
        return 1
    print(render_report(payload, args.top), end="")
    return 0


def _report_payload(args, batch: bool) -> dict:
    """The table payload of the log ``report`` was pointed at."""
    if args.shards:
        from repro.analytics.parallel import suite_from_shards

        return suite_from_shards(args.shards, workers=args.workers).tables(args.top)
    if batch:
        from repro.analysis.label import EBRCLabeler, RuleLabeler
        from repro.analytics.batch import batch_tables
        from repro.stream.sink import iter_delivery_log

        dataset = DeliveryDataset(list(iter_delivery_log(args.dataset)))
        labeler = RuleLabeler() if args.labeler == "rules" else EBRCLabeler()
        return batch_tables(dataset, top=args.top, labeler=labeler)
    from repro.analytics import TableSuite

    suite = TableSuite()
    if args.dataset == "-":
        from repro.delivery.dataset import iter_ndjson_records

        suite.observe_many(iter_ndjson_records(sys.stdin))
    else:
        from repro.stream.sink import iter_delivery_log

        suite.observe_many(iter_delivery_log(args.dataset))
    return suite.tables(args.top)


def _read_ndr_lines(source: str) -> list[str]:
    """NDR lines from a file path or ``-`` (stdin); blanks dropped."""
    if source == "-":
        return [l.strip() for l in sys.stdin if l.strip()]
    with open(source, encoding="utf-8") as fh:
        return [l.strip() for l in fh if l.strip()]


def _cmd_classify(args) -> int:
    from repro.serve.handlers import classify_rows, render_row

    # With --artifact the first positional is the lines source, so both
    # `classify log.jsonl -` and `classify --artifact m.json -` read well.
    dataset_path, lines_src = args.dataset, args.lines
    if args.artifact is not None and lines_src is None:
        dataset_path, lines_src = None, args.dataset

    if args.artifact is not None:
        from repro.core.ebrc import EBRC

        classify = EBRC.load(args.artifact).classify
    else:
        if dataset_path is None:
            print("classify: need a training dataset or --artifact",
                  file=sys.stderr)
            return 2
        from repro.analysis.label import EBRCLabeler

        dataset = DeliveryDataset.read_jsonl(dataset_path)
        corpus = dataset.ndr_messages()
        if not corpus:
            print("dataset has no NDR messages to train on", file=sys.stderr)
            return 1
        classify = EBRCLabeler().fit(corpus).classify

    lines = list(args.message)
    if lines_src is not None:
        lines.extend(_read_ndr_lines(lines_src))
    elif not lines:
        lines = _read_ndr_lines("-")
    # classify_rows is the exact code path POST /classify serves, so a
    # shell pipeline and an HTTP client can never disagree on a label.
    for row in classify_rows(classify, lines):
        print(render_row(row))
    return 0


def _cmd_fit(args) -> int:
    from repro.core.ebrc import EBRC, artifact_fingerprint
    from repro.stream.sink import iter_delivery_log

    corpus = [
        attempt.result
        for record in iter_delivery_log(args.dataset)
        for attempt in record.attempts
        if not attempt.succeeded
    ]
    if not corpus:
        print("dataset has no NDR messages to train on", file=sys.stderr)
        return 1
    ebrc = EBRC().fit(corpus)
    ebrc.save(args.out)
    _status(f"fitted EBRC on {len(corpus):,} NDR lines: "
            f"{ebrc.n_templates} templates")
    _status(f"wrote {args.out} "
            f"(fingerprint {artifact_fingerprint(args.out)[:12]})")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import ServeConfig, run_server

    config = ServeConfig(
        artifact=args.artifact,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_wait_s=args.max_wait_ms / 1000.0,
        reload_interval_s=args.reload_interval,
        trace_sample=args.trace_sample,
        trace_capacity=args.trace_capacity,
        snapshot_out=args.snapshot_out,
    )
    return run_server(config, status=_status)


def _cmd_loadtest(args) -> int:
    from pathlib import Path

    from repro.serve.loadgen import LoadConfig, run_loadtest

    port = args.port
    if port is None and args.port_file:
        port = int(Path(args.port_file).read_text(encoding="utf-8").strip())
    if port is None:
        print("loadtest: need --port or --port-file", file=sys.stderr)
        return 2
    config = LoadConfig(
        host=args.host,
        port=port,
        artifact=args.artifact,
        n_requests=args.requests,
        concurrency=args.concurrency,
        batch=args.batch,
        corpus_scale=args.corpus_scale,
        corpus_seed=args.corpus_seed,
        retry_cap_s=args.retry_cap,
    )
    _status(f"loadtest: {args.requests} requests x {args.batch} message(s), "
            f"{args.concurrency} closed-loop workers -> "
            f"http://{args.host}:{port}")
    report = run_loadtest(config)
    print(f"requests: {report.n_requests:,}  "
          f"messages: {report.n_messages:,}  "
          f"duration: {report.duration_s:.2f}s")
    print(f"throughput: {report.requests_per_s:,.0f} req/s  "
          f"{report.messages_per_s:,.0f} msg/s")
    latency = report.latency_ms
    print(f"latency ms: p50={latency['p50']} p95={latency['p95']} "
          f"p99={latency['p99']} max={latency['max']}")
    print(f"backpressure: {report.backpressure_429} x 429  "
          f"mismatches: {report.mismatches}")
    if args.out != "-":
        report.write_bench(args.out)
        _status(f"wrote {args.out}")
    if report.mismatches or report.errors:
        for err in report.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args) -> int:
    from repro.smtp.session import transcript_for_attempt

    dataset = DeliveryDataset.read_jsonl(args.dataset)
    if args.index is None:
        index = next((i for i, r in enumerate(dataset) if r.bounced), 0)
    else:
        index = args.index
    if not 0 <= index < len(dataset):
        print(f"index {index} out of range (0..{len(dataset) - 1})", file=sys.stderr)
        return 1
    record = dataset[index]
    print(f"record #{index}: {record.sender} -> {record.receiver} "
          f"[{record.bounce_degree.value}] flag={record.email_flag}")
    for i, attempt in enumerate(record.attempts, 1):
        print(f"\n--- attempt {i} (proxy {attempt.from_ip}) ---")
        transcript = transcript_for_attempt(
            attempt, record.sender, record.receiver,
            mx_host=f"mx1.{record.receiver_domain}",
        )
        print(transcript.render())
        print(f"outcome: {transcript.outcome}")
    return 0


def _cmd_squat(args) -> int:
    from repro.analysis.label import LabeledDataset, RuleLabeler
    from repro.analysis.squatting import squatting_report

    result = run_simulation(SimulationConfig(scale=args.scale, seed=args.seed))
    labeled = LabeledDataset(result.dataset, RuleLabeler())
    report = squatting_report(labeled, result.world)
    print(f"vulnerable domains: {report.n_vulnerable_domains} "
          f"({report.total_domain_emails()} emails, "
          f"{report.total_domain_senders()} senders)")
    print(f"with receive history: {len(report.domains_with_history())}; "
          f"re-registered: {len(report.reregistered_domains())}")
    print(f"vulnerable usernames: {report.n_vulnerable_usernames}")
    for domain in report.domains[:10]:
        flags = []
        if domain.historically_received:
            flags.append("history")
        if domain.reregistered:
            flags.append("re-registered")
        if domain.registrant_changed:
            flags.append("new-owner")
        print(f"  {domain.domain}  emails={domain.n_emails} "
              f"senders={domain.n_senders} {' '.join(flags)}")
    return 0


def _cmd_recommend(args) -> int:
    from repro.analysis.label import LabeledDataset, RuleLabeler
    from repro.analysis.recommendations import build_recommendations

    result = run_simulation(SimulationConfig(scale=args.scale, seed=args.seed))
    labeled = LabeledDataset(result.dataset, RuleLabeler())
    for rec in build_recommendations(labeled, result.world):
        print(rec.render())
        print()
    return 0


def _cmd_world_info(args) -> int:
    from repro.world.model import build_world
    from repro.world.inspect import country_distribution, summarize_world

    world = build_world(SimulationConfig(scale=args.scale, seed=args.seed))
    print(summarize_world(world).render())
    top = country_distribution(world).most_common(8)
    print("top MTA countries: " + ", ".join(f"{c}={n}" for c, n in top))
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.comparison import compare_to_paper, scorecard
    from repro.analysis.label import LabeledDataset, RuleLabeler

    result = run_simulation(SimulationConfig(scale=args.scale, seed=args.seed))
    labeled = LabeledDataset(result.dataset, RuleLabeler())
    comparisons = compare_to_paper(labeled, result.world)
    for c in comparisons:
        print(c.render())
    hits, total = scorecard(comparisons)
    print(f"\nin regime: {hits}/{total}")
    return 0


def _cmd_full_report(args) -> int:
    from repro.analysis.fullreport import full_report

    result = run_simulation(SimulationConfig(scale=args.scale, seed=args.seed))
    print(full_report(result))
    return 0


def _cmd_scenario(args) -> int:
    from dataclasses import asdict

    from repro.scenario import get_pack, list_packs, scenario_report
    from repro.scenario.builder import ScenarioError

    if args.action == "list":
        for name, description in list_packs():
            print(f"{name:16s} {description}")
        return 0

    if not args.pack:
        print("scenario: pack name required (see `repro scenario list`)",
              file=sys.stderr)
        return 2
    try:
        compiled = get_pack(args.pack, scale=args.scale, seed=args.seed)
    except ScenarioError as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2

    if args.action == "show":
        config = compiled.config
        print(f"pack: {compiled.name}")
        print(f"  {compiled.description}")
        print(f"base: scale={config.scale} seed={config.seed}")
        print(f"ops ({len(config.scenario)}):")
        for op in config.scenario:
            fields = {k: v for k, v in asdict(op).items() if k != "kind"}
            rendered = ", ".join(f"{k}={v!r}" for k, v in fields.items())
            print(f"  {op.kind:14s} {rendered}")
        return 0

    workers = getattr(args, "workers", 1)
    if getattr(args, "resume", False):
        print("scenario: --resume is not supported here; use "
              "`repro simulate` for resumable runs", file=sys.stderr)
        return 2
    _status(f"running pack {compiled.name!r} "
            f"(scale={compiled.config.scale}, seed={compiled.config.seed}, "
            f"workers={workers})")
    records = list(compiled.run(workers))
    out = args.out if args.out is not None else f"{compiled.name}.jsonl"
    if out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
        _status(f"wrote {len(records):,} records -> {out}")
    if not args.no_report:
        print(scenario_report(compiled, records))
    return 0


def _cmd_version(args) -> int:
    print(f"repro-bounce {__version__}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stream": _cmd_stream,
    "recover": _cmd_recover,
    "watch": _cmd_watch,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "classify": _cmd_classify,
    "fit": _cmd_fit,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
    "explain": _cmd_explain,
    "squat": _cmd_squat,
    "branch": _cmd_branch,
    "diff-runs": _cmd_diff_runs,
    "recommend": _cmd_recommend,
    "world-info": _cmd_world_info,
    "compare": _cmd_compare,
    "full-report": _cmd_full_report,
    "scenario": _cmd_scenario,
    "version": _cmd_version,
}


def _wants_live_obs(args) -> bool:
    return bool(getattr(args, "metrics_out", None)) or bool(
        getattr(args, "trace_sample", 0)
    )


def main(argv: list[str] | None = None) -> int:
    global _QUIET
    args = _build_parser().parse_args(argv)
    _QUIET = getattr(args, "quiet", False)

    from repro.core import fastpath

    no_cache = getattr(args, "no_cache", False)
    if no_cache:
        # Verification/benchmark mode: run every hot path on the reference
        # implementations.  Output is byte-identical either way.
        fastpath.disable()
    no_columnar = getattr(args, "no_columnar", False)
    if no_columnar:
        fastpath.disable_columnar()

    live_obs = _wants_live_obs(args)
    tracer = None
    if live_obs:
        # Telemetry must be on BEFORE the world/engine is constructed —
        # instrumented objects read the flag once, at construction time.
        from repro.obs import metrics as obs_metrics
        from repro.obs import profile as obs_profile

        obs_metrics.enable()
        obs_metrics.reset()
        obs_profile.reset()
        # Rebind module-level fastpath memo counters to the now-live
        # registry (instance-level caches bind at construction, which
        # happens after this point).
        fastpath.reset()
        if getattr(args, "trace_sample", 0) and args.command in (
            "simulate", "stream"
        ):
            if getattr(args, "workers", 1) > 1:
                _status("note: --trace-sample collects live spans only "
                        "in-process; with --workers > 1, reconstruct "
                        "traces from the output instead (repro trace)")
            from repro.obs.trace import configure_tracer

            tracer = configure_tracer(
                sample_every=args.trace_sample,
                capacity=getattr(args, "trace_capacity", 256),
            )
    try:
        code = _COMMANDS[args.command](args)
        if live_obs and code == 0:
            if getattr(args, "metrics_out", None):
                from repro.obs.export import write_metrics

                write_metrics(args.metrics_out, args.metrics_format)
                if args.metrics_out != "-":
                    _status(f"metrics: {args.metrics_out}")
            if tracer is not None:
                n = tracer.export_jsonl(
                    sys.stdout if args.trace_out == "-" else args.trace_out
                )
                _status(f"traces: {n} span tree(s) -> {args.trace_out} "
                        f"(sampled every {tracer.sample_every} of "
                        f"{tracer.n_seen:,} emails)")
        return code
    finally:
        if live_obs:
            from repro.obs import metrics as obs_metrics
            from repro.obs import profile as obs_profile
            from repro.obs.trace import reset_tracer

            obs_metrics.disable()
            obs_metrics.reset()
            obs_profile.reset()
            reset_tracer()
        if no_columnar:
            fastpath.enable_columnar()
        if no_cache:
            fastpath.enable()
        elif live_obs:
            # Drop the live-bound memo counters again.
            fastpath.reset()


if __name__ == "__main__":
    raise SystemExit(main())
