"""Branched what-if runs: interventions, lineage, and run diffing.

A branch must (a) leave the past untouched — the head segment is shared
byte-for-byte with the baseline, (b) record auditable lineage, and
(c) produce table deltas with the right sign: ending misconfiguration
windows and delisting proxies can only move bounces toward delivery.

``tests/data/checkpoint_golden.json`` pins sha256 digests of the
baseline log, the branch log, and the rendered table-delta report at
this module's config.  Regenerate after an intentional behavior change
with ``REPRO_REGOLD=1 pytest tests/test_checkpoint_branch.py``.
"""

import hashlib
import json
import os
from datetime import timedelta
from pathlib import Path

import pytest

from repro import SimulationConfig
from repro.checkpoint import (
    apply_intervention,
    branch_checkpoint,
    diff_runs,
    fresh_progress,
    intervention_catalog,
    load_checkpoint,
    run_segment,
    save_checkpoint,
)
from repro.core import fastpath
from repro.parallel import run_parallel_simulation
from repro.util.clock import DEFAULT_START
from repro.world.model import build_world

SCALE = 0.06
SEED = 11
N_DAYS = 20
CUT = 9
INTERVENTIONS = [
    "fix-auth-fleetwide",
    "fix-mx-fleetwide",
    "delist-proxies",
    "retire-squats",
]
GOLDEN = Path(__file__).resolve().parent / "data" / "checkpoint_golden.json"


def _config() -> SimulationConfig:
    return SimulationConfig(
        scale=SCALE,
        seed=SEED,
        start=DEFAULT_START,
        end=DEFAULT_START + timedelta(days=N_DAYS),
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def arms(tmp_path_factory):
    """Baseline and branch logs sharing one head segment.

    Returns ``(base_dir, branch_dir, baseline_lines, branch_lines,
    head_len, summaries)``.
    """
    root = tmp_path_factory.mktemp("branch")
    base_dir, branch_dir = root / "base", root / "whatif"
    config = _config()
    world = build_world(config)
    segment = run_segment(world, fresh_progress(config), CUT)
    head = [r.to_json() for r in segment.records]
    save_checkpoint(base_dir, world, CUT, segment.finish())

    summaries = branch_checkpoint(base_dir, branch_dir, INTERVENTIONS)

    tails = {}
    for name, path in (("base", base_dir), ("branch", branch_dir)):
        ckpt = load_checkpoint(path)
        tail_seg = run_segment(ckpt.world, ckpt.progress, N_DAYS)
        tails[name] = [r.to_json() for r in tail_seg.records]
    return (
        base_dir,
        branch_dir,
        head + tails["base"],
        head + tails["branch"],
        len(head),
        summaries,
    )


class TestBranching:
    def test_summaries_report_changes(self, arms):
        *_, summaries = arms
        assert len(summaries) == len(INTERVENTIONS)
        assert any("auth misconfiguration" in s for s in summaries)
        assert any("delisted" in s for s in summaries)

    def test_lineage_recorded(self, arms):
        base_dir, branch_dir, *_ = arms
        base = load_checkpoint(base_dir)
        branch = load_checkpoint(branch_dir)
        lineage = branch.lineage
        assert lineage["interventions"] == INTERVENTIONS
        assert lineage["parent"] == f"base@{base.meta['digest'][:12]}"
        assert branch.meta["digest"] != base.meta["digest"]
        assert branch.day == base.day == CUT

    def test_branch_of_branch_chains_specs(self, arms, tmp_path):
        _, branch_dir, *_ = arms
        grand = tmp_path / "grand"
        branch_checkpoint(branch_dir, grand, ["disable-greylisting"])
        lineage = load_checkpoint(grand).lineage
        assert lineage["interventions"] == INTERVENTIONS + ["disable-greylisting"]
        assert lineage["parent"].startswith("whatif@")

    def test_past_is_immutable(self, arms):
        _, _, baseline, branch, head_len, _ = arms
        assert baseline[:head_len] == branch[:head_len]
        assert baseline[head_len:] != branch[head_len:]
        assert len(baseline) == len(branch)  # same specs, different outcomes

    def test_branch_tail_with_workers(self, arms):
        # Workers run the branched world the parent restored; ones that
        # rebuilt the world from its config would yield the baseline tail.
        _, branch_dir, _, branch, head_len, _ = arms
        with run_parallel_simulation(load_checkpoint(branch_dir), 2) as run:
            assert [r.to_json() for r in run.iter_records()] == branch[head_len:]

    def test_in_process_intervention_matches_no_cache(self, arms):
        """An intervention applied in process, between two segments on one
        loaded world, reaches the fresh engines of the second: the world's
        derived tables are purged (its domain rows copy each receiver's
        ``enforces_auth``), so the cached bytes equal the reference
        path's, and the intervention changes the tail."""
        base_dir, _, baseline, _, head_len, _ = arms
        mid = (CUT + N_DAYS) // 2

        def run() -> list[str]:
            ckpt = load_checkpoint(base_dir)
            world = ckpt.world
            head = run_segment(world, ckpt.progress, mid)
            lines = [r.to_json() for r in head.records]
            progress = head.finish()
            apply_intervention(world, progress, "enable-dmarc-fleetwide",
                               world.clock.day_start(mid))
            tail = run_segment(world, progress, N_DAYS)
            return lines + [r.to_json() for r in tail.records]

        cached = run()
        fastpath.disable()
        try:
            reference = run()
        finally:
            fastpath.enable()
        assert cached == reference
        assert cached != baseline[head_len:]

    def test_needs_at_least_one_intervention(self, arms, tmp_path):
        base_dir, *_ = arms
        with pytest.raises(ValueError, match="at least one"):
            branch_checkpoint(base_dir, tmp_path / "x", [])

    def test_unknown_and_malformed_specs(self, arms):
        base_dir, *_ = arms
        ckpt = load_checkpoint(base_dir)
        t = ckpt.world.clock.day_start(CUT)
        with pytest.raises(ValueError, match="unknown intervention"):
            apply_intervention(ckpt.world, ckpt.progress, "sprinkle-magic", t)
        with pytest.raises(ValueError, match="needs an argument"):
            apply_intervention(ckpt.world, ckpt.progress, "fix-spf", t)
        with pytest.raises(ValueError, match="unknown domain"):
            apply_intervention(
                ckpt.world, ckpt.progress, "fix-spf:no-such.example", t
            )

    def test_catalog_lists_every_intervention(self):
        text = intervention_catalog()
        for name in INTERVENTIONS + ["fix-spf", "enable-dmarc-fleetwide"]:
            assert name in text


class TestDiffRuns:
    @pytest.fixture(scope="class")
    def report(self, arms, tmp_path_factory):
        _, _, baseline, branch, *_ = arms
        root = tmp_path_factory.mktemp("diff")
        path_a, path_b = root / "a.jsonl", root / "b.jsonl"
        path_a.write_text("\n".join(baseline) + "\n", encoding="utf-8")
        path_b.write_text("\n".join(branch) + "\n", encoding="utf-8")
        diff, text = diff_runs(path_a, path_b, top=5)
        return diff, text

    def test_interventions_reduce_hard_bounces(self, report):
        diff, _ = report
        assert diff["overview"]["n_emails"]["delta"] == 0
        assert diff["overview"]["n_hard"]["delta"] < 0
        assert diff["overview"]["n_non"]["delta"] > 0

    def test_delta_consistency(self, report):
        diff, _ = report
        for cell in diff["overview"].values():
            assert cell["delta"] == cell["b"] - cell["a"]
        total = sum(
            diff["overview"][k]["b"] for k in ("n_non", "n_soft", "n_hard")
        )
        assert total == diff["overview"]["n_emails"]["b"]

    def test_render_structure(self, report):
        _, text = report
        for heading in (
            "overview",
            "bounce types (Table 1)",
            "blocklists and filters (Fig 6)",
            "misconfiguration episodes (Fig 7)",
            "top receiver domains (Table 3)",
        ):
            assert heading in text
        assert "records:" in text

    def test_json_round_trip(self, report):
        diff, _ = report
        assert json.loads(json.dumps(diff)) == diff


class TestGoldenFixtures:
    """Pinned digests: any change to branch semantics is a deliberate,
    visible fixture update, not silent drift."""

    def test_matches_golden(self, arms, tmp_path_factory):
        _, _, baseline, branch, *_ = arms
        root = tmp_path_factory.mktemp("golden")
        path_a, path_b = root / "a.jsonl", root / "b.jsonl"
        text_a = "\n".join(baseline) + "\n"
        text_b = "\n".join(branch) + "\n"
        path_a.write_text(text_a, encoding="utf-8")
        path_b.write_text(text_b, encoding="utf-8")
        _, report = diff_runs(path_a, path_b, top=5)
        actual = {
            "config": {"scale": SCALE, "seed": SEED, "n_days": N_DAYS,
                       "cut": CUT, "interventions": INTERVENTIONS},
            "baseline_sha256": _sha(text_a),
            "branch_sha256": _sha(text_b),
            "report_sha256": _sha(report),
            "n_records": len(baseline),
        }
        if os.environ.get("REPRO_REGOLD"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(json.dumps(actual, indent=2) + "\n",
                              encoding="utf-8")
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert actual == expected
