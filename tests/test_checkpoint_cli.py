"""End-to-end CLI coverage for checkpoint segmentation, branching, and
run diffing (`repro simulate --until/--save-checkpoint/--from-checkpoint`,
`repro branch`, `repro diff-runs`)."""

import json

import pytest

from repro.cli import main
from repro.stream.sink import iter_delivery_log

SCALE, SEED = "0.03", "3"


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Full run + a 2-segment chained run through the CLI."""
    root = tmp_path_factory.mktemp("cli-ckpt")
    full = root / "full.jsonl"
    seg1 = root / "seg1.jsonl"
    seg2 = root / "seg2.jsonl"
    ckpt = root / "ckpts" / "mid"
    assert main(["simulate", "--scale", SCALE, "--seed", SEED,
                 "--out", str(full), "--quiet"]) == 0
    assert main(["simulate", "--scale", SCALE, "--seed", SEED,
                 "--until", "200", "--save-checkpoint", str(ckpt),
                 "--out", str(seg1), "--quiet"]) == 0
    assert main(["simulate", "--from-checkpoint", str(ckpt),
                 "--out", str(seg2), "--quiet"]) == 0
    return root, full, seg1, seg2, ckpt


class TestSegmentedSimulate:
    def test_chain_byte_identical(self, chain):
        _, full, seg1, seg2, _ = chain
        chained = seg1.read_bytes() + seg2.read_bytes()
        assert chained == full.read_bytes()

    def test_parallel_tail_matches(self, chain, tmp_path):
        _, _, _, seg2, ckpt = chain
        out = tmp_path / "seg2-par.jsonl"
        assert main(["simulate", "--from-checkpoint", str(ckpt),
                     "--workers", "2", "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == seg2.read_bytes()

    def test_parallel_tail_no_cache_matches(self, chain, tmp_path):
        # --no-cache with segment workers running the restored world; the
        # switches each worker runs with are checked inside the workers
        # by tests/test_parallel.py::TestWorkerSwitches.
        _, _, _, seg2, ckpt = chain
        out = tmp_path / "seg2-par-no-cache.jsonl"
        assert main(["simulate", "--from-checkpoint", str(ckpt), "--no-cache",
                     "--workers", "2", "--out", str(out), "--quiet"]) == 0
        assert out.read_bytes() == seg2.read_bytes()

    def test_until_gz_output(self, chain, tmp_path):
        _, _, seg1, _, _ = chain
        out = tmp_path / "seg1.jsonl.gz"
        assert main(["simulate", "--scale", SCALE, "--seed", SEED,
                     "--until", "200", "--out", str(out), "--quiet"]) == 0
        lines = [record.to_json() for record in iter_delivery_log(out)]
        assert lines == seg1.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_from_checkpoint_gz_output(self, chain, tmp_path, workers):
        _, _, _, seg2, ckpt = chain
        out = tmp_path / "seg2.jsonl.gz"
        assert main(["simulate", "--from-checkpoint", str(ckpt),
                     "--workers", workers, "--out", str(out), "--quiet"]) == 0
        lines = [record.to_json() for record in iter_delivery_log(out)]
        assert lines == seg2.read_text(encoding="utf-8").splitlines()

    def test_checkpoint_layout(self, chain):
        *_, ckpt = chain
        meta = json.loads((ckpt / "meta.json").read_text())
        assert meta["day"] == 200
        assert (ckpt / "world.pkl").exists()

    def test_bad_until_rejected(self, chain, capsys):
        *_, ckpt = chain
        assert main(["simulate", "--from-checkpoint", str(ckpt),
                     "--until", "5", "--out", "/dev/null"]) == 2
        assert "--until must be a day in" in capsys.readouterr().err

    def test_missing_checkpoint_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--from-checkpoint",
                     str(tmp_path / "nope"), "--out", "/dev/null"]) == 2
        assert "simulate:" in capsys.readouterr().err

    def test_resume_flag_conflicts(self, chain, capsys):
        *_, ckpt = chain
        assert main(["simulate", "--from-checkpoint", str(ckpt),
                     "--resume", "--out", "/dev/null"]) == 2
        assert "--from-checkpoint" in capsys.readouterr().err


class TestBranchCli:
    def test_list_interventions(self, capsys):
        assert main(["branch", "--list-interventions"]) == 0
        out = capsys.readouterr().out
        assert "fix-auth-fleetwide" in out and "delist-proxies" in out

    def test_missing_args_rejected(self, capsys):
        assert main(["branch"]) == 2
        assert "SOURCE and DEST" in capsys.readouterr().err

    def test_branch_and_diff(self, chain, tmp_path, capsys):
        root, full, seg1, _, ckpt = chain
        branch_dir = tmp_path / "whatif"
        assert main(["branch", str(ckpt), str(branch_dir),
                     "--apply", "fix-auth-fleetwide",
                     "--apply", "delist-proxies",
                     "--apply", "enable-dmarc-fleetwide", "--quiet"]) == 0
        assert capsys.readouterr().out.strip() == str(branch_dir)
        lineage = json.loads((branch_dir / "meta.json").read_text())["lineage"]
        assert len(lineage["interventions"]) == 3

        tail = tmp_path / "branch-tail.jsonl"
        assert main(["simulate", "--from-checkpoint", str(branch_dir),
                     "--out", str(tail), "--quiet"]) == 0
        branched = tmp_path / "branched.jsonl"
        branched.write_bytes(seg1.read_bytes() + tail.read_bytes())

        assert main(["diff-runs", str(full), str(branched), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "bounce types (Table 1)" in out
        assert "Run delta: baseline vs branch" in out

        assert main(["diff-runs", str(full), str(branched), "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["overview"]["n_emails"]["delta"] == 0

    def test_no_apply_rejected(self, chain, tmp_path, capsys):
        *_, ckpt = chain
        assert main(["branch", str(ckpt), str(tmp_path / "x")]) == 2
        assert "--apply" in capsys.readouterr().err

    def test_unknown_intervention_rejected(self, chain, tmp_path, capsys):
        *_, ckpt = chain
        assert main(["branch", str(ckpt), str(tmp_path / "x"),
                     "--apply", "sprinkle-magic"]) == 2
        assert "unknown intervention" in capsys.readouterr().err


class TestDiffRunsCli:
    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["diff-runs", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 2
        assert "diff-runs:" in capsys.readouterr().err
