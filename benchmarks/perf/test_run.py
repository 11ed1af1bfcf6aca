"""Smoke test of the benchmark runner: every workload at a tiny scale,
untraced and traced, with every output check on.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_run.py -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_catalogue_within_limits():
    assert len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[group]]
        assert len(names) == len(set(names)), group
        for name in names:
            assert NAME.fullmatch(name), name


@pytest.fixture(scope="module")
def summary():
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.02",
         "--seconds", "1", "--trace"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    return json.loads(child.stdout.strip().splitlines()[-1])


def _assert_emitted(metrics: dict, catalogue: list[dict]) -> None:
    assert set(metrics) == {entry["name"] for entry in catalogue}
    for entry in catalogue:
        metric = metrics[entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(metric["value"]), entry["name"]


def test_every_workload_emits_every_metric(summary):
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        _assert_emitted(summary["metrics"][workload], SPEC["end_to_end"])
        _assert_emitted(summary["metrics"][f"{workload}-trace"], SPEC["per_layer"])
        for entry in SPEC["end_to_end"]:
            assert summary["metrics"][workload][entry["name"]]["value"] > 0
