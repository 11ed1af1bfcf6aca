"""What a simulation process imports.

A worker is forked from its parent, so under ``repro simulate
--workers N`` it holds the CLI's modules plus those its entry point
imports.  Neither may drag in the classifier and monitoring stack or
numpy: ``repro.core``, ``repro.stream`` and ``repro.checkpoint``
resolve those exports on first use, the CLI imports its analyses
inside the commands that run them, the columnar engine is plain
Python, and the analyses load the EBRC only when a caller builds one.
"""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"

#: Modules only classification and monitoring need.
HEAVY = (
    "repro.core.ebrc",
    "repro.core.drain",
    "repro.core.classifier",
    "repro.stream.monitor",
    "repro.stream.online",
    "numpy",
)

#: The EBRC and what it alone needs; the analyses import Drain itself.
EBRC_STACK = ("repro.core.ebrc", "numpy")

WORKER_MODULES = (
    "repro.parallel.worker",
    "repro.stream.runner",
    "repro.stream.sink",
    "repro.delivery.columnar",
    "repro.world.model",
)


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src/``; its stdout."""
    env = dict(
        os.environ,
        PYTHONPATH=str(_SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after_importing(modules, watched) -> list[str]:
    """The ``watched`` modules a fresh interpreter holds after ``modules``."""
    return _run_fresh(
        "import sys\n" + "".join(f"import {m}\n" for m in modules)
        + f"print(' '.join(m for m in {watched!r} if m in sys.modules))"
    ).split()


@pytest.mark.parametrize(
    "modules, watched",
    [
        (WORKER_MODULES, HEAVY),
        (("repro.cli",), HEAVY),
        (("repro.analysis.degrees",), EBRC_STACK),
        (("repro.analytics.suite",), EBRC_STACK),
    ],
    ids=["worker", "cli", "analysis.degrees", "analytics.suite"],
)
def test_import_leaves_classifier_stack_unloaded(modules, watched):
    assert _loaded_after_importing(modules, watched) == []


def test_simulation_runs_without_numpy(tmp_path):
    """With numpy blocked, the engine still builds its columnar executor
    and the simulation writes the bytes of an unblocked run."""
    from repro.stream.runner import stream_simulation
    from repro.world.config import SimulationConfig

    out = tmp_path / "blocked.jsonl"
    _run_fresh(textwrap.dedent(f"""
        import sys
        sys.modules["numpy"] = None
        from repro.delivery.columnar import ColumnarExecutor
        from repro.delivery.engine import DeliveryEngine
        from repro.stream.runner import stream_simulation
        from repro.util.rng import RandomSource
        from repro.world.config import SimulationConfig
        from repro.world.model import build_world

        config = SimulationConfig(scale=0.005, seed=3)
        engine = DeliveryEngine(build_world(config), RandomSource(3))
        assert isinstance(engine._batch, ColumnarExecutor), engine._batch
        with open({str(out)!r}, "w", encoding="utf-8") as fh:
            for record in stream_simulation(config).records:
                print(record.to_json(), file=fh)
    """))
    run = stream_simulation(SimulationConfig(scale=0.005, seed=3))
    assert out.read_text(encoding="utf-8") == "".join(
        record.to_json() + "\n" for record in run.records
    )


def _simulate_holds(tmp_path, workers: int) -> list[str]:
    """One line per process of ``repro simulate --workers N``: its role
    and the tracing module, analyses and Drain it holds at the end."""
    return _run_fresh(textwrap.dedent(f"""
        import sys
        import repro.parallel.worker as worker
        from repro.cli import main

        def unneeded():
            return [m for m in sys.modules if m in ("repro.obs.trace", "repro.core.drain")
                    or m.startswith("repro.analysis")]

        finish = worker.finish_worker

        def finish_worker(*args):
            print("worker", *unneeded())
            finish(*args)

        worker.finish_worker = finish_worker  # forked workers inherit it
        assert main(["--quiet", "simulate", "--scale", "0.03", "--seed", "9",
                     "--workers", "{workers}",
                     "--out", {str(tmp_path / "log.jsonl")!r}]) == 0
        print("parent", *unneeded())
    """)).splitlines()


def test_simulation_leaves_tracing_unloaded(tmp_path):
    """Traces are rebuilt from records and the status line counts bounce
    degrees itself, so an untraced serial ``simulate`` imports neither
    the tracing module nor the analyses (nor the Drain they load)."""
    assert _simulate_holds(tmp_path, workers=1) == ["parent"]


def test_simulation_workers_leave_the_analyses_unloaded(tmp_path):
    """Nor does ``simulate --workers 2``, in the parent or in the
    workers it forks."""
    assert sorted(_simulate_holds(tmp_path, workers=2)) == ["parent", "worker", "worker"]


def test_checkpoint_store_leaves_the_analyses_unloaded():
    """Loading or saving a checkpoint imports ``repro.checkpoint.store``
    and so the package, whose exports resolve on first use."""
    loaded = _run_fresh(
        "import sys\nimport repro.checkpoint.store\n"
        "print(' '.join(m for m in sys.modules if m == 'repro.core.drain'"
        " or m.startswith('repro.analysis')))"
    ).split()
    assert loaded == []


@pytest.mark.parametrize("package", ["repro.core", "repro.stream", "repro.checkpoint"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(module, name) for name in module.__all__)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_lazy_names_are_the_submodule_objects():
    import repro.core
    import repro.core.ebrc
    import repro.stream
    import repro.stream.online

    assert repro.core.EBRC is repro.core.ebrc.EBRC
    assert repro.stream.OnlineEBRC is repro.stream.online.OnlineEBRC


def test_stream_monitor_example_imports():
    path = _ROOT / "examples" / "stream_monitor.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert any(
        isinstance(node, ast.ImportFrom) and node.module == "repro.stream"
        for node in imports
    )
    namespace: dict = {}
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(path), "exec"),
         namespace)
    assert namespace["OnlineEBRC"].__module__ == "repro.stream.online"
