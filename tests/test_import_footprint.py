"""What a simulation worker imports.

A spawned worker imports the modules its entry point needs and, because
``spawn`` re-imports the parent's main module, the CLI too under
``repro simulate --workers N``.  Neither may drag in the classifier and
monitoring stack: ``repro.core`` and ``repro.stream`` resolve those
exports on first use, and the CLI imports its analyses inside the
commands that run them.
"""

import ast
import importlib
import os
import subprocess
import sys
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
)

WORKER_MODULES = (
    "repro.parallel.worker",
    "repro.stream.runner",
    "repro.stream.sink",
    "repro.delivery.columnar",
    "repro.world.model",
)


def _heavy_after_importing(modules) -> list[str]:
    """The ``HEAVY`` modules a fresh interpreter holds after ``modules``."""
    code = "import sys\n" + "".join(f"import {m}\n" for m in modules) + (
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(_SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "modules", [WORKER_MODULES, ("repro.cli",)], ids=["worker", "cli"]
)
def test_import_leaves_classifier_stack_unloaded(modules):
    assert _heavy_after_importing(modules) == []


@pytest.mark.parametrize("package", ["repro.core", "repro.stream"])
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
