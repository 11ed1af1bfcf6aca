"""Deterministic multiprocess execution runtime.

``repro.parallel`` partitions a simulation into disjoint, independently
seeded slices (:mod:`repro.parallel.partition`), runs them across worker
processes that write checksummed shards (:mod:`repro.parallel.worker`),
and k-way merges the per-slice streams back into the canonical record
order (:mod:`repro.parallel.runner`) — byte-identical to the serial
:func:`repro.stream.iter_simulation` for every worker count.  The
runner's supervisor is the only code in the package that starts worker
processes; ``repro report --shards --workers N`` runs under it too.

See docs/PARALLELISM.md for the determinism model and failure semantics.

The runner and resume modules are loaded lazily (PEP 562): the serial
streaming runner imports :mod:`repro.parallel.partition` for the slice
plan, and an eager package import here would close that cycle.
"""

from repro.parallel.errors import (
    ParallelExecutionError,
    ParallelTimeoutError,
    ResumeError,
    SliceExecutionError,
    WorkerCrashError,
    WorkerModeError,
)
from repro.parallel.partition import (
    SimSlice,
    assign_slices,
    count_attacker_campaigns,
    plan_slices,
)

__all__ = [
    "ParallelExecutionError",
    "ParallelSimulation",
    "ParallelTimeoutError",
    "ResumeError",
    "SimSlice",
    "SliceExecutionError",
    "WorkerCrashError",
    "WorkerModeError",
    "assign_slices",
    "count_attacker_campaigns",
    "iter_parallel_simulation",
    "load_completed_slice",
    "plan_slices",
    "run_parallel_simulation",
    "slice_fingerprint",
]

_LAZY = {
    "ParallelSimulation": "repro.parallel.runner",
    "iter_parallel_simulation": "repro.parallel.runner",
    "run_parallel_simulation": "repro.parallel.runner",
    "load_completed_slice": "repro.parallel.resume",
    "slice_fingerprint": "repro.parallel.resume",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
