"""Failure types of the parallel runtime.

Every error names the slice (or slices) involved, so a crashed or hung
worker is diagnosable from the exception message alone — the paper-scale
use case is a multi-hour run where "a worker died" without a slice name
would mean re-running everything.
"""

from __future__ import annotations


class ParallelExecutionError(RuntimeError):
    """Base class of parallel-runtime failures."""


class SliceExecutionError(ParallelExecutionError):
    """A slice raised inside a worker process.

    Carries a single pre-formatted message so it pickles cleanly across
    the process boundary (chained worker tracebacks are flattened into the
    text).
    """


class WorkerCrashError(ParallelExecutionError):
    """A worker process died without reporting a result (signal, OOM kill,
    interpreter abort)."""


class ParallelTimeoutError(ParallelExecutionError):
    """The run exceeded its deadline; pending workers were terminated."""


class ResumeError(ParallelExecutionError):
    """A resumable run was requested in a way that cannot work (e.g. no
    persistent shard root to resume from)."""
