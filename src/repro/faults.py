"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a small, JSON-serialisable description of faults
to inject at named hook points inside the storage and parallel runtimes:

* ``oserror`` — raise :class:`InjectedDiskFull` (an ``OSError`` with
  ``ENOSPC``) on the Nth shard write, simulating a full disk.
* ``raise``   — raise :class:`InjectedFaultError` (a plain exception the
  worker reports through its error file).
* ``crash``   — ``os._exit`` the process on the spot: no cleanup, no
  partial manifest, no error file — the hardest failure mode.
* ``hang``    — sleep past any reasonable deadline (exercises timeouts).
* ``corrupt`` — flip one byte of a shard file *after* it is finalised
  (and hashed), simulating silent bit rot the manifest checksum must
  catch.

Plans are installed process-wide via :func:`install_plan`, which also
exports the plan through the ``REPRO_FAULTS`` environment variable so
spawn-context worker processes inherit it.  Everything is deterministic: a
spec fires on an exact write ordinal or slice key, and the corruption
byte offset is a pure function of the plan seed and the victim file, so
a chaos test replays the identical failure every run.

The hooks are wired into :class:`repro.stream.sink.ShardWriter`
(``on_shard_write`` before each record, ``on_shard_close`` after a shard
is finalised) and :func:`repro.parallel.worker.run_worker`, the entry
point of every simulation worker, full run or segment
(``on_slice_start`` before each slice).  With no plan installed the
hooks cost one cached ``None`` check.

This module must stay dependency-free and must not import the runtimes
it injects into (they import it).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variable carrying the installed plan to worker processes.
ENV_VAR = "REPRO_FAULTS"

KINDS = ("oserror", "raise", "crash", "hang", "corrupt")
SITES = ("shard-write", "slice-start")

#: Exit code of an injected hard crash (distinguishable from real deaths
#: in worker error messages and CI logs).
CRASH_EXIT_CODE = 23


class InjectedFaultError(RuntimeError):
    """The ``raise`` fault kind: an ordinary in-process failure."""


class InjectedDiskFull(OSError):
    """The ``oserror`` fault kind: a disk-full write failure."""

    def __init__(self, where: str) -> None:
        super().__init__(errno.ENOSPC, f"injected disk-full at {where}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``match`` is a substring filter on the hook's subject (the shard
    directory path for write/close hooks, the slice key for slice
    hooks); an empty match hits everything.  ``at_write`` selects the
    Nth record write of a matching :class:`ShardWriter` (1-based,
    counted across shard rotations) for the ``shard-write`` site.
    """

    kind: str
    match: str = ""
    site: str = "shard-write"
    at_write: int = 1
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (use {KINDS})")
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (use {SITES})")
        if self.at_write < 1:
            raise ValueError("at_write is 1-based and must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "match": self.match,
            "site": self.site,
            "at_write": self.at_write,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            match=data.get("match", ""),
            site=data.get("site", "shard-write"),
            at_write=int(data.get("at_write", 1)),
            hang_s=float(data.get("hang_s", 3600.0)),
        )

    def matches(self, subject: str) -> bool:
        return not self.match or self.match in subject


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of faults to inject."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable of specs; store a tuple (hashable, picklable).
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [s.to_json_dict() for s in self.specs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            specs=tuple(
                FaultSpec.from_json_dict(s) for s in data.get("specs", [])
            ),
            seed=int(data.get("seed", 0)),
        )

    # -- hook points ---------------------------------------------------------------

    def on_shard_write(self, where: str, n: int) -> None:
        """Called by :class:`ShardWriter` before its Nth record write."""
        for spec in self.specs:
            if (
                spec.site == "shard-write"
                and spec.kind != "corrupt"
                and spec.at_write == n
                and spec.matches(where)
            ):
                self._fire(spec, f"shard write {n} in {where}")

    def on_slice_start(self, slice_key: str) -> None:
        """Called by the parallel worker before running each slice."""
        for spec in self.specs:
            if spec.site == "slice-start" and spec.matches(slice_key):
                self._fire(spec, f"slice {slice_key}")

    def on_shard_close(self, path: Path) -> None:
        """Called by :class:`ShardWriter` after finalising (and hashing)
        a shard file; ``corrupt`` specs flip one deterministic byte."""
        for spec in self.specs:
            if spec.kind == "corrupt" and spec.matches(str(path)):
                corrupt_one_byte(path, self.seed)

    def _fire(self, spec: FaultSpec, where: str) -> None:
        if spec.kind == "oserror":
            raise InjectedDiskFull(where)
        if spec.kind == "raise":
            raise InjectedFaultError(f"injected fault at {where}")
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if spec.kind == "hang":  # pragma: no branch
            time.sleep(spec.hang_s)


def corrupt_one_byte(path: str | Path, seed: int = 0) -> int | None:
    """Flip one byte of ``path`` in place; the offset is a pure function
    of ``(seed, file name, file size)``.  Returns the offset, or ``None``
    for an empty file."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return None
    digest = hashlib.sha256(
        f"{seed}:{path.name}:{len(data)}".encode("utf-8")
    ).digest()
    offset = int.from_bytes(digest[:8], "big") % len(data)
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
    return offset


# -- plan installation ---------------------------------------------------------------

#: Cache of the last parsed env value, so hot-path callers pay one string
#: comparison per lookup instead of a JSON parse.
_CACHED_RAW: str | None = None
_CACHED_PLAN: FaultPlan | None = None


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide and export it to (future) worker
    processes via the environment."""
    os.environ[ENV_VAR] = plan.to_json()
    return plan


def clear_plan() -> None:
    """Remove any installed plan (idempotent)."""
    global _CACHED_RAW, _CACHED_PLAN
    os.environ.pop(ENV_VAR, None)
    _CACHED_RAW = None
    _CACHED_PLAN = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None``.  Hook sites cache this at
    construction/startup, so installing a plan mid-run only affects
    objects built afterwards."""
    global _CACHED_RAW, _CACHED_PLAN
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if raw != _CACHED_RAW:
        _CACHED_PLAN = FaultPlan.from_json(raw)
        _CACHED_RAW = raw
    return _CACHED_PLAN
