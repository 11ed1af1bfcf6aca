"""Declared what-if interventions applied to a checkpoint at its cut day.

An intervention is a named, parameterizable mutation of the restored
world (and, where engine runtime state is involved, of the per-slice
progress payloads) applied at the checkpoint's cut time ``t``.  The
design rules:

* **The past is immutable.**  Interventions only truncate or disable
  from ``t`` forward: a misconfiguration window containing ``t`` ends at
  ``t``, windows entirely in the future are dropped, windows already
  closed are untouched.  Everything the baseline delivered before the
  cut stays byte-identical on the branch — which is what makes
  ``repro diff-runs`` deltas attributable to the intervention alone.

* **Mutations go through assignment.**  ``Zone.__setattr__`` bumps the
  zone's epoch on every assignment, so resolver state caches invalidate
  themselves.  Not every cached fact is guarded that way (domain rows
  copy receiver MTA policies), so :func:`apply_intervention` purges the
  world's caches and derived tables after every mutation.

Specs are ``name`` or ``name:arg`` strings (e.g. ``fix-spf:acme-3.com``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.util.clock import Window
from repro.world.model import WorldModel


def _truncate(windows: list[Window], t: float) -> list[Window]:
    """Close the window containing ``t`` and drop future ones."""
    out = []
    for w in windows:
        if w.end <= t:
            out.append(w)
        elif w.start < t:
            out.append(Window(w.start, t))
    return out


def _changed(windows: list[Window], truncated: list[Window]) -> bool:
    return len(windows) != len(truncated) or any(
        a.end != b.end for a, b in zip(windows, truncated)
    )


# -- catalog -------------------------------------------------------------------------


def _fix_auth_fleetwide(world: WorldModel, progress: dict, t: float, arg: str | None) -> str:
    """End every open/future SPF, DKIM, DMARC, and generic-auth
    misconfiguration window across all zones ("Lazy Gatekeepers" fixed
    fleet-wide on day N)."""
    n = 0
    for zone in world.resolver.all_zones():
        touched = False
        for attr in (
            "auth_error_windows",
            "spf_error_windows",
            "dkim_error_windows",
            "dmarc_error_windows",
        ):
            windows = getattr(zone, attr)
            truncated = _truncate(windows, t)
            if _changed(windows, truncated):
                setattr(zone, attr, truncated)
                touched = True
        n += touched
    return f"ended auth misconfiguration windows on {n} zones"


def _fix_spf(world: WorldModel, progress: dict, t: float, arg: str | None) -> str:
    """End the SPF misconfiguration windows of one sender domain."""
    if not arg:
        raise ValueError("fix-spf needs a domain argument (fix-spf:<domain>)")
    zone = world.resolver.zone(arg)
    if zone is None:
        raise ValueError(f"fix-spf: unknown domain {arg!r}")
    truncated = _truncate(zone.spf_error_windows, t)
    if not _changed(zone.spf_error_windows, truncated):
        return f"{arg}: no open or future SPF windows at the cut"
    zone.spf_error_windows = truncated
    return f"{arg}: SPF record fixed at the cut"


def _fix_mx(world: WorldModel, progress: dict, t: float, arg: str | None) -> str:
    """End the MX misconfiguration windows of one receiver domain."""
    if not arg:
        raise ValueError("fix-mx needs a domain argument (fix-mx:<domain>)")
    zone = world.resolver.zone(arg)
    if zone is None:
        raise ValueError(f"fix-mx: unknown domain {arg!r}")
    truncated = _truncate(zone.mx_error_windows, t)
    if not _changed(zone.mx_error_windows, truncated):
        return f"{arg}: no open or future MX windows at the cut"
    zone.mx_error_windows = truncated
    return f"{arg}: MX records fixed at the cut"


def _fix_mx_fleetwide(world: WorldModel, progress: dict, t: float, arg: str | None) -> str:
    """End every open/future MX misconfiguration window."""
    n = 0
    for zone in world.resolver.all_zones():
        truncated = _truncate(zone.mx_error_windows, t)
        if _changed(zone.mx_error_windows, truncated):
            zone.mx_error_windows = truncated
            n += 1
    return f"ended MX misconfiguration windows on {n} zones"


def _delist_proxies(world: WorldModel, progress: dict, t: float, arg: str | None) -> str:
    """Delist every proxy IP from the DNSBL at the cut (open listings
    close, scheduled future listings never happen)."""
    service = world.dnsbl
    n = 0
    for ip, windows in list(service._listings.items()):
        truncated = _truncate(windows, t)
        if _changed(windows, truncated):
            # Replace the list object: the fast-path cache guards on list
            # identity, and a fresh object can never satisfy a stale entry.
            service._listings[ip] = truncated
            n += 1
    return f"delisted {n} proxy IPs at the cut"


def _retire_squats(world: WorldModel, progress: dict, t: float, arg: str | None) -> str:
    """End the registration of squatter-held typo domains at the cut:
    mail sent there afterwards fails resolution (T2) instead of reaching
    the squatter's catch-all MTA (T8)."""
    n = 0
    for zone in world.resolver.all_zones():
        if arg and zone.domain != arg.lower():
            continue
        registrant = zone.registrant_at(t)
        if registrant is None or not registrant.startswith("squatter-"):
            continue
        truncated = _truncate(zone.registrations, t)
        if _changed(zone.registrations, truncated):
            zone.registrations = truncated
            n += 1
    if arg and n == 0:
        raise ValueError(f"retire-squats: {arg!r} is not a squatter-held domain")
    return f"retired {n} squatted domains at the cut"


def _enable_dmarc_fleetwide(
    world: WorldModel, progress: dict, t: float, arg: str | None
) -> str:
    """Every receiver MTA enforces SPF/DKIM/DMARC from the cut on."""
    n = 0
    for mta in world.receiver_mtas.values():
        if not mta.policy.enforces_auth:
            mta.policy.enforces_auth = True
            n += 1
    return f"enabled auth enforcement on {n} receiver domains"


def _disable_greylisting(
    world: WorldModel, progress: dict, t: float, arg: str | None
) -> str:
    """Turn greylisting off everywhere — policies stop greylisting, and
    every engine's cached per-domain greylist store is cleared so
    restored engines don't keep consulting a store the policy disowned."""
    n = 0
    for mta in world.receiver_mtas.values():
        if mta.policy.greylisting:
            mta.policy.greylisting = False
            n += 1
    for entry in progress.values():
        engine = entry.get("engine")
        if engine is not None:
            engine["greylists"] = {domain: None for domain in engine["greylists"]}
    return f"disabled greylisting on {n} receiver domains"


@dataclass(frozen=True)
class Intervention:
    name: str
    summary: str
    apply: Callable[[WorldModel, dict, float, str | None], str]
    needs_arg: bool = False


INTERVENTIONS: dict[str, Intervention] = {
    i.name: i
    for i in (
        Intervention(
            "fix-auth-fleetwide",
            "end every open/future SPF/DKIM/DMARC misconfiguration window",
            _fix_auth_fleetwide,
        ),
        Intervention(
            "fix-spf",
            "fix one sender domain's SPF record (fix-spf:<domain>)",
            _fix_spf,
            needs_arg=True,
        ),
        Intervention(
            "fix-mx",
            "fix one receiver domain's MX records (fix-mx:<domain>)",
            _fix_mx,
            needs_arg=True,
        ),
        Intervention(
            "fix-mx-fleetwide",
            "end every open/future MX misconfiguration window",
            _fix_mx_fleetwide,
        ),
        Intervention(
            "delist-proxies",
            "close every proxy's DNSBL listing and cancel future ones",
            _delist_proxies,
        ),
        Intervention(
            "retire-squats",
            "end squatter-held typo-domain registrations (optional :<domain>)",
            _retire_squats,
        ),
        Intervention(
            "enable-dmarc-fleetwide",
            "every receiver MTA enforces sender authentication",
            _enable_dmarc_fleetwide,
        ),
        Intervention(
            "disable-greylisting",
            "no receiver greylists; cached engine greylist stores cleared",
            _disable_greylisting,
        ),
    )
}


def intervention_catalog() -> str:
    """Human-readable catalog (``repro branch --list-interventions``)."""
    width = max(len(name) for name in INTERVENTIONS)
    return "\n".join(
        f"{name.ljust(width)}  {item.summary}"
        for name, item in sorted(INTERVENTIONS.items())
    )


def apply_intervention(
    world: WorldModel, progress: dict, spec: str, t: float
) -> str:
    """Apply one ``name`` / ``name:arg`` spec at cut time ``t``; returns a
    one-line summary of what changed.  The world's caches and derived
    tables are purged afterwards, so engines built on it from then on
    read the mutated world."""
    name, _, arg = spec.partition(":")
    item = INTERVENTIONS.get(name)
    if item is None:
        known = ", ".join(sorted(INTERVENTIONS))
        raise ValueError(f"unknown intervention {name!r} (known: {known})")
    if item.needs_arg and not arg:
        raise ValueError(f"intervention {name} needs an argument ({name}:<value>)")
    summary = item.apply(world, progress, t, arg or None)
    world.purge_caches()
    return summary


def branch_checkpoint(
    source: str | Path,
    destination: str | Path,
    interventions: list[str],
    *,
    verify: bool = True,
) -> list[str]:
    """Load ``source``, apply ``interventions`` at its cut day, and save
    the branched state to ``destination`` with lineage recorded.

    Returns the per-intervention summary lines.  The branch carries the
    parent's name, deep digest, and the applied specs in its
    ``meta.json`` lineage, so a branch's provenance is auditable without
    the parent directory.
    """
    from repro.checkpoint.store import load_checkpoint, save_checkpoint

    if not interventions:
        raise ValueError("branch needs at least one intervention")
    ckpt = load_checkpoint(source, verify=verify)
    t = ckpt.world.clock.day_start(ckpt.day) if ckpt.day < ckpt.world.clock.n_days \
        else ckpt.world.clock.end_ts
    summaries = [
        apply_intervention(ckpt.world, ckpt.progress, spec, t)
        for spec in interventions
    ]
    parent = f"{ckpt.name}@{ckpt.meta['digest'][:12]}"
    lineage = ckpt.lineage
    if lineage.get("interventions"):
        # A branch of a branch: chain the specs so the full history rides
        # along even when intermediate directories are deleted.
        interventions = list(lineage["interventions"]) + list(interventions)
    save_checkpoint(
        destination,
        ckpt.world,
        ckpt.day,
        ckpt.progress,
        parent=parent,
        interventions=interventions,
    )
    return summaries
