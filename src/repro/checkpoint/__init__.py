"""World checkpointing, temporal resume, and branched what-if runs.

PR 5's resume skips *slices within one run*; this package checkpoints
*simulated time*.  A checkpoint is a versioned, fingerprinted directory
(``Ckpts/<name>/`` by convention) holding the complete simulation state
at a day boundary:

``world.pkl``
    The pickled world model — zones and misconfiguration windows,
    DNSBL listings, mailboxes, breach corpus, registrar state, clock —
    with every fast-path cache purged (caches are rebuildable pure
    lookups; purging keeps snapshots canonical and guarantees cached and
    ``--no-cache`` restores resume from the same bytes).

``state.json``
    Per-slice temporal progress: how many records each slice delivered,
    where traffic slices resume, and for partially-run slices the full
    engine runtime state — RNG cursors for the engine and fleet streams,
    the learned-STARTTLS set, and every greylist tuple store.

``meta.json``
    Format version, config digest, content hashes of the other two
    files, the canonical deep state digest
    (:func:`repro.world.inspect.state_digest`), and branch lineage.

The cut discipline is *day boundaries, strict prefix*: a segment up to
day ``D`` delivers exactly the specs with ``t < day_start(D)``, and
records are atomic per email (retries never span a cut).  Because the
slice plan is a pure function of the config and the canonical merge is
stable, a run chained across K segments — at any worker count — is
byte-identical to one uninterrupted run.  Segments run through the
ordinary runners: :func:`run_segment` (:mod:`repro.stream.runner`,
re-exported here) in process, and
:func:`repro.parallel.run_parallel_simulation` with a loaded
:class:`Checkpoint` as its source across workers; an uninterrupted run
is the segment ``[0, n_days)`` from :func:`fresh_progress`.

Branching (:func:`branch_checkpoint`) applies declared interventions
(fix SPF fleet-wide, delist the proxies, retire squatted domains, ...)
to a loaded checkpoint and saves it with lineage, turning the simulator
into a counterfactual lab; :mod:`repro.checkpoint.diff` renders
per-bounce-type/per-table deltas between two runs.
"""

import importlib

#: Every export resolves on first use (PEP 562), so importing
#: :mod:`repro.checkpoint.store`, all that loading or saving a checkpoint
#: needs, does not import ``diff`` and ``interventions`` or the analyses
#: behind them.
_LAZY = {
    "CHECKPOINT_VERSION": "repro.checkpoint.store",
    "Checkpoint": "repro.checkpoint.store",
    "CheckpointError": "repro.checkpoint.store",
    "load_checkpoint": "repro.checkpoint.store",
    "save_checkpoint": "repro.checkpoint.store",
    "INTERVENTIONS": "repro.checkpoint.interventions",
    "apply_intervention": "repro.checkpoint.interventions",
    "branch_checkpoint": "repro.checkpoint.interventions",
    "intervention_catalog": "repro.checkpoint.interventions",
    "diff_payloads": "repro.checkpoint.diff",
    "diff_runs": "repro.checkpoint.diff",
    "render_diff": "repro.checkpoint.diff",
    "table_payload": "repro.checkpoint.diff",
    "fresh_progress": "repro.stream.runner",
    "run_segment": "repro.stream.runner",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value
