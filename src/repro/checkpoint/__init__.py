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
ordinary runners, re-exported here: :func:`run_segment`
(:mod:`repro.stream.runner`) and :func:`run_segment_parallel`
(:mod:`repro.parallel.runner`); an uninterrupted run is the segment
``[0, n_days)`` from :func:`fresh_progress`.

Branching (:func:`branch_checkpoint`) applies declared interventions
(fix SPF fleet-wide, delist the proxies, retire squatted domains, ...)
to a loaded checkpoint and saves it with lineage, turning the simulator
into a counterfactual lab; :mod:`repro.checkpoint.diff` renders
per-bounce-type/per-table deltas between two runs.
"""

from repro.checkpoint.diff import diff_payloads, diff_runs, render_diff, table_payload
from repro.checkpoint.interventions import (
    INTERVENTIONS,
    apply_intervention,
    branch_checkpoint,
    intervention_catalog,
)
from repro.checkpoint.store import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel.runner import run_segment_parallel
from repro.stream.runner import fresh_progress, run_segment

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "INTERVENTIONS",
    "apply_intervention",
    "branch_checkpoint",
    "diff_payloads",
    "diff_runs",
    "fresh_progress",
    "intervention_catalog",
    "load_checkpoint",
    "render_diff",
    "run_segment",
    "run_segment_parallel",
    "save_checkpoint",
    "table_payload",
]
