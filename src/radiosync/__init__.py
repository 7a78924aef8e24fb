"""Radio-efficient wake-up schedules and clock synchronization.

Library layout:

* :mod:`radiosync.bitstrings`  -- wake-up strings, overlap algebra,
  non-colliding shift construction and its brute-force oracle
* :mod:`radiosync.detsched`    -- deterministic two-processor schedule
  and the all-shift self-overlap verifier
* :mod:`radiosync.birthday`    -- two-color collision Monte-Carlo,
  both events estimated from one pass over the throws
* :mod:`radiosync.randsched`   -- random schedule matrices (flat
  positions with row starts), meeting detection, and the communication
  graph built from the grouped meeting pairs
* :mod:`radiosync.netsim`      -- back-off contention and the
  bounded clock drift lemma
* :mod:`radiosync.protocol`    -- run configuration, the radio medium
  (delivery at meetings), max-identifier synchronization from unique
  node identifiers, and the unknown-count estimation loop
* :mod:`radiosync.seeding`     -- seeded rng streams, and the count and
  memory checks shared by the modules above
* :mod:`radiosync.harness`     -- seeded runs and sweeps, and the CSV
  text of their results
* :mod:`radiosync.acceptance`  -- release-gating checks, one line each
  (``radiosync accept`` runs them all)
"""

from .bitstrings import (
    BitSchedule,
    NotFound,
    ShiftAssignment,
    brute_force_min_overlap_shift,
    find_non_overlap_shift,
    overlaps_at,
    pack_non_overlapping,
)
from .detsched import (
    build_two_proc_schedule,
    radio_cost,
    verify_self_overlap,
)
from .birthday import (
    BirthdayParams,
    ProbEstimate,
    TrialOutcome,
    estimate_probs,
    run_trial,
)
from .randsched import (
    CommGraph,
    GraphStats,
    Meetings,
    ScheduleMatrix,
    build_comm_graph,
    detect_meetings,
    graph_stats,
)
from .netsim import DriftParams, check_unit_overlap
from .protocol import (
    EstimateResult,
    PipelineResult,
    SimConfig,
    build_pipeline_matrix,
    estimate_n,
    run_pipeline,
    run_sync,
)
from .harness import ExperimentSpec, SummaryRecord, run_sweep

__all__ = [
    "BitSchedule",
    "NotFound",
    "ShiftAssignment",
    "overlaps_at",
    "find_non_overlap_shift",
    "brute_force_min_overlap_shift",
    "pack_non_overlapping",
    "build_two_proc_schedule",
    "verify_self_overlap",
    "radio_cost",
    "BirthdayParams",
    "TrialOutcome",
    "ProbEstimate",
    "run_trial",
    "estimate_probs",
    "ScheduleMatrix",
    "CommGraph",
    "GraphStats",
    "Meetings",
    "detect_meetings",
    "build_comm_graph",
    "graph_stats",
    "DriftParams",
    "check_unit_overlap",
    "SimConfig",
    "PipelineResult",
    "EstimateResult",
    "build_pipeline_matrix",
    "run_sync",
    "run_pipeline",
    "estimate_n",
    "ExperimentSpec",
    "SummaryRecord",
    "run_sweep",
]
