"""Radio-efficient wake-up schedules and clock synchronization.

Library layout:

* :mod:`radiosync.bitstrings`  -- wake-up strings, overlap algebra,
  non-colliding shift construction and its brute-force oracle
* :mod:`radiosync.detsched`    -- deterministic two-processor schedule
  and the all-shift self-overlap verifier
* :mod:`radiosync.birthday`    -- two-color collision Monte-Carlo
* :mod:`radiosync.randsched`   -- random schedule matrices, meeting
  detection, communication graphs
* :mod:`radiosync.netsim`      -- back-off contention and the
  bounded clock drift lemma
* :mod:`radiosync.protocol`    -- run configuration, the radio medium
  (delivery at meetings), max-identifier synchronization and the
  unknown-count estimation loop
* :mod:`radiosync.harness`     -- seeded sweeps, CSV emission
* :mod:`radiosync.acceptance`  -- release-gating checks
"""

from .bitstrings import (
    BitSchedule,
    NotFound,
    ShiftAssignment,
    brute_force_min_overlap_shift,
    find_non_overlap_shift,
    overlaps_at,
    pack_non_overlapping,
    union,
)
from .detsched import (
    TwoProcParams,
    build_two_proc_schedule,
    radio_cost,
    verify_self_overlap,
)
from .birthday import (
    BirthdayParams,
    ProbEstimate,
    TrialOutcome,
    estimate_prob_H,
    estimate_prob_T,
    run_trial,
)
from .randsched import (
    CommGraph,
    GraphStats,
    Meetings,
    ScheduleMatrix,
    build_comm_graph,
    detect_meetings,
    gen_matrix,
    graph_stats,
)
from .netsim import DriftParams, check_unit_overlap
from .protocol import (
    EstimateResult,
    NodeState,
    PipelineResult,
    SimConfig,
    build_pipeline_matrix,
    estimate_n,
    run_pipeline,
    run_sync,
)
from .harness import ExperimentSpec, SummaryRecord, run_acceptance, run_sweep

__all__ = [
    "BitSchedule",
    "NotFound",
    "ShiftAssignment",
    "overlaps_at",
    "union",
    "find_non_overlap_shift",
    "brute_force_min_overlap_shift",
    "pack_non_overlapping",
    "TwoProcParams",
    "build_two_proc_schedule",
    "verify_self_overlap",
    "radio_cost",
    "BirthdayParams",
    "TrialOutcome",
    "ProbEstimate",
    "run_trial",
    "estimate_prob_H",
    "estimate_prob_T",
    "ScheduleMatrix",
    "CommGraph",
    "GraphStats",
    "Meetings",
    "gen_matrix",
    "detect_meetings",
    "build_comm_graph",
    "graph_stats",
    "DriftParams",
    "check_unit_overlap",
    "SimConfig",
    "NodeState",
    "PipelineResult",
    "EstimateResult",
    "build_pipeline_matrix",
    "run_sync",
    "run_pipeline",
    "estimate_n",
    "ExperimentSpec",
    "SummaryRecord",
    "run_sweep",
    "run_acceptance",
]
