"""Workloads of the sync-pipeline benchmark: inputs, trials and checks.

A trial is the work one seeded run costs a user. For the pipeline
workloads that is ``run_pipeline(config)`` followed by ``graph_stats``
on the returned graph, as ``radiosync sync run`` and ``sweep`` do it;
for ``estimate-n`` it is one ``estimate_n`` call. Every trial's seed is
derived from the workload seed and the trial index, so a given
(workload, seed) pair always produces the same sequence of inputs.

The checks hold whatever the random stream is, so they can fail only
when the program is wrong, never because a seed was unlucky.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

#: the library is run from the source tree next to this directory
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "radiosync" / "__init__.py").is_file():
    raise ImportError(f"radiosync sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from radiosync import protocol, randsched  # noqa: E402

if not Path(protocol.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"radiosync imported from {protocol.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``full`` and ``smoke`` are the ``SimConfig`` fields of a trial at
    the measured and at the test size. ``true_n`` set means a trial is
    one ``estimate_n`` call with that many radios; unset means one
    ``run_pipeline`` plus ``graph_stats``.
    """

    name: str
    key: int
    full: dict
    smoke: dict
    true_n: Optional[tuple[int, int]] = None  # (full, smoke)


# Why these four: the layer that dominates a trial changes with the
# regime, so each workload is the one that exercises some layers and
# bypasses others (see README.md for the predictions).
WORKLOADS = {
    w.name: w
    for w in (
        # default sync run / sweep / A9 path: schedule draw and meeting
        # detection dominate; no back-off, little graph_stats
        Workload("dense-base", 1, dict(d=16384, beta=0.5), dict(d=256, beta=0.5)),
        # the only workload on the back-off medium
        Workload(
            "interference",
            2,
            dict(d=4096, beta=0.5, exclusive=True),
            dict(d=256, beta=0.5, exclusive=True),
        ),
        # n=1449 on a sparse graph (diameter 5-6): the flood needs more
        # than one schedule copy and the all-pairs BFS is the cost
        Workload(
            "sparse-multihop",
            3,
            dict(d=16384, beta=0.75, scale=0.5, repetition_k=1),
            dict(d=1024, beta=0.75, scale=0.5, repetition_k=1),
        ),
        # the A10 path: many small inputs, so fixed per-call costs show
        Workload("estimate-n", 4, dict(d=1024), dict(d=256), true_n=(32, 16)),
    )
}


def trial_seed(seed: int, workload: Workload, index: int) -> int:
    """63-bit seed of trial ``index`` of ``workload`` under ``seed``."""
    state = np.random.SeedSequence((seed, workload.key, index)).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def make_input(workload: Workload, seed: int, index: int, smoke: bool):
    """The ``SimConfig`` of one trial (and the true count for estimate-n)."""
    fields = workload.smoke if smoke else workload.full
    config = protocol.SimConfig(**fields, seed=trial_seed(seed, workload, index))
    if workload.true_n is None:
        return config, None
    return config, workload.true_n[1 if smoke else 0]


def execute(workload: Workload, trial_input):
    """Run one trial; this is the timed part."""
    config, true_n = trial_input
    if true_n is not None:
        return protocol.estimate_n(config, true_n=true_n)
    result = protocol.run_pipeline(config)
    # looked up on the module at call time so the tracer can wrap it
    stats = randsched.graph_stats(result.comm_graph, root=result.root_index)
    return result, stats


def check(workload: Workload, trial_input, outcome) -> tuple[tuple, list[str]]:
    """Digest row of a trial's simulated outcome, and its check failures."""
    config, true_n = trial_input
    if true_n is not None:
        return _check_estimate(outcome)
    return _check_pipeline(config, *outcome)


def _check_pipeline(config, result, stats) -> tuple[tuple, list[str]]:
    rounds_paid = protocol.pipeline_params(
        config.d,
        config.n,
        scale=config.scale,
        columns=config.columns,
        repetition_k=config.repetition_k,
        rounds=config.rounds,
        polylog_exp=config.polylog_exp,
    ).rounds
    errors = []
    if not 1 <= result.rounds_used <= rounds_paid:
        errors.append(f"rounds_used {result.rounds_used} outside [1, {rounds_paid}]")
    if config.exclusive:
        if result.success and any(
            st.max_seen != result.root_ident for st in result.states
        ):
            errors.append("success reported but a node is not at the root identifier")
    else:
        # the base-mode flood is deterministic: it reaches exactly the
        # root's component, one hop or more per schedule copy
        if result.success and not stats.connected:
            errors.append("success reported on a disconnected graph")
        if stats.connected and stats.diameter <= rounds_paid and not result.success:
            errors.append("connected graph within the round budget did not sync")
        if stats.connected and result.rounds_used > stats.diameter:
            errors.append(
                f"rounds_used {result.rounds_used} exceeds diameter {stats.diameter}"
            )
    row = (
        int(result.success),
        result.rounds_used,
        int(result.per_node_radio_cost.max()),
        len(result.comm_graph.witness),
        stats.diameter if math.isfinite(stats.diameter) else "inf",
    )
    return row, errors


def _check_estimate(result) -> tuple[tuple, list[str]]:
    errors = []
    if result.accepted:
        if result.synchronized_fraction < 8 / 9:
            errors.append(
                f"accepted with synchronized fraction {result.synchronized_fraction:.4f}"
            )
        if result.total_max_cost > 4 * result.final_epoch_max_cost:
            errors.append(
                f"total cost {result.total_max_cost} exceeds 4x the final epoch's "
                f"{result.final_epoch_max_cost}"
            )
    row = (
        int(result.accepted),
        result.estimate,
        result.epochs_run,
        result.synchronized_fraction,
        result.total_max_cost,
    )
    return row, errors
