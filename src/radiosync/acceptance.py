"""Acceptance suite: every release-gating check, one function each.

A criterion registers by its decorator, ``@_criterion("A<k>",
"<required text>")``, and its body returns only ``(passed, measured)``:
the decorator times the call, builds the :class:`CriterionResult` and
appends the criterion to :data:`CRITERIA`. Each criterion pins its own
parameters and tolerances; ``run_all`` executes the registry in
definition order and prints one PASS/FAIL line per criterion with the
measured versus required values. Everything is driven by fixed seeds,
so the whole report is reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import isqrt
from typing import Callable, Optional

import numpy as np

from .birthday import BirthdayParams, estimate_probs
from .bitstrings import (
    BitSchedule,
    ShiftAssignment,
    brute_force_min_overlap_shift,
    find_non_overlap_shift,
    pack_non_overlapping,
)
from .detsched import build_two_proc_schedule, ceil_sqrt, verify_self_overlap
from .netsim import DriftParams, check_unit_overlap
from .protocol import (
    SimConfig,
    build_pipeline_matrix,
    draw_identifiers,
    draw_offsets,
    estimate_guesses,
    estimate_n,
    pipeline_params,
    run_pipeline,
    run_sync,
)
from .randsched import DEFAULT_SCALE, ScheduleMatrix, build_comm_graph, reached_from
from .seeding import derive_seed, spawn_rng

#: root seed for the whole suite; criteria derive their own streams
ACCEPT_SEED = 108_642


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    required: str
    measured: str
    seconds: float

    def line(self) -> str:
        """The report line: name, PASS or FAIL, the required and the
        measured values, and the seconds taken."""
        return (
            f"{self.name:<4} {'PASS' if self.passed else 'FAIL'}  required: "
            f"{self.required}; measured: {self.measured}  [{self.seconds:.1f}s]"
        )


#: the registered criteria, in definition order (see :func:`_criterion`)
CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(name: str, required: str):
    """Register the decorated check as criterion ``name`` with its
    ``required`` text. The check returns ``(passed, measured)``; the
    registered function, which keeps the check's name and docstring,
    times the call and returns its :class:`CriterionResult`."""

    def register(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        # the check's name and docstring, not its return annotation
        @wraps(check, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def timed() -> CriterionResult:
            t0 = time.perf_counter()
            passed, measured = check()
            seconds = time.perf_counter() - t0
            return CriterionResult(name, passed, required, measured, seconds)

        CRITERIA.append(timed)
        return timed

    return register


@_criterion(
    "A1", "length<=2d+4ceil(sqrt d)+2, cost<=4ceil(sqrt d)+4, all shifts 1..d overlap"
)
def criterion_a1() -> tuple[bool, str]:
    """Two-processor schedule: exact bounds and full self-overlap for
    every d in 1..2000 and {4096, 10**4, 10**5}."""
    ds = list(range(1, 2001)) + [4096, 10**4, 10**5]
    bad = []
    for d in ds:
        s = build_two_proc_schedule(d)
        cd = ceil_sqrt(d)
        if (
            s.length > 2 * d + 4 * cd + 2
            or s.density > 4 * cd + 4
            or not verify_self_overlap(s, d)
        ):
            bad.append(d)
    return not bad, (
        f"{len(ds) - len(bad)}/{len(ds)} values of d exact"
        + (f", failures at {bad[:5]}" if bad else "")
    )


@_criterion("A2", "window length 98, <=28 ones, 26 distinct")
def criterion_a2() -> tuple[bool, str]:
    """Worked example d=36: window 98, at most 28 ones, 26 distinct."""
    s = build_two_proc_schedule(36)
    ok = s.length == 98 and s.density == 26
    return ok, f"window {s.length}, {s.density} ones"


@_criterion(
    "A3", "success within ceil(L/C^2)+1 and oracle agreement in 100% of 10^4 cases"
)
def criterion_a3() -> tuple[bool, str]:
    """Constructive shift finder agrees with the brute-force oracle and
    always succeeds within ceil(L/C^2)+1 when densities allow; 10**4
    fuzzed pairs."""
    rng = spawn_rng(ACCEPT_SEED, 3)
    cases = 10_000
    failures = 0
    for idx in range(cases):
        L = int(rng.integers(64, 4097))
        c = 1.0 if idx % 2 == 0 else float(1.0 + rng.random())
        budget = max(1, math.floor(L / c**2))
        na = int(rng.integers(1, isqrt(budget) + 1))
        nb = int(rng.integers(1, max(2, budget // na + 1)))
        a = BitSchedule.from_positions(L, rng.choice(L, na, replace=False).tolist())
        b = BitSchedule.from_positions(L, rng.choice(L, nb, replace=False).tolist())
        bound = math.ceil(L / c**2) + 1
        found = find_non_overlap_shift(a, b, bound)
        oracle = brute_force_min_overlap_shift(a, b, bound)
        if found is None or found != oracle:
            failures += 1
    return not failures, f"{cases - failures}/{cases} agree"


@_criterion("A4", "pack succeeds and is pairwise non-overlapping in 100/100 seeds")
def criterion_a4() -> tuple[bool, str]:
    """Sequential packing of ceil(d^beta) strings at the density for
    d=256, beta=1/2 succeeds with bound L/4 and verifies pairwise, over
    100 seeds: a seed is clean when its packing succeeds and its shifted
    strings hold as many distinct positions as ones."""
    d, beta = 256, 0.5
    count = math.ceil(d**beta)
    density = math.ceil(d ** ((1 - beta) / 2))
    L = 4 * d
    bound = L // 4
    clean = 0
    for seed in range(100):
        rng = spawn_rng(ACCEPT_SEED, 4, seed)
        strings = [
            BitSchedule.from_positions(L, rng.choice(L, density, replace=False).tolist())
            for _ in range(count)
        ]
        assignment = pack_non_overlapping(strings, bound)
        if isinstance(assignment, ShiftAssignment):
            shifted = {p + k for s, k in zip(strings, assignment.shifts) for p in s.ones}
            clean += len(shifted) == count * density
    return clean == 100, f"{clean}/100 clean"


@_criterion(
    "A5", f"P[shared bin] >= 0.78 at scale {DEFAULT_SCALE}, 10^4 bins, 10^4 trials"
)
def criterion_a5() -> tuple[bool, str]:
    """Shared-bin probability at the threshold scale stays above 0.78
    (0.8 minus sampling tolerance)."""
    params = BirthdayParams.from_exponents(bins=10_000, red_exp=0.5, scale=DEFAULT_SCALE)
    est, _ = estimate_probs(params, trials=10_000, seed=derive_seed(ACCEPT_SEED, 5))
    return est.estimate >= 0.78, f"{est.estimate:.4f} +/- {est.half_width:.4f}"


@_criterion("A6", "P[exclusive pair] >= 0.72 and <= P[shared bin] on the same seeds")
def criterion_a6() -> tuple[bool, str]:
    """Exclusive-pair probability at scale 2 stays above 0.72 and never
    exceeds the shared-bin estimate on the same seed stream."""
    params = BirthdayParams.from_exponents(bins=10_000, red_exp=0.5, scale=2.0)
    est_h, est_t = estimate_probs(params, trials=10_000, seed=derive_seed(ACCEPT_SEED, 6))
    ok = est_t.estimate >= 0.72 and est_t.estimate <= est_h.estimate
    return ok, f"T={est_t.estimate:.4f}, H={est_h.estimate:.4f}"


@dataclass
class _PipelineTrial:
    stage_min_degree: int
    full_min_degree: int
    connected: bool
    sync_exact: Optional[bool]  # None when the graph was disconnected


@lru_cache(maxsize=1)
def _pipeline_trials(seeds: int = 200) -> tuple[_PipelineTrial, ...]:
    """Shared context for A7/A8: 200 seeded runs at d=1024, beta=1/2.

    Per seed: build the full amplified schedule, grade the one-stage
    graph, run the sync portion with the derived round budget, and
    grade the full graph that run built (a disconnected one leaves
    ``sync_exact`` unset). Cached so A7 pays for the batch and A8
    reuses it.
    """
    d, n = 1024, 32
    params = pipeline_params(d, n)
    stage_cols = params.stage_windows * params.columns
    trials = []
    for seed in range(seeds):
        rng = spawn_rng(ACCEPT_SEED, 78, seed)
        matrix = build_pipeline_matrix(n, params, rng)
        offsets = draw_offsets(n, d, rng)
        matrix = matrix.with_offsets(offsets)
        # rows are sorted, so the first stage is a prefix of each row
        early = matrix.positions < stage_cols
        stage = ScheduleMatrix(
            n,
            stage_cols,
            matrix.positions[early],
            offsets,
            starts=np.cumsum(np.r_[0, early])[matrix.starts],
        )
        stage_deg = int(build_comm_graph(stage).degrees().min())
        result = run_sync(matrix, draw_identifiers(n, rng), params.rounds)
        full_deg = int(result.comm_graph.degrees().min())
        connected = reached_from(result.comm_graph) == n
        sync_exact = result.success if connected else None
        trials.append(_PipelineTrial(stage_deg, full_deg, connected, sync_exact))
    return tuple(trials)


@_criterion("A7", "min degree >=10: one stage >0.5 of seeds, amplified >0.95")
def criterion_a7() -> tuple[bool, str]:
    """Minimum degree 10 in more than half the one-stage graphs and in
    more than 95% after amplification (d=1024, beta=1/2, 200 seeds)."""
    trials = _pipeline_trials()
    stage_frac = sum(t.stage_min_degree >= 10 for t in trials) / len(trials)
    full_frac = sum(t.full_min_degree >= 10 for t in trials) / len(trials)
    ok = stage_frac > 0.5 and full_frac > 0.95
    return ok, f"stage {stage_frac:.3f}, amplified {full_frac:.3f}"


@_criterion("A8", "exact agreement on all connected graphs")
def criterion_a8() -> tuple[bool, str]:
    """On every connected amplified graph, the sync pass ends with the
    global max identifier and identical adjusted clocks at all nodes."""
    connected = [t for t in _pipeline_trials() if t.connected]
    exact = sum(1 for t in connected if t.sync_exact)
    ok = bool(connected) and exact == len(connected)
    return ok, f"{exact}/{len(connected)} connected runs exact"


def _fit_cost_exponent(costs_by_d: dict[int, list[float]]) -> float:
    xs, ys = [], []
    for d, costs in costs_by_d.items():
        for c in costs:
            xs.append(math.log(d))
            ys.append(math.log(c / math.log2(d) ** 3))
    slope, _intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(slope)


@_criterion("A9", "fitted exponent in [0.15, 0.35], base and interference")
def criterion_a9() -> tuple[bool, str]:
    """Max per-node radio cost scales like d**x (after removing the
    cubed log factor) with x in [0.15, 0.35]; interference mode agrees
    after dividing out its back-off expansion."""
    ds = [2**8, 2**10, 2**12, 2**14]
    seeds = 3
    base: dict[int, list[float]] = {}
    intf: dict[int, list[float]] = {}
    for d in ds:
        base[d], intf[d] = [], []
        for trial in range(seeds):
            seed = derive_seed(ACCEPT_SEED, 9, d, trial)
            result = run_pipeline(SimConfig(d=d, beta=0.5, seed=seed))
            base[d].append(float(result.per_node_radio_cost.max()))
            config = SimConfig(d=d, beta=0.5, seed=seed, exclusive=True)
            result = run_pipeline(config)
            intf[d].append(
                float(result.per_node_radio_cost.max()) / config.backoff_rounds
            )
    x_base = _fit_cost_exponent(base)
    x_intf = _fit_cost_exponent(intf)
    ok = 0.15 <= x_base <= 0.35 and 0.15 <= x_intf <= 0.35
    return ok, f"base x={x_base:.3f}, interference x={x_intf:.3f}"


@_criterion(
    "A10",
    ">=90% within factor 2; sync fraction >=8/9 and cost sum <=4x final, all accepted runs",
)
def criterion_a10() -> tuple[bool, str]:
    """Unknown-count loop at d=1024, true n=32, 100 seeds: accepted
    estimate within factor 2 in >=90% of seeds, synchronized fraction
    >=8/9 in every accepted run, and total cost <=4x the final epoch.
    Reports how often each guess was accepted, and how many of the
    epochs run were synced in full: those whose guess is at most the
    true n (:func:`~radiosync.protocol.estimate_n`)."""
    d, true_n, seeds = 1024, 32, 100
    within, accepted_runs = 0, 0
    frac_ok, cost_ok = True, True
    estimates = Counter()
    above = sum(guess > true_n for guess in estimate_guesses(d))
    epochs = synced = 0
    for seed in range(seeds):
        config = SimConfig(d=d, seed=derive_seed(ACCEPT_SEED, 10, seed))
        res = estimate_n(config, true_n)
        epochs += res.epochs_run
        synced += res.epochs_run - above
        if res.accepted:
            accepted_runs += 1
            estimates[res.estimate] += 1
            if true_n / 2 <= res.estimate <= true_n * 2:
                within += 1
            if res.synchronized_fraction < 8 / 9:
                frac_ok = False
            if res.total_max_cost > 4 * res.final_epoch_max_cost:
                cost_ok = False
    ok = within >= 0.9 * seeds and frac_ok and cost_ok
    return ok, (
        f"{within}/{seeds} within factor 2, {accepted_runs} accepted, "
        f"fraction_ok={frac_ok}, cost_ok={cost_ok}, "
        f"estimates {dict(sorted(estimates.items()))}, {synced} of {epochs} epochs synced"
    )


@_criterion("A11", "overlap >= min(step_i, step_j)/2 in 100% of samples")
def criterion_a11() -> tuple[bool, str]:
    """Drift model: co-awake overlap is at least half the shorter step
    in 100% of 10^5 sampled configurations for ratio bounds 1, 2, 5."""
    rng = spawn_rng(ACCEPT_SEED, 11)
    samples_per_c = 100_000 // 3 + 1
    violations = 0
    total = 0
    for c in (1.0, 2.0, 5.0):
        for _ in range(samples_per_c):
            speeds = tuple(float(1.0 + rng.random() * (c - 1.0)) for _ in range(2))
            tau_trans = float(0.1 + rng.random() * 1.9)
            p = DriftParams(speeds, c, tau_trans)
            s0, s1 = p.step_length(0), p.step_length(1)
            z0 = float(rng.random()) * s0
            z1 = float(rng.random()) * s1
            overlap = check_unit_overlap(p, z0, z1)
            total += 1
            if overlap < min(s0, s1) / 2 - 1e-9:
                violations += 1
    return violations == 0, f"{total - violations}/{total} satisfied"


@_criterion("A12", "self-overlap verification fails in 100% of sparse strings")
def criterion_a12() -> tuple[bool, str]:
    """Negative control: sparse random strings (<= ceil(sqrt(W)) ones)
    always admit a non-overlapping self-shift within ceil(W/2), so the
    self-overlap verifier fails for them in 100% of 10^3 cases."""
    rng = spawn_rng(ACCEPT_SEED, 12)
    cases, bad = 1_000, 0
    for _ in range(cases):
        W = int(rng.integers(64, 4097))
        m = math.ceil(math.sqrt(W))
        s = BitSchedule.from_positions(W, rng.choice(W, m, replace=False).tolist())
        if verify_self_overlap(s, math.ceil(W / 2)):
            bad += 1
    return bad == 0, f"{cases - bad}/{cases} failed as required"


def run_all() -> list[CriterionResult]:
    """Execute every registered criterion, printing one line per result
    to standard output."""
    results = []
    for criterion in CRITERIA:
        results.append(criterion())
        print(results[-1].line())
    return results
