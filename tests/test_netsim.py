"""Back-off contention and the bounded-drift lemma."""

import numpy as np
import pytest

from radiosync.netsim import (
    DriftParams,
    check_unit_overlap,
    complete_steps,
    max_step_overlap,
    resolve_backoff_unit,
)
from radiosync.seeding import spawn_rng


# --- back-off ----------------------------------------------------------------

def test_backoff_single_slot_pair_success_rate():
    # exactly one of two transmits with probability 1/2
    hits = 0
    trials = 4_000
    for i in range(trials):
        if resolve_backoff_unit((0, 1), 1, spawn_rng(2, i)):
            hits += 1
    assert abs(hits / trials - 0.5) < 0.03


def test_backoff_multi_slot_success_curve():
    # P[some delivery within r slots] = 1 - (1/2)**r for two nodes
    trials = 2_000
    for slots in (2, 4):
        hits = sum(
            bool(resolve_backoff_unit((0, 1), slots, spawn_rng(3, slots, i)))
            for i in range(trials)
        )
        expect = 1 - 0.5**slots
        assert abs(hits / trials - expect) < 0.04


def test_backoff_no_peer_no_delivery():
    assert resolve_backoff_unit((0,), 5, spawn_rng(4)) == []


def test_backoff_winners_are_sole_transmitters():
    # replay the coin matrix: every reported slot has exactly one 1
    for i in range(50):
        awake = (3, 5, 9)
        wins = resolve_backoff_unit(awake, 8, spawn_rng(5, i))
        coins = spawn_rng(5, i).integers(0, 2, size=(8, 3))
        for slot, sender in wins:
            assert coins[slot].sum() == 1
            assert awake[int(np.flatnonzero(coins[slot])[0])] == sender


# --- drift -------------------------------------------------------------------

def test_drift_equal_speeds_equal_steps():
    p = DriftParams(speeds=(2.0, 2.0, 2.0), ratio_bound=1.0, min_transmit_time=0.5)
    steps = {p.step_length(i) for i in range(3)}
    assert len(steps) == 1


def test_drift_ratio_bound_enforced():
    with pytest.raises(ValueError):
        DriftParams(speeds=(1.0, 3.0), ratio_bound=2.0, min_transmit_time=1.0)
    p = DriftParams(speeds=(1.0, 2.0), ratio_bound=2.0, min_transmit_time=1.0)
    s = [p.step_length(i) for i in range(2)]
    assert max(s) / min(s) <= p.ratio_bound + 1e-12


def test_unit_fits_three_steps():
    rng = spawn_rng(8)
    for _ in range(200):
        c = float(1.0 + rng.random() * 4.0)
        p = DriftParams(
            speeds=(1.0 + float(rng.random()) * (c - 1.0), c),
            ratio_bound=c,
            min_transmit_time=float(0.1 + rng.random()),
        )
        for i in range(2):
            s = p.step_length(i)
            phase = float(rng.random()) * s
            assert complete_steps(p, i, phase) >= 3


def test_overlap_identical_phases():
    p = DriftParams(speeds=(1.0, 1.0), ratio_bound=1.0, min_transmit_time=1.0)
    s = p.step_length(0)
    assert check_unit_overlap(p, 0.0, 0.0) == pytest.approx(s)


def test_overlap_half_step_phases():
    p = DriftParams(speeds=(1.0, 1.0), ratio_bound=1.0, min_transmit_time=1.0)
    s = p.step_length(0)
    assert check_unit_overlap(p, 0.0, s / 2) == pytest.approx(s / 2)


def test_overlap_contract_sampled():
    rng = spawn_rng(9)
    for _ in range(500):
        c = float(rng.choice([1.0, 2.0, 5.0]))
        p = DriftParams(
            speeds=(
                1.0 + float(rng.random()) * (c - 1.0),
                1.0 + float(rng.random()) * (c - 1.0),
            ),
            ratio_bound=c,
            min_transmit_time=float(0.1 + rng.random() * 1.9),
        )
        s0, s1 = p.step_length(0), p.step_length(1)
        got = check_unit_overlap(p, float(rng.random()) * s0, float(rng.random()) * s1)
        assert got >= min(s0, s1) / 2 - 1e-9


def test_unequal_grids_general_geometry():
    # synthetic unequal steps exercise the general overlap bound: the
    # shorter grid keeps at least half a step against any alignment
    rng = spawn_rng(10)
    for _ in range(500):
        s_i = float(0.5 + rng.random() * 2.0)
        s_j = float(0.5 + rng.random() * 2.0)
        unit = 5.0 * max(s_i, s_j)
        phase_i = float(rng.random()) * s_i
        phase_j = float(rng.random()) * s_j
        got = max_step_overlap(s_i, s_j, phase_i, phase_j, unit)
        assert got >= min(s_i, s_j) / 2 - 1e-9


def test_overlap_rejects_bad_phase():
    p = DriftParams(speeds=(1.0, 1.0), ratio_bound=1.0, min_transmit_time=1.0)
    with pytest.raises(ValueError):
        check_unit_overlap(p, p.step_length(0) * 1.5, 0.0)
