"""Back-off contention and the bounded-drift lemma."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

import oracles
from radiosync.netsim import (
    DriftParams,
    _heard_counts,
    check_unit_overlap,
    max_step_overlap,
    resolve_backoff,
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


class FixedCoins:
    """Stands in for the rng of :func:`resolve_backoff_unit`: its one
    coin draw returns the given matrix."""

    def __init__(self, coins):
        self.coins = coins

    def integers(self, low, high, size):
        assert (low, high, size) == (0, 2, self.coins.shape)
        return self.coins


def exact_heard_sets(k, slots):
    """Probability of each heard set of a k-radio unit, as a bitmask
    (bit j: radio j was heard), over all 2**(k*slots) equally likely
    coin matrices of :func:`resolve_backoff_unit`."""
    counts = np.zeros(2**k)
    for bits in itertools.product((0, 1), repeat=k * slots):
        coins = np.array(bits).reshape(slots, k)
        winners = resolve_backoff_unit(range(k), slots, FixedCoins(coins))
        counts[sum(1 << j for j in {s for _slot, s in winners})] += 1
    return counts / 2 ** (k * slots)


def chi2_sf(x, dof):
    """P[X > x] for X chi-square with ``dof`` degrees of freedom, in
    closed form: Q(1) = erfc(sqrt(x/2)), Q(2) = exp(-x/2), and
    Q(v + 2) = Q(v) + exp(-x/2) (x/2)**(v/2) / Gamma(v/2 + 1)."""
    h = x / 2
    sf, a = (math.erfc(math.sqrt(h)), 0.5) if dof % 2 else (math.exp(-h), 1.0)
    while a < dof / 2:
        sf += math.exp(-h) * h**a / math.gamma(a + 1)
        a += 1
    return sf


def heard_per_unit(sizes, slots, rng):
    """``resolve_backoff`` over units of ``sizes``: for each size k, the
    heard-set bitmask of every unit of that size, in order."""
    won = resolve_backoff(sizes, slots, rng)
    first = np.cumsum(sizes) - sizes
    out = {}
    for k in np.unique(sizes).tolist():
        bits = won[first[sizes == k, None] + np.arange(k)]
        out[k] = bits @ (1 << np.arange(k))
    return out


def test_chi2_sf_matches_known_quantiles():
    # upper 5% and 0.1% points of the chi-square table
    for dof, x05, x001 in [(1, 3.841, 10.828), (2, 5.991, 13.816), (7, 14.067, 24.322),
                           (15, 24.996, 37.697)]:
        assert chi2_sf(x05, dof) == pytest.approx(0.05, abs=1e-4)
        assert chi2_sf(x001, dof) == pytest.approx(0.001, abs=1e-5)


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_backoff_heard_sets_match_coin_enumeration(slots):
    # units of 2-4 radios mixed in one call, 10**5 of each size
    units = 100_000
    rng = spawn_rng(31, slots)
    sizes = rng.permutation(np.repeat(np.arange(2, 5), units))
    got = heard_per_unit(sizes, slots, rng)
    for k in (2, 3, 4):
        exact = exact_heard_sets(k, slots)
        observed = np.bincount(got[k], minlength=2**k)
        assert observed[exact == 0].sum() == 0
        expect = units * exact[exact > 0]
        chi2 = float((((observed[exact > 0] - expect) ** 2) / expect).sum())
        assert chi2_sf(chi2, expect.size - 1) > 1e-4, (k, chi2)


@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_heard_count_table_matches_coin_enumeration(k, slots):
    exact = exact_heard_sets(k, slots)
    by_count = np.bincount([m.bit_count() for m in range(2**k)], weights=exact)
    assert np.abs(_heard_counts(k, slots) - by_count).max() <= 1e-12


@pytest.mark.parametrize("slots", [1, 36, 10**4])
@pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 31, 32, 33, 53, 64])
def test_heard_count_table_is_a_distribution(k, slots):
    _heard_counts.cache_clear()
    start = time.perf_counter()
    table = _heard_counts(k, slots)
    assert time.perf_counter() - start < 1.0
    assert table.shape == (k + 1,) and (table >= 0).all()
    assert table.sum() == pytest.approx(1.0, abs=1e-11)
    assert not table.flags.writeable


@pytest.mark.parametrize("slots", [1, 2, 36, 961, 10**4])
def test_squared_heard_count_table_matches_stepped_oracle(slots):
    for k in range(2, 65):
        table = _heard_counts(k, slots)
        assert np.abs(table - oracles.heard_counts(k, slots)).max() <= 1e-12, k


def test_heard_count_table_at_a_million_slots_is_quick():
    _heard_counts.cache_clear()
    start = time.perf_counter()
    table = _heard_counts(40, 10**6)
    assert time.perf_counter() - start < 1.0
    assert table.sum() == pytest.approx(1.0, abs=1e-11) and (table >= 0).all()


def test_nobody_heard_once_the_lone_slot_rate_underflows():
    # 2**-1100 is 0 in float64: no slot has a sole transmitter
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        table = _heard_counts(1100, 10**4)
        won = resolve_backoff([1100, 2, 1100], 36, spawn_rng(6))
    assert table[0] == 1.0 and not table[1:].any()
    assert not won[:1100].any() and not won[1102:].any()


def test_backoff_rates_at_default_slot_count():
    # 36 slots, the default at d=4096: P[radio heard] = 1 - (1 - 2**-k)**36
    # and P[all heard] by inclusion-exclusion over the radios never alone
    slots, units = 36, 200_000
    rng = spawn_rng(32)
    for k in (2, 3, 4, 5):
        heard = heard_per_unit(np.full(units, k), slots, rng)[k]
        bits = (heard[:, None] >> np.arange(k)) & 1
        one = 1 - (1 - 2.0**-k) ** slots
        every = sum(
            (-1) ** j * math.comb(k, j) * (1 - j * 2.0**-k) ** slots for j in range(k + 1)
        )
        # radios of a unit are negatively correlated, so the binomial
        # spread bounds that of the pooled rate
        for rate, p, trials in [
            (bits.mean(), one, k * units),
            ((heard == 2**k - 1).mean(), every, units),
        ]:
            assert abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1e-9, (k, rate, p)


# --- drift -------------------------------------------------------------------

def test_drift_equal_speeds_equal_steps():
    p = DriftParams(speeds=(2.0, 2.0, 2.0), ratio_bound=1.0, min_transmit_time=0.5)
    steps = {p.step_length(i) for i in range(3)}
    assert len(steps) == 1


def test_drift_steps_differ_by_speed_ratio():
    # every node counts the same ticks, so the faster clock's step is
    # shorter by the speed ratio
    p = DriftParams(speeds=(1.0, 2.0), ratio_bound=2.0, min_transmit_time=1.0)
    assert p.ticks_per_step == 4.0
    assert (p.step_length(0), p.step_length(1)) == (4.0, 2.0)


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
            # the whole steps max_step_overlap fits into the unit
            assert math.floor((p.unit_length - phase) / s) >= 3


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
