"""Collision estimators: exact tiny cases, event containment,
determinism, and monotone coupling in the scale constant."""

import numpy as np
import pytest

from radiosync.birthday import (
    BirthdayParams,
    TrialOutcome,
    estimate_probs,
    run_trial,
)
from radiosync.seeding import spawn_rng


def raw_params(bins, n_red, n_blue):
    return BirthdayParams(bins=bins, n_red=n_red, n_blue=n_blue)


def test_param_derivation():
    p = BirthdayParams.from_exponents(bins=10_000, red_exp=0.5, scale=1.82)
    assert p.n_red == p.n_blue == 182
    p = BirthdayParams.from_exponents(bins=100, red_exp=0.3, scale=2.0)
    assert p.n_red == 8  # ceil(2 * 100**0.3) = ceil(7.96)
    assert p.n_blue == 51  # ceil(2 * 100**0.7) = ceil(50.2)


def test_param_validation():
    with pytest.raises(ValueError):
        BirthdayParams.from_exponents(bins=0, red_exp=0.5, scale=1.0)
    with pytest.raises(ValueError):
        BirthdayParams.from_exponents(bins=10, red_exp=0.0, scale=1.0)
    with pytest.raises(ValueError):
        BirthdayParams.from_exponents(bins=10, red_exp=0.5, scale=-1.0)
    # once a scale of 1
    with pytest.raises(ValueError, match="^scale must be finite and positive, got True$"):
        BirthdayParams.from_exponents(bins=10, red_exp=0.5, scale=True)


def test_ball_counts_beyond_memory_refused():
    # the message names the scale and both counts; refused before any
    # draw, also for a bin count beyond the float range
    with pytest.raises(
        ValueError, match=r"scale 1e\+300 gives 1e\+301 red and 1e\+301 blue"
    ):
        BirthdayParams.from_exponents(bins=100, red_exp=0.5, scale=1e300)
    with pytest.raises(ValueError, match="gives inf red and inf blue"):
        BirthdayParams.from_exponents(bins=10**400, red_exp=0.5, scale=1.0)


@pytest.mark.parametrize(
    "counts, message",
    [
        ((0, 1, 1), "bins must be positive, got 0"),
        ((4, -1, 1), "n_red must be non-negative, got -1"),
        ((4, 1, -2), "n_blue must be non-negative, got -2"),
    ],
)
def test_direct_params_refuse_counts_out_of_range(counts, message):
    # built directly, not through from_exponents: one line naming the
    # count, not numpy's "high <= 0" or "negative dimensions" in run_trial
    with pytest.raises(ValueError, match=f"^{message}$"):
        raw_params(*counts)


def test_outcome_containment_enforced():
    with pytest.raises(ValueError):
        TrialOutcome(any_shared_bin=False, exclusive_pair_bin=True)


def test_single_bin_always_shares():
    p = raw_params(bins=1, n_red=1, n_blue=1)
    for i in range(20):
        out = run_trial(p, spawn_rng(1, i))
        assert out.any_shared_bin
        assert out.exclusive_pair_bin


def test_forced_red_multiplicity_kills_exclusive():
    p = raw_params(bins=1, n_red=2, n_blue=1)
    for i in range(20):
        out = run_trial(p, spawn_rng(2, i))
        assert out.any_shared_bin
        assert not out.exclusive_pair_bin


def test_two_bins_single_balls_half_probability():
    # 4 equally likely placements; 2 put both balls in one bin
    p = raw_params(bins=2, n_red=1, n_blue=1)
    est, est_t = estimate_probs(p, trials=40_000, seed=11)
    assert abs(est.estimate - 0.5) < 0.012
    # with one ball of each color, exclusivity is automatic: T == H
    assert est_t.estimate == est.estimate


def test_rejects_zero_trials():
    p = raw_params(bins=2, n_red=1, n_blue=1)
    with pytest.raises(ValueError):
        estimate_probs(p, trials=0, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [("bins", 10.5), ("bins", True), ("trials", 2.5), ("trials", True), ("n_red", 1.5)],
)
def test_counts_must_be_integers(field, value):
    # one line naming the count, not a fractional bin range, a numpy
    # error or a bool reported as a trial count; numpy integers pass
    if field == "bins":
        refusals = [
            lambda: BirthdayParams.from_exponents(bins=value, red_exp=0.5, scale=1.0),
            lambda: raw_params(bins=value, n_red=1, n_blue=1),
        ]
    elif field == "n_red":
        refusals = [lambda: raw_params(bins=2, n_red=value, n_blue=1)]
    else:
        refusals = [lambda: estimate_probs(raw_params(bins=2, n_red=1, n_blue=1), value, 0)]
    for refuse in refusals:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got ") as err:
            refuse()
        assert "\n" not in str(err.value)
    p = BirthdayParams.from_exponents(bins=np.int64(16), red_exp=0.5, scale=1.0)
    assert estimate_probs(p, np.int32(2), 0)[0].trials == 2


def test_estimates_deterministic_and_contained():
    p = BirthdayParams.from_exponents(bins=500, red_exp=0.5, scale=1.5)
    a, t = estimate_probs(p, trials=300, seed=123)
    assert (a, t) == estimate_probs(p, trials=300, seed=123)
    assert t.estimate <= a.estimate  # same throws


def test_trial_outcomes_reproducible():
    p = BirthdayParams.from_exponents(bins=200, red_exp=0.5, scale=1.2)
    outs_a = [run_trial(p, spawn_rng(9, i)) for i in range(50)]
    outs_b = [run_trial(p, spawn_rng(9, i)) for i in range(50)]
    assert outs_a == outs_b


def test_shared_probability_monotone_in_scale():
    # exact coupling: reuse one stream of uniform draws, evaluate the
    # shared-bin event on prefixes of increasing ball counts
    bins = 400
    counts = [5, 10, 20, 40]
    rng = spawn_rng(55)
    monotone_ok = 0
    trials = 200
    for _ in range(trials):
        red = rng.integers(0, bins, size=max(counts))
        blue = rng.integers(0, bins, size=max(counts))
        hits = [
            bool(np.intersect1d(red[:k], blue[:k]).size > 0) for k in counts
        ]
        if all(h1 <= h2 for h1, h2 in zip(hits, hits[1:])):
            monotone_ok += 1
    assert monotone_ok == trials  # prefix coupling is exactly monotone

    # and the estimator reflects it statistically
    lo, _ = estimate_probs(
        BirthdayParams.from_exponents(bins=2_000, red_exp=0.5, scale=0.8),
        trials=2_000,
        seed=3,
    )
    hi, _ = estimate_probs(
        BirthdayParams.from_exponents(bins=2_000, red_exp=0.5, scale=2.4),
        trials=2_000,
        seed=3,
    )
    assert lo.estimate < hi.estimate


def test_half_width_shrinks_with_trials():
    p = BirthdayParams.from_exponents(bins=500, red_exp=0.5, scale=1.5)
    small, _ = estimate_probs(p, trials=100, seed=1)
    large, _ = estimate_probs(p, trials=1_600, seed=1)
    assert large.half_width < small.half_width


def test_default_scale_clears_shared_bin_threshold():
    # the default ball-count scale sits just above the constant that
    # pushes the shared-bin probability over 0.8 for large bin counts
    import math

    from radiosync.randsched import DEFAULT_SCALE

    threshold = math.sqrt(1.0 - math.log(0.1))
    assert threshold == pytest.approx(1.8173, abs=1e-4)
    assert DEFAULT_SCALE > threshold
