"""Monte-Carlo estimators for the two-color collision events.

Throw ceil(scale * bins**red_exp) red and ceil(scale * bins**blue_exp)
blue balls uniformly into ``bins`` bins (red_exp + blue_exp = 1). Two
events are read off each throw:

* shared bin    -- some bin holds at least one ball of each color;
  with scale above sqrt(1 - ln 0.1) ~ 1.8173 this happens with
  probability >= 0.8 for large bin counts.
* exclusive bin -- some bin holds exactly one red and exactly one
  blue ball; for scale <= 5 this exceeds 3/4 for large bin counts.

The shared-bin event models two radios being awake in the same time
unit; the exclusive variant is the interference-free meeting.
:func:`estimate_probs` reads both events off each throw, so one pass
estimates both. Trials are independently seeded from (root seed, trial
index), so estimates are reproducible and trivially parallelizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import refuse_beyond_memory, require_integer, require_real, spawn_rng

#: two-sided 99% normal quantile used for every half-width below
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class BirthdayParams:
    """A throw of ``n_red`` red and ``n_blue`` blue balls into ``bins``
    bins (at least 1; ball counts at least 0), from :meth:`from_exponents`."""

    bins: int
    n_red: int
    n_blue: int

    def __post_init__(self) -> None:
        require_integer("bins", self.bins, 1)
        require_integer("n_red", self.n_red, 0)
        require_integer("n_blue", self.n_blue, 0)

    @classmethod
    def from_exponents(cls, bins: int, red_exp: float, scale: float) -> "BirthdayParams":
        """Derive ball counts, the blue exponent being 1 - red_exp.

        Counts whose draw, 8 bytes a ball, would exceed the machine's
        physical memory are refused before anything is allocated."""
        blue_exp = 1.0 - red_exp
        require_integer("bins", bins, 1)
        if not (0.0 < red_exp < 1.0 and 0.0 < blue_exp < 1.0):
            raise ValueError("exponents must lie in (0, 1)")
        require_real("scale", scale, positive=True)
        try:
            red, blue = scale * bins**red_exp, scale * bins**blue_exp
        except OverflowError:  # a bin count beyond the float range
            red = blue = math.inf
        refuse_beyond_memory(
            8 * (red + blue),
            f"ball draw too large: scale {scale} gives {red:.4g} red and "
            f"{blue:.4g} blue balls, which",
        )
        return cls(bins, math.ceil(red), math.ceil(blue))


@dataclass(frozen=True)
class TrialOutcome:
    any_shared_bin: bool
    exclusive_pair_bin: bool

    def __post_init__(self) -> None:
        # an exclusive pair is in particular a shared bin
        if self.exclusive_pair_bin and not self.any_shared_bin:
            raise ValueError("exclusive pair implies a shared bin")


@dataclass(frozen=True)
class ProbEstimate:
    estimate: float
    half_width: float
    trials: int
    successes: int


def run_trial(params: BirthdayParams, rng: np.random.Generator) -> TrialOutcome:
    """One throw of all balls; reports both events from the same throw."""
    red = rng.integers(0, params.bins, size=params.n_red)
    blue = rng.integers(0, params.bins, size=params.n_blue)
    red_bins, red_counts = np.unique(red, return_counts=True)
    blue_bins, blue_counts = np.unique(blue, return_counts=True)
    shared = np.intersect1d(red_bins, blue_bins, assume_unique=True)
    exclusive = np.intersect1d(
        red_bins[red_counts == 1], blue_bins[blue_counts == 1], assume_unique=True
    )
    return TrialOutcome(
        any_shared_bin=bool(shared.size),
        exclusive_pair_bin=bool(exclusive.size),
    )


def _interval(hits: int, trials: int) -> ProbEstimate:
    p = hits / trials
    half = Z99 * math.sqrt(p * (1.0 - p) / trials)
    return ProbEstimate(estimate=p, half_width=half, trials=trials, successes=hits)


def estimate_probs(
    params: BirthdayParams, trials: int, seed: int
) -> tuple[ProbEstimate, ProbEstimate]:
    """Sample probabilities of the shared-bin and the exclusive-pair
    events, each with its 99% half-width, as ``(shared, exclusive)``.

    Both are read off the same throws, one per trial, so containment
    (exclusive implies shared) holds estimate-wise, not just in
    expectation.
    """
    require_integer("trials", trials, 1)
    shared = exclusive = 0
    for idx in range(trials):
        outcome = run_trial(params, spawn_rng(seed, idx))
        shared += outcome.any_shared_bin
        exclusive += outcome.exclusive_pair_bin
    return _interval(shared, trials), _interval(exclusive, trials)
