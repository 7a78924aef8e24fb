"""Back-off contention and the bounded-drift time-unit model.

The radio medium itself is :func:`radiosync.protocol._deliver_meetings`:
in the base model every awake radio hears every other awake radio at a
meeting. In the interference model a radio decodes a message only when
exactly one other radio transmits, so a meeting unit is expanded into
consecutive back-off slots in which each radio independently transmits
with probability 1/2. :func:`resolve_backoff_unit` defines this coin by
coin for one unit. The flood calls :func:`resolve_backoff` once per
schedule copy, over all of the copy's meeting units, and gets one bool
per radio: did it transmit alone in some slot. It draws heard counts,
not coins: a slot has a given radio of a k-radio unit as its sole
transmitter with probability 2**-k, so the number of radios heard so
far steps from a to a + 1 with probability (k - a) * 2**-k per slot,
which gives one table of P(heard count = a) per unit size and slot
count. By symmetry the heard radios are a uniformly random subset of
that size. The flood then relaxes the drawn copies' deliveries (each
winner to every other radio of its unit) as arrays.

Clock drift is absorbed before any of this applies: when clock speeds
differ by a bounded ratio, each node groups enough of its own ticks
into a "time step" that any two nodes awake within the same rescaled
unit share a co-awake interval of at least half the shorter step,
which is enough to exchange one message. The discrete simulator then
works in rescaled units and never sees the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DriftParams:
    """Per-node clock speeds with a bounded ratio.

    ``speeds[i]`` is node i's tick rate; the fastest over the slowest
    may not exceed ``ratio_bound``. ``min_transmit_time`` bounds the
    time one message exchange needs from below. All must be finite.
    """

    speeds: tuple[float, ...]
    ratio_bound: float
    min_transmit_time: float

    def __post_init__(self) -> None:
        if not self.speeds:
            raise ValueError("need at least one clock speed")
        if not all(map(math.isfinite, self.speeds)):
            raise ValueError(f"speeds must be finite, got {self.speeds}")
        for name in ("ratio_bound", "min_transmit_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.speeds) <= 0:
            raise ValueError("clock speeds must be positive")
        if self.min_transmit_time <= 0:
            raise ValueError("transmission time must be positive")
        ratio = max(self.speeds) / min(self.speeds)
        if ratio > self.ratio_bound * (1 + 1e-12):
            raise ValueError(
                f"speed ratio {ratio:.6g} exceeds declared bound {self.ratio_bound}"
            )

    @property
    def ticks_per_step(self) -> float:
        """Ticks every node counts as one time step."""
        return 2.0 * self.ratio_bound * min(self.speeds) * self.min_transmit_time

    def step_length(self, node: int) -> float:
        """Global duration of one of node's time steps (ticks / tick rate)."""
        return self.ticks_per_step / self.speeds[node]

    @property
    def max_step(self) -> float:
        return max(self.step_length(i) for i in range(len(self.speeds)))

    @property
    def unit_length(self) -> float:
        """Global duration of one rescaled time unit: 5 * max step."""
        return 5.0 * self.max_step


def max_step_overlap(
    step_i: float, step_j: float, phase_i: float, phase_j: float, unit: float
) -> float:
    """Longest single-step co-awake stretch of two step grids inside
    [0, unit].

    Grid x has awake intervals [phase_x + a*step_x, phase_x + (a+1)*step_x]
    for every complete step fitting in the unit. As long as each grid
    fits at least three complete steps, the result is at least
    min(step_i, step_j) / 2: the shorter grid has a step fully inside
    the longer grid's span, and that step straddles at most one
    boundary of the other grid, leaving a piece of at least half its
    length.
    """
    best = 0.0
    m_i = int(math.floor((unit - phase_i) / step_i))
    m_j = int(math.floor((unit - phase_j) / step_j))
    for a in range(m_i):
        lo_i = phase_i + a * step_i
        hi_i = lo_i + step_i
        for b in range(m_j):
            lo_j = phase_j + b * step_j
            hi_j = lo_j + step_j
            best = max(best, min(hi_i, hi_j, unit) - max(lo_i, lo_j))
    return best


def check_unit_overlap(p: DriftParams, phase_i: float, phase_j: float) -> float:
    """Longest co-awake stretch of nodes 0 and 1 inside one unit, node 0
    starting ``phase_i`` and node 1 ``phase_j`` into its first step.

    Both nodes work through the unit from there; it is long enough for
    at least three complete steps each, so the result is at least
    min(step_i, step_j) / 2.
    """
    s_i = p.step_length(0)
    s_j = p.step_length(1)
    if not 0.0 <= phase_i < s_i:
        raise ValueError(f"phase_i must lie in [0, {s_i}), got {phase_i}")
    if not 0.0 <= phase_j < s_j:
        raise ValueError(f"phase_j must lie in [0, {s_j}), got {phase_j}")
    return max_step_overlap(s_i, s_j, phase_i, phase_j, p.unit_length)


def resolve_backoff_unit(
    awake: Sequence[int], slots: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Deliveries (slot, transmitter) within one contended unit.

    The unit expands into ``slots`` consecutive physical slots; in each,
    every awake node transmits with probability 1/2, and the slot
    delivers iff exactly one node transmitted. Receivers are all other
    awake nodes. With two awake nodes a slot succeeds with probability
    1/2, so some delivery happens within r slots with probability
    1 - (1/2)**r.
    """
    out = []
    k = len(awake)
    if k < 2:
        return out
    coins = rng.integers(0, 2, size=(slots, k))
    hits = np.flatnonzero(coins.sum(axis=1) == 1)
    for slot in hits:
        out.append((int(slot), awake[int(np.flatnonzero(coins[slot])[0])]))
    return out


@lru_cache(maxsize=256)
def _heard_counts(k: int, slots: int) -> np.ndarray:
    """P(heard count = a) for a = 0 .. k, for a unit of ``k`` radios
    over ``slots`` back-off slots of :func:`resolve_backoff_unit`.

    The count starts at 0, and in each slot steps from a to a + 1 with
    probability (k - a) * 2**-k (one of the k - a radios not yet heard
    is the sole transmitter). So the table is the first row of the
    ``slots``-th power of the (k + 1)-state step matrix, 1 - that
    probability on the diagonal and it just above, raised by repeated
    squaring: O(k**3 log slots). Every product is of non-negative terms,
    so nothing cancels. When 2**-k underflows to 0 nothing moves, and
    the count stays 0. Read-only, since every caller shares it.
    """
    move = (k - np.arange(k + 1)) * math.ldexp(1.0, -k)
    dist = np.zeros(k + 1)
    dist[0] = 1.0
    if move.any():
        power = np.diag(1.0 - move) + np.diag(move[:-1], 1)
        while slots:
            if slots & 1:
                dist = dist @ power
            slots >>= 1
            if slots:
                power = power @ power
    dist.setflags(write=False)
    return dist


def resolve_backoff(
    sizes: np.ndarray, slots: int, rng: np.random.Generator
) -> np.ndarray:
    """Which radios transmit alone in at least one back-off slot of
    their unit, for units of ``sizes[u]`` radios each, in order.

    Returns one bool per radio, units back to back: radio j of unit u
    is entry ``sizes[:u].sum() + j``. The outcome has the distribution
    of :func:`resolve_backoff_unit`'s coins, drawn from heard counts:
    for each unit size k >= 2, in ascending order, one ``rng.random``
    call picks every unit's heard count a from
    :func:`_heard_counts`, units in order; then, for the units with
    0 < a < k, one more call draws k uniforms per unit, and the radios
    with the a smallest are heard. Units of fewer than two radios draw
    nothing and win nothing.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    heard = np.zeros(sizes.size, dtype=np.int64)
    partial = []
    for k in np.unique(sizes[sizes >= 2]).tolist():
        which = np.flatnonzero(sizes == k)
        below = np.cumsum(_heard_counts(k, int(slots))[:-1])
        count = np.searchsorted(below, rng.random(which.size), "right")
        heard[which] = count
        some = (count > 0) & (count < k)
        if some.any():
            keys = rng.random((int(some.sum()), k))
            rank = keys.argsort(axis=1).argsort(axis=1)
            partial.append((which[some], rank < count[some, None]))
    won = np.repeat(heard == sizes, sizes)
    first = np.cumsum(sizes) - sizes
    for units, bits in partial:
        won[first[units, None] + np.arange(bits.shape[1])] = bits
    return won
