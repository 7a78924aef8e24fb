"""Back-off contention and the bounded-drift time-unit model.

The radio medium itself is :func:`radiosync.protocol._deliver_meetings`:
in the base model every awake radio hears every other awake radio at a
meeting. In the interference model a radio decodes a message only when
exactly one other radio transmits, so a meeting unit is expanded by
:func:`resolve_backoff_unit` into consecutive back-off slots in which
each radio independently transmits with probability 1/2.

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
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DriftParams:
    """Per-node clock speeds with a bounded ratio.

    ``speeds[i]`` is node i's tick rate; the fastest over the slowest
    may not exceed ``ratio_bound``. ``min_transmit_time`` is the global
    lower bound on the time one message exchange needs.
    """

    speeds: tuple[float, ...]
    ratio_bound: float
    min_transmit_time: float

    def __post_init__(self) -> None:
        if not self.speeds:
            raise ValueError("need at least one clock speed")
        if min(self.speeds) <= 0:
            raise ValueError("clock speeds must be positive")
        if self.min_transmit_time <= 0:
            raise ValueError("transmission time must be positive")
        ratio = max(self.speeds) / min(self.speeds)
        if ratio > self.ratio_bound * (1 + 1e-12):
            raise ValueError(
                f"speed ratio {ratio:.6g} exceeds declared bound {self.ratio_bound}"
            )

    def ticks_per_step(self, node: int) -> float:
        """Ticks node ``node`` counts as one time step."""
        return 2.0 * self.ratio_bound * self.speeds[node] * self.min_transmit_time

    def step_length(self, node: int) -> float:
        """Global duration of one of node's time steps (ticks / tick rate)."""
        return self.ticks_per_step(node) / self.speeds[node]

    @property
    def max_step(self) -> float:
        return max(self.step_length(i) for i in range(len(self.speeds)))

    @property
    def unit_length(self) -> float:
        """Global duration of one rescaled time unit: 5 * max step."""
        return 5.0 * self.max_step


def complete_steps(p: DriftParams, node: int, phase: float) -> int:
    """Whole steps node fits into one unit when it starts at ``phase``.

    Always at least 3: the unit is 5 max-steps long and the start phase
    is below one step.
    """
    s = p.step_length(node)
    if not 0.0 <= phase < s:
        raise ValueError(f"phase must lie in [0, {s}), got {phase}")
    return int(math.floor((p.unit_length - phase) / s))


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


def check_unit_overlap(
    p: DriftParams, phase_i: float, phase_j: float, i: int = 0, j: int = 1
) -> float:
    """Longest co-awake stretch of nodes i and j inside one unit.

    Both nodes start within their first step of the unit and work
    through it; the unit is long enough for at least three complete
    steps each, so the result is at least min(step_i, step_j) / 2.
    """
    s_i = p.step_length(i)
    s_j = p.step_length(j)
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

