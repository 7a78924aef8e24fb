"""Back-off contention and the bounded-drift time-unit model.

The radio medium itself is :func:`radiosync.protocol._deliver_meetings`:
in the base model every awake radio hears every other awake radio at a
meeting. In the interference model a radio decodes a message only when
exactly one other radio transmits, so a meeting unit is expanded into
consecutive back-off slots in which each radio independently transmits
with probability 1/2. :func:`resolve_backoff_unit` defines this for one
unit. The flood calls :func:`resolve_backoff` once per schedule copy,
over all of the copy's meeting units: it draws their coins in meeting
order, in chunks of ``BACKOFF_CHUNK`` units per ``rng.integers(0, 2,
...)`` call so the buffer stays small, finds the sole-transmitter
slots of all of a chunk's units of one size at once, and returns one
bool per radio: did it transmit alone in some slot. Consecutive int64
coin draws consume the generator exactly as one draw of their total
size does, so this gives the same coins, the same winners and the same
rng state afterwards as resolving the units one by one. The flood then
relaxes the drawn copies' deliveries (each winner to every other radio
of its unit) as arrays.

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


#: contended units whose coins are drawn by one rng call. It caps the
#: coin buffer at BACKOFF_CHUNK * slots * (largest unit) values, about
#: 0.15 MB of int64 at d=4096 (36 slots, mostly pairs), converted to
#: bool at once. Bigger buffers leave free but unreturned C heap behind
#: across runs: with 512-unit int64 chunks the median peak RSS of the
#: benchmark's interference workload was 73.6 MB against 67.5 MB for the
#: per-unit draw; with 256-unit bool chunks it was 65.6 MB
BACKOFF_CHUNK = 256


def resolve_backoff(
    sizes: np.ndarray, slots: int, rng: np.random.Generator
) -> np.ndarray:
    """Which radios transmit alone in at least one back-off slot of
    their unit, for units of ``sizes[u]`` radios each, in order.

    Returns one bool per radio, units back to back: radio j of unit u
    is entry ``sizes[:u].sum() + j``, set iff it is among the
    transmitters :func:`resolve_backoff_unit` reports for that unit. The
    coins of ``BACKOFF_CHUNK`` units at a time are drawn by one
    ``rng.integers(0, 2, ...)`` call, unit after unit and each unit
    slot-major: back-to-back int64 draws of that kind consume the stream
    exactly as one draw of their total size does, so the coins and the
    rng state afterwards equal those of the per-unit calls. Units of
    fewer than two radios draw nothing and win nothing.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    won = np.zeros(int(sizes.sum()), dtype=bool)
    first = np.cumsum(sizes) - sizes
    for lo in range(0, sizes.size, BACKOFF_CHUNK):
        chunk = slice(lo, lo + BACKOFF_CHUNK)
        _resolve_chunk(sizes[chunk], first[chunk], slots, rng, won)
    return won


def _resolve_chunk(
    sizes: np.ndarray,
    first: np.ndarray,
    slots: int,
    rng: np.random.Generator,
    won: np.ndarray,
) -> None:
    sizes = np.where(sizes < 2, 0, sizes)
    ends = np.cumsum(sizes * slots)
    if not ends[-1]:
        return
    coins = rng.integers(0, 2, size=int(ends[-1])).astype(bool)
    starts = ends - sizes * slots
    for k in np.unique(sizes[sizes > 0]).tolist():
        which = np.flatnonzero(sizes == k)
        # tx[j, u, t]: radio j of unit u transmits in slot t
        at = starts[which, None] + np.arange(slots) * k
        tx = coins[np.arange(k)[:, None, None] + at]
        sole = tx.sum(axis=0) == 1
        won[first[which, None] + np.arange(k)] = (tx & sole).any(axis=2).T
