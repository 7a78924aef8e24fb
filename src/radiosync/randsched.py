"""Random schedule matrices and the meeting graph they induce.

Each of ``n`` processors independently picks ``k`` wake-up units
uniformly (with replacement, duplicates collapse) inside a window of
``columns`` time units; the rows stacked together form a schedule
matrix. Row start times are offset by an adversarial amount of at most
``d`` units. Two rows meet when they are awake in the same global
column, and the meetings induce an undirected graph over the rows. In
interference mode only columns with *exactly two* awake rows count.

Windows are concatenated in time to amplify meeting probabilities;
because every row repeats its own pattern, the graph edges of one
window recur in every copy, which is what lets a later protocol round
reuse the same communication structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_
from typing import Iterator, Optional, Sequence

import numpy as np

#: meeting-probability scale; above sqrt(1 - ln 0.1) the shared-bin
#: probability per window clears 0.8
DEFAULT_SCALE = 1.82


def clamped_log2(n: int) -> float:
    """log2(n), floored at 1 so degenerate tiny networks keep nonzero
    repetition counts."""
    return max(1.0, math.log2(max(n, 2)))


def repetition_constant(n: int) -> int:
    """Smallest K with 0.1*K > 1 and K*log2(n-1) > 30."""
    return max(11, math.ceil(30.0 / clamped_log2(n - 1)))


def _as_row(r: int, row) -> np.ndarray:
    """Row ``r`` as a 1-D integer array (an empty one as int64)."""
    row = np.asarray(row)
    if row.ndim != 1:
        raise ValueError(f"row {r}: positions must be 1-D, got shape {row.shape}")
    if row.size == 0:
        return row.astype(np.int64)
    if row.dtype.kind not in "iu":
        raise ValueError(f"row {r}: positions must be integers, got {row.dtype}")
    return row


@dataclass
class ScheduleMatrix:
    """n rows of wake-up positions over a shared window.

    Rows are strictly increasing integer numpy position arrays inside
    ``[0, columns)`` (checked on construction). ``offsets`` are the per-row
    global start times (None until assigned).
    """

    n: int
    columns: int
    positions: list[np.ndarray]
    offsets: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n != len(self.positions):
            raise ValueError(f"{self.n} rows declared, {len(self.positions)} given")
        self.positions = [_as_row(r, row) for r, row in enumerate(self.positions)]
        self._check_positions()
        if self.offsets is not None:
            self.offsets = np.asarray(self.offsets, dtype=np.int64)
            if self.offsets.shape != (self.n,):
                raise ValueError("need one offset per row")
            if self.offsets.min(initial=0) < 0:
                raise ValueError("offsets must be non-negative")

    def _check_positions(self) -> None:
        """Every row must be strictly increasing inside ``[0, columns)``;
        a repeated position would make a row meet itself. One pass over
        all rows concatenated."""
        sizes = self.densities()
        if sizes.sum() == 0:
            return
        flat = np.concatenate(self.positions)
        ends = np.cumsum(sizes)
        if flat.min() < 0 or flat.max() >= self.columns:
            at = int(np.argmax((flat < 0) | (flat >= self.columns)))
            raise ValueError(
                f"row {np.searchsorted(ends, at, side='right')}: position "
                f"{flat[at]} outside [0, {self.columns})"
            )
        repeat = flat[1:] <= flat[:-1]
        # pairs straddling two rows are not steps within a row
        repeat[ends[(ends > 0) & (ends < flat.size)] - 1] = False
        if repeat.any():
            at = int(np.argmax(repeat)) + 1
            raise ValueError(
                f"row {np.searchsorted(ends, at, side='right')}: positions must be "
                f"strictly increasing, {flat[at - 1]} then {flat[at]}"
            )

    def densities(self) -> np.ndarray:
        return np.array([len(row) for row in self.positions], dtype=np.int64)

    def with_offsets(self, offsets: Sequence[int]) -> "ScheduleMatrix":
        return replace(self, offsets=np.asarray(offsets, dtype=np.int64))


def row_draws(columns: int, density_exponent: float, scale: float) -> int:
    """Per-row draw count ceil(scale * columns**density_exponent)."""
    return math.ceil(scale * columns**density_exponent)


def draw_rows(
    n: int, windows: int, columns: int, draws: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """n rows of ``windows`` back-to-back random windows of ``columns``
    units, ``draws`` uniform wake-ups per window, duplicates within a
    window collapsed; each row comes out strictly increasing.

    The rng is called once per row with shape ``(windows, draws)``, row
    after row, so the stream is that of the per-row draws: a single
    ``(n, windows, draws)`` call could consume it differently, since
    numpy buffers the 32-bit halves of bounded draws within one call.
    The dedupe is one 2-D pass: sort each window's draws, add the
    window starts, drop entries equal to their left neighbour.
    O(n * windows * draws * log draws).
    """
    raw = np.empty((n, windows, draws), dtype=np.int64)
    for r in range(n):
        raw[r] = rng.integers(0, columns, size=(windows, draws))
    raw.sort(axis=-1)
    raw += np.arange(windows, dtype=np.int64)[:, None] * columns
    keep = np.ones(raw.shape, dtype=bool)
    np.not_equal(raw[..., 1:], raw[..., :-1], out=keep[..., 1:])
    counts = keep.reshape(n, -1).sum(axis=1)
    return np.split(raw[keep], np.cumsum(counts[:-1]))


def gen_matrix(
    n: int,
    columns: int,
    density_exponent: float,
    scale: float,
    rng: np.random.Generator,
) -> ScheduleMatrix:
    """n independent rows, each with ceil(scale * columns**exponent) draws.

    Offsets are left unset; the caller assigns them.
    """
    if n < 1:
        raise ValueError(f"need at least one row, got {n}")
    if not 0.0 <= density_exponent <= 1.0:
        raise ValueError(f"density exponent must lie in [0, 1], got {density_exponent}")
    draws = row_draws(columns, density_exponent, scale)
    if draws > columns:
        raise ValueError(f"{draws} draws exceed window of {columns} columns")
    positions = draw_rows(n, 1, columns, draws, rng)
    return ScheduleMatrix(n=n, columns=columns, positions=positions)


@dataclass(frozen=True, eq=False)
class Meetings:
    """Meetings as arrays: meeting ``k`` happens at global column
    ``cols[k]`` among the ``sizes[k]`` rows ``owners[starts[k]:starts[k]
    + sizes[k]]`` (ascending). Meetings are sorted by column, each column
    once, and their rows lie back to back in ``owners`` (``starts[k]`` is
    ``sizes[:k].sum()``). Iterating yields ``(column, participants)``
    tuples."""

    cols: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    owners: np.ndarray

    def __len__(self) -> int:
        return self.cols.size

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        owners = self.owners.tolist()
        spans = zip(self.starts.tolist(), self.sizes.tolist())
        return zip(self.cols.tolist(), (tuple(owners[lo : lo + k]) for lo, k in spans))

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ordered pair of distinct participants of every meeting,
        as (sender slot, receiver slot, meeting); slots index ``owners``.
        Built per meeting size, so O(sum of size**2)."""
        src, dst, which = [_EMPTY], [_EMPTY], [_EMPTY]
        for size in np.unique(self.sizes).tolist():
            sel = np.flatnonzero(self.sizes == size)
            a, b = np.nonzero(~np.eye(size, dtype=bool))
            src.append((self.starts[sel, None] + a).ravel())
            dst.append((self.starts[sel, None] + b).ravel())
            which.append(np.repeat(sel, a.size))
        return np.concatenate(src), np.concatenate(dst), np.concatenate(which)


_EMPTY = np.zeros(0, dtype=np.int64)


def detect_meetings(m: ScheduleMatrix, exclusive: bool = False) -> Meetings:
    """Columns at which rows can exchange messages.

    Row ``r`` is awake at global column ``t`` iff ``t - offsets[r]`` is
    one of its positions. Base mode reports every column with >= 2
    awake rows; exclusive mode keeps only columns with exactly two
    (any third awake radio jams the channel).

    One sort-and-group pass: every awake unit is keyed ``column * n +
    row``, the keys are sorted, and runs of equal columns form the
    groups, whose rows are gathered into one owner array. O(N log N) in
    the N awake units.
    """
    if m.offsets is None:
        raise ValueError("offsets must be set before detecting meetings")
    n = m.n
    sizes = m.densities()
    if sizes.sum() == 0:
        return Meetings(cols=_EMPTY, starts=_EMPTY, sizes=_EMPTY, owners=_EMPTY)
    if (m.columns + int(m.offsets.max())) * n > np.iinfo(np.int64).max:
        raise ValueError(f"{n} rows over {m.columns} columns overflow the int64 sort keys")
    keys = np.concatenate(m.positions).astype(np.int64, copy=False)
    keys *= n
    keys += np.repeat(m.offsets * n + np.arange(n, dtype=np.int64), sizes)
    keys.sort()
    cols = keys // n
    # unit u shares its column with unit u + 1; each run of consecutive
    # such u is one group of (run length + 1) awake rows
    shared = np.flatnonzero(cols[1:] == cols[:-1])
    del cols
    first = np.flatnonzero(np.diff(shared, prepend=-2) != 1)
    starts = shared[first]
    counts = np.diff(first, append=shared.size) + 1
    if exclusive:
        starts, counts = starts[counts == 2], counts[counts == 2]
    packed = np.cumsum(counts) - counts
    units = keys[np.repeat(starts - packed, counts) + np.arange(counts.sum())]
    owners = units % n
    return Meetings(cols=keys[starts] // n, starts=packed, sizes=counts, owners=owners)


@dataclass(frozen=True, eq=True)
class CommGraph:
    """Undirected meeting graph; ``witness`` maps each edge (i < j) to
    the earliest global column establishing it."""

    n: int
    witness: dict[tuple[int, int], int]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.witness)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.witness:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency()]


def graph_from_pairs(
    n: int, senders: np.ndarray, receivers: np.ndarray, cols: np.ndarray
) -> CommGraph:
    """Graph over ``n`` rows from directed meeting pairs (sender,
    receiver, column); each undirected edge is read off its pairs with
    sender < receiver.

    Each edge (i < j) is witnessed by its earliest column, and
    ``witness`` is filled in (column, i, j) order, which is the order a
    loop over column-sorted meetings and their pairs would first meet
    each edge. Pairs are encoded ``i * n + j`` and the earliest of each
    code is kept with one lexsort. O(P log P) in the P pairs.
    """
    keep = senders < receivers
    cols = cols[keep]
    codes = senders[keep] * n + receivers[keep]
    order = np.lexsort((codes, cols))
    cols, codes = cols[order], codes[order]
    _, first = np.unique(codes, return_index=True)
    first.sort()
    cols, codes = cols[first], codes[first]
    i, j = np.divmod(codes, n)
    return CommGraph(n=n, witness=dict(zip(zip(i.tolist(), j.tolist()), cols.tolist())))


def graph_from_meetings(n: int, meetings: Meetings) -> CommGraph:
    """Graph over ``n`` rows with an edge for every pair of rows that
    share a meeting (see :func:`graph_from_pairs`)."""
    src, dst, which = meetings.pairs()
    owners = meetings.owners
    return graph_from_pairs(n, owners[src], owners[dst], meetings.cols[which])


def build_comm_graph(m: ScheduleMatrix, exclusive: bool = False) -> CommGraph:
    """Graph whose edges are row pairs with at least one meeting."""
    return graph_from_meetings(m.n, detect_meetings(m, exclusive=exclusive))


@dataclass(frozen=True)
class GraphStats:
    min_degree: int
    connected: bool
    diameter: float  # math.inf when disconnected
    spanning_tree: dict[int, Optional[int]]  # node -> BFS parent (root -> None)
    root: int


def graph_stats(g: CommGraph, root: int = 0) -> GraphStats:
    """Exact BFS statistics plus the BFS spanning tree from ``root``.

    The diameter is a bit-parallel BFS from every source at once (Akiba,
    Iwata & Yoshida, SIGMOD 2013): node v's reach set is an int with bit
    u set once u lies within the current radius of v, and each round ORs
    every set with its neighbours' sets of the round before. The number
    of rounds until every set is full is the diameter. O(diameter * (n +
    m)) ORs of n-bit ints.
    """
    adj = g.adjacency()
    for nbrs in adj:
        nbrs.sort()
    min_degree = min((len(nbrs) for nbrs in adj), default=0)

    tree: dict[int, Optional[int]] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in tree:
                    tree[v] = u
                    nxt.append(v)
        frontier = nxt

    connected = len(tree) == g.n
    # the run CSV prints it as is: 0.0 for one node, an int otherwise
    diameter: float = 0.0
    if not connected:
        diameter = math.inf
    elif g.n > 1:
        full = (1 << g.n) - 1
        reach = [1 << v for v in range(g.n)]
        diameter = 0
        while any(r != full for r in reach):
            reach = [
                reduce(or_, map(reach.__getitem__, nbrs), own)
                for own, nbrs in zip(reach, adj)
            ]
            diameter += 1
    return GraphStats(
        min_degree=min_degree,
        connected=connected,
        diameter=diameter,
        spanning_tree=tree,
        root=root,
    )
