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

Everything is held as flat arrays from the draw to the graph: a
matrix's rows lie back to back in one position array, meetings are
arrays of columns and owners, and the graph is an edge list plus a CSR
adjacency. Grouping by node index uses stable 16-bit radix passes
(:func:`_radix_order`) rather than comparison sorts. Schedule positions
and meeting sort keys are int32 whenever every value they can take
fits (:func:`_width`), which halves what the draw and the meeting
sort move; meetings and graphs are int64.
"""

from __future__ import annotations

import copy
import math
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

#: meeting-probability scale; above sqrt(1 - ln 0.1) the shared-bin
#: probability per window clears 0.8
DEFAULT_SCALE = 1.82

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False

#: values per sort in :func:`draw_rows`: whole windows are sorted
#: together in runs of about this many (64-256 measure alike)
_SORT_RUN = 128

_INT32_MAX = np.iinfo(np.int32).max


def _width(bound: int) -> type:
    """The integer type of values in ``[0, bound)``: int32 when
    ``bound`` is at most 2**31 - 1, int64 otherwise."""
    return np.int32 if bound <= _INT32_MAX else np.int64


def clamped_log2(n: int) -> float:
    """log2(n), floored at 1 so degenerate tiny networks keep nonzero
    repetition counts."""
    return max(1.0, math.log2(max(n, 2)))


def repetition_constant(n: int) -> int:
    """Smallest K with 0.1*K > 1 and K*log2(n-1) > 30."""
    return max(11, math.ceil(30.0 / clamped_log2(n - 1)))


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an int64 array. Non-integers, and integers beyond
    int64, are refused rather than truncated or wrapped."""
    array = np.asarray(values)
    if array.dtype == object:
        if not all(isinstance(x, numbers.Integral) for x in array.flat):
            raise ValueError(f"{name} must be integers")
        try:
            return array.astype(np.int64)
        except OverflowError:
            raise ValueError(f"{name} must fit in int64") from None
    if array.size == 0:
        return array.astype(np.int64)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {array.dtype}")
    if array.dtype == np.uint64 and array.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must fit in int64")
    return array.astype(np.int64, copy=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _as_row(r: int, row) -> np.ndarray:
    """Row ``r`` as a 1-D int64 array."""
    row = _integers(f"row {r}: positions", row)
    if row.ndim != 1:
        raise ValueError(f"row {r}: positions must be 1-D, got shape {row.shape}")
    return row


def _as_offsets(n: int, offsets) -> np.ndarray:
    offsets = _integers("offsets", offsets)
    if offsets.shape != (n,):
        raise ValueError("need one offset per row")
    if offsets.min(initial=0) < 0:
        raise ValueError("offsets must be non-negative")
    return _read_only(offsets)


def _check_rows(flat: np.ndarray, ends: np.ndarray, columns: int) -> None:
    """Every row of the flat positions (row ``r`` ends before
    ``ends[r]``) must be strictly increasing inside ``[0, columns)``; a
    repeated position would make a row meet itself. One pass over the
    positions."""
    if flat.size == 0:
        return
    if flat.min() < 0 or flat.max() >= columns:
        at = int(np.argmax((flat < 0) | (flat >= columns)))
        raise ValueError(
            f"row {np.searchsorted(ends, at, side='right')}: position "
            f"{flat[at]} outside [0, {columns})"
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


class ScheduleMatrix:
    """n rows of wake-up positions over a shared window, held flat.

    Row ``r`` is ``positions[starts[r]:starts[r + 1]]``, strictly
    increasing integers inside ``[0, columns)``; the rows are checked
    once, on construction. Both arrays are read-only: ``starts`` is
    int64, ``positions`` int32 when ``columns`` is at most 2**31 - 1 and
    int64 otherwise (:func:`_width`), whatever integer type it is given
    in. ``positions`` may also be given as a sequence of ``n`` 1-D
    integer rows, with ``starts`` left out. ``offsets`` are the per-row
    global start times (None until assigned); :meth:`with_offsets`
    assigns them to a copy that shares the checked rows.
    """

    def __init__(
        self,
        n: int,
        columns: int,
        positions,
        offsets: Optional[Sequence[int]] = None,
        *,
        starts: Optional[np.ndarray] = None,
    ) -> None:
        width = _width(columns)
        if starts is None:
            if n != len(positions):
                raise ValueError(f"{n} rows declared, {len(positions)} given")
            rows = [_as_row(r, row) for r, row in enumerate(positions)]
            positions = np.concatenate([_EMPTY, *rows])
            starts = np.cumsum([0] + [row.size for row in rows], dtype=np.int64)
        else:
            positions = np.asarray(positions)
            if positions.dtype != width:
                positions = _integers("positions", positions)
            starts = _integers("row starts", starts)
            if (
                positions.ndim != 1
                or starts.shape != (n + 1,)
                or starts[0] != 0
                or starts[-1] != positions.size
                or (starts[1:] < starts[:-1]).any()
            ):
                raise ValueError(
                    f"need {n + 1} ascending row starts from 0 to {positions.size} "
                    "over one flat position array"
                )
        # checked at the width given, so nothing wraps before the check
        _check_rows(positions, starts[1:], columns)
        self.n = n
        self.columns = columns
        self.positions = _read_only(positions.astype(width, copy=False))
        self.starts = _read_only(starts)
        self.offsets = None if offsets is None else _as_offsets(n, offsets)

    def densities(self) -> np.ndarray:
        return np.diff(self.starts)

    def with_offsets(self, offsets: Sequence[int]) -> "ScheduleMatrix":
        out = copy.copy(self)
        out.offsets = _as_offsets(self.n, offsets)
        return out


def row_draws(columns: int, density_exponent: float, scale: float) -> int:
    """Per-row draw count ceil(scale * columns**density_exponent)."""
    return math.ceil(scale * columns**density_exponent)


def draw_rows(
    n: int, windows: int, columns: int, draws: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n rows of ``windows`` back-to-back random windows of ``columns``
    units, ``draws`` uniform wake-ups per window, duplicates within a
    window collapsed; each row comes out strictly increasing. Returns
    the rows flat, as ``(positions, starts)`` in the
    :class:`ScheduleMatrix` layout: ``starts`` int64, ``positions``
    int32 when ``windows * columns`` is at most 2**31 - 1, else int64
    (:func:`_width`). The draw, the sorts and the dedupe all run at that
    width.

    The rng is called once, with shape ``(n, windows, draws)``. That
    consumes the stream exactly as ``n`` row-by-row int64 calls of
    shape ``(windows, draws)`` do: bounded draws below 2**32 take 32-bit
    halves of 64-bit words by the same Lemire rejection at either dtype,
    and the unused half is cached in the bit generator's own state, not
    within one call.

    Each window's start is added first, so windows occupy disjoint
    ranges and sorting a run of whole windows sorts each of them. Runs
    hold about :data:`_SORT_RUN` values (at least one window), plus one
    sort of each row's leftover windows. Entries equal to their left
    neighbour along a row are then dropped. O(n * windows * draws *
    log _SORT_RUN).
    """
    # the draw's own bound must fit too, even with no windows to draw
    width = _width(max(windows, 1) * columns)
    raw = rng.integers(0, columns, size=(n, windows, draws), dtype=width)
    size = windows * draws
    if raw.size == 0:
        return raw.reshape(-1), np.zeros(n + 1, dtype=np.int64)
    raw += np.arange(windows, dtype=width)[:, None] * columns
    flat = raw.reshape(n, size)
    run = max(1, _SORT_RUN // draws) * draws
    whole = size - size % run
    # both sorts act on views of ``raw``: each row's slice is contiguous
    flat[:, :whole].reshape(n, -1, run).sort(axis=-1)
    flat[:, whole:].sort(axis=-1)
    keep = np.empty(flat.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(flat[:, 1:], flat[:, :-1], out=keep[:, 1:])
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=starts[1:])
    return flat[keep], starts


def _radix_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The stable sorting permutation of non-negative integer ``keys``
    below ``bound``: LSD radix over 16-bit digits, one stable argsort
    of ``uint16`` digits (itself a counting sort in numpy) per digit.
    A bound up to 65536 takes one pass."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, max(bound - 1, 1).bit_length(), 16):
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


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
        Pairs come in meeting order, and within a meeting in (sender,
        receiver) order. O(sum of size**2)."""
        per = self.sizes * (self.sizes - 1)
        which = np.repeat(np.arange(len(self)), per)
        # pair p of a meeting of k rows is slot p // (k - 1) to the
        # (p % (k - 1))-th other slot
        p = np.arange(which.size) - np.repeat(np.cumsum(per) - per, per)
        src, dst = np.divmod(p, (self.sizes - 1)[which])
        dst += dst >= src
        base = self.starts[which]
        return src + base, dst + base, which


def detect_meetings(m: ScheduleMatrix) -> Meetings:
    """Columns at which rows can exchange messages.

    Row ``r`` is awake at global column ``t`` iff ``t - offsets[r]`` is
    one of its positions. Every column with >= 2 awake rows is reported,
    with its size; the interference model keeps the meetings of size 2
    when it builds its graph (see :func:`radiosync.protocol.run_sync`).

    One sort-and-group pass: every awake unit is keyed ``column * n +
    row``, the keys are sorted, and runs of equal columns form the
    groups, whose rows are gathered into one owner array. O(N log N) in
    the N awake units. The keys are int32 when ``(columns + max offset)
    * n`` is at most 2**31 - 1 (:func:`_width`), else int64; the
    returned arrays are int64 either way.
    """
    if m.offsets is None:
        raise ValueError("offsets must be set before detecting meetings")
    n = m.n
    if m.positions.size == 0:
        return Meetings(cols=_EMPTY, starts=_EMPTY, sizes=_EMPTY, owners=_EMPTY)
    top = int(m.offsets.max())
    bound = (m.columns + top) * n
    if bound > np.iinfo(np.int64).max:
        raise ValueError(f"{n} rows over {m.columns} columns overflow the int64 sort keys")
    # the two transients beside the keys, each row's base and each
    # unit's column, are int32 when they fit, which halves their memory;
    # int64 keys are widened in place, so no int64 product is made
    narrow = _width(max(m.columns + top, (top + 1) * n))
    keys = m.positions.astype(_width(bound))
    keys *= n
    keys += np.repeat((m.offsets * n + np.arange(n)).astype(narrow), m.densities())
    keys.sort()
    cols = np.floor_divide(keys, n, out=np.empty(keys.size, narrow), casting="unsafe")
    # unit u shares its column with unit u + 1; each run of consecutive
    # such u is one group of (run length + 1) awake rows
    shared = np.flatnonzero(cols[1:] == cols[:-1])
    del cols
    first = np.flatnonzero(np.diff(shared, prepend=-2) != 1)
    starts = shared[first]
    counts = np.diff(first, append=shared.size) + 1
    packed = np.cumsum(counts) - counts
    units = keys[np.repeat(starts - packed, counts) + np.arange(counts.sum())]
    owners = (units % n).astype(np.int64, copy=False)
    cols = (keys[starts] // n).astype(np.int64, copy=False)
    return Meetings(cols=cols, starts=packed, sizes=counts, owners=owners)


class CommGraph:
    """Undirected meeting graph over ``n`` rows, held as arrays.

    Edge ``e`` joins rows ``i[e] < j[e]``, which first meet at global
    column ``cols[e]``; the edges are kept in (column, i, j) order, the
    order a walk over the column-sorted meetings first meets them (the
    constructor sorts them into it if needed). ``indptr`` and
    ``indices`` are the CSR adjacency: row ``r``'s neighbours, ascending,
    are ``indices[indptr[r]:indptr[r + 1]]``. Every array is read-only
    int64. The constructor checks 0 <= i < j < n and that no edge
    repeats.
    """

    def __init__(self, n: int, i, j, cols) -> None:
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"need a non-negative node count, got {n}")
        i, j, cols = _integers("i", i), _integers("j", j), _integers("cols", cols)
        if i.ndim != 1 or not i.shape == j.shape == cols.shape:
            raise ValueError("edge arrays i, j and cols must be 1-D and of one length")
        bad = (i < 0) | (i >= j) | (j >= n)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"edge ({i[e]}, {j[e]}) needs 0 <= i < j < n = {n}")
        codes = i * n + j
        same_col = cols[1:] == cols[:-1]
        ascending = (cols[1:] > cols[:-1]) | (same_col & (codes[1:] > codes[:-1]))
        if not ascending.all():
            order = np.lexsort((j, i, cols))
            i, j, cols = i[order], j[order], cols[order]
        # each edge both ways, grouped by (row, neighbour)
        src, dst = np.concatenate((i, j)), np.concatenate((j, i))
        order = _radix_order(src * n + dst, n * n)
        src, dst = src[order], dst[order]
        twice = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
        if twice.size:
            a, b = sorted((int(src[twice[0]]), int(dst[twice[0]])))
            raise ValueError(f"edge ({a}, {b}) given twice")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self.n = n
        self.i, self.j, self.cols = _read_only(i), _read_only(j), _read_only(cols)
        self.indptr, self.indices = _read_only(indptr), _read_only(dst)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b)
            for a, b in zip((self.i, self.j, self.cols), (other.i, other.j, other.cols))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"CommGraph(n={self.n}, edges={self.i.size})"

    @property
    def witness(self) -> Mapping[tuple[int, int], int]:
        """Read-only map of each edge (i, j) to its first column, in
        (column, i, j) order; built from the arrays on every access."""
        edges = zip(self.i.tolist(), self.j.tolist())
        return MappingProxyType(dict(zip(edges, self.cols.tolist())))

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def graph_from_pairs(
    n: int, senders: np.ndarray, receivers: np.ndarray, cols: np.ndarray
) -> CommGraph:
    """Graph over ``n`` rows from directed meeting pairs (sender,
    receiver, column) in column order, as :meth:`Meetings.pairs` emits
    them; each undirected edge (i < j) is read off its pairs with sender
    < receiver and witnessed by its earliest column.

    The pairs are encoded ``i * n + j`` and put in code order by a
    stable radix sort (:func:`_radix_order`), so the first pair of each
    run of equal codes is the edge's earliest. Marking those pairs in
    the input keeps the edges in column order, and in (column, i, j)
    order when each meeting's pairs come in (sender, receiver) order.
    O(P) per 16-bit digit of n**2 in the P pairs.
    """
    keep = senders < receivers
    cols = cols[keep]
    if (cols[1:] < cols[:-1]).any():
        raise ValueError("meeting pairs must come in column order")
    codes = senders[keep] * n + receivers[keep]
    order = _radix_order(codes, n * n)
    first = np.zeros(codes.size, dtype=bool)
    first[order[np.flatnonzero(np.diff(codes[order], prepend=-1))]] = True
    i, j = np.divmod(codes[first], n)
    return CommGraph(n, i, j, cols[first])


def build_comm_graph(m: ScheduleMatrix) -> CommGraph:
    """Graph whose edges are row pairs with at least one meeting (see
    :func:`graph_from_pairs`)."""
    meetings = detect_meetings(m)
    src, dst, which = meetings.pairs()
    owners = meetings.owners
    return graph_from_pairs(m.n, owners[src], owners[dst], meetings.cols[which])


@dataclass(frozen=True)
class GraphStats:
    connected: bool
    diameter: float  # math.inf when disconnected
    reached: int  # nodes a BFS from the root reaches, the root included


#: the most bytes of neighbour reach words :func:`_diameter` gathers at once
_REACH_BYTES = 1 << 24


def _diameter(g: CommGraph) -> int:
    """Diameter of a connected graph of two or more nodes, by
    bit-parallel BFS from every source at once (Akiba, Iwata & Yoshida,
    SIGMOD 2013). Node v's reach set has bit u set once u lies within
    the current radius of v; each round ORs every set with its
    neighbours' sets of the round before (``np.bitwise_or.reduceat``
    over the CSR rows), and the rounds until every set is full are the
    diameter. The sets are uint64 words, 64 sources each, taken in
    blocks of words whose gathered neighbour sets fit in
    ``_REACH_BYTES``. O(diameter * m * n / 64) word ORs over the m
    edges."""
    n, indices, heads = g.n, g.indices, g.indptr[:-1]
    words = -(-n // 64)
    block = max(1, _REACH_BYTES // (8 * indices.size))
    diameter = 0
    for first in range(0, words, block):
        source = np.arange(64 * first, min(n, 64 * (first + block)))
        reach = np.zeros((n, -(-source.size // 64)), dtype=np.uint64)
        reach[source, source // 64 - first] = np.left_shift(
            np.uint64(1), (source % 64).astype(np.uint64)
        )
        full = np.bitwise_or.reduce(reach, axis=0)
        rounds = 0
        while not (reach == full).all():
            reach |= np.bitwise_or.reduceat(reach[indices], heads, axis=0)
            rounds += 1
        diameter = max(diameter, rounds)
    return diameter


def graph_stats(g: CommGraph, root: int = 0) -> GraphStats:
    """Exact BFS statistics: how many nodes a BFS from ``root`` reaches,
    one level at a time from the CSR rows (the frontier's neighbour
    lists gathered at once), and so whether the graph is connected.

    The diameter is :func:`_diameter` on connected graphs of two or
    more nodes.
    """
    root = operator.index(root)
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} is not a node of a graph of n = {g.n} nodes")
    indptr, indices = g.indptr, g.indices
    degree = g.degrees()

    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    frontier = np.array([root])
    while frontier.size:
        lens = degree[frontier]
        at = np.repeat(indptr[frontier] - (np.cumsum(lens) - lens), lens)
        found = indices[at + np.arange(at.size)]
        frontier = np.unique(found[~seen[found]])
        seen[frontier] = True

    reached = int(seen.sum())
    connected = reached == g.n
    # the run CSV prints it as is: 0.0 for one node, an int otherwise
    diameter: float = 0.0
    if not connected:
        diameter = math.inf
    elif g.n > 1:
        diameter = _diameter(g)
    return GraphStats(connected=connected, diameter=diameter, reached=reached)
