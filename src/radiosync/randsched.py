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
arrays of columns and owners, and the graph is a CSR adjacency with
each entry's first meeting column. The directed meeting pairs are
grouped by (receiver, sender) once, by stable 16-bit radix passes
(:func:`_radix_order`) rather than comparison sorts; the runs of that
grouping are the CSR entries, and the protocol's flood reads the same
grouped pairs. Schedule positions are int32 whenever every value they
can take fits (:func:`_width`), which halves what the draw moves. The
draw deduplicates its rows block by block, in place in its one raw
buffer. Meeting detection sorts uint32 keys one band of global columns
at a time, at most ``2**32 // n`` columns and about
:data:`_BAND_UNITS` units wide, so its sort moves 32-bit keys whatever
the window and each band fits in cache; meetings and graphs are int64.
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

from .seeding import refuse_beyond_memory, require_integer

#: meeting-probability scale; above sqrt(1 - ln 0.1) the shared-bin
#: probability per window clears 0.8
DEFAULT_SCALE = 1.82

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False

#: values per sort in :func:`draw_rows`: whole windows are sorted
#: together in runs of about this many (64-256 measure alike)
_SORT_RUN = 128

#: values per block of rows in :func:`draw_rows`, and awake units per
#: band of :func:`detect_meetings` at the matrix's mean density: about
#: a megabyte of positions or keys, so each pass stays in cache
_BLOCK = 1 << 18
_BAND_UNITS = 1 << 18

_INT32_MAX = np.iinfo(np.int32).max

#: bytes a directed pair in :meth:`Meetings.grouped_pairs`: its tracemalloc
#: peak was 42-62 a pair, 50-70 with slots, at d from 64 to 16384
_PAIR_BYTES = 72


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


def _as_offsets(n: int, offsets) -> np.ndarray:
    offsets = _integers("offsets", offsets)
    if offsets.shape != (n,):
        raise ValueError("need one offset per row")
    if offsets.min(initial=0) < 0:
        raise ValueError("offsets must be non-negative")
    return _read_only(offsets)


def _check_rows(flat: np.ndarray, starts: np.ndarray, columns: int) -> None:
    """Every row of the flat positions (row ``r`` is
    ``flat[starts[r]:starts[r + 1]]``) must be strictly increasing
    inside ``[0, columns)``; a repeated position would make a row meet
    itself. Strict increase is checked first, so the range check reads
    only each row's ends; a failure is located by a full scan, which
    reports a position out of range before a repeat."""
    if flat.size == 0:
        return
    ends = starts[1:]
    repeat = flat[1:] <= flat[:-1]
    # pairs straddling two rows are not steps within a row
    repeat[ends[(ends > 0) & (ends < flat.size)] - 1] = False
    if not repeat.any():
        full = np.flatnonzero(np.diff(starts))
        if flat[starts[full]].min() >= 0 and flat[ends[full] - 1].max() < columns:
            return
    if flat.min() < 0 or flat.max() >= columns:
        at = int(np.argmax((flat < 0) | (flat >= columns)))
        raise ValueError(
            f"row {np.searchsorted(ends, at, side='right')}: position "
            f"{flat[at]} outside [0, {columns})"
        )
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
    in. ``offsets`` are the per-row global start times (None until
    assigned); :meth:`with_offsets` assigns them to a copy that shares
    the checked rows. ``n`` and ``columns`` are held as Python ints
    (:func:`~radiosync.seeding.require_integer`).
    """

    def __init__(
        self,
        n: int,
        columns: int,
        positions,
        offsets: Optional[Sequence[int]] = None,
        *,
        starts,
    ) -> None:
        n = require_integer("n", n)
        columns = require_integer("columns", columns)
        width = _width(columns)
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
        _check_rows(positions, starts, columns)
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

    Each window's start is added first, as one row of offsets added
    along every row, so windows occupy disjoint ranges and sorting a run
    of whole windows sorts each of them. Runs hold about
    :data:`_SORT_RUN` values (at least one window), plus one sort of
    each row's leftover windows. The rows are then deduplicated in
    blocks of about :data:`_BLOCK` values (at least one row): entries
    equal to their left neighbour along a row are dropped, and the
    block's kept values are written into the front of the raw buffer,
    behind the blocks before it. The positions returned are a view of
    that buffer; nothing else of its size is held. O(n * windows *
    draws * log _SORT_RUN).
    """
    # the draw's own bound must fit too, even with no windows to draw
    width = _width(max(windows, 1) * columns)
    raw = rng.integers(0, columns, size=(n, windows, draws), dtype=width)
    size = windows * draws
    starts = np.zeros(n + 1, dtype=np.int64)
    if raw.size == 0:
        return raw.reshape(-1), starts
    flat = raw.reshape(n, size)
    flat += np.repeat(np.arange(windows, dtype=width) * columns, draws)
    run = max(1, _SORT_RUN // draws) * draws
    whole = size - size % run
    # both sorts act on views of ``raw``: each row's slice is contiguous
    flat[:, :whole].reshape(n, -1, run).sort(axis=-1)
    flat[:, whole:].sort(axis=-1)
    rows = max(1, _BLOCK // size)
    out = raw.reshape(-1)
    kept = 0
    for r0 in range(0, n, rows):
        part = flat[r0 : r0 + rows]
        keep = np.empty(part.shape, dtype=bool)
        keep[:, 0] = True
        np.not_equal(part[:, 1:], part[:, :-1], out=keep[:, 1:])
        starts[r0 + 1 : r0 + 1 + part.shape[0]] = np.count_nonzero(keep, axis=1)
        # the mask copies the kept values out, and they are written at or
        # before this block's start, over values already read
        values = part[keep]
        out[kept : kept + values.size] = values
        kept += values.size
    np.cumsum(starts, out=starts)
    return out[:kept], starts


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

    def grouped_pairs(
        self, n: int, slots: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Every ordered pair of distinct participants of every meeting
        among ``n`` rows, as (senders, receivers, meeting, slots),
        grouped by (receiver, sender) by one stable radix sort
        (:func:`_radix_order` on ``receivers * n + senders``). The pairs
        are built in meeting order, so each (receiver, sender) run comes
        out with its link's earliest column first. The slots (None unless
        ``slots`` is set) are the sender's and receiver's in ``owners``,
        one (2, pairs) array at :func:`_width` (gather with ``take``:
        int32 fancy indexing is slow). Each array is gathered in turn,
        freeing what it replaces. O(sum of size**2); pairs that would not
        fit in physical memory are refused before any is built."""
        per = self.sizes * (self.sizes - 1)
        pairs = int(per.sum())
        refuse_beyond_memory(
            pairs * _PAIR_BYTES, f"meeting pairs too large: {pairs} directed pairs"
        )
        which = np.repeat(np.arange(len(self)), per)
        # pair p of a meeting of k rows is slot p // (k - 1) to the
        # (p % (k - 1))-th other slot
        p = np.arange(which.size) - np.repeat(np.cumsum(per) - per, per)
        src, dst = np.divmod(p, (self.sizes - 1)[which])
        del p
        dst += dst >= src
        base = self.starts[which]
        src += base
        dst += base
        del base
        if slots:
            # both slots in the bytes of one int64 array
            ends = np.array((src, dst), dtype=_width(self.owners.size))
        senders = self.owners[src]
        del src
        receivers = self.owners[dst]
        del dst
        order = _radix_order(receivers * n + senders, n * n)
        senders = senders[order]
        receivers = receivers[order]
        which = which[order]
        return senders, receivers, which, ends.take(order, axis=1) if slots else None


def _bisect(
    flat: np.ndarray, below: np.ndarray, above: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per row, the first index in ``(below, above]`` whose value is at
    least the row's target, given ``flat[below] < target <=
    flat[above]`` and ascending values between the two: one bisection
    over every row at once, in as many halvings as the widest row needs
    (a row narrowed to one step stays put)."""
    for _ in range(int((above - below).max() - 1).bit_length()):
        mid = (below + above) >> 1
        low = flat[mid] < targets
        below = np.where(low, mid, below)
        above = np.where(low, above, mid)
    return above


def _band_meetings(
    flat: np.ndarray, begin: np.ndarray, end: np.ndarray, bases: np.ndarray, n: int, lo: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The meetings of one band of :func:`detect_meetings`, as ``(cols,
    sizes, owners)``: live row k's units are ``flat[begin[k]: end[k]]``
    and its key base ``(offset - lo) * n + row``."""
    # slices that follow on from each other in ``flat`` are copied as one
    gaps = np.flatnonzero(begin[1:] != end[:-1])
    lefts = np.concatenate((begin[:1], begin[gaps + 1])).tolist()
    rights = np.concatenate((end[gaps], end[-1:])).tolist()
    keys = np.concatenate(
        [flat[i:j] for i, j in zip(lefts, rights)], dtype=np.uint32, casting="unsafe"
    )
    # exact: every key of the band is below 2**32, so nothing is lost mod 2**32
    keys *= n
    keys += np.repeat(bases.astype(np.uint32), end - begin)
    keys.sort()
    cols = keys // n
    # unit u shares its column with unit u + 1; each run of consecutive
    # such u is one group of (run length + 1) awake rows
    shared = np.flatnonzero(cols[1:] == cols[:-1])
    del cols
    first = np.flatnonzero(np.diff(shared, prepend=-2) != 1)
    starts = shared[first]
    counts = np.diff(first, append=shared.size) + 1
    packed = np.cumsum(counts) - counts
    units = keys[np.repeat(starts - packed, counts) + np.arange(counts.sum())]
    owners = (units % n).astype(np.int64)
    cols = (keys[starts] // n).astype(np.int64)
    cols += lo
    return cols, counts, owners


def detect_meetings(m: ScheduleMatrix) -> Meetings:
    """Columns at which rows can exchange messages.

    Row ``r`` is awake at global column ``t`` iff ``t - offsets[r]`` is
    one of its positions. Every column with >= 2 awake rows is reported,
    with its size; the interference model keeps the meetings of size 2
    when it builds its graph (see :func:`radiosync.protocol.run_sync`).

    Sort-and-group on uint32 keys, one band of global columns at a
    time. A band is ``2**32 // n`` columns wide, or narrower, so that it
    holds about :data:`_BAND_UNITS` units at the matrix's mean density
    (``_BAND_UNITS * (columns + top offset) // units`` columns, at least
    one) and its keys, sort and temporaries stay in cache. It starts at
    the first awake unit not yet placed, so only occupied bands are
    visited, and never more of them than there are units. In band ``[lo,
    lo + width)`` a unit is keyed ``(column - lo) * n + row``, which is
    below 2**32; it is built mod 2**32 as ``position * n + ((offset -
    lo) * n + row)``. Each row with a unit in the band (a live row) adds
    one slice of its positions, cut by one vectorized bisection
    (:func:`_bisect`) at ``lo + width - offset`` over the live rows that
    do not end inside the band. The slices are copied back to back and
    sorted, and runs of equal columns form the groups, whose rows are
    gathered into one owner array. A band with one live row holds no
    meeting and is only stepped over. Bands come in column order, so
    their meetings concatenate in it. O(N log N) in the N awake units;
    the returned arrays are int64.
    """
    if m.offsets is None:
        raise ValueError("offsets must be set before detecting meetings")
    n = m.n
    if m.positions.size == 0:
        return Meetings(cols=_EMPTY, starts=_EMPTY, sizes=_EMPTY, owners=_EMPTY)
    top = int(m.offsets.max())
    if (m.columns + top) * n > np.iinfo(np.int64).max:
        raise ValueError(f"{n} rows over {m.columns} columns overflow the int64 sort keys")
    flat = m.positions
    width = min((1 << 32) // n, max(1, _BAND_UNITS * (m.columns + top) // flat.size))
    # the rows with units left to place, from the first of them (cut)
    rows = np.flatnonzero(m.densities())
    cut, stop, off = m.starts[rows], m.starts[rows + 1], m.offsets[rows]
    last = flat[stop - 1] + off
    bands = []
    while rows.size:
        head = flat[cut] + off
        lo = int(head.min())
        # every column is below columns + top, which fits int64
        hi = min(lo + width, m.columns + top)
        live = np.flatnonzero(head < hi)
        begin, end = cut[live], stop[live]
        split = np.flatnonzero(last[live] >= hi)
        if split.size:
            end[split] = _bisect(flat, begin[split], end[split] - 1, hi - off[live[split]])
        if live.size > 1:
            bases = (off[live] - lo) * n + rows[live]
            bands.append(_band_meetings(flat, begin, end, bases, n, lo))
        cut[live] = end
        more = cut < stop
        if not more.all():
            rows, cut, stop, off, last = (a[more] for a in (rows, cut, stop, off, last))
    # the empty band in front covers a matrix with no band to join
    cols, sizes, owners = map(np.concatenate, zip((_EMPTY,) * 3, *bands))
    starts = np.cumsum(sizes) - sizes
    return Meetings(cols=cols, starts=starts, sizes=sizes, owners=owners)


class CommGraph:
    """Undirected meeting graph over ``n`` rows, held as a CSR
    adjacency.

    Row ``r``'s neighbours, ascending, are ``indices[indptr[r]:
    indptr[r + 1]]``, and ``first_cols[k]`` is the first global column
    at which row ``r`` meets ``indices[k]``. Every array is read-only
    int64. The class takes no constructor arguments: a graph is built
    only from grouped meeting pairs (:meth:`_from_pairs`), by
    :func:`build_comm_graph` or :func:`radiosync.protocol.run_sync`.
    """

    @classmethod
    def _from_pairs(
        cls, n: int, senders: np.ndarray, receivers: np.ndarray, cols: np.ndarray
    ) -> "CommGraph":
        """The graph of directed meeting pairs that come both ways,
        grouped by (receiver, sender) with each run's earliest column
        first, as :meth:`Meetings.grouped_pairs` gives them: each run of
        equal (receiver, sender) is one CSR entry."""
        start = np.empty(senders.size, dtype=bool)
        start[:1] = True
        np.not_equal(receivers[1:], receivers[:-1], out=start[1:])
        start[1:] |= senders[1:] != senders[:-1]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(receivers[start], minlength=n), out=indptr[1:])
        g = cls.__new__(cls)
        g.n = n
        g.indptr = _read_only(indptr)
        g.indices = _read_only(senders[start])
        g.first_cols = _read_only(cols[start])
        return g

    def __repr__(self) -> str:
        return f"CommGraph(n={self.n}, edges={self.indices.size // 2})"

    @property
    def witness(self) -> Mapping[tuple[int, int], int]:
        """Read-only map of each edge (i, j), i < j, to its first
        column, in (i, j) order: the CSR's upper entries, read on every
        access."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        upper = rows < self.indices
        edges = zip(rows[upper].tolist(), self.indices[upper].tolist())
        return MappingProxyType(dict(zip(edges, self.first_cols[upper].tolist())))

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def build_comm_graph(m: ScheduleMatrix) -> CommGraph:
    """Graph whose edges are row pairs with at least one meeting, each
    witnessed by its earliest column: the runs of the meetings' grouped
    pairs (:meth:`Meetings.grouped_pairs`)."""
    meetings = detect_meetings(m)
    senders, receivers, which, _ = meetings.grouped_pairs(m.n)
    return CommGraph._from_pairs(m.n, senders, receivers, meetings.cols[which])


@dataclass(frozen=True)
class GraphStats:
    connected: bool
    diameter: float  # math.inf when disconnected
    reached: int  # nodes a BFS from the root reaches, the root included


#: the one memory budget of :func:`_diameter`: the most bytes of reach
#: words it holds at once (the sets, their copy and one neighbour column
#: gathered from them)
_REACH_BYTES = 1 << 24


def _diameter(g: CommGraph) -> int:
    """Diameter of a connected graph of two or more nodes, by
    bit-parallel BFS from every source at once (Akiba, Iwata & Yoshida,
    SIGMOD 2013). Node v's reach set has bit u set once u lies within
    the current radius of v; each round ORs every set with its
    neighbours' sets of the round before, and the rounds until every set
    is full are the diameter.

    The nodes are relabelled by degree, descending (a stable sort), so
    the nodes with more than j neighbours are the first ``counts[j]``,
    and column j of the neighbour table holds their j-th neighbours:
    one entry per CSR entry, at :func:`_width`. A round copies the sets
    and ORs the first ``counts[j]`` of the copy with the sets gathered
    through column j, for every j: one gather per column, as many as
    the largest degree, in place of one OR per CSR row. The sets are
    uint64 words, 64 sources each, taken in blocks of words so that the
    sets, their copy and one gathered column fit in ``_REACH_BYTES``.
    O(diameter * m * n / 64) word ORs over the m edges.
    """
    n = g.n
    degree = g.degrees()
    order = np.argsort(-degree, kind="stable")
    label = np.empty(n, dtype=_width(n))
    label[order] = np.arange(n, dtype=label.dtype)
    counts = n - np.cumsum(np.bincount(degree))[:-1]
    heads = g.indptr[order]
    columns = [label[g.indices[heads[:c] + j]] for j, c in enumerate(counts.tolist())]

    words = -(-n // 64)
    block = max(1, _REACH_BYTES // (3 * 8 * n))
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
            nxt = reach.copy()
            for column in columns:
                nxt[: column.size] |= np.take(reach, column, axis=0)
            reach = nxt
            rounds += 1
        diameter = max(diameter, rounds)
    return diameter


def reached_from(g: CommGraph, root: int = 0) -> int:
    """How many nodes a BFS from ``root`` reaches, the root included,
    one level at a time from the CSR rows: the frontier's neighbour
    lists are gathered at once and marked in a node mask, whose unseen
    nodes are the next frontier. A root outside the graph is refused."""
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
        new = np.zeros(g.n, dtype=bool)
        new[indices[at + np.arange(at.size)]] = True
        new &= ~seen
        frontier = np.flatnonzero(new)
        seen |= new
    return int(seen.sum())


def graph_stats(g: CommGraph, root: int = 0) -> GraphStats:
    """Exact BFS statistics: how many nodes a BFS from ``root`` reaches
    (:func:`reached_from`), and so whether the graph is connected.

    The diameter is :func:`_diameter` on connected graphs of two or
    more nodes.
    """
    reached = reached_from(g, root)
    connected = reached == g.n
    # the run CSV prints it as is: 0.0 for one node, an int otherwise
    diameter: float = 0.0
    if not connected:
        diameter = math.inf
    elif g.n > 1:
        diameter = _diameter(g)
    return GraphStats(connected=connected, diameter=diameter, reached=reached)
