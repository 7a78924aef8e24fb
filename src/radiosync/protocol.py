"""Multi-processor synchronization over random meeting schedules.

Pipeline: every node independently draws a stack of random wake-up
windows (one "stage" of ceil(K * log2(n-1)) windows repeated
ceil(log2(n-1)) times), which realizes a meeting graph of minimum
degree ~10 with high probability. The stack is then repeated for
``rounds`` copies; since each copy reproduces the same meetings, the
nodes can flood the largest random identifier and its owner's clock
along the graph, one graph hop (at least) per copy. At the end every
reached node sets its clock to the root's, so all agree exactly.

The flood is one relaxation of earliest-arrival keys over the meetings'
deliveries, pass after pass until nothing moves. Once the latest arrival
has halved, a pass drops the deliveries at a column past their
receiver's arrival: none arrives before its column and arrivals only
fall, so a dropped one could never set its receiver's key. The keys, and
the number of passes, are those of the relaxation over every delivery.

When the processor count is unknown, guesses n_i = d / 2**i are tried
in time-isolated epochs. A too-large guess yields a schedule too
sparse to connect that many nodes, which the root detects by counting
the nodes its BFS reaches; the first guess that count covers is accepted.
That count never exceeds the radios present, so in the base model an
epoch whose guess does is simulated only as far as its rng draws and
its bill: its schedule draw stops at each row's count of distinct
wake-ups, and no schedule matrix is built.
Densities grow geometrically with the epoch index while the
repetition counts stay fixed (they depend only on d), so the total
radio spend is dominated by the last epoch.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

# resolve_backoff_unit, the coin-level definition the flood never calls,
# stays importable here: the benchmark tracer wraps it by this name
from .netsim import resolve_backoff, resolve_backoff_unit  # noqa: F401
from .randsched import (
    CommGraph,
    DEFAULT_SCALE,
    Meetings,
    ScheduleMatrix,
    _integers,
    clamped_log2,
    detect_meetings,
    draw_row_counts,
    draw_rows,
    graph_stats,  # noqa: F401  (the benchmark tracer wraps it by this name)
    reached_from,
    repetition_constant,
    row_draws,
)
from .seeding import (
    refuse_beyond_memory, require_bool, require_integer, require_real, spawn_rng
)


#: identifiers are drawn uniformly below 2**63; far wider than any
#: realistic n, so collisions are negligible (and regenerated away)
ID_BITS = 63

#: the :class:`SimConfig` fields that count something, each an integer
_COUNTS = "d n repetition_k rounds backoff_rounds seed transmit_delay columns polylog_exp"


@dataclass
class SimConfig:
    """Parameters of one synchronization run.

    Either ``n`` or ``beta`` fixes the processor count (n =
    ceil(d**beta); given both, they must agree, so a config derived from
    ``beta`` can be copied with ``dataclasses.replace``); with neither,
    the count is unknown and only :func:`estimate_n` applies. ``exclusive``,
    a bool, selects the interference model, in which every awake unit is
    expanded into ``backoff_rounds`` back-off slots. Optional fields
    left as None are derived: window ``columns`` 4d and back-off slot
    count ceil(log2 n)**2 here, the stage shape and sync ``rounds``
    (ceil(log2 n) + 10) by :func:`pipeline_params`. A count field given
    as anything but an integer is refused, as is a bool; a numpy integer
    is held as a Python int.
    """

    d: int
    n: Optional[int] = None
    beta: Optional[float] = None
    scale: float = DEFAULT_SCALE
    repetition_k: Optional[int] = None
    rounds: Optional[int] = None
    exclusive: bool = False
    backoff_rounds: Optional[int] = None
    seed: int = 0
    transmit_delay: int = 0
    columns: Optional[int] = None
    polylog_exp: int = 2

    def __post_init__(self) -> None:
        for name in _COUNTS.split():
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, require_integer(name, value))
        require_integer("offset bound", self.d, 1)
        self.exclusive = require_bool("exclusive", self.exclusive)
        counts = ("repetition_k", "rounds", "columns", "backoff_rounds")
        _check_shape(self.scale, self.polylog_exp, **{k: getattr(self, k) for k in counts})
        require_integer("transmit_delay", self.transmit_delay, 0)
        if self.beta is not None:
            require_real("beta", self.beta)
            try:
                n = math.ceil(float(self.d) ** self.beta)
            except OverflowError:
                raise ValueError(
                    f"beta={self.beta} is too large: d**beta overflows at d={self.d}"
                ) from None
            if self.n is None:
                self.n = n
            elif self.n != n:
                raise ValueError(
                    f"n={self.n} contradicts beta={self.beta}: "
                    f"ceil(d**beta) = {n} at d={self.d}"
                )
        # n may stay None: the count is then unknown and must be estimated
        if self.n is not None and self.n < 2:
            raise ValueError(f"need at least two processors, got {self.n}")
        if self.columns is None:
            self.columns = 4 * self.d
        if self.backoff_rounds is None:
            known = self.n if self.n is not None else self.d
            self.backoff_rounds = math.ceil(clamped_log2(known)) ** 2


def _check_shape(scale: float, polylog_exp: int, **counts: Optional[int]) -> None:
    """Refuse, in one line naming the field, a ``scale`` that is not
    finite and positive, a ``polylog_exp`` that is not a non-negative
    integer, or any of the ``counts`` given that is not a positive
    integer. :class:`SimConfig` and :func:`pipeline_params` both check
    here."""
    require_real("scale", scale, positive=True)
    for name, value in counts.items():
        if value is not None:
            require_integer(name, value, 1)
    require_integer("polylog_exp", polylog_exp, 0)


NodeReading = namedtuple("NodeReading", "max_seen root_origin hops synchronized root_time")
NodeReading.__doc__ = "One node's entries of a :class:`PipelineResult`'s arrays."


@dataclass(frozen=True)
class PipelineParams:
    """Derived schedule-shape constants for one pipeline run."""

    columns: int          # window length, 4d
    draws: int            # wake-ups drawn per row per window
    stage_windows: int    # windows per stage: ceil(K * log2(n-1)), K repetition_k
    amplification: int    # stage repeats: ceil(log2(n-1))
    rounds: int           # copies of the full stack: ceil(log2 n) + 10

    @property
    def windows(self) -> int:
        return self.stage_windows * self.amplification


def pipeline_params(
    d: int,
    n: int,
    *,
    scale: float = DEFAULT_SCALE,
    columns: Optional[int] = None,
    repetition_k: Optional[int] = None,
    rounds: Optional[int] = None,
    polylog_exp: int = 2,
) -> PipelineParams:
    """Schedule shape for ``n`` processors with offsets up to ``d``.

    For n <= d the per-window density is ceil(scale * columns**a) with
    a = (1 - log_d n) / 2, which balances the two-color collision
    probability per window. For n > d a fixed poly-log density
    ceil(log2(d)**polylog_exp) suffices (the window is saturated by
    sheer processor count) and a single stage window is used. The shape
    fields are refused as :class:`SimConfig` refuses them.
    """
    _check_shape(
        scale, polylog_exp, columns=columns, repetition_k=repetition_k, rounds=rounds
    )
    if columns is None:
        columns = 4 * d
    beta = math.log(n, d) if d > 1 else 1.0
    log_n1 = clamped_log2(n - 1)
    if repetition_k is None:
        repetition_k = repetition_constant(n)
    if beta <= 1.0:
        alpha = (1.0 - beta) / 2.0
        draws = row_draws(columns, alpha, scale)
        stage_windows = math.ceil(repetition_k * log_n1)
    else:
        draws = min(columns, math.ceil(math.log2(max(d, 2)) ** polylog_exp))
        stage_windows = 1
    if rounds is None:
        rounds = math.ceil(clamped_log2(n)) + 10
    return PipelineParams(
        columns=columns,
        draws=draws,
        stage_windows=stage_windows,
        amplification=math.ceil(log_n1),
        rounds=rounds,
    )


def build_pipeline_matrix(
    n: int, params: PipelineParams, rng: np.random.Generator
) -> ScheduleMatrix:
    """The full random schedule stack of ``n`` nodes in the shape
    ``params`` (offsets left unset).

    Row by row, ``windows`` independent random windows are drawn and
    laid out back to back; duplicates within a window collapse, so each
    row is strictly increasing. Equivalent to concatenating ``windows``
    independently generated matrices, drawn node-major by one rng call
    and deduplicated by sorting runs of whole windows in
    :func:`~radiosync.randsched.draw_rows`. The rows stay flat, one
    position array plus row starts, and are checked once.
    """
    w, cols, k = params.windows, params.columns, params.draws
    _check_draw_fits(n, params)
    positions, starts = draw_rows(n, w, cols, k, rng)
    return ScheduleMatrix(n, w * cols, positions, starts=starts)


def _check_draw_fits(n: int, params: PipelineParams) -> None:
    """Refuse a schedule draw that would exceed the machine's physical
    memory, before anything is allocated. The price is 8 bytes a draw,
    which covers the raw buffer of :func:`~radiosync.randsched.draw_rows`
    where positions need int64; the deduplicated positions are a view of
    that buffer, and the draw's other temporaries are one block of rows
    at a time."""
    refuse_beyond_memory(
        n * params.windows * params.draws * 8,
        f"schedule draw too large: n={n} rows x {params.windows} windows x "
        f"{params.draws} draws",
    )


def draw_offsets(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Adversarial start offsets, uniform in [0, d]."""
    return rng.integers(0, d + 1, size=n, dtype=np.int64)


def draw_identifiers(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unique random identifiers of ``n`` nodes.

    Identifier collisions are astronomically unlikely at 63 bits; if
    one is ever detected the batch is redrawn, so uniqueness is an
    enforced invariant rather than a probabilistic one.
    """
    while True:
        idents = rng.integers(1, 1 << ID_BITS, size=n, dtype=np.int64)
        if _distinct(idents):
            return idents


def _distinct(values: np.ndarray) -> bool:
    """Whether no two of ``values`` are equal: one sort, then a
    comparison of neighbours."""
    ordered = np.sort(values)
    return not (ordered[1:] == ordered[:-1]).any()


@dataclass
class PipelineResult:
    """Outcome of one synchronization run. The per-node results are
    arrays, one entry per schedule row: the largest identifier each
    node heard (``max_seen``), the time its copy of that identifier's
    clock read zero (``root_origin``), the adoptions between that
    identifier's owner and the node (``hops``), whether the node is
    ``synchronized``, and ``root_time``, its root clock read at the end
    of the last paid copy."""

    comm_graph: CommGraph
    rounds_used: int
    per_node_radio_cost: np.ndarray
    success: bool
    root_index: int
    root_ident: int
    max_seen: np.ndarray = field(repr=False)
    root_origin: np.ndarray = field(repr=False)
    hops: np.ndarray = field(repr=False)
    synchronized: np.ndarray = field(repr=False)
    root_time: np.ndarray = field(repr=False)

    @cached_property
    def states(self) -> tuple[NodeReading, ...]:
        """One :class:`NodeReading` per node, built when first read."""
        arrays = (getattr(self, name).tolist() for name in NodeReading._fields)
        return tuple(map(NodeReading, *arrays))


def _arrivals(
    key: np.ndarray, senders: np.ndarray, cols: np.ndarray, period: int, never: int
) -> np.ndarray:
    """Arrival keys of deliveries at ``cols`` from ``senders``, where
    node v holds the key ``time * n + hops`` (n nodes; a holder -n, time
    -1 and 0 hops). A delivery arrives one hop past its sender, at its
    column in the sender's own copy if that comes later, in the next
    copy otherwise; past the budget it reads ``never * n``, the key of
    an unreached node. Each key is split into its copy's start, its
    column and its hops once per node, not once per delivery."""
    n = key.size
    time, hops = np.divmod(key, n)
    at = time % period
    hops += 1
    start = (time - at) * n + hops
    arrive = (cols <= at[senders]) * period
    arrive += cols
    arrive *= n
    arrive += start[senders]
    return np.minimum(arrive, never * n, out=arrive)


def _relax(
    key: np.ndarray, deliveries: tuple[np.ndarray, ...], period: int, never: int
) -> np.ndarray:
    """Earliest arrivals, and the fewest hops behind each, from the
    starting keys ``key`` (:func:`_arrivals`): relax over the
    ``deliveries`` (senders, receivers, cols), grouped by receiver, until
    nothing moves. Their run heads are found on entry and after each cut.

    Every pass takes its minimum with the starting keys, not with the
    previous pass's: a sender may improve to an earlier time with more
    hops, and its receivers must follow. Arrival times grow with the
    sender's time, so the time parts move exactly as a relaxation of
    times alone; once they settle, the hop parts settle over the
    deliveries that achieve them. A kept key's hops stay below n: times
    grow along the path it stands for, so no node repeats on it.

    Whenever the latest time over all nodes has halved since the last
    cut (the first bound is the largest column), the deliveries at a
    column past their receiver's time are dropped. That is exact: no
    delivery arrives before its column, and the times only fall, so a
    dropped delivery can never set its receiver's key, while those at
    the receiver's own time stay for their hop counts. Every pass
    computes the same keys as over all deliveries, so the passes are as
    many; the halving keeps the cuts' cost below that of the passes."""
    senders, receivers, cols = deliveries
    n = key.size
    first = key
    bound = int(cols.max(initial=-1))
    while True:
        heads = np.flatnonzero(np.diff(receivers, prepend=-1))
        into = receivers[heads]
        start = first[into]
        while True:
            nxt = key.copy()
            arrive = _arrivals(key, senders, cols, period, never)
            nxt[into] = np.minimum(start, np.minimum.reduceat(arrive, heads))
            if np.array_equal(nxt, key):
                return key
            key = nxt
            latest = int(key.max()) // n
            if 2 * latest <= bound:
                break
        keep = cols <= (key // n)[receivers]
        senders, receivers, cols = senders[keep], receivers[keep], cols[keep]
        bound = latest


def _spread(
    first: np.ndarray,
    later: Optional[tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]],
    period: int,
    copies: int,
    held: tuple[np.ndarray, np.ndarray, np.ndarray],
    transmit_delay: int,
) -> np.ndarray:
    """Flood the held identifiers over ``copies`` copies of a schedule
    of ``period`` columns, one round per identifier, from the largest
    down. ``held`` is (max_seen, root_origin, hops) per node, each node
    its own identifier's only holder, updated in place. Returns each
    node's adoption time ``copy * period + column`` of its final
    identifier, -1 at the holders.

    ``first`` is the largest identifier's round, already relaxed by the
    caller: its :func:`_relax` keys, ``time * n + hops`` from -n at the
    holder. ``later`` is None if that round reaches every node;
    otherwise it holds the deliveries as :func:`_relax` takes them,
    (senders, receivers, cols) grouped by receiver, and the same
    reversed (ends swapped, column ``period - 1 - c``), grouped alike.

    A node ends with the largest identifier that reaches it by a
    time-respecting path: over a delivery, the column in the sender's
    arrival copy if it is later, else in the next one. A round assigns
    its identifier to the nodes it reaches that no larger identifier
    reached, with the hops of its key: the fewest adoptions among the
    paths that arrive first, each one subtracting the transmit delay
    from the holder's origin (a running replica set to the received
    value plus the delay keeps that origin from then on). That is exact
    under the budget: a larger identifier held by any node on a path
    would reach the end of that path too, so an unassigned node's
    paths, and the senders it adopts from, are never overtaken.

    After a round, :func:`_relax` over the reversed deliveries from the
    unassigned nodes gives each node's latest departure mirrored: a
    message it holds before time ``never - 1 - back`` still reaches an
    unassigned node in time. The next round floods the largest
    identifier below this one whose holder has ``back < never``, over
    the deliveries that leave before their receiver's deadline: a
    subset of the grouped deliveries, so nothing is sorted. So every
    round assigns a node, and the identifier strictly descends.
    """
    value, origin, hops = held
    # the rounds read every node's own identifier and origin
    ident, start = value.copy(), origin.copy()
    n = ident.size
    never = copies * period
    open_ = np.ones(n, dtype=bool)
    adopted = np.full(n, -1, dtype=np.int64)
    source = int(ident.argmax())
    key = first
    while True:
        take = open_ & (key < never * n)
        time, level = np.divmod(key[take], n)
        value[take] = ident[source]
        origin[take] = start[source] - transmit_delay * level
        hops[take] = level
        adopted[take] = time
        open_ &= ~take
        if not open_.any():
            break
        (senders, receivers, cols), backward = later
        back = _relax(np.where(open_, -n, never * n), backward, period, never) // n
        # paths that cannot reach an unassigned node in time end at
        # assigned nodes, whose results stand: leave them out
        keep = back[receivers] + cols < never - 1
        active = senders[keep], receivers[keep], cols[keep]
        below = np.flatnonzero((back < never) & (ident < ident[source]))
        source = int(below[ident[below].argmax()])
        key = np.full(n, never * n, dtype=np.int64)
        key[source] = -n
        key = _relax(key, active, period, never)
    return adopted


def _deliver_meetings(
    meetings: Meetings,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    held: tuple[np.ndarray, np.ndarray, np.ndarray],
    rounds: int,
    *,
    root: int,
    exclusive: bool,
    backoff_rounds: int,
    transmit_delay: int,
    rng: Optional[np.random.Generator],
    columns: int,
    trace: Optional[list] = None,
) -> int:
    """The whole flood over ``rounds`` copies of the meetings; returns
    the number of copies it used.

    ``pairs`` are the meetings' directed pairs (sender, receiver,
    column, and the sender's and receiver's slots in ``meetings.owners``
    in the interference model), grouped by receiver, and ``held`` the
    per-node (max_seen, root_origin, hops), updated in place by
    :func:`_spread`. Its first round, the flood of the largest
    identifier from the ``root`` that holds it, is relaxed here, on
    keys ``time * n + hops`` that start at -n at the root and at
    ``rounds * period * n`` elsewhere (:func:`_arrivals`); only if it
    leaves a node unreached does :func:`_spread` get later deliveries,
    (senders, receivers, cols) as :func:`_relax` takes them. A pair's
    reverse is a pair of the same meeting, so the pairs at mirrored
    columns are the reversed deliveries.

    In the base model every participant hears every other, so the
    first round is one relaxation over all copies; the copies used
    follow from the last copy L in which any node adopted: L + 1 when
    that round reaches every node, else one more pass that changes
    nothing, min(rounds, L + 2). In the interference model each copy
    draws its back-off winners with
    :func:`~radiosync.netsim.resolve_backoff`; its deliveries are every
    sole transmitter to the rest of its unit, a subset of the pairs
    that stays grouped. Each copy's deliveries are relaxed once, from
    the root, on the keys of the copies before it, and copies are
    drawn until the root's identifier has reached every node. Those
    keys, hop counts and all, are the first round. If a node stays
    unreached, the copies drawn are laid end to end, pair-major so they
    stay grouped, as one copy of a longer period: a pair delivers in
    the copies its sender won, its reverse in those its receiver won.
    With ``trace``, one entry per copy used is appended, ``(copy *
    columns, meetings, won)``; ``won`` is None in the base model.
    """
    senders, receivers, cols, slots = pairs
    n = held[0].size
    period = int(meetings.cols[-1]) + 1 if len(meetings) else 1
    horizon = rounds * period
    # time * n + hops: the root at time -1 and 0 hops, the rest unreached
    reach = np.full(n, horizon * n, dtype=np.int64)
    reach[root] = -n
    if not exclusive:
        reach = _relax(reach, (senders, receivers, cols), period, horizon)
        later = None
        if not (reach < horizon * n).all():
            later = (senders, receivers, cols), (senders, receivers, period - 1 - cols)
        adopted = _spread(reach, later, period, rounds, held, transmit_delay)
        last = int(adopted.max()) // period
        used = max(last, 0) + 1 if later is None else min(rounds, last + 2)
        if trace is not None:
            trace.extend((copy * columns, meetings, None) for copy in range(used))
        return used
    if len(meetings) and rng is None:
        raise ValueError("interference mode needs an rng for back-off")
    # the copies' deliveries do not depend on what the radios carry, so
    # the flood from the root alone decides the stop
    won_per_copy = []
    for copy in range(rounds):
        won = resolve_backoff(meetings.sizes, backoff_rounds, rng)
        won_per_copy.append(won)
        heard = won.take(slots[0])
        part = senders[heard], receivers[heard], cols[heard] + copy * period
        if trace is not None:
            trace.append((copy * columns, meetings, won))
        # a later copy arrives after every key set so far, so this
        # copy's keys are final
        reach = _relax(reach, part, horizon, horizon)
        if (reach < horizon * n).all():
            break
    later = None
    if not (reach < horizon * n).all():
        # the copies, laid end to end, are one copy of a longer period
        won = np.stack(won_per_copy, axis=1)
        pair, copy = np.nonzero(won.take(slots[0], axis=0))
        forward = senders[pair], receivers[pair], cols[pair] + copy * period
        pair, copy = np.nonzero(won.take(slots[1], axis=0))
        mirrored = horizon - 1 - cols[pair] - copy * period
        later = forward, (senders[pair], receivers[pair], mirrored)
        del pair, copy
    _spread(reach, later, horizon, 1, held, transmit_delay)
    return len(won_per_copy)


def _node_array(name: str, values, n: int) -> np.ndarray:
    """``values`` as a 1-D int64 array of one entry per node."""
    array = _integers(name, values)
    if array.shape != (n,):
        raise ValueError(f"{name} must be a 1-D array of {n} entries, got {array.shape}")
    return array


def _check_int64(
    n: int,
    columns: int,
    rounds: int,
    top: int,
    density: int,
    transmit_delay: int,
    expansion: int,
) -> None:
    """Refuse a run whose int64 arithmetic would overflow: ``rounds``
    copies of ``n`` rows of ``columns`` columns, offsets up to ``top``
    and up to ``density`` awake units a row, each billed ``expansion``
    times. int64 must hold the flood keys, the clocks and the billed
    cost (:func:`run_sync` gives the bounds); once the bounds before it
    hold, each passes int64 only by its field, which the one-line
    refusal names."""
    span = columns * rounds
    for name, value, reach in (
        ("rounds", rounds, (3 * (span + top * rounds) + 1) * n),
        ("transmit_delay", transmit_delay, top + span + transmit_delay * (n - 1)),
        ("backoff_rounds", expansion, density * rounds * expansion),
    ):
        if reach > np.iinfo(np.int64).max:
            raise ValueError(f"{name}={value} is too large: int64 values reach {reach:.4g}")


def _check_int64_before_draw(n: int, params: PipelineParams, config: SimConfig) -> None:
    """:func:`_check_int64` before a draw in the shape ``params``, at
    its worst case: offsets up to ``config.d``, and every draw of a row
    its own awake unit."""
    _check_int64(
        n,
        params.windows * params.columns,
        params.rounds,
        config.d,
        params.windows * params.draws,
        config.transmit_delay,
        config.backoff_rounds if config.exclusive else 1,
    )


def billed_cost(densities: np.ndarray, rounds: int, expansion: int) -> np.ndarray:
    """Each node's radio cost over ``rounds`` copies of a schedule whose
    rows hold ``densities`` awake units (a matrix's
    :meth:`~radiosync.randsched.ScheduleMatrix.densities`, or the counts
    of :func:`~radiosync.randsched.draw_row_counts`): each unit billed
    ``expansion`` times (the back-off slots in the interference model, 1
    in the base model). Every copy is paid, used or not."""
    return densities * rounds * expansion


def run_sync(
    matrix: ScheduleMatrix,
    idents,
    rounds: int,
    *,
    exclusive: bool = False,
    backoff_rounds: int = 1,
    transmit_delay: int = 0,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> PipelineResult:
    """Flood the maximal identifier and its clock for ``rounds`` copies
    of the schedule, from the nodes' unique identifiers ``idents``.

    Every node starts with its own identifier, its row's offset as the
    origin of its clock and 0 hops, and broadcasts its current (max
    ident, root clock) at each of its meetings; a node hearing a larger
    identifier adopts it and the accompanying clock plus the per-hop
    transmission delay, from a sender with the fewest hops among those
    carrying it first: one relaxation of ``time * n + hops`` keys gives
    both (:func:`_relax`). The meetings stay arrays from detection on:
    their directed pairs are grouped once by (receiver, sender)
    (:meth:`~radiosync.randsched.Meetings.grouped_pairs`), carrying
    their columns and, in the interference model, both ends' slots and
    the two-radio mask. Each (receiver, sender) run starts at that
    link's earliest meeting, so the run heads are the graph's CSR
    entries and first columns (of the two-radio pairs only in the
    interference model); the same grouped pairs feed the flood both
    ways, :func:`_deliver_meetings`. Copies of the schedule beyond the
    point where a full pass changes nothing count as unused, but are still
    paid for in radio cost. Copy c starts at time ``c * columns`` (the
    trace's and ``root_time``'s time base), yet meets only within itself:
    a row whose offset keeps it in copy c never meets one already in c + 1.
    Success requires every node to end at the global maximum with an
    identical delay-adjusted clock; the nodes that do not are those
    ``synchronized`` marks False. Every per-node result is an array;
    ``idents`` is left as it was. ``trace``, a list, gets one entry per
    copy used (:func:`~radiosync.harness.trace_to_csv`); the result and
    the rng's draws are those of an untraced run.
    A matrix whose offsets are unset is refused before any work, as is
    an ``exclusive`` that is not a bool. A ``rounds``,
    ``transmit_delay`` or ``backoff_rounds`` whose int64 arithmetic
    would overflow is refused before detection; each is taken as a
    Python int, so the check itself cannot wrap. The flood keys stay
    below ``(3 * (columns + max offset) * rounds + 1) * n``: a
    delivery's key, before its clamp, may pass the budget by two copies,
    and a copy of the interference model's later rounds is the whole
    budget. The clocks stay below ``max offset + columns * rounds +
    transmit_delay * (n - 1)`` and the billed cost below ``max density
    * rounds * backoff_rounds``.
    """
    if matrix.offsets is None:
        raise ValueError("offsets must be set before syncing")
    rounds = require_integer("rounds", rounds, 1)
    exclusive = require_bool("exclusive", exclusive)
    least = 1 if exclusive else None
    backoff_rounds = require_integer("backoff_rounds", backoff_rounds, least)
    transmit_delay = require_integer("transmit_delay", transmit_delay, 0)
    n = require_integer("row count", matrix.n, 1)
    ident = _node_array("ident", idents, n)
    if not _distinct(ident):
        raise ValueError("node identifiers must be unique")
    expansion = backoff_rounds if exclusive else 1
    top = int(matrix.offsets.max())
    densities = matrix.densities()
    density = int(densities.max())
    _check_int64(n, matrix.columns, rounds, top, density, transmit_delay, expansion)
    meetings = detect_meetings(matrix)
    # one grouping by (receiver, sender) serves the graph and the flood
    senders, receivers, which, slots = meetings.grouped_pairs(n, slots=exclusive)
    cols = meetings.cols[which]
    edges = meetings.sizes[which] == 2 if exclusive else slice(None)
    del which
    graph = CommGraph._from_pairs(n, senders[edges], receivers[edges], cols[edges])
    del edges

    held = ident.copy(), matrix.offsets.copy(), np.zeros(n, dtype=np.int64)
    root_index = int(ident.argmax())
    root_ident = int(ident[root_index])
    rounds_used = _deliver_meetings(
        meetings,
        (senders, receivers, cols, slots),
        held,
        rounds,
        root=root_index,
        exclusive=exclusive,
        backoff_rounds=backoff_rounds,
        transmit_delay=transmit_delay,
        rng=rng,
        columns=matrix.columns,
        trace=trace,
    )
    max_seen, root_origin, hops = held
    end_time = top + matrix.columns * rounds
    adjusted = root_origin + transmit_delay * hops
    synchronized = (max_seen == root_ident) & (adjusted == matrix.offsets[root_index])

    cost = billed_cost(densities, rounds, expansion)
    return PipelineResult(
        comm_graph=graph,
        rounds_used=rounds_used,
        per_node_radio_cost=cost,
        success=bool(synchronized.all()),
        root_index=root_index,
        root_ident=root_ident,
        max_seen=max_seen,
        root_origin=root_origin,
        hops=hops,
        synchronized=synchronized,
        root_time=end_time - root_origin,
    )


def run_pipeline(config: SimConfig, trace: Optional[list] = None) -> PipelineResult:
    """Build schedule, offsets and identifiers from the config, then sync.

    One rng, seeded from ``config.seed``, draws, in this order, the
    schedule stack, the start offsets, the node identifiers and, in
    interference mode, the back-off winners. A budget that
    :func:`run_sync` would refuse for int64 overflow on some draw of
    this shape is refused before anything is drawn.
    """
    if config.n is None:
        raise ValueError("processor count unknown; use estimate_n")
    rng = spawn_rng(config.seed)
    params = pipeline_params(
        config.d,
        config.n,
        scale=config.scale,
        columns=config.columns,
        repetition_k=config.repetition_k,
        rounds=config.rounds,
        polylog_exp=config.polylog_exp,
    )
    _check_int64_before_draw(config.n, params, config)
    matrix = build_pipeline_matrix(config.n, params, rng)
    matrix = matrix.with_offsets(draw_offsets(config.n, config.d, rng))
    return run_sync(
        matrix,
        draw_identifiers(config.n, rng),
        params.rounds,
        exclusive=config.exclusive,
        backoff_rounds=config.backoff_rounds,
        transmit_delay=config.transmit_delay,
        rng=rng,
        trace=trace,
    )


@dataclass
class EstimateResult:
    """Outcome of the unknown-n estimation loop."""

    estimate: Optional[int]
    accepted: bool
    epochs_run: int
    synchronized_fraction: float
    per_node_cost: np.ndarray
    per_epoch_max_cost: list[int]

    @property
    def total_max_cost(self) -> int:
        return int(sum(self.per_epoch_max_cost))

    @property
    def final_epoch_max_cost(self) -> int:
        return self.per_epoch_max_cost[-1] if self.per_epoch_max_cost else 0


def estimate_guesses(d: int) -> list[int]:
    """The guesses n_i = ceil(d / 2**i) of :func:`estimate_n`'s epochs,
    from d down to the last one that is at least 2."""
    guesses = (math.ceil(d / 2**epoch) for epoch in range(math.floor(math.log2(d)) + 1))
    return [guess for guess in guesses if guess >= 2]


def estimate_n(config: SimConfig, true_n: int) -> EstimateResult:
    """Synchronize without knowing the processor count.

    Epoch i sizes the schedule density for the guess n_i =
    ceil(d / 2**i) (:func:`estimate_guesses`); the repetition counts and
    round budget are derived from d once and held fixed across epochs,
    which keeps per-epoch cost proportional to the density and hence
    geometrically increasing. The root counts the nodes its BFS reaches
    after each epoch and the first epoch whose count reaches n_i is
    accepted; epochs are separated by more than d idle units so no
    message can leak between them. Gives up once the guess would drop
    below 2. The guesses, stage shape and round budget come from d
    alone, so a config that sets ``beta``, ``n``, ``rounds`` or
    ``repetition_k`` is refused, and so is one whose densest epoch could
    overflow int64 in :func:`run_sync`, before the first draw.

    ``true_n`` radios take part; it only bounds what the root can
    count. A count of distinct radios never exceeds it, so an epoch
    whose guess does is refused whatever it simulates. In the base model
    such an epoch makes only its rng draws, the schedule and the
    identifiers, and is billed as :func:`run_sync` would bill it
    (:func:`billed_cost`). Its schedule draw keeps only each row's count
    of distinct wake-ups (:func:`~radiosync.randsched.draw_row_counts`),
    so it builds no :class:`~radiosync.randsched.ScheduleMatrix`, detects
    no meetings and floods nothing.
    The stream of the one rng, seeded from ``config.seed``, and so
    every later epoch and every output, is that of syncing each epoch
    in full. In the interference model every epoch runs in full: its
    back-off draws depend on how far the flood got.
    """
    if config.d < 2:
        raise ValueError(
            f"estimate_n needs d >= 2 (the first guess is d), got {config.d}"
        )
    true_n = require_integer("true_n", true_n)
    if true_n < 2:
        raise ValueError(f"need at least two processors, got {true_n}")
    for name in ("beta", "n", "rounds", "repetition_k"):
        value = getattr(config, name)
        if value is not None:
            raise ValueError(
                f"estimate_n derives {name} from d; leave it unset, got {value}"
            )
    d = config.d
    # repetition counts and round budget depend only on d (the known
    # quantity); only the density tracks the current guess
    density = dict(scale=config.scale, columns=config.columns)
    shape = pipeline_params(d, d, **density)
    guesses = estimate_guesses(d)
    epochs = [
        replace(shape, draws=pipeline_params(d, guess, **density).draws)
        for guess in guesses
    ]
    # the last epoch is the densest
    _check_draw_fits(true_n, epochs[-1])
    _check_int64_before_draw(true_n, epochs[-1], config)

    rng = spawn_rng(config.seed)
    offsets = draw_offsets(true_n, d, rng)
    total_cost = np.zeros(true_n, dtype=np.int64)
    per_epoch_max: list[int] = []
    estimate, fraction = None, 0.0
    for guess, params in zip(guesses, epochs):
        # no root counts more than the true_n radios present; the draws
        # stay, so later epochs read the stream of a full sync
        if guess > true_n and not config.exclusive:
            counts = draw_row_counts(
                true_n, params.windows, params.columns, params.draws, rng
            )
            draw_identifiers(true_n, rng)
            cost, accepted = billed_cost(counts, params.rounds, 1), False
        else:
            matrix = build_pipeline_matrix(true_n, params, rng)
            result = run_sync(
                matrix.with_offsets(offsets),
                draw_identifiers(true_n, rng),
                params.rounds,
                exclusive=config.exclusive,
                backoff_rounds=config.backoff_rounds,
                transmit_delay=config.transmit_delay,
                rng=rng,
            )
            cost = result.per_node_radio_cost
            accepted = reached_from(result.comm_graph, root=result.root_index) >= guess
        total_cost += cost
        per_epoch_max.append(int(cost.max()))

        if accepted:
            estimate, fraction = guess, int(result.synchronized.sum()) / true_n
            break
    return EstimateResult(
        estimate=estimate,
        accepted=estimate is not None,
        epochs_run=len(per_epoch_max),
        synchronized_fraction=fraction,
        per_node_cost=total_cost,
        per_epoch_max_cost=per_epoch_max,
    )
