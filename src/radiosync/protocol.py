"""Multi-processor synchronization over random meeting schedules.

Pipeline: every node independently draws a stack of random wake-up
windows (one "stage" of ceil(K * log2(n-1)) windows repeated
ceil(log2(n-1)) times), which realizes a meeting graph of minimum
degree ~10 with high probability. The stack is then repeated for
``rounds`` copies; since each copy reproduces the same meetings, the
nodes can flood the largest random identifier and its owner's clock
along the graph, one graph hop (at least) per copy. At the end every
reached node sets its clock to the root's, so all agree exactly.

When the processor count is unknown, guesses n_i = d / 2**i are tried
in time-isolated epochs. A too-large guess yields a schedule too
sparse to connect that many nodes, which the root detects by counting
its spanning tree; the first guess whose tree covers it is accepted.
Densities grow geometrically with the epoch index while the
repetition counts stay fixed (they depend only on d), so the total
radio spend is dominated by the last epoch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

# resolve_backoff_unit, the coin-level definition the flood never calls,
# stays importable here: the benchmark tracer wraps it by this name
from .netsim import resolve_backoff, resolve_backoff_unit  # noqa: F401
from .randsched import (
    CommGraph,
    Meetings,
    ScheduleMatrix,
    _radix_order,
    clamped_log2,
    detect_meetings,
    draw_rows,
    graph_from_pairs,
    graph_stats,
    repetition_constant,
    row_draws,
)
from .seeding import spawn_rng


#: identifiers are drawn uniformly below 2**63; far wider than any
#: realistic n, so collisions are negligible (and regenerated away)
ID_BITS = 63


@dataclass
class SimConfig:
    """Parameters of one synchronization run.

    Either ``n`` or ``beta`` fixes the processor count (n =
    ceil(d**beta)); with neither, the count is unknown and only
    :func:`estimate_n` applies. ``exclusive`` selects the interference
    model, in which every awake unit is expanded into ``backoff_rounds``
    back-off slots. Optional fields left as None are derived: window
    ``columns`` 4d and back-off slot count ceil(log2 n)**2 here, the
    stage shape and sync ``rounds`` (ceil(log2 n) + 10) by
    :func:`pipeline_params`.
    """

    d: int
    n: Optional[int] = None
    beta: Optional[float] = None
    scale: float = 1.82
    repetition_k: Optional[int] = None
    rounds: Optional[int] = None
    exclusive: bool = False
    backoff_rounds: Optional[int] = None
    seed: int = 0
    transmit_delay: int = 0
    columns: Optional[int] = None
    polylog_exp: int = 2

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"offset bound must be positive, got {self.d}")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        for name in ("repetition_k", "rounds", "columns", "backoff_rounds"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.transmit_delay < 0:
            raise ValueError(
                f"transmit_delay must be non-negative, got {self.transmit_delay}"
            )
        if self.n is None and self.beta is not None:
            try:
                self.n = math.ceil(float(self.d) ** self.beta)
            except OverflowError:
                raise ValueError(
                    f"beta={self.beta} is too large: d**beta overflows at d={self.d}"
                ) from None
        # n may stay None: the count is then unknown and must be estimated
        if self.n is not None and self.n < 2:
            raise ValueError(f"need at least two processors, got {self.n}")
        if self.columns is None:
            self.columns = 4 * self.d
        if self.backoff_rounds is None:
            known = self.n if self.n is not None else self.d
            self.backoff_rounds = math.ceil(clamped_log2(known)) ** 2


@dataclass
class NodeState:
    """State of one node before and after a run.

    ``ident`` is the node's random identifier, ``max_seen`` the largest
    identifier heard so far. The believed root clock is carried as its
    *origin* (the global time at which that clock read zero), so the
    replica keeps running while it propagates; ``root_time`` and
    ``own_time`` are filled in with concrete readings when a run
    finishes. ``hops`` counts adoptions between the root and this node,
    for transmission-delay accounting. :func:`run_sync` reads
    ``max_seen``, ``root_origin`` and ``hops`` once, floods them as
    arrays, and writes every field back once at the end.
    """

    index: int
    ident: int
    start_offset: int
    max_seen: int = 0
    root_origin: int = 0
    hops: int = 0
    synchronized: bool = False
    own_time: int = 0
    root_time: int = 0

    def __post_init__(self) -> None:
        if self.max_seen == 0:
            self.max_seen = self.ident
        self.root_origin = self.start_offset


@dataclass(frozen=True)
class PipelineParams:
    """Derived schedule-shape constants for one pipeline run."""

    columns: int          # window length, 4d
    draws: int            # wake-ups drawn per row per window
    stage_windows: int    # windows per stage: ceil(K * log2(n-1))
    amplification: int    # stage repeats: ceil(log2(n-1))
    rounds: int           # copies of the full stack: ceil(log2 n) + 10
    repetition_k: int     # the K above

    @property
    def windows(self) -> int:
        return self.stage_windows * self.amplification


def pipeline_params(
    d: int,
    n: int,
    *,
    scale: float = 1.82,
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
    sheer processor count) and a single stage window is used.
    """
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
        repetition_k=repetition_k,
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
    """Refuse a schedule draw whose raw int64 buffer alone would exceed
    the machine's physical memory, before anything is allocated."""
    need = n * params.windows * params.draws * 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"schedule draw too large: n={n} rows x {params.windows} windows x "
            f"{params.draws} draws needs {need} bytes, physical memory is {have}"
        )


def draw_offsets(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Adversarial start offsets, uniform in [0, d] by default."""
    return rng.integers(0, d + 1, size=n, dtype=np.int64)


def make_node_states(
    n: int, offsets: Sequence[int], rng: np.random.Generator
) -> list[NodeState]:
    """Fresh per-node states with unique random identifiers.

    Identifier collisions are astronomically unlikely at 63 bits; if
    one is ever detected the batch is redrawn, so uniqueness is an
    enforced invariant rather than a probabilistic one.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.shape != (n,):
        raise ValueError(f"need {n} start offsets, got shape {offsets.shape}")
    while True:
        idents = rng.integers(1, 1 << ID_BITS, size=n, dtype=np.int64)
        if np.unique(idents).size == n:
            break
    return [
        NodeState(index=i, ident=ident, start_offset=offset)
        for i, (ident, offset) in enumerate(zip(idents.tolist(), offsets.tolist()))
    ]


@dataclass
class PipelineResult:
    """Outcome of one synchronization run."""

    comm_graph: CommGraph
    rounds_used: int
    per_node_radio_cost: np.ndarray
    success: bool
    root_index: int
    root_ident: int
    unreached: frozenset[int]
    states: list[NodeState] = field(repr=False, default_factory=list)


def _arrivals(
    label: np.ndarray, cols: np.ndarray, period: int, never: int
) -> np.ndarray:
    """Arrival labels of deliveries at ``cols`` from senders that
    adopted at ``label``: the column in the sender's own copy if it
    comes later, in the next copy otherwise (-1, a holder, means copy
    0), and ``never`` once past the budget."""
    at = label % period
    return np.minimum(label - at + cols + np.where(cols > at, 0, period), never)


def _by_receiver(
    senders: np.ndarray, receivers: np.ndarray, cols: np.ndarray, n: int
) -> tuple[np.ndarray, ...]:
    """Deliveries among ``n`` nodes grouped by receiver (a stable radix
    sort), plus the index of each receiver's first delivery and that
    receiver, for ``np.minimum.reduceat``."""
    order = _radix_order(receivers, n)
    senders, receivers, cols = senders[order], receivers[order], cols[order]
    heads = np.flatnonzero(np.diff(receivers, prepend=-1))
    return senders, receivers, cols, heads, receivers[heads]


def _relax(
    label: np.ndarray, deliveries: tuple[np.ndarray, ...], period: int, never: int
) -> tuple[np.ndarray, np.ndarray]:
    """Earliest arrivals from the holders' -1 labels: relax over the
    :func:`_by_receiver` deliveries until nothing moves. Returns the
    labels and every delivery's arrival."""
    senders, _receivers, cols, heads, into = deliveries
    while True:
        arrive = _arrivals(label[senders], cols, period, never)
        nxt = label.copy()
        nxt[into] = np.minimum(label[into], np.minimum.reduceat(arrive, heads))
        if np.array_equal(nxt, label):
            return label, arrive
        label = nxt


def _deadlines(
    open_: np.ndarray, backward: tuple[np.ndarray, ...], period: int, never: int
) -> np.ndarray:
    """For every node, the label before which it must hold a message
    for that message to reach an ``open_`` node by a time-respecting
    path within the budget; -1 where none can. Latest departures,
    relaxed backwards over the deliveries grouped by sender (the
    :func:`_by_receiver` layout with the ends swapped) until nothing
    moves."""
    receivers, _senders, cols, heads, into = backward
    deadline = np.where(open_, never, -1)
    while True:
        copy = (deadline[receivers] - 1 - cols) // period
        leave = np.where(copy >= 0, copy * period + cols, -1)
        nxt = deadline.copy()
        nxt[into] = np.maximum(deadline[into], np.maximum.reduceat(leave, heads))
        if np.array_equal(nxt, deadline):
            return deadline
        deadline = nxt


def _components(senders: np.ndarray, receivers: np.ndarray, n: int) -> np.ndarray:
    """Each node's smallest fellow member of its connected component,
    ignoring direction and time: min-label propagation along the pairs
    with pointer jumping."""
    comp = np.arange(n)
    while True:
        low = comp.copy()
        np.minimum.at(low, receivers, comp[senders])
        np.minimum.at(low, senders, comp[receivers])
        low = low[low]
        if np.array_equal(low, comp):
            return comp
        comp = low


def _ranks(value: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """How many distinct values above its own are held in a node's
    component."""
    by = np.lexsort((-value, comp))
    c, v = comp[by], value[by]
    first = np.r_[True, c[1:] != c[:-1]]
    step = np.cumsum(first | np.r_[True, v[1:] != v[:-1]])
    rank = np.empty_like(step)
    rank[by] = step - step[first][np.cumsum(first) - 1]
    return rank


def _chains(
    active: tuple[np.ndarray, ...],
    label: np.ndarray,
    arrive: np.ndarray,
    never: int,
    source: np.ndarray,
    hops: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Hop count of every node reached in a round, and the holder its
    chain of adoptions starts at. A receiver adopts from the senders
    whose delivery is its arrival, the one with the fewest hops, then
    the lowest index. Those deliveries form a DAG (labels grow along
    it), over which (hops + 1, sender) keys are relaxed; the chosen
    senders are then followed up by pointer jumping."""
    n = label.size
    senders, receivers = active[:2]
    tight = (arrive == label[receivers]) & (arrive < never)
    senders, receivers = senders[tight], receivers[tight]
    heads = np.flatnonzero(np.diff(receivers, prepend=-1))
    into = receivers[heads]
    # above any hop count a round reaches: no chain is longer than n
    level = np.where(source, hops, int(hops.max()) + n)
    while True:
        best = np.minimum.reduceat((level[senders] + 1) * n + senders, heads)
        nxt = level.copy()
        nxt[into] = best // n
        if np.array_equal(nxt, level):
            break
        level = nxt
    root = np.arange(n)
    root[into] = best % n
    while not np.array_equal(up := root[root], root):
        root = up
    return level, root


def _spread(
    senders: np.ndarray,
    receivers: np.ndarray,
    cols: np.ndarray,
    period: int,
    copies: int,
    held: tuple[np.ndarray, np.ndarray, np.ndarray],
    transmit_delay: int,
) -> np.ndarray:
    """Flood the held identifiers over ``copies`` copies of a schedule
    of ``period`` columns in which ``senders[i]`` reaches
    ``receivers[i]`` at column ``cols[i]``.

    ``held`` is (max_seen, root_origin, hops) per node, updated in
    place. Returns each node's adoption label ``copy * period + column``
    of its final identifier, -1 where it kept what it held.

    A node ends with the largest identifier that reaches it by a
    time-respecting path: label -1 at the holders, and over a delivery
    the column in the sender's arrival copy if it is later, else in the
    next one. The distinct held identifiers are taken in descending
    order; each gets one multi-source earliest-arrival relaxation
    (``np.minimum.reduceat`` over the deliveries grouped by receiver,
    :func:`_by_receiver`, until nothing moves) and is assigned to the
    nodes it reaches that no larger identifier reached. That is exact under the budget: a
    larger identifier held by any node on a path would reach the end
    of that path too, so an unassigned node's paths, and the senders
    it adopts from, are never overtaken. Connected components do not
    interact, so round k relaxes the k-th largest value of every
    component at once. From the second round on, holders that cannot
    reach an unassigned node within the budget (:func:`_deadlines`) are
    left out, and a round with none left is skipped. A receiver
    adopts from one of the senders whose delivery is its arrival
    (:func:`_chains`) and takes that sender's origin minus the delay (a
    running replica set to the received value plus the delay keeps
    that origin from then on).
    """
    value, origin, hops = held
    n = value.size
    never = copies * period
    deliveries = _by_receiver(senders, receivers, cols, n)
    senders, receivers, cols = deliveries[:3]
    comp = _components(senders, receivers, n)
    rank = _ranks(value, comp)
    open_ = np.ones(n, dtype=bool)
    adopted = np.full(n, -1, dtype=np.int64)
    out = value.copy(), origin.copy(), hops.copy()
    active, backward = deliveries, None
    for k in range(int(rank.max()) + 1):
        source = rank == k
        if k:
            # paths that cannot reach an unassigned node in time end at
            # assigned nodes, whose results stand: leave them out
            if backward is None:
                backward = _by_receiver(receivers, senders, cols, n)
            if active is deliveries:
                deadline = _deadlines(open_, backward, period, never)
                keep = (deadline[receivers] - 1 - cols) // period >= 0
                active = _by_receiver(senders[keep], receivers[keep], cols[keep], n)
            source &= deadline >= 0
            if not source.any():
                continue
        label, arrive = _relax(np.where(source, -1, never), active, period, never)
        take = open_ & (label < never)
        level, root = _chains(active, label, arrive, never, source, hops)
        out[0][take] = value[root[take]]
        out[1][take] = (origin[root] - transmit_delay * (level - hops[root]))[take]
        out[2][take] = level[take]
        adopted[take] = label[take]
        open_ &= ~take
        if not open_.any():
            break
        active = deliveries
    for array, result in zip(held, out):
        array[:] = result
    return adopted


def _trace_rows(meetings: Meetings, won: Optional[np.ndarray], time_base: int) -> list:
    """One (t, awake, transmitters, deliveries) row per meeting unit.
    Every participant transmits unless ``won`` (one bool per owner
    slot) names the sole transmitters; receivers that hear only
    collisions get an empty sender tuple."""
    owners = meetings.owners.tolist()
    sent = owners if won is None else np.where(won, meetings.owners, -1).tolist()
    rows = []
    for col, lo, k in zip(
        meetings.cols.tolist(), meetings.starts.tolist(), meetings.sizes.tolist()
    ):
        awake = tuple(owners[lo : lo + k])
        heard = tuple(s for s in sent[lo : lo + k] if s >= 0)
        delivered = {r: tuple(s for s in heard if s != r) for r in awake}
        rows.append((time_base + col, awake, heard, delivered))
    return rows


def _deliver_meetings(
    meetings: Meetings,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    held: tuple[np.ndarray, np.ndarray, np.ndarray],
    rounds: int,
    *,
    global_max: int,
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
    column, sender's slot in ``meetings.owners``) and ``held`` the
    per-node (max_seen, root_origin, hops), updated in place by
    :func:`_spread`. In the base model every participant hears every
    other, so the flood is one relaxation over all copies; the copies
    used follow from the last copy L in which any node adopted: L + 1
    when every node ends at ``global_max``, else one more pass that
    changes nothing, min(rounds, L + 2). In the interference model
    each copy draws its back-off winners with
    :func:`~radiosync.netsim.resolve_backoff`; its deliveries are every
    sole transmitter to the rest of its unit. Copies are drawn until
    ``global_max`` alone has reached every node (every node then holds
    it), then the copies drawn are laid end to end and flooded by one
    relaxation, as one copy of a longer period. When ``trace`` is
    given, one row per meeting unit and copy is appended (see
    :func:`_trace_rows`), at time ``copy * columns + column``.
    """
    senders, receivers, cols, slots = pairs
    period = int(meetings.cols[-1]) + 1 if len(meetings) else 1
    if not exclusive:
        adopted = _spread(
            senders, receivers, cols, period, rounds, held, transmit_delay
        )
        last = int(adopted.max()) // period
        if (held[0] == global_max).all():
            used = max(last, 0) + 1
        else:
            used = min(rounds, last + 2)
        if trace is not None:
            for copy in range(used):
                trace.extend(_trace_rows(meetings, None, copy * columns))
        return used
    if len(meetings) and rng is None:
        raise ValueError("interference mode needs an rng for back-off")
    # the copies' deliveries do not depend on what the radios carry, so
    # only the stop needs the flood: every node holds ``global_max``
    # once that alone has reached them all (unless a node holds more)
    horizon = rounds * period
    reach = np.where(held[0] == global_max, -1, horizon)
    can_stop = not (held[0] > global_max).any()
    heard_per_copy = []
    for copy in range(rounds):
        won = resolve_backoff(meetings.sizes, backoff_rounds, rng)
        heard = won[slots]
        part = senders[heard], receivers[heard], cols[heard] + copy * period
        heard_per_copy.append(part)
        if trace is not None:
            trace.extend(_trace_rows(meetings, won, copy * columns))
        reach, _ = _relax(reach, _by_receiver(*part, reach.size), horizon, horizon)
        if can_stop and (reach < horizon).all():
            break
    used = copy + 1
    # the copies used, laid end to end, are one copy of a longer period
    deliveries = (np.concatenate(arrays) for arrays in zip(*heard_per_copy))
    _spread(*deliveries, used * period, 1, held, transmit_delay)
    return used


def run_sync(
    matrix: ScheduleMatrix,
    states: list[NodeState],
    rounds: int,
    *,
    exclusive: bool = False,
    backoff_rounds: int = 1,
    transmit_delay: int = 0,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> PipelineResult:
    """Flood the maximal identifier and its clock for ``rounds`` copies
    of the schedule.

    Every node broadcasts its current (max ident, root clock) at each
    of its meetings; a node hearing a larger identifier adopts it and
    the accompanying clock plus the per-hop transmission delay, from
    the sender with the fewest hops (then the lowest index) among those
    carrying it. The meetings stay arrays from detection on: one pass
    builds their directed pairs in meeting order, which give the graph
    (pairs of two-radio meetings only in the interference model; edge
    arrays plus CSR adjacency, see
    :func:`~radiosync.randsched.graph_from_pairs`) and feed the flood,
    :func:`_deliver_meetings`, which groups them by receiver with a
    radix sort. Copies of the schedule beyond the point
    where a full pass changes nothing count as unused, but are still
    paid for in radio cost. Success requires every node to end at the
    global maximum with an identical delay-adjusted clock; otherwise
    the unreached nodes are reported.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if exclusive and backoff_rounds < 1:
        raise ValueError(f"backoff_rounds must be positive, got {backoff_rounds}")
    if transmit_delay < 0:
        raise ValueError(f"transmit_delay must be non-negative, got {transmit_delay}")
    if len(states) != matrix.n:
        raise ValueError(f"{len(states)} node states for a schedule of {matrix.n} rows")
    meetings = detect_meetings(matrix, exclusive=False)
    slots, dst, which = meetings.pairs()
    senders, receivers = meetings.owners[slots], meetings.owners[dst]
    cols = meetings.cols[which]
    edges = meetings.sizes[which] == 2 if exclusive else slice(None)
    graph = graph_from_pairs(matrix.n, senders[edges], receivers[edges], cols[edges])

    held = tuple(
        np.array([getattr(st, name) for st in states], dtype=np.int64)
        for name in ("max_seen", "root_origin", "hops")
    )
    rounds_used = _deliver_meetings(
        meetings,
        (senders, receivers, cols, slots),
        held,
        rounds,
        global_max=max(st.ident for st in states),
        exclusive=exclusive,
        backoff_rounds=backoff_rounds,
        transmit_delay=transmit_delay,
        rng=rng,
        columns=matrix.columns,
        trace=trace,
    )
    for st, *row in zip(states, *(array.tolist() for array in held)):
        st.max_seen, st.root_origin, st.hops = row

    root_index = max(range(len(states)), key=lambda i: states[i].ident)
    root_ident = states[root_index].ident
    end_time = int(matrix.offsets.max()) + matrix.columns * rounds

    unreached = []
    target_origin = states[root_index].start_offset
    for st in states:
        st.root_time = end_time - st.root_origin
        st.own_time = st.root_time  # set own clock to the root's
        adjusted = st.root_origin + transmit_delay * st.hops
        reached = st.max_seen == root_ident and adjusted == target_origin
        st.synchronized = reached
        if not reached:
            unreached.append(st.index)

    expansion = backoff_rounds if exclusive else 1
    cost = matrix.densities() * rounds * expansion
    return PipelineResult(
        comm_graph=graph,
        rounds_used=rounds_used,
        per_node_radio_cost=cost,
        success=not unreached,
        root_index=root_index,
        root_ident=root_ident,
        unreached=frozenset(unreached),
        states=states,
    )


def run_pipeline(
    config: SimConfig,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> PipelineResult:
    """Build schedule, offsets and states from the config, then sync.

    The rng (seeded from ``config.seed`` when not given) draws, in this
    order, the schedule stack, the start offsets, the node identifiers
    and, in interference mode, the back-off winners.
    """
    if config.n is None:
        raise ValueError("processor count unknown; use estimate_n")
    if rng is None:
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
    matrix = build_pipeline_matrix(config.n, params, rng)
    matrix = matrix.with_offsets(draw_offsets(config.n, config.d, rng))
    states = make_node_states(config.n, matrix.offsets, rng)
    return run_sync(
        matrix,
        states,
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


def estimate_n(
    config: SimConfig, true_n: int, rng: Optional[np.random.Generator] = None
) -> EstimateResult:
    """Synchronize without knowing the processor count.

    Epoch i sizes the schedule density for the guess n_i =
    ceil(d / 2**i); the repetition counts and round budget are derived
    from d once and held fixed across epochs, which keeps per-epoch
    cost proportional to the density and hence geometrically
    increasing. The root counts its spanning tree after each epoch and
    the first epoch whose tree reaches n_i nodes is accepted; epochs
    are separated by more than d idle units so no message can leak
    between them. Gives up once the guess would drop below 2.
    """
    if config.d < 2:
        raise ValueError(
            f"estimate_n needs d >= 2 (the first guess is d), got {config.d}"
        )
    if true_n < 2:
        raise ValueError(f"need at least two processors, got {true_n}")
    if rng is None:
        rng = spawn_rng(config.seed)
    d = config.d
    # repetition counts and round budget depend only on d (the known
    # quantity); only the density tracks the current guess
    shape = pipeline_params(d, d, scale=config.scale, columns=config.columns)
    max_epochs = math.floor(math.log2(d)) + 1
    guesses = [math.ceil(d / 2**epoch) for epoch in range(max_epochs)]
    guesses = [guess for guess in guesses if guess >= 2]
    epochs = [
        replace(shape, draws=row_draws(shape.columns, (1.0 - beta) / 2.0, config.scale))
        for beta in (math.log(guess, d) for guess in guesses)
    ]
    # the last epoch is the densest
    _check_draw_fits(true_n, epochs[-1])

    offsets = draw_offsets(true_n, d, rng)
    total_cost = np.zeros(true_n, dtype=np.int64)
    per_epoch_max: list[int] = []

    for epoch, (guess, params) in enumerate(zip(guesses, epochs)):
        matrix = build_pipeline_matrix(true_n, params, rng)
        matrix = matrix.with_offsets(offsets)
        states = make_node_states(true_n, offsets, rng)
        result = run_sync(
            matrix,
            states,
            params.rounds,
            exclusive=config.exclusive,
            backoff_rounds=config.backoff_rounds,
            transmit_delay=config.transmit_delay,
            rng=rng,
        )
        total_cost += result.per_node_radio_cost
        per_epoch_max.append(int(result.per_node_radio_cost.max()))

        stats = graph_stats(result.comm_graph, root=result.root_index)
        tree_size = len(stats.spanning_tree)
        if tree_size >= guess:
            synced = sum(1 for st in states if st.synchronized)
            return EstimateResult(
                estimate=guess,
                accepted=True,
                epochs_run=epoch + 1,
                synchronized_fraction=synced / true_n,
                per_node_cost=total_cost,
                per_epoch_max_cost=per_epoch_max,
            )
    return EstimateResult(
        estimate=None,
        accepted=False,
        epochs_run=len(guesses),
        synchronized_fraction=0.0,
        per_node_cost=total_cost,
        per_epoch_max_cost=per_epoch_max,
    )
