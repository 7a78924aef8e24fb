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
the nodes its BFS reaches; the first guess that count covers is accepted.
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
    Meetings,
    ScheduleMatrix,
    _integers,
    _radix_order,
    clamped_log2,
    detect_meetings,
    draw_rows,
    graph_from_pairs,
    graph_stats,  # noqa: F401  (the benchmark tracer wraps it by this name)
    reached_from,
    repetition_constant,
    row_draws,
)
from .seeding import refuse_beyond_memory, spawn_rng


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


@dataclass(frozen=True)
class NodeState:
    """The nodes' state at the start of a run, one array entry per
    schedule row: each node's random ``ident``, the largest identifier
    it has heard (``max_seen``, ``ident`` by default) and the adoptions
    between that identifier's owner and the node (``hops``, 0 by
    default). The believed root clock, carried as its *origin* (the
    time at which it read zero), starts at the row's schedule offset."""

    ident: np.ndarray
    max_seen: Optional[np.ndarray] = None
    hops: Optional[np.ndarray] = None


NodeReading = namedtuple("NodeReading", "max_seen root_origin hops synchronized root_time")
NodeReading.__doc__ = "One node's entries of a :class:`PipelineResult`'s arrays."


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
    """Refuse a schedule draw that would exceed the machine's physical
    memory, before anything is allocated. The price is 8 bytes a draw:
    the raw int32 buffer of :func:`~radiosync.randsched.draw_rows` plus
    its deduplicated copy, or the raw buffer alone where positions need
    int64."""
    refuse_beyond_memory(
        n * params.windows * params.draws * 8,
        f"schedule draw too large: n={n} rows x {params.windows} windows x "
        f"{params.draws} draws",
    )


def draw_offsets(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Adversarial start offsets, uniform in [0, d] by default."""
    return rng.integers(0, d + 1, size=n, dtype=np.int64)


def make_node_states(n: int, rng: np.random.Generator) -> NodeState:
    """Fresh states of ``n`` nodes with unique random identifiers.

    Identifier collisions are astronomically unlikely at 63 bits; if
    one is ever detected the batch is redrawn, so uniqueness is an
    enforced invariant rather than a probabilistic one.
    """
    while True:
        idents = rng.integers(1, 1 << ID_BITS, size=n, dtype=np.int64)
        if np.unique(idents).size == n:
            return NodeState(idents)


@dataclass
class PipelineResult:
    """Outcome of one synchronization run. The per-node results are
    arrays, one entry per schedule row: the final ``max_seen``,
    ``root_origin`` and ``hops`` of :class:`NodeState`, whether the node
    is ``synchronized``, and ``root_time``, its root clock read at the
    end of the last paid copy."""

    comm_graph: CommGraph
    rounds_used: int
    per_node_radio_cost: np.ndarray
    success: bool
    root_index: int
    root_ident: int
    unreached: frozenset[int]
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
    label: np.ndarray, senders: np.ndarray, cols: np.ndarray, period: int, never: int
) -> np.ndarray:
    """Arrival labels of deliveries at ``cols`` from ``senders``, where
    node v adopted at ``label[v]``: the column in the sender's own copy
    if it comes later, in the next copy otherwise (-1, a holder, means
    copy 0), and ``never`` once past the budget. Each label is split
    into its copy's start and its column once per node, not once per
    delivery."""
    at = label % period
    arrive = (label - at)[senders]
    arrive += cols
    arrive += (cols <= at[senders]) * period
    return np.minimum(arrive, never, out=arrive)


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
        arrive = _arrivals(label, senders, cols, period, never)
        nxt = label.copy()
        nxt[into] = np.minimum(label[into], np.minimum.reduceat(arrive, heads))
        if np.array_equal(nxt, label):
            return label, arrive
        label = nxt


def _tight(
    deliveries: tuple[np.ndarray, ...], label: np.ndarray, arrive: np.ndarray, never: int
) -> tuple[np.ndarray, np.ndarray]:
    """The senders and receivers of the deliveries whose arrival is
    their receiver's label, still grouped by receiver: those a receiver
    may adopt from."""
    senders, receivers = deliveries[:2]
    tight = (arrive == label[receivers]) & (arrive < never)
    return senders[tight], receivers[tight]


def _chains(
    senders: np.ndarray, receivers: np.ndarray, source: np.ndarray, hops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hop count of every node reached in a round, and the holder its
    chain of adoptions starts at, over the round's :func:`_tight`
    deliveries. A receiver adopts from the sender with the fewest hops,
    then the lowest index. Those deliveries form a DAG (labels grow
    along it), over which (hops + 1, sender) keys are relaxed; the
    chosen senders are then followed up by pointer jumping."""
    n = source.size
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


def _adopt(
    out: tuple[np.ndarray, ...],
    held: tuple[np.ndarray, ...],
    take: np.ndarray,
    chains: tuple[np.ndarray, np.ndarray],
    transmit_delay: int,
) -> None:
    """Give the ``take`` nodes, in ``out`` (which may be ``held``), the
    ``held`` value at the start of their :func:`_chains` chain, its
    origin minus the delay per hop (a running replica set to the
    received value plus the delay keeps that origin from then on), and
    their hop count."""
    value, origin, hops = held
    level, root = chains
    results = value[root], origin[root] - transmit_delay * (level - hops[root]), level
    for array, result in zip(out, results):
        array[take] = result[take]


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
    next one. Each round floods one held identifier, from the largest
    down: one multi-source earliest-arrival relaxation (:func:`_relax`
    over the deliveries grouped by receiver, :func:`_by_receiver`) from
    its holders, assigned to the nodes it reaches that no larger
    identifier reached. That is exact under the budget: a larger
    identifier held by any node on a path would reach the end of that
    path too, so an unassigned node's paths, and the senders it adopts
    from, are never overtaken. A receiver adopts from one of the senders
    whose delivery is its arrival (:func:`_chains`, :func:`_adopt`).

    After a round, :func:`_relax` in reversed time (ends swapped,
    column ``period - 1 - c``) from the unassigned nodes gives each
    node's latest departure mirrored: a message it holds before label
    ``never - 1 - back`` still reaches an unassigned node in time. The
    next round floods the largest identifier below this one that a node
    with ``back < never`` holds, over the deliveries that leave before
    their receiver's deadline. So every round assigns a node, and the
    identifier strictly descends.
    """
    value, origin, hops = held
    n = value.size
    never = copies * period
    deliveries = _by_receiver(senders, receivers, cols, n)
    senders, receivers, cols = deliveries[:3]
    open_ = np.ones(n, dtype=bool)
    adopted = np.full(n, -1, dtype=np.int64)
    out = value.copy(), origin.copy(), hops.copy()
    active, backward = deliveries, None
    bar = value.max()
    while True:
        source = value == bar
        label, arrive = _relax(np.where(source, -1, never), active, period, never)
        take = open_ & (label < never)
        chains = _chains(*_tight(active, label, arrive, never), source, hops)
        _adopt(out, held, take, chains, transmit_delay)
        adopted[take] = label[take]
        open_ &= ~take
        if not open_.any():
            break
        if backward is None:
            backward = _by_receiver(receivers, senders, period - 1 - cols, n)
        back = _relax(np.where(open_, -1, never), backward, period, never)[0]
        # paths that cannot reach an unassigned node in time end at
        # assigned nodes, whose results stand: leave them out
        keep = back[receivers] + cols < never - 1
        active = _by_receiver(senders[keep], receivers[keep], cols[keep], n)
        bar = value[(back < never) & (value < bar)].max()
    for array, result in zip(held, out):
        array[:] = result
    return adopted


def _trace_rows(meetings: Meetings, won: Optional[np.ndarray], time_base: int) -> list:
    """One (t, awake, transmitters) row per meeting unit, both node
    tuples ascending. Every participant transmits unless ``won`` (one
    bool per owner slot) names the sole transmitters; each awake radio
    hears every transmitter but itself."""
    owners = meetings.owners.tolist()
    sent = owners if won is None else np.where(won, meetings.owners, -1).tolist()
    rows = []
    for col, lo, k in zip(
        meetings.cols.tolist(), meetings.starts.tolist(), meetings.sizes.tolist()
    ):
        heard = tuple(s for s in sent[lo : lo + k] if s >= 0)
        rows.append((time_base + col, tuple(owners[lo : lo + k]), heard))
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
    per-node (max_seen, root_origin, hops), updated in place. In the
    base model every participant hears every other, so the flood is one
    relaxation over all copies; the copies used follow from the last
    copy L in which any node adopted: L + 1 when every node ends at
    ``global_max``, else one more pass that changes nothing,
    min(rounds, L + 2). In the interference model each copy draws its
    back-off winners with :func:`~radiosync.netsim.resolve_backoff`;
    its deliveries are every sole transmitter to the rest of its unit.
    Each copy's deliveries are relaxed once, from the ``global_max``
    holders, on the labels of the copies before it. Copies are drawn
    until ``global_max`` has reached every node; if no node holds more,
    those labels are :func:`_spread`'s first and only round, so the
    copies' tight deliveries give the chains (:func:`_chains`,
    :func:`_adopt`) and nothing is relaxed again. Otherwise the copies
    drawn are laid end to end and flooded by :func:`_spread`, as one
    copy of a longer period. When ``trace`` is given, one row per
    meeting unit and copy is appended (see :func:`_trace_rows`), at
    time ``copy * columns + column``.
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
    # the flood from the ``global_max`` holders alone decides the stop
    horizon = rounds * period
    source = held[0] == global_max
    reach = np.where(source, -1, horizon)
    can_stop = not (held[0] > global_max).any()
    heard_per_copy, tight_per_copy = [], []
    for copy in range(rounds):
        won = resolve_backoff(meetings.sizes, backoff_rounds, rng)
        heard = won[slots]
        part = senders[heard], receivers[heard], cols[heard] + copy * period
        part = _by_receiver(*part, reach.size)
        heard_per_copy.append(part[:3])
        if trace is not None:
            trace.extend(_trace_rows(meetings, won, copy * columns))
        # a later copy arrives after every label set so far, so this
        # copy's labels and tight deliveries are final
        reach, arrive = _relax(reach, part, horizon, horizon)
        tight_per_copy.append(_tight(part, reach, arrive, horizon))
        if can_stop and (reach < horizon).all():
            # global_max, the largest value, reached every node: the labels
            # are _spread's first and only round, and each receiver's
            # tight deliveries lie in one copy, so they stay grouped
            tight = (np.concatenate(arrays) for arrays in zip(*tight_per_copy))
            chains = _chains(*tight, source, held[2])
            _adopt(held, held, slice(None), chains, transmit_delay)
            return copy + 1
    # the copies, laid end to end, are one copy of a longer period
    deliveries = (np.concatenate(arrays) for arrays in zip(*heard_per_copy))
    _spread(*deliveries, horizon, 1, held, transmit_delay)
    return rounds


def _node_array(name: str, values, n: int) -> np.ndarray:
    """``values`` as a 1-D int64 array of one entry per node."""
    array = _integers(name, values)
    if array.shape != (n,):
        raise ValueError(f"{name} must be a 1-D array of {n} entries, got {array.shape}")
    return array


def run_sync(
    matrix: ScheduleMatrix,
    states: NodeState,
    rounds: int,
    *,
    exclusive: bool = False,
    backoff_rounds: int = 1,
    transmit_delay: int = 0,
    rng: Optional[np.random.Generator] = None,
    trace: Optional[list] = None,
) -> PipelineResult:
    """Flood the maximal identifier and its clock for ``rounds`` copies
    of the schedule, from the nodes' ``states``.

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
    the unreached nodes are reported. The flood updates copies of the
    ``states`` arrays; every per-node result is an array.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if exclusive and backoff_rounds < 1:
        raise ValueError(f"backoff_rounds must be positive, got {backoff_rounds}")
    if transmit_delay < 0:
        raise ValueError(f"transmit_delay must be non-negative, got {transmit_delay}")
    n = matrix.n
    ident = _node_array("ident", states.ident, n)
    max_seen = ident if states.max_seen is None else states.max_seen
    max_seen = _node_array("max_seen", max_seen, n)
    hops = np.zeros(n, dtype=np.int64) if states.hops is None else states.hops
    hops = _node_array("hops", hops, n)
    if hops.min(initial=0) < 0:
        raise ValueError(f"hops must be non-negative, got {hops.min()}")
    meetings = detect_meetings(matrix)
    slots, dst, which = meetings.pairs()
    senders, receivers = meetings.owners[slots], meetings.owners[dst]
    cols = meetings.cols[which]
    edges = meetings.sizes[which] == 2 if exclusive else slice(None)
    graph = graph_from_pairs(n, senders[edges], receivers[edges], cols[edges])

    held = max_seen.copy(), matrix.offsets.copy(), hops.copy()
    root_index = int(ident.argmax())
    root_ident = int(ident[root_index])
    rounds_used = _deliver_meetings(
        meetings,
        (senders, receivers, cols, slots),
        held,
        rounds,
        global_max=root_ident,
        exclusive=exclusive,
        backoff_rounds=backoff_rounds,
        transmit_delay=transmit_delay,
        rng=rng,
        columns=matrix.columns,
        trace=trace,
    )
    max_seen, root_origin, hops = held
    end_time = int(matrix.offsets.max()) + matrix.columns * rounds
    adjusted = root_origin + transmit_delay * hops
    synchronized = (max_seen == root_ident) & (adjusted == matrix.offsets[root_index])
    unreached = frozenset(np.flatnonzero(~synchronized).tolist())

    expansion = backoff_rounds if exclusive else 1
    cost = matrix.densities() * rounds * expansion
    return PipelineResult(
        comm_graph=graph,
        rounds_used=rounds_used,
        per_node_radio_cost=cost,
        success=not unreached,
        root_index=root_index,
        root_ident=root_ident,
        unreached=unreached,
        max_seen=max_seen,
        root_origin=root_origin,
        hops=hops,
        synchronized=synchronized,
        root_time=end_time - root_origin,
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
    return run_sync(
        matrix,
        make_node_states(config.n, rng),
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
    increasing. The root counts the nodes its BFS reaches after each
    epoch and the first epoch whose count reaches n_i is accepted;
    epochs are separated by more than d idle units so no message can
    leak between them. Gives up once the guess would drop below 2. The
    count, stage shape and round budget come from d alone, so a config
    that sets ``beta``, ``n``, ``rounds`` or ``repetition_k`` is refused.
    """
    if config.d < 2:
        raise ValueError(
            f"estimate_n needs d >= 2 (the first guess is d), got {config.d}"
        )
    if true_n < 2:
        raise ValueError(f"need at least two processors, got {true_n}")
    for name in ("beta", "n", "rounds", "repetition_k"):
        value = getattr(config, name)
        if value is not None:
            raise ValueError(
                f"estimate_n derives {name} from d; leave it unset, got {value}"
            )
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
        result = run_sync(
            matrix,
            make_node_states(true_n, rng),
            params.rounds,
            exclusive=config.exclusive,
            backoff_rounds=config.backoff_rounds,
            transmit_delay=config.transmit_delay,
            rng=rng,
        )
        total_cost += result.per_node_radio_cost
        per_epoch_max.append(int(result.per_node_radio_cost.max()))

        if reached_from(result.comm_graph, root=result.root_index) >= guess:
            synced = int(result.synchronized.sum())
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
