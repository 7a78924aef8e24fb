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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# resolve_backoff_unit stays importable here: the benchmark tracer wraps
# it by this name, though the flood resolves whole passes at once
from .netsim import resolve_backoff, resolve_backoff_unit  # noqa: F401
from .randsched import (
    CommGraph,
    ScheduleMatrix,
    clamped_log2,
    detect_meetings,
    draw_rows,
    graph_from_meetings,
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
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds}")


@dataclass
class NodeState:
    """Algorithm state of one node.

    ``ident`` is the node's random identifier, ``max_seen`` the largest
    identifier heard so far. The believed root clock is carried as its
    *origin* (the global time at which that clock read zero), so the
    replica keeps running while it propagates; ``root_time`` and
    ``own_time`` are filled in with concrete readings when a run
    finishes. ``hops`` counts adoptions between the root and this node,
    for transmission-delay accounting.
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

    def snapshot(self) -> tuple[int, int, int, int]:
        """Message payload: (sender index, max ident, root origin, hops)."""
        return (self.index, self.max_seen, self.root_origin, self.hops)


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
    amplification: Optional[int] = None,
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
    if amplification is None:
        amplification = math.ceil(log_n1)
    if rounds is None:
        rounds = math.ceil(clamped_log2(n)) + 10
    return PipelineParams(
        columns=columns,
        draws=draws,
        stage_windows=stage_windows,
        amplification=amplification,
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
    independently generated matrices, drawn node-major (one rng call
    per row) and deduplicated in one 2-D pass by
    :func:`~radiosync.randsched.draw_rows`, O(n * windows * draws *
    log draws).
    """
    w, cols, k = params.windows, params.columns, params.draws
    positions = draw_rows(n, w, cols, k, rng)
    return ScheduleMatrix(n=n, columns=w * cols, positions=positions)


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
    while True:
        idents = rng.integers(1, 1 << ID_BITS, size=n, dtype=np.int64)
        if len(set(int(x) for x in idents)) == n:
            break
    return [
        NodeState(index=i, ident=int(idents[i]), start_offset=int(offsets[i]))
        for i in range(n)
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


def _deliver_meetings(
    meetings: Sequence[tuple[int, tuple[int, ...]]],
    states: list[NodeState],
    *,
    exclusive: bool,
    backoff_rounds: int,
    transmit_delay: int,
    rng: Optional[np.random.Generator],
    trace: Optional[list] = None,
    time_base: int = 0,
) -> bool:
    """One pass over the meeting sequence; returns whether any state
    changed.

    In the base model every participant hears every other; in the
    interference model :func:`~radiosync.netsim.resolve_backoff` draws
    the back-off coins a chunk of units ahead, in meeting order, which
    consumes the rng exactly as resolving unit after unit would. Each
    receiver adopts the best message heard in the unit, the largest
    identifier above its own, read from the snapshots taken before the
    unit; updates apply when the unit closes. Senders carrying the same
    identifier tie, and the first of them in the iteration order of
    ``heard_from`` wins, which sets the receiver's ``hops`` (and its
    clock when ``transmit_delay`` > 0). That set is filled in
    winning-slot order (participant order in the base model); its
    iteration order follows the values' hash slots, with insertion
    order deciding among colliding ones. When ``trace`` is given, one
    (t, awake, transmitters, deliveries) row is appended per meeting
    unit; receivers that hear only collisions are recorded with
    an empty sender set.
    """
    senders = (participants for _col, participants in meetings)
    if exclusive and meetings:
        if rng is None:
            raise ValueError("interference mode needs an rng for back-off")
        senders = resolve_backoff(senders, backoff_rounds, rng)
    changed = False
    for (col, participants), heard in zip(meetings, senders):
        heard_from = set(heard)
        if trace is not None:
            delivered = {
                r: tuple(sorted(heard_from - {r})) for r in participants
            }
            trace.append(
                (
                    time_base + col,
                    participants,
                    tuple(sorted(heard_from)) if exclusive else participants,
                    delivered,
                )
            )
        if not heard_from:
            continue
        snapshots = {i: states[i].snapshot() for i in participants}
        updates = []
        for receiver in participants:
            best = None
            for sender in heard_from:
                if sender == receiver:
                    continue
                msg = snapshots[sender]
                if msg[1] > states[receiver].max_seen and (
                    best is None or msg[1] > best[1]
                ):
                    best = msg
            if best is not None:
                updates.append((receiver, best))
        for receiver, (_s, max_ident, origin, hops) in updates:
            st = states[receiver]
            st.max_seen = max_ident
            # a running replica set to (received value + delay) at
            # delivery time keeps this origin from then on
            st.root_origin = origin - transmit_delay
            st.hops = hops + 1
            changed = True
    return changed


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
    the accompanying clock plus the per-hop transmission delay. Copies
    of the schedule beyond the point where a full pass changes nothing
    are skipped (they are no-ops by idempotence), but are still paid
    for in radio cost. Success requires every node to end at the
    global maximum with an identical delay-adjusted clock; otherwise
    the unreached nodes are reported.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    meetings = detect_meetings(matrix, exclusive=False)
    if exclusive:
        graph_meetings = [m for m in meetings if len(m[1]) == 2]
    else:
        graph_meetings = meetings
    graph = graph_from_meetings(matrix.n, graph_meetings)

    global_max = max(st.ident for st in states)
    rounds_used = 0
    for copy in range(rounds):
        rounds_used += 1
        changed = _deliver_meetings(
            meetings,
            states,
            exclusive=exclusive,
            backoff_rounds=backoff_rounds,
            transmit_delay=transmit_delay,
            rng=rng,
            trace=trace,
            time_base=copy * matrix.columns,
        )
        # every node at the global maximum is a true fixpoint in either
        # mode; an unchanged pass proves one only when deliveries are
        # deterministic (base model)
        if all(st.max_seen == global_max for st in states):
            break
        if not exclusive and not changed:
            break

    root_index = max(range(len(states)), key=lambda i: states[i].ident)
    root_ident = states[root_index].ident
    end_time = int(matrix.offsets.max()) + matrix.columns * rounds if (
        matrix.offsets is not None
    ) else matrix.columns * rounds

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
    and, in interference mode, the back-off coins.
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
    columns = config.columns if config.columns is not None else 4 * d
    # repetition counts and round budget depend only on d (the known
    # quantity); only the density tracks the current guess
    uniform_k = repetition_constant(d)
    log_d1 = clamped_log2(d - 1)
    stage_windows = math.ceil(uniform_k * log_d1)
    amplification = math.ceil(log_d1)
    rounds = math.ceil(clamped_log2(d)) + 10

    offsets = draw_offsets(true_n, d, rng)
    total_cost = np.zeros(true_n, dtype=np.int64)
    per_epoch_max: list[int] = []

    max_epochs = math.floor(math.log2(d)) + 1
    epochs_run = 0
    for epoch in range(max_epochs):
        guess = math.ceil(d / 2**epoch)
        if guess < 2:
            break
        epochs_run += 1
        beta = math.log(guess, d)
        params = PipelineParams(
            columns=columns,
            draws=row_draws(columns, (1.0 - beta) / 2.0, config.scale),
            stage_windows=stage_windows,
            amplification=amplification,
            rounds=rounds,
            repetition_k=uniform_k,
        )
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
        epochs_run=epochs_run,
        synchronized_fraction=0.0,
        per_node_cost=total_cost,
        per_epoch_max_cost=per_epoch_max,
    )
