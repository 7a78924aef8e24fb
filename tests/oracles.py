"""Slow reference implementations of the library's fast paths.

Each function is the straightforward loop the library once used (the
floods with their tie-break made explicit, the estimation loop syncing
every epoch), or a helper that feeds or finishes one; the tests in
``test_fast_paths.py`` and ``test_protocol.py`` check that the fast
paths return exactly what these do.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from radiosync import protocol
from radiosync.netsim import resolve_backoff
from radiosync.protocol import NodeReading
from radiosync.randsched import CommGraph, GraphStats, Meetings, ScheduleMatrix, reached_from
from radiosync.seeding import spawn_rng


def matrix(n: int, columns: int, rows, offsets=None) -> ScheduleMatrix:
    """The :class:`ScheduleMatrix` of rows given one by one: their
    positions laid back to back, with the row starts. An empty row adds
    nothing to the flat positions, so it cannot turn them into floats."""
    rows = [np.asarray(row) for row in rows]
    filled = [row for row in rows if len(row)] or [np.zeros(0, dtype=np.int64)]
    positions = np.concatenate(filled)
    starts = np.cumsum([0] + [len(row) for row in rows])
    return ScheduleMatrix(n, columns, positions, offsets, starts=starts)


def rows(m: ScheduleMatrix) -> list[np.ndarray]:
    """The matrix's rows, as views of its flat positions."""
    return np.split(m.positions, m.starts[1:-1])


def detect_meetings(m: ScheduleMatrix):
    """One Python step per awake global column."""
    if m.offsets is None:
        raise ValueError("offsets must be set before detecting meetings")
    sizes = [len(row) for row in rows(m)]
    if sum(sizes) == 0:
        return []
    cols = np.concatenate([row + m.offsets[r] for r, row in enumerate(rows(m))])
    owner = np.repeat(np.arange(m.n, dtype=np.int64), sizes)
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    owner = owner[order]
    boundaries = np.flatnonzero(np.diff(cols)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [cols.size]))
    meetings = []
    for lo, hi in zip(starts, ends):
        count = hi - lo
        if count < 2:
            continue
        meetings.append((int(cols[lo]), tuple(int(x) for x in owner[lo:hi])))
    return meetings


def graph_from_meetings(meetings) -> dict[tuple[int, int], int]:
    """Dict-based graph build: every pair of every meeting, first
    column wins. Returns the witness dict, each edge (i < j) mapped to
    its first column, in insertion order."""
    witness: dict[tuple[int, int], int] = {}
    for col, participants in meetings:
        for a in range(len(participants)):
            for b in range(a + 1, len(participants)):
                edge = (participants[a], participants[b])
                if edge not in witness:
                    witness[edge] = col
    return witness


def build_comm_graph(m: ScheduleMatrix):
    return graph_from_meetings(detect_meetings(m))


def graph(n: int, witness) -> CommGraph:
    """The :class:`CommGraph` of a witness dict (edge -> column): each
    edge both ways, grouped by (receiver, sender) with ``np.lexsort``."""
    pairs = np.array(list(witness), dtype=np.int64).reshape(-1, 2)
    senders = np.concatenate((pairs[:, 0], pairs[:, 1]))
    receivers = np.concatenate((pairs[:, 1], pairs[:, 0]))
    cols = np.array(list(witness.values()) * 2, dtype=np.int64)
    order = np.lexsort((senders, receivers))
    return CommGraph._from_pairs(n, senders[order], receivers[order], cols[order])


def same_graph(a: CommGraph, b: CommGraph) -> bool:
    """Whether two graphs have the same nodes, CSR arrays and first
    columns; :class:`CommGraph` itself defines no ``==``."""
    return a.n == b.n and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("indptr", "indices", "first_cols")
    )


def adjacency(g: CommGraph) -> list[list[int]]:
    """Sorted neighbour lists, from the edges of ``g.witness``."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.witness:
        adj[i].append(j)
        adj[j].append(i)
    return [sorted(nbrs) for nbrs in adj]


def _bfs_depths(adj: list[list[int]], source: int) -> list[int]:
    depth = [-1] * len(adj)
    depth[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return depth


def graph_stats(g: CommGraph, root: int = 0) -> GraphStats:
    """The nodes one BFS from ``root`` reaches, and the diameter as the
    largest depth of one BFS from every source."""
    adj = adjacency(g)
    reached = sum(depth >= 0 for depth in _bfs_depths(adj, root))
    connected = reached == g.n
    diameter: float = 0.0
    if not connected:
        diameter = math.inf
    else:
        for src in range(g.n):
            depths = _bfs_depths(adj, src)
            diameter = max(diameter, max(depths))
    return GraphStats(connected=connected, diameter=diameter, reached=reached)


def draw_rows(
    n: int, windows: int, columns: int, draws: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-row ``np.unique`` over ``windows`` back-to-back windows."""
    window_starts = np.arange(windows, dtype=np.int64) * columns
    positions = []
    for _ in range(n):
        raw = rng.integers(0, columns, size=(windows, draws)) + window_starts[:, None]
        positions.append(np.unique(raw))
    return positions


def heard_counts(k: int, slots: int) -> np.ndarray:
    """``netsim._heard_counts`` one slot at a time: each slot moves
    (k - a) * 2**-k of the mass at heard count a to a + 1, stopping
    early once nothing moves."""
    move = (k - np.arange(k + 1)) * math.ldexp(1.0, -k)
    dist = np.zeros(k + 1)
    dist[0] = 1.0
    for _ in range(slots):
        step = dist * move
        if not step.any():
            break
        dist -= step
        dist[1:] += step[:-1]
    return dist


def as_meetings(groups) -> Meetings:
    """A :class:`Meetings` record of ``(column, participants)`` groups,
    given column-sorted with sorted participants."""
    sizes = np.array([len(who) for _col, who in groups], dtype=np.int64)
    return Meetings(
        cols=np.array([col for col, _who in groups], dtype=np.int64),
        starts=np.cumsum(sizes) - sizes,
        sizes=sizes,
        owners=np.array([r for _col, who in groups for r in who], dtype=np.int64),
    )


def arrivals(key, senders, cols, period, never):
    """``protocol._arrivals`` one delivery at a time: the sender's key
    ``time * n + hops`` split into copy start, column and hops per
    delivery, one hop added."""
    n = key.size
    time, hops = key[senders] // n, key[senders] % n
    at = time % period
    time = time - at + cols + np.where(cols > at, 0, period)
    return np.minimum(time * n + hops + 1, never * n)


def relax_every_delivery(key, deliveries, period, never):
    """``protocol._relax`` without its cut: every delivery (senders,
    receivers, cols) on every pass, each pass's minimum taken with the
    starting keys, until nothing moves. A pass takes each receiver's
    minimum with ``np.minimum.at``, not over grouped runs, so the
    deliveries need not be grouped. Arrivals come from
    ``protocol._arrivals`` looked up at each pass, so a test can count
    the passes."""
    senders, receivers, cols = deliveries
    start = key
    while True:
        nxt = start.copy()
        arrive = protocol._arrivals(key, senders, cols, period, never)
        np.minimum.at(nxt, receivers, arrive)
        if np.array_equal(nxt, key):
            return key
        key = nxt


def deadlines(open_, senders, receivers, cols, period, never):
    """For every node, the label before which it must hold a message
    for that message to reach an ``open_`` node by a time-respecting
    path within the budget; -1 where none can. Latest departures,
    relaxed backwards one delivery at a time (the latest copy whose
    column ``cols`` still comes before the receiver's deadline) until
    nothing moves."""
    deadline = np.where(open_, never, -1)
    while True:
        copy = (deadline[receivers] - 1 - cols) // period
        nxt = deadline.copy()
        np.maximum.at(nxt, senders, np.where(copy >= 0, copy * period + cols, -1))
        if np.array_equal(nxt, deadline):
            return deadline
        deadline = nxt


@dataclass
class Node:
    """One radio of the oracle floods, updated in place; it starts
    holding its own identifier, 0 hops out, and its root clock's origin
    starts at its start offset."""

    ident: int
    start_offset: int
    max_seen: int = field(init=False)
    hops: int = field(init=False, default=0)
    root_origin: int = field(init=False)
    synchronized: bool = False
    root_time: int = 0

    def __post_init__(self) -> None:
        self.max_seen = self.ident
        self.root_origin = self.start_offset

    def reading(self) -> NodeReading:
        """What ``run_sync`` reports for this radio."""
        return NodeReading(*(getattr(self, name) for name in NodeReading._fields))


def nodes(m: ScheduleMatrix, idents) -> list[Node]:
    """One :class:`Node` per row of ``m``, at that row's offset, with
    its identifier from ``idents``."""
    return [Node(ident, int(offset)) for ident, offset in zip(idents, m.offsets.tolist())]


def deliver_unit(participants, heard_from, states, transmit_delay):
    """One meeting unit: each receiver adopts the largest identifier
    above its own among the senders it heard, from the one with the
    fewest hops and then the lowest index, reading the states as they
    were before the unit. Returns whether any state changed."""
    snapshots = {
        i: (states[i].max_seen, states[i].root_origin, states[i].hops)
        for i in participants
    }
    updates = []
    for receiver in participants:
        offers = [
            (snapshots[s][0], -snapshots[s][2], -s)
            for s in heard_from
            if s != receiver and snapshots[s][0] > states[receiver].max_seen
        ]
        if offers:
            updates.append((receiver, snapshots[-max(offers)[2]]))
    for receiver, (max_ident, origin, hops) in updates:
        st = states[receiver]
        st.max_seen = max_ident
        st.root_origin = origin - transmit_delay
        st.hops = hops + 1
    return bool(updates)


def deliver_meetings(meetings, states, *, transmit_delay, trace=None, time_base=0):
    """The base-model flood of one schedule copy, meeting after
    meeting: every participant hears every other."""
    changed = False
    for col, participants in meetings:
        if trace is not None:
            trace.append((time_base + col, participants, participants))
        changed |= deliver_unit(participants, participants, states, transmit_delay)
    return changed


def flood_base(m: ScheduleMatrix, states, rounds, *, transmit_delay, trace=None):
    """``run_sync``'s copy loop in the base model over the per-meeting
    flood: stop once every node holds the global maximum or a copy
    changes nothing. Returns the number of copies run."""
    meetings = detect_meetings(m)
    global_max = max(st.ident for st in states)
    for copy in range(rounds):
        changed = deliver_meetings(
            meetings,
            states,
            transmit_delay=transmit_delay,
            trace=trace,
            time_base=copy * m.columns,
        )
        if all(st.max_seen == global_max for st in states) or not changed:
            break
    return copy + 1


def deliver_meetings_per_unit(
    meetings, states, *, backoff_rounds, transmit_delay, rng, trace=None, time_base=0
):
    """The interference flood delivering one unit at a time. The copy's
    winners are drawn as ``run_sync`` draws them, by one
    ``resolve_backoff`` call over the units' sizes in meeting order."""
    sizes = [len(participants) for _col, participants in meetings]
    won = iter(resolve_backoff(sizes, backoff_rounds, rng).tolist())
    changed = False
    for col, participants in meetings:
        heard_from = {s for s in participants if next(won)}
        if trace is not None:
            trace.append((time_base + col, participants, tuple(sorted(heard_from))))
        changed |= deliver_unit(participants, heard_from, states, transmit_delay)
    return changed


def flood_exclusive(
    m: ScheduleMatrix, states, rounds, *, backoff_rounds, transmit_delay, rng, trace=None
):
    """``run_sync``'s copy loop in interference mode over the per-unit
    flood: stop once every node holds the global maximum. Returns the
    number of copies run."""
    meetings = detect_meetings(m)
    global_max = max(st.ident for st in states)
    for copy in range(rounds):
        deliver_meetings_per_unit(
            meetings,
            states,
            backoff_rounds=backoff_rounds,
            transmit_delay=transmit_delay,
            rng=rng,
            trace=trace,
            time_base=copy * m.columns,
        )
        if all(st.max_seen == global_max for st in states):
            break
    return copy + 1


def finish(m: ScheduleMatrix, states, rounds, *, transmit_delay):
    """``run_sync``'s readings once the flood is over: every clock read
    at the end of the last paid copy, and a node synchronized iff it
    holds the root's identifier and, net of the per-hop delay, the
    root's clock."""
    root = max(states, key=lambda st: st.ident)
    end_time = int(m.offsets.max()) + m.columns * rounds
    for st in states:
        st.root_time = end_time - st.root_origin
        adjusted = st.root_origin + transmit_delay * st.hops
        st.synchronized = st.max_seen == root.ident and adjusted == root.start_offset


def estimate_every_epoch(config, true_n, rng=None):
    """``estimate_n``'s epoch loop syncing every epoch in full, its
    guess above ``true_n`` or not, and reading each root's BFS count.
    The input checks are left out: call it on inputs ``estimate_n``
    accepts."""
    if rng is None:
        rng = spawn_rng(config.seed)
    d = config.d
    shape = protocol.pipeline_params(d, d, scale=config.scale, columns=config.columns)
    guesses = [math.ceil(d / 2**epoch) for epoch in range(math.floor(math.log2(d)) + 1)]
    guesses = [guess for guess in guesses if guess >= 2]
    offsets = protocol.draw_offsets(true_n, d, rng)
    total_cost = np.zeros(true_n, dtype=np.int64)
    per_epoch_max = []
    for epoch, guess in enumerate(guesses):
        exponent = (1.0 - math.log(guess, d)) / 2.0
        params = replace(
            shape, draws=protocol.row_draws(shape.columns, exponent, config.scale)
        )
        matrix = protocol.build_pipeline_matrix(true_n, params, rng).with_offsets(offsets)
        result = protocol.run_sync(
            matrix,
            protocol.draw_identifiers(true_n, rng),
            params.rounds,
            exclusive=config.exclusive,
            backoff_rounds=config.backoff_rounds,
            transmit_delay=config.transmit_delay,
            rng=rng,
        )
        total_cost += result.per_node_radio_cost
        per_epoch_max.append(int(result.per_node_radio_cost.max()))
        if reached_from(result.comm_graph, root=result.root_index) >= guess:
            return protocol.EstimateResult(
                estimate=guess,
                accepted=True,
                epochs_run=epoch + 1,
                synchronized_fraction=int(result.synchronized.sum()) / true_n,
                per_node_cost=total_cost,
                per_epoch_max_cost=per_epoch_max,
            )
    return protocol.EstimateResult(
        estimate=None,
        accepted=False,
        epochs_run=len(guesses),
        synchronized_fraction=0.0,
        per_node_cost=total_cost,
        per_epoch_max_cost=per_epoch_max,
    )
