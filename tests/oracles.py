"""Slow reference implementations of the library's fast paths.

Each function is the straightforward loop the library once used (the
floods with their tie-break made explicit), or a helper that feeds or
finishes one; the hypothesis tests in ``test_fast_paths.py`` check that
the fast paths return exactly what these do, down to dict insertion
order.
"""

import math
from typing import Optional

import numpy as np

from radiosync.netsim import resolve_backoff
from radiosync.randsched import CommGraph, GraphStats, Meetings, ScheduleMatrix


def rows(m: ScheduleMatrix) -> list[np.ndarray]:
    """The matrix's rows, as views of its flat positions."""
    return np.split(m.positions, m.starts[1:-1])


def detect_meetings(m: ScheduleMatrix, exclusive: bool = False):
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
        if count < 2 or (exclusive and count != 2):
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


def build_comm_graph(m: ScheduleMatrix, exclusive: bool = False):
    return graph_from_meetings(detect_meetings(m, exclusive=exclusive))


def graph(n: int, witness) -> CommGraph:
    """The :class:`CommGraph` of a witness dict (edge -> column)."""
    pairs = np.array(list(witness), dtype=np.int64).reshape(-1, 2)
    return CommGraph(n, pairs[:, 0], pairs[:, 1], list(witness.values()))


def adjacency(g: CommGraph) -> list[list[int]]:
    """Sorted neighbour lists, from the edge set."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
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
    """The BFS tree from ``root``, and the diameter as the largest
    depth of one BFS from every source."""
    adj = adjacency(g)
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
    diameter: float = 0.0
    if not connected:
        diameter = math.inf
    else:
        for src in range(g.n):
            depths = _bfs_depths(adj, src)
            diameter = max(diameter, max(depths))
    return GraphStats(
        min_degree=min_degree,
        connected=connected,
        diameter=diameter,
        spanning_tree=tree,
        root=root,
    )


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
            delivered = {
                r: tuple(s for s in participants if s != r) for r in participants
            }
            trace.append((time_base + col, participants, participants, delivered))
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
            delivered = {r: tuple(sorted(heard_from - {r})) for r in participants}
            trace.append(
                (time_base + col, participants, tuple(sorted(heard_from)), delivered)
            )
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
        st.root_time = st.own_time = end_time - st.root_origin
        adjusted = st.root_origin + transmit_delay * st.hops
        st.synchronized = st.max_seen == root.ident and adjusted == root.start_offset
