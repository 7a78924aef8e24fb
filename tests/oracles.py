"""Slow reference implementations of the library's fast paths.

Each function is the straightforward loop the library once used; the
hypothesis tests in ``test_fast_paths.py`` check that the fast paths
return exactly what these do, down to dict insertion order.
"""

import math
from typing import Optional

import numpy as np

from radiosync.netsim import resolve_backoff_unit
from radiosync.randsched import CommGraph, GraphStats, ScheduleMatrix


def detect_meetings(m: ScheduleMatrix, exclusive: bool = False):
    """One Python step per awake global column."""
    if m.offsets is None:
        raise ValueError("offsets must be set before detecting meetings")
    sizes = [len(row) for row in m.positions]
    if sum(sizes) == 0:
        return []
    cols = np.concatenate(
        [row + m.offsets[r] for r, row in enumerate(m.positions)]
    )
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


def graph_from_meetings(n: int, meetings) -> CommGraph:
    """Dict-based graph build: every pair of every meeting, first
    column wins."""
    witness: dict[tuple[int, int], int] = {}
    for col, participants in meetings:
        for a in range(len(participants)):
            for b in range(a + 1, len(participants)):
                edge = (participants[a], participants[b])
                if edge not in witness:
                    witness[edge] = col
    return CommGraph(n=n, witness=witness)


def build_comm_graph(m: ScheduleMatrix, exclusive: bool = False) -> CommGraph:
    return graph_from_meetings(m.n, detect_meetings(m, exclusive=exclusive))


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


def deliver_meetings_per_unit(
    meetings, states, *, backoff_rounds, transmit_delay, rng, trace=None, time_base=0
):
    """The interference flood resolving one unit at a time: one
    ``resolve_backoff_unit`` draw per meeting, senders collected into a
    set in winning-slot order."""
    changed = False
    for col, participants in meetings:
        winners = resolve_backoff_unit(participants, backoff_rounds, rng)
        heard_from = {s for _slot, s in winners}
        if trace is not None:
            delivered = {r: tuple(sorted(heard_from - {r})) for r in participants}
            trace.append(
                (time_base + col, participants, tuple(sorted(heard_from)), delivered)
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
            st.root_origin = origin - transmit_delay
            st.hops = hops + 1
            changed = True
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
