"""Slow reference implementations of the vectorized hot paths.

Each function is the straightforward loop the library once used; the
hypothesis tests in ``test_fast_paths.py`` check that the fast paths
return exactly what these do, down to dict insertion order.
"""

import numpy as np

from radiosync.randsched import CommGraph, ScheduleMatrix


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
