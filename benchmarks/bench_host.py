"""Host-speed reference: a fixed computation that uses no radiosync code.

The host this benchmark runs on is shared, and its speed drifts by
15-50% within a few seconds (a trial's CPU time drifts with its wall
time, so the cause is the host, not scheduling). The benchmark times
this reference next to every trial and scales each trial's wall time
by ``NOMINAL_S / reference time``. Because the reference never runs
library code, a change to the library moves the trial time but not the
reference, while a slower host moves both.

The reference mixes the kinds of work a trial does: a Python scan over
a dict of tuple keys (graph building, the flood, BFS), a large numpy
sort and unique (meeting detection, the schedule draw) and many small
numpy calls (back-off).
"""

from __future__ import annotations

import time

import numpy as np

#: about the reference's duration on the host the bounds were set on
#: (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6); normalized times are
#: wall times scaled to a host running at that speed
NOMINAL_S = 0.2


class HostReference:
    """The reference inputs, built once, deterministically."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20081007)
        self.values = rng.integers(0, 1 << 40, size=1 << 17)
        self.nodes = 1500
        edges: dict[tuple[int, int], int] = {}
        while len(edges) < 8000:
            i, j = sorted(int(x) for x in rng.integers(0, self.nodes, 2))
            if i != j:
                edges[(i, j)] = len(edges)
        self.edges = edges

    def run(self) -> int:
        found = 0
        for node in range(0, self.nodes, 10):
            found += len(frozenset(j if i == node else i for i, j in self.edges if node in (i, j)))
        order = np.argsort(self.values, kind="stable")
        found += np.unique(self.values[order][::2]).size
        rng = np.random.default_rng(7)
        for _ in range(4000):
            coins = rng.integers(0, 2, size=(36, 3))
            found += np.flatnonzero(coins.sum(axis=1) == 1).size
        return found

    def seconds(self) -> float:
        """Wall time of one run of the reference."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
