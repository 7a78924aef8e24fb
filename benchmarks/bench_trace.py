"""Span tracing of the sync pipeline's layers, from outside the library.

Each layer is traced by replacing the module attribute its callers look
up with a wrapper that records a span (name, parent, start, end) and
adds the layer's work counts. For example ``run_sync`` calls
``detect_meetings`` through ``radiosync.protocol``, so that is the
attribute wrapped. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child
spans; calls are nested and single-threaded, so the children never
overlap. Every trial is one root span, whose self time is the part of
the trial no wrapped layer covers.
"""

from __future__ import annotations

import gzip
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from bench_workloads import protocol, randsched

TRIAL = "trial"


def _count_matrix(c, args, kwargs, matrix):
    c["awake_units"] += int(matrix.densities().sum())


def _count_meetings(c, args, kwargs, meetings):
    c["meetings"] += len(meetings)
    c["meetings_3plus"] += sum(1 for _col, who in meetings if len(who) >= 3)


def _count_sync(c, args, kwargs, result):
    c["rounds_used"] += result.rounds_used
    c["rounds_paid"] += args[2] if len(args) > 2 else kwargs["rounds"]
    c["edges"] += len(result.comm_graph.witness)


def _count_backoff(c, args, kwargs, winners):
    c["slots_tried"] += args[1] if len(args) > 1 else kwargs["slots"]
    c["slots_won"] += len(winners)


def _count_stats(c, args, kwargs, stats):
    c["nodes"] += (args[0] if args else kwargs["g"]).n
    if stats.connected:
        c["connected"] += 1
        c["diameter_sum"] += stats.diameter


def _count_estimate(c, args, kwargs, result):
    c["epochs"] += result.epochs_run
    c["accepted"] += int(result.accepted)


#: metric prefix, the (module, attribute) pairs callers look it up by,
#: and the counter that reads the layer's work from its arguments/result
LAYERS = (
    ("protocol.build_pipeline_matrix", ((protocol, "build_pipeline_matrix"),), _count_matrix),
    ("randsched.detect_meetings", ((protocol, "detect_meetings"),), _count_meetings),
    ("protocol.run_sync", ((protocol, "run_sync"),), _count_sync),
    ("netsim.resolve_backoff_unit", ((protocol, "resolve_backoff_unit"),), _count_backoff),
    (
        "randsched.graph_stats",
        ((protocol, "graph_stats"), (randsched, "graph_stats")),
        _count_stats,
    ),
    ("protocol.estimate_n", ((protocol, "estimate_n"),), _count_estimate),
)

#: (layer, stat, unit, numerator counter, denominator counter); a
#: denominator of None means per traced trial
STATS = (
    ("protocol.build_pipeline_matrix", "calls", "count", "calls", None),
    ("protocol.build_pipeline_matrix", "awake_units", "count", "awake_units", None),
    ("randsched.detect_meetings", "calls", "count", "calls", None),
    ("randsched.detect_meetings", "meetings", "count", "meetings", None),
    ("randsched.detect_meetings", "meetings_3plus", "count", "meetings_3plus", None),
    ("protocol.run_sync", "rounds_used", "count", "rounds_used", "calls"),
    ("protocol.run_sync", "rounds_paid", "count", "rounds_paid", "calls"),
    ("protocol.run_sync", "round_use_ratio", "ratio", "rounds_used", "rounds_paid"),
    ("protocol.run_sync", "edges", "count", "edges", "calls"),
    ("netsim.resolve_backoff_unit", "calls", "count", "calls", None),
    ("netsim.resolve_backoff_unit", "slots_tried", "count", "slots_tried", None),
    ("netsim.resolve_backoff_unit", "slots_won", "count", "slots_won", None),
    ("netsim.resolve_backoff_unit", "win_ratio", "ratio", "slots_won", "slots_tried"),
    ("randsched.graph_stats", "calls", "count", "calls", None),
    ("randsched.graph_stats", "nodes", "count", "nodes", "calls"),
    ("randsched.graph_stats", "diameter_mean", "hops", "diameter_sum", "connected"),
    ("randsched.graph_stats", "connected_frac", "ratio", "connected", "calls"),
    ("protocol.estimate_n", "epochs", "count", "epochs", "calls"),
    ("protocol.estimate_n", "accepted_frac", "ratio", "accepted", "calls"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder plus per-layer work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self.stack.pop()

    @contextmanager
    def trial(self):
        """Root span around one trial."""
        index = self._open(TRIAL)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, counter):
        counts = self.counts[name]

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts["calls"] += 1
            counter(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        saved = []
        try:
            for name, sites, counter in LAYERS:
                for module, attr in sites:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _parent, start, end), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def trial_seconds(self) -> list[float]:
        return [end - start for name, _p, start, end in self.spans if name == TRIAL]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (see STATS), plus the traced trial time and
        the part of it no layer covers, both per traced trial."""
        durations = self.trial_seconds()
        trials, total = len(durations), sum(durations)
        selfs = self.self_times()
        covered = sum(selfs.values())
        if not math.isclose(covered, total, rel_tol=1e-9, abs_tol=1e-9):
            raise RuntimeError(f"self times sum to {covered} s, trials took {total} s")
        out = {
            "trial.traced_s": (_ratio(total, trials), "s"),
            "trial.unwrapped_self_s": (_ratio(selfs[TRIAL], trials), "s"),
        }
        for name, _sites, _counter in LAYERS:
            out[f"{name}.self_s"] = (_ratio(selfs.get(name, 0.0), trials), "s")
        for layer, stat, unit, num, den in STATS:
            counts = self.counts[layer]
            out[f"{layer}.{stat}"] = (
                _ratio(counts[num], trials if den is None else counts[den]),
                unit,
            )
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON: a name table and
        [name index, parent index, start s, end s] rows."""
        index = {name: i for i, name in enumerate(dict.fromkeys(s[0] for s in self.spans))}
        rows = [[index[n], p, s, e] for n, p, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"names": list(index), "spans": rows}, fh)
