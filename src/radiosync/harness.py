"""Seeded experiment sweeps and CSV emission.

Every output is a pure function of the root seed: per-trial generators
are derived from (root seed, cell index, trial index), cells and
trials are emitted in deterministic order, and no wall-clock time is
recorded, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .protocol import PipelineResult, SimConfig, run_pipeline
from .randsched import graph_stats
from .seeding import derive_seed, require_bool, require_integer


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep grid; one cell per (d, beta, exclusive) tuple."""

    d_grid: tuple[int, ...]
    beta_grid: tuple[float, ...]
    exclusive_grid: tuple[bool, ...] = (False,)
    trials: int = 1
    root_seed: int = 0

    def __post_init__(self) -> None:
        require_integer("trials", self.trials, 1)
        require_integer("root_seed", self.root_seed)
        if not (self.d_grid and self.beta_grid and self.exclusive_grid):
            raise ValueError("grids must be non-empty")
        for exclusive in self.exclusive_grid:
            require_bool("exclusive_grid", exclusive)

    def cells(self) -> list[tuple[int, float, bool]]:
        return [
            (d, beta, excl)
            for d in self.d_grid
            for beta in self.beta_grid
            for excl in self.exclusive_grid
        ]


@dataclass
class SummaryRecord:
    d: int
    beta: float
    n: int
    exclusive: bool
    trials: int
    success_rate: float
    mean_max_radio_cost: float
    max_radio_cost: int
    mean_diameter: float

    def csv_row(self) -> list:
        return [
            self.d,
            self.beta,
            self.n,
            int(self.exclusive),
            self.trials,
            f"{self.success_rate:.6g}",
            f"{self.mean_max_radio_cost:.6g}",
            self.max_radio_cost,
            f"{self.mean_diameter:.6g}" if math.isfinite(self.mean_diameter) else "inf",
        ]


#: per-cell summary CSV schema, the record's fields (wall-clock deliberately absent)
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRecord))


def run_one(
    d: int,
    beta: float,
    exclusive: bool,
    seed: int,
    trace: Optional[list] = None,
) -> tuple[dict, PipelineResult]:
    """Single seeded pipeline run, as ``(row, result)``: the run CSV's
    row, its keys the header, and the :class:`PipelineResult` it reads.

    ``trace``, when given, collects one radio event per meeting unit.
    """
    config = SimConfig(d=d, beta=beta, exclusive=exclusive, seed=seed)
    result = run_pipeline(config, trace=trace)
    stats = graph_stats(result.comm_graph, root=result.root_index)
    row = {
        "seed": seed,
        "d": d,
        "n": config.n,
        "beta": beta,
        "exclusive": int(exclusive),
        "success": int(result.success),
        "max_radio_cost": int(result.per_node_radio_cost.max()),
        "rounds": result.rounds_used,
        "diameter": stats.diameter,
    }
    return row, result


def run_sweep(spec: ExperimentSpec) -> list[SummaryRecord]:
    """Run every cell of the grid and aggregate.

    Per-trial seeds derive from (root seed, cell index, trial index);
    output order is (cell, trial) regardless of any execution order.
    """
    records = []
    for cell_idx, (d, beta, excl) in enumerate(spec.cells()):
        runs = []
        for trial_idx in range(spec.trials):
            seed = derive_seed(spec.root_seed, cell_idx, trial_idx)
            runs.append(run_one(d, beta, excl, seed)[0])
        diameters = [r["diameter"] for r in runs if math.isfinite(r["diameter"])]
        records.append(
            SummaryRecord(
                d=d,
                beta=beta,
                n=runs[0]["n"],
                exclusive=excl,
                trials=spec.trials,
                success_rate=sum(r["success"] for r in runs) / spec.trials,
                mean_max_radio_cost=sum(r["max_radio_cost"] for r in runs)
                / spec.trials,
                max_radio_cost=max(r["max_radio_cost"] for r in runs),
                mean_diameter=(
                    sum(diameters) / len(diameters) if diameters else math.inf
                ),
            )
        )
    return records


def to_csv(header: Iterable, rows: Iterable[Iterable]) -> str:
    """The CSV text of a header and its rows, with ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def summaries_to_csv(records: Sequence[SummaryRecord]) -> str:
    return to_csv(SUMMARY_COLUMNS, (rec.csv_row() for rec in records))


def trace_to_csv(trace: Sequence[tuple]) -> str:
    """Event-trace rows ``(t, awake, transmitters)``: time unit, awake
    set, transmitters, and who heard whom. Node lists are |-separated.
    Every awake radio hears every transmitter but itself; deliveries
    are those ``receiver<-senders`` entries, ascending by receiver and
    separated by ';' (an empty sender list means the receiver heard
    only noise). Copy c's rows sit at ``c * columns`` plus the column, but
    copies meet only within themselves (:func:`~radiosync.protocol.run_sync`)."""
    return to_csv(
        ("t", "awake", "transmitters", "deliveries"),
        (
            (
                t,
                "|".join(map(str, awake)),
                "|".join(map(str, transmitters)),
                ";".join(
                    f"{r}<-" + "|".join(str(s) for s in transmitters if s != r)
                    for r in awake
                ),
            )
            for t, awake, transmitters in trace
        ),
    )


def load_config_file(path: str) -> dict:
    """Flat key/value config (JSON object); flags override these."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a flat JSON object")
    for key, value in data.items():
        if isinstance(value, (dict, list)):
            raise ValueError(f"{path}: key {key!r} is not flat")
    return data
