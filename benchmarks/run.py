"""Closed-loop benchmark of the radiosync sync pipeline.

    python3 benchmarks/run.py --workload dense-base --seed 1 --seconds 20 --trace 0

One process, one client: each trial starts when the previous one has
returned, for ``--seconds`` seconds (at least one trial). Trial inputs
derive from ``--seed``; every trial's output is checked
(bench_workloads.check). The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
record the environment, one digest row and one timing line per trial,
a hash of the first rows and the raw (not host-normalized) timings.

``--trace 0`` reports the end-to-end metrics with tracing off. Each
trial time is scaled by a host-speed reference timed around it
(bench_host).
``--trace 1`` alternates an untraced and a traced run of each trial
input and reports the per-layer metrics of bench_trace, plus
``trace_overhead_frac``; the spans go to ``benchmarks/out/``.
``--smoke`` shrinks every workload to a test size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import bench_trace
from bench_host import NOMINAL_S, HostReference
from bench_workloads import WORKLOADS, check, execute, make_input

OUT_DIR = Path(__file__).resolve().parent / "out"

#: set-up is timed this many times in separate processes (median taken)
SETUP_REPS = 7
#: the printed digest hashes this many leading trials, which every run
#: of the measured sizes completes, so runs of one seed can be compared
DIGEST_TRIALS = 3


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def prepare(workload, seed: int) -> None:
    """What runs between the imports and the first timed trial: one
    test-size trial, so lazy imports and first-call costs are paid
    outside the timed loop. Each trial's input is made just before it
    runs, untimed."""
    warm = make_input(workload, seed, 0, smoke=True)
    check(workload, warm, execute(workload, warm))


def normalized(times: list[float], refs: list[float]) -> list[float]:
    """Scale each time by the host speed around it: ``refs[i]`` and
    ``refs[i + 1]`` are the reference times just before and after."""
    return [t * 2 * NOMINAL_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def time_setup(workload_name: str, seed: int, reps: int,
               host: HostReference) -> tuple[float, float]:
    """Median time, raw and host-normalized, of a fresh process that
    starts, imports the library and runs ``prepare``. One unmeasured run
    first, so bytecode caches are written."""
    cmd = [sys.executable, __file__, "--setup-only", "--workload", workload_name,
           "--seed", str(seed)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    times, refs = [], [host.seconds()]
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
        refs.append(host.seconds())
    return statistics.median(times), statistics.median(normalized(times, refs))


class Trials:
    """Runs trials one after another and keeps times, failures and rows."""

    def __init__(self, workload, seed: int, smoke: bool) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.times: list[float] = []
        self.rows: list[tuple] = []
        self.failed = 0

    def run(self, index: int, tracer=None) -> tuple:
        """Time one trial; check it untimed; return its digest row."""
        trial_input = make_input(self.workload, self.seed, index, self.smoke)
        t0 = time.perf_counter()
        try:
            with tracer.trial() if tracer else nullcontext():
                outcome = execute(self.workload, trial_input)
        except Exception as exc:  # a trial that raises is a failed trial
            self.failed += 1
            print(f"trial {index} raised {exc!r}", file=sys.stderr)
            return ("raised", type(exc).__name__)
        finally:
            self.times.append(time.perf_counter() - t0)
        row, errors = check(self.workload, trial_input, outcome)
        if errors:
            self.failed += 1
            print(f"trial {index} failed: {'; '.join(errors)}", file=sys.stderr)
        return row

    def record(self, index: int, row: tuple) -> None:
        self.rows.append(row)
        print(f"trial {index} " + " ".join(str(x) for x in row))

    def print_digest(self) -> None:
        head = self.rows[:DIGEST_TRIALS]
        digest = hashlib.sha256(repr(head).encode()).hexdigest()[:16]
        print(f"digest {self.workload.name} seed={self.seed} first={len(head)} sha256={digest}")


def summary(times: list[float]) -> dict[str, float]:
    return {
        "trials_per_s": len(times) / sum(times),
        "trial_s_p50": statistics.median(times),
        "trial_s_p90": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
    }


def measure(workload, seed: int, seconds: float, smoke: bool, setup_reps: int) -> dict:
    host = HostReference()
    raw_setup_s, setup_s = time_setup(workload.name, seed, setup_reps, host)
    prepare(workload, seed)
    trials = Trials(workload, seed, smoke)
    refs = [host.seconds()]
    t_start = time.perf_counter()
    while not trials.rows or time.perf_counter() - t_start < seconds:
        index = len(trials.rows)
        trials.record(index, trials.run(index))
        refs.append(host.seconds())
        print(f"time {index} wall_s={trials.times[-1]:.6f} reference_s={refs[-1]:.6f}")
    trials.print_digest()
    count = len(trials.times)
    raw = summary(trials.times)
    norm = summary(normalized(trials.times, refs))
    print(f"samples {count} trials; reference median {statistics.median(refs):.4f} s, "
          f"nominal {NOMINAL_S} s")
    print("raw " + json.dumps({**raw, "setup_s": raw_setup_s}))
    metrics = {
        "trials_per_s": (norm["trials_per_s"], "1/s"),
        "trial_s_p50": (norm["trial_s_p50"], "s"),
        "trial_s_p90": (norm["trial_s_p90"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_frac": ((count - trials.failed) / count, "ratio"),
    }
    return result(count, trials.failed, metrics)


def measure_traced(workload, seed: int, seconds: float, smoke: bool) -> dict:
    prepare(workload, seed)
    plain = Trials(workload, seed, smoke)
    traced = Trials(workload, seed, smoke)
    tracer = bench_trace.Tracer()
    t_start = time.perf_counter()
    while not plain.rows or time.perf_counter() - t_start < seconds:
        index = len(plain.rows)
        row = plain.run(index)
        plain.record(index, row)
        with tracer.installed():
            if traced.run(index, tracer) != row:
                traced.failed += 1
                print(f"trial {index}: traced outcome differs from untraced", file=sys.stderr)
    plain.print_digest()
    tracer.write(OUT_DIR / f"spans-{workload.name}.json.gz")
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = (sum(traced.times) / sum(plain.times) - 1.0, "ratio")
    print(f"samples {len(plain.times)} untraced and {len(traced.times)} traced trials")
    return result(len(plain.times) + len(traced.times), plain.failed + traced.failed, metrics)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False, setup_reps: int = SETUP_REPS) -> dict:
    print("env " + json.dumps(environment()))
    w = WORKLOADS[workload]
    if trace:
        return measure_traced(w, seed, seconds, smoke)
    return measure(w, seed, seconds, smoke, setup_reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="test-size inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        prepare(WORKLOADS[args.workload], args.seed)
        return 0
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
