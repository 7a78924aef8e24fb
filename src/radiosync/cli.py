"""Command-line front end.

Subcommands:
  sched gen|verify   deterministic two-processor schedules
  pack               non-overlapping shift assignment for schedule files
  birthday           Monte-Carlo collision estimates
  sync run           one seeded synchronization pipeline
  sync estimate-n    unknown-count estimation loop
  sweep              seeded experiment grid, CSV out
  accept             full acceptance suite

Exit status is 0 iff every requested operation succeeded, 1 when a run
or check fails, and 2 on invalid input or a file that cannot be read or
written (one ``radiosync: error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .birthday import BirthdayParams, estimate_prob_H, estimate_prob_T
from .bitstrings import BitSchedule, ShiftAssignment, pack_non_overlapping
from .detsched import build_two_proc_schedule, first_uncovered_shift
from .harness import (
    ExperimentSpec,
    load_config_file,
    per_node_costs_to_csv,
    run_acceptance,
    run_one,
    runs_to_csv,
    summaries_to_csv,
    run_sweep,
    trace_to_csv,
)
from .protocol import SimConfig, estimate_n


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_sched_gen(args) -> int:
    schedule = build_two_proc_schedule(args.d)
    _write_out(schedule.to_text(), args.out)
    return 0


def cmd_sched_verify(args) -> int:
    schedule = BitSchedule.from_text(Path(args.file).read_text())
    missing = first_uncovered_shift(schedule, args.d)
    if missing is None:
        print(f"PASS: overlaps itself at every shift 1..{args.d}")
        return 0
    print(f"FAIL: no overlap at shift {missing}")
    return 1


def cmd_pack(args) -> int:
    strings = [BitSchedule.from_text(Path(f).read_text()) for f in args.files]
    result = pack_non_overlapping(strings, args.bound)
    if not isinstance(result, ShiftAssignment):
        print(f"NOT FOUND: string {result.failing_index} exhausted the budget")
        return 1
    for path, shift in zip(args.files, result.shifts):
        print(f"{shift}\t{path}")
    return 0


def cmd_birthday(args) -> int:
    params = BirthdayParams.from_exponents(
        bins=args.L, red_exp=args.s, scale=args.C
    )
    estimator = estimate_prob_H if args.lemma == 1 else estimate_prob_T
    est = estimator(params, args.trials, args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["lemma", "L", "C", "s", "trials", "seed", "estimate", "half_width"]
    )
    writer.writerow(
        [
            args.lemma,
            args.L,
            args.C,
            args.s,
            args.trials,
            args.seed,
            f"{est.estimate:.6f}",
            f"{est.half_width:.6f}",
        ]
    )
    return 0


def cmd_sync_run(args) -> int:
    trace = [] if args.trace else None
    record = run_one(
        d=args.d,
        beta=args.beta,
        exclusive=args.exclusive,
        seed=args.seed,
        trace=trace,
    )
    _write_out(runs_to_csv([record]), args.out)
    if args.trace:
        Path(args.trace).write_text(trace_to_csv(trace))
    if args.per_node_costs:
        Path(args.per_node_costs).write_text(
            per_node_costs_to_csv(record["_per_node_cost"])
        )
    return 0 if record["success"] else 1


def cmd_sync_estimate_n(args) -> int:
    config = SimConfig(d=args.d, seed=args.seed)
    res = estimate_n(config, args.true_n)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "d",
            "true_n",
            "seed",
            "accepted",
            "estimate",
            "epochs",
            "synchronized_fraction",
            "max_cost",
        ]
    )
    writer.writerow(
        [
            args.d,
            args.true_n,
            args.seed,
            int(res.accepted),
            res.estimate if res.estimate is not None else "",
            res.epochs_run,
            f"{res.synchronized_fraction:.4f}",
            int(res.per_node_cost.max()) if res.per_node_cost.size else 0,
        ]
    )
    return 0 if res.accepted else 1


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def cmd_sweep(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return file_values.get(key, fallback)

    d_grid = pick(args.d_grid, "d_grid", None)
    if isinstance(d_grid, str):
        d_grid = _int_list(d_grid)
    if d_grid is None:
        raise ValueError("sweep needs --d-grid (or d_grid in the config file)")
    beta_grid = pick(args.beta_grid, "beta_grid", (0.5,))
    if isinstance(beta_grid, str):
        beta_grid = _float_list(beta_grid)
    spec = ExperimentSpec(
        d_grid=tuple(d_grid),
        beta_grid=tuple(beta_grid),
        exclusive_grid=(False, True) if args.both_modes else (args.exclusive,),
        trials=int(pick(args.trials, "trials", 1)),
        root_seed=int(pick(args.seed, "seed", 0)),
        out_path=args.out,
    )
    records = run_sweep(spec)
    if args.out is None:
        sys.stdout.write(summaries_to_csv(records))
    return 0


def cmd_accept(args) -> int:
    ok = run_acceptance()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiosync",
        description="Radio-efficient wake-up schedules and clock synchronization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sched = sub.add_parser("sched", help="deterministic two-processor schedule")
    sched_sub = sched.add_subparsers(dest="sched_command", required=True)
    gen = sched_sub.add_parser("gen", help="emit the schedule for offset bound d")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_sched_gen)
    verify = sched_sub.add_parser("verify", help="check self-overlap for shifts 1..d")
    verify.add_argument("--d", type=int, required=True)
    verify.add_argument("--file", required=True)
    verify.set_defaults(func=cmd_sched_verify)

    pack = sub.add_parser("pack", help="assign non-overlapping shifts to schedules")
    pack.add_argument("--bound", type=int, required=True)
    pack.add_argument("files", nargs="+")
    pack.set_defaults(func=cmd_pack)

    bday = sub.add_parser("birthday", help="two-color collision estimate")
    bday.add_argument(
        "--lemma",
        type=int,
        choices=(1, 2),
        required=True,
        help="1 = any shared bin, 2 = exclusive red/blue pair",
    )
    bday.add_argument("--L", type=int, required=True, help="bin count")
    bday.add_argument("--C", type=float, default=1.82, help="ball-count scale")
    bday.add_argument("--s", type=float, default=0.5, help="red-ball exponent")
    bday.add_argument("--trials", type=int, default=10_000)
    bday.add_argument("--seed", type=int, default=0)
    bday.set_defaults(func=cmd_birthday)

    sync = sub.add_parser("sync", help="multi-processor synchronization")
    sync_sub = sync.add_subparsers(dest="sync_command", required=True)
    run = sync_sub.add_parser("run", help="one seeded pipeline run")
    run.add_argument("--d", type=int, required=True)
    run.add_argument("--beta", type=float, default=0.5)
    run.add_argument("--exclusive", action="store_true", help="interference mode")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None)
    run.add_argument("--trace", default=None, help="write the event trace CSV here")
    run.add_argument(
        "--per-node-costs", dest="per_node_costs", default=None,
        help="write per-node awake counts CSV here",
    )
    run.set_defaults(func=cmd_sync_run)
    est = sync_sub.add_parser("estimate-n", help="unknown-count estimation loop")
    est.add_argument("--d", type=int, required=True)
    est.add_argument("--true-n", type=int, required=True)
    est.add_argument("--seed", type=int, default=0)
    est.set_defaults(func=cmd_sync_estimate_n)

    sweep = sub.add_parser("sweep", help="seeded experiment grid")
    sweep.add_argument("--config", default=None, help="flat JSON config file")
    sweep.add_argument("--d-grid", dest="d_grid", default=None)
    sweep.add_argument("--beta-grid", dest="beta_grid", default=None)
    sweep.add_argument("--exclusive", action="store_true")
    sweep.add_argument("--both-modes", action="store_true")
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    accept = sub.add_parser("accept", help="run the acceptance suite")
    accept.set_defaults(func=cmd_accept)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"radiosync: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
