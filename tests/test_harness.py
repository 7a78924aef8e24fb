"""Sweep determinism, CSV schema stability, config files, CLI surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import radiosync
from radiosync import acceptance
from radiosync.cli import main
from radiosync.harness import (
    SUMMARY_COLUMNS,
    ExperimentSpec,
    load_config_file,
    run_one,
    run_sweep,
    summaries_to_csv,
    trace_to_csv,
)
from radiosync.seeding import derive_seed, spawn_rng


def test_single_cell_single_trial():
    spec = ExperimentSpec(d_grid=(64,), beta_grid=(0.5,), trials=1, root_seed=1)
    records = run_sweep(spec)
    assert len(records) == 1
    rec = records[0]
    assert rec.d == 64 and rec.n == 8
    assert 0.0 <= rec.success_rate <= 1.0


def test_sweep_deterministic_csv(tmp_path):
    spec = ExperimentSpec(
        d_grid=(64, 128), beta_grid=(0.5,), trials=3, root_seed=42
    )
    first = summaries_to_csv(run_sweep(spec))
    second = summaries_to_csv(run_sweep(spec))
    assert first == second  # byte-identical given the root seed
    other = summaries_to_csv(
        run_sweep(
            ExperimentSpec(d_grid=(64, 128), beta_grid=(0.5,), trials=3, root_seed=43)
        )
    )
    assert other != first


def test_csv_schema_fixed():
    spec = ExperimentSpec(d_grid=(64,), beta_grid=(0.5,), trials=1)
    text = summaries_to_csv(run_sweep(spec))
    header = text.splitlines()[0].split(",")
    assert tuple(header) == SUMMARY_COLUMNS
    assert "wall_clock" not in text


#: the run CSV's header, pinned here so a renamed or reordered key shows
RUN_HEADER = "seed,d,n,beta,exclusive,success,max_radio_cost,rounds,diameter"


def test_run_one_record_shape():
    row, result = run_one(d=64, beta=0.5, exclusive=False, seed=7)
    assert ",".join(row) == RUN_HEADER
    assert row["n"] == 8
    assert result.per_node_radio_cost.shape == (8,)
    assert row["max_radio_cost"] == int(result.per_node_radio_cost.max())


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(d_grid=(), beta_grid=(0.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(d_grid=(64,), beta_grid=(0.5,), trials=0)


@pytest.mark.parametrize(
    "field, value",
    [
        # once a TypeError inside run_sweep
        ("trials", 2.5),
        # once a sweep that wrote True into the summary's trials column
        ("trials", True),
        # once a sweep seeded as 1
        ("root_seed", True),
        ("root_seed", 1.0),
    ],
)
def test_spec_counts_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        ExperimentSpec(d_grid=(64,), beta_grid=(0.5,), **{field: value})


@pytest.mark.parametrize("value", ["no", 1])
def test_spec_exclusive_grid_must_hold_bools(value):
    # once the cell was simulated in the mode the value's truth picked,
    # and its summary row then failed on int("no")
    with pytest.raises(ValueError, match=f"^exclusive_grid must be a bool, got {value!r}$"):
        ExperimentSpec(d_grid=(16,), beta_grid=(0.5,), exclusive_grid=(False, value))


def test_config_file_loading(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"d_grid": "64,128", "trials": 2, "seed": 9}))
    values = load_config_file(str(path))
    assert values["trials"] == 2
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"grid": {"d": 64}}))
    with pytest.raises(ValueError):
        load_config_file(str(nested))
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([64, 128]))
    with pytest.raises(ValueError, match="listed.json: expected a flat JSON object$"):
        load_config_file(str(listed))


# --- CLI ---------------------------------------------------------------------

def test_cli_sched_roundtrip(tmp_path, capsys):
    out = tmp_path / "sched.txt"
    assert main(["sched", "gen", "--d", "49", "--out", str(out)]) == 0
    assert out.read_text().startswith("L=")
    assert main(["sched", "verify", "--d", "49", "--file", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_sched_verify_fails_sparse(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("L=64\n0 9 33\n")
    assert main(["sched", "verify", "--d", "32", "--file", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_pack(tmp_path, capsys):
    files = []
    for i, ones in enumerate([(0, 7), (0, 7), (3, 11)]):
        f = tmp_path / f"s{i}.txt"
        f.write_text(f"L=16\n{' '.join(map(str, ones))}\n")
        files.append(str(f))
    assert main(["pack", "--bound", "8"] + files) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[0] == "0"


def test_cli_huge_bound_answers_from_the_pair_count(tmp_path, capsys):
    # the difference-set table stops at |a|*|b| + 1 shifts, not at the bound
    f = tmp_path / "three.txt"
    f.write_text("L=8\n0 1 3\n")
    assert main(["sched", "verify", "--d", str(10**12), "--file", str(f)]) == 1
    assert capsys.readouterr().out == "FAIL: no overlap at shift 4\n"
    assert main(["pack", "--bound", str(10**12), str(f), str(f)]) == 0
    assert capsys.readouterr().out == f"0\t{f}\n4\t{f}\n"


def test_cli_pack_not_found(tmp_path, capsys):
    f = tmp_path / "full.txt"
    f.write_text("L=4\n0 1 2 3\n")
    assert main(["pack", "--bound", "0", str(f), str(f)]) == 1
    assert "NOT FOUND" in capsys.readouterr().out


def test_cli_birthday(capsys):
    code = main(
        [
            "birthday",
            "--lemma",
            "1",
            "--L",
            "100",
            "--C",
            "1.82",
            "--s",
            "0.5",
            "--trials",
            "200",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("lemma,")
    assert len(out) == 2


def test_python_dash_m_runs_the_cli():
    src = Path(radiosync.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "radiosync", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: radiosync")
    assert "accept" in out.stdout


def test_acceptance_registry_is_a1_to_a12_in_definition_order():
    # read, not run: no criterion is called here
    want = [getattr(acceptance, f"criterion_a{k}") for k in range(1, 13)]
    assert acceptance.CRITERIA == want
    assert [c.__name__ for c in want] == [f"criterion_a{k}" for k in range(1, 13)]


@pytest.mark.parametrize("second, code", [(True, 0), (False, 1)])
def test_cli_accept_prints_each_registered_criterion(second, code, monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", [])
    acceptance._criterion("S1", "first")(lambda: (True, "one"))
    acceptance._criterion("S2", "second")(lambda: (second, "two"))
    assert main(["accept"]) == code
    out = capsys.readouterr().out.splitlines()
    assert [re.sub(r"  \[\d+\.\ds\]$", "", line) for line in out] == [
        "S1   PASS  required: first; measured: one",
        f"S2   {'PASS' if second else 'FAIL'}  required: second; measured: two",
    ]


def test_star_import_binds_every_public_name():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from radiosync import *", namespace)
    assert sorted(set(radiosync.__all__) - namespace.keys()) == []


def test_cli_sync_run(capsys):
    code = main(["sync", "run", "--d", "64", "--beta", "0.5", "--seed", "2"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == RUN_HEADER
    assert code in (0, 1)


def test_cli_sync_run_trace_and_costs(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    costs = tmp_path / "costs.csv"
    main(
        [
            "sync", "run", "--d", "64", "--beta", "0.5", "--seed", "2",
            "--trace", str(trace), "--per-node-costs", str(costs),
        ]
    )
    capsys.readouterr()
    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "t,awake,transmitters,deliveries"
    assert len(trace_lines) > 1
    first = trace_lines[1].split(",")
    assert "|" in first[1] or first[1].isdigit()  # awake set present
    cost_lines = costs.read_text().splitlines()
    assert cost_lines[0] == "node,radio_cost"
    assert len(cost_lines) == 1 + 8


def test_trace_deliveries_are_every_transmitter_but_the_receiver():
    # a unit in which only radio 1 was heard, then a pair both heard
    rows = [(3, (0, 1, 2), (1,)), (5, (0, 4), (0, 4))]
    assert trace_to_csv(rows).splitlines() == [
        "t,awake,transmitters,deliveries",
        "3,0|1|2,1,0<-1;1<-;2<-1",
        "5,0|4,0|4,0<-4;4<-0",
    ]


def test_cli_sync_estimate(capsys):
    code = main(["sync", "estimate-n", "--d", "64", "--true-n", "64", "--seed", "2"])
    assert code == 0
    assert "accepted" in capsys.readouterr().out


BAD_INPUT_FILES = {
    "int-grid.json": json.dumps({"d_grid": 64}),
    "null-trials.json": json.dumps({"d_grid": "64", "trials": None}),
    "three.txt": "L=8\n0 1 3\n",
    "huge.txt": f"L={10**20}\n0 {10**20 - 1}\n",
    "extra-line.txt": "L=10\n1\n5\n",
    "bad-token.txt": "L=8\n0 x\n",
    "not-utf8.txt": b"L=8\n\xff\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sync", "run", "--d", "1"],
        ["sync", "run", "--d", "64", "--beta", "0"],
        ["sync", "estimate-n", "--d", "64", "--true-n", "1"],
        ["sweep", "--d-grid", "64,x"],
        ["sweep"],
        ["sync", "run", "--d", "64", "--beta", "inf"],
        ["sync", "run", "--d", "64", "--beta", "nan"],
        ["sync", "run", "--d", "64", "--beta", "200"],
        ["sync", "estimate-n", "--d", "1", "--true-n", "2"],
        # refused before anything is allocated: far beyond any memory
        ["sync", "run", "--d", "4096", "--beta", "3"],
        ["sync", "estimate-n", "--d", "64", "--true-n", str(10**13)],
        # a file that cannot be read, or written
        ["sched", "verify", "--d", "4", "--file", "/nonexistent"],
        ["pack", "--bound", "4", "/nonexistent"],
        ["sweep", "--config", "/nonexistent.json"],
        ["sync", "run", "--d", "64", "--out", "/nonexistent/dir/x.csv"],
        # config values of the wrong type, a non-finite scale, a negative
        # bound, positions past int64
        ["sweep", "--config", "{tmp}/int-grid.json"],
        ["sweep", "--config", "{tmp}/null-trials.json"],
        ["birthday", "--lemma", "1", "--L", "100", "--C", "inf"],
        ["birthday", "--lemma", "1", "--L", "100", "--C", "1e300"],
        ["pack", "--bound", "-1", "{tmp}/three.txt"],
        ["pack", "--bound", "4", "{tmp}/huge.txt"],
        # schedule files that do not parse, or do not decode
        ["sched", "verify", "--d", "4", "--file", "{tmp}/extra-line.txt"],
        ["pack", "--bound", "4", "{tmp}/three.txt", "{tmp}/bad-token.txt"],
        ["sched", "verify", "--d", "4", "--file", "{tmp}/not-utf8.txt"],
    ],
    ids=[
        "d-1",
        "beta-0",
        "true-n-1",
        "d-grid-x",
        "no-d-grid",
        "beta-inf",
        "beta-nan",
        "beta-overflow",
        "estimate-d-1",
        "beta-huge",
        "true-n-huge",
        "verify-missing-file",
        "pack-missing-file",
        "sweep-missing-config",
        "run-unwritable-out",
        "sweep-int-grid",
        "sweep-null-trials",
        "birthday-scale-inf",
        "birthday-scale-huge",
        "pack-negative-bound",
        "pack-length-past-int64",
        "verify-extra-line",
        "pack-bad-token",
        "verify-not-utf8",
    ],
)
def test_cli_bad_input_is_one_line_error(argv, tmp_path, capsys):
    write_bad_input_files(tmp_path)
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("radiosync: error: ")
    assert "Traceback" not in captured.err


def write_bad_input_files(folder):
    for name, data in BAD_INPUT_FILES.items():
        (folder / name).write_bytes(data if isinstance(data, bytes) else data.encode())


@pytest.mark.parametrize(
    "name, message",
    [
        ("extra-line.txt", "line 3: '5' follows the positions line"),
        ("bad-token.txt", "'x' is not an integer"),
        ("not-utf8.txt", "'utf-8' codec can't decode byte 0xff"),
        ("huge.txt", "exceeds 2**63"),
    ],
)
def test_cli_schedule_file_errors_name_the_file(name, message, tmp_path, capsys):
    write_bad_input_files(tmp_path)
    path = str(tmp_path / name)
    assert main(["sched", "verify", "--d", "4", "--file", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"radiosync: error: {path}: ") and message in err


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["--d-grid", "64,abc"], None, "--d-grid: 'abc' is not an integer"),
        (["--d-grid", "64", "--beta-grid", ".5,x"], None, "--beta-grid: 'x' is not a number"),
        ([], {"d_grid": "64,2.5"}, "sweep.json: d_grid: '2.5' is not an integer"),
        ([], {"d_grid": "64", "beta_grid": ""}, "beta_grid: '' is not a number"),
        ([], {"d_grid": "64", "trials": "many"}, "trials: 'many' is not an integer"),
    ],
)
def test_cli_bad_sweep_grid_names_flag_and_token(args, config, message, tmp_path, capsys):
    if config is not None:
        (tmp_path / "sweep.json").write_text(json.dumps(config))
        args = ["--config", str(tmp_path / "sweep.json"), *args]
    assert main(["sweep", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("radiosync: error: ") and err.rstrip().endswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["sync", "run", "--d", "64"],
        ["sync", "estimate-n", "--d", "64", "--true-n", "8"],
        ["sweep", "--d-grid", "64"],
        ["birthday", "--lemma", "1", "--L", "100", "--trials", "10"],
    ],
    ids=["sync-run", "estimate-n", "sweep", "birthday"],
)
def test_cli_negative_seed_is_named(argv, capsys):
    assert main([*argv, "--seed", "-7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "radiosync: error: seeds must be non-negative, got -7"
    ]


@pytest.mark.parametrize(
    "part, message",
    # once numpy's "seed must be integer" and a seed of 1
    [(-3, "non-negative, got -3"), (2.5, "an integer, got 2.5"), (True, "an integer, got True")],
)
def test_seed_parts_must_be_non_negative_integers(part, message):
    for derive in (spawn_rng, derive_seed):
        with pytest.raises(ValueError, match=f"^seeds must be {re.escape(message)}$"):
            derive(7, part)


@pytest.mark.parametrize("key", ["trials", "seed"])
@pytest.mark.parametrize("value", [True, False])
def test_cli_sweep_config_refuses_booleans(key, value, tmp_path, capsys):
    # bool is an int to isinstance, but no flag can pass one
    (tmp_path / "sweep.json").write_text(json.dumps({"d_grid": "64", key: value}))
    assert main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"radiosync: error: {tmp_path / 'sweep.json'}: {key} must be int or str, "
        f"got {value!r}"
    ]


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--d-grid", "64", "--beta-grid", "0.5", "--trials", "2", "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[0] == ",".join(SUMMARY_COLUMNS)
    # the file holds exactly what the sweep prints without --out
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_cli_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_grid": "64", "trials": 1, "seed": 5}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith(",".join(SUMMARY_COLUMNS[:3]))


def test_cli_sweep_both_modes(capsys):
    assert main(["sweep", "--d-grid", "64", "--both-modes", "--seed", "8"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3  # header + base + interference cells
    assert rows[1].split(",")[3] == "0" and rows[2].split(",")[3] == "1"
