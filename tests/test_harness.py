"""Sweep determinism, CSV schema stability, config files, CLI surface."""

import json

import pytest

from radiosync.cli import main
from radiosync.harness import (
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentSpec,
    load_config_file,
    run_one,
    run_sweep,
    summaries_to_csv,
)


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


def test_run_one_record_shape():
    record = run_one(d=64, beta=0.5, exclusive=False, seed=7)
    assert all(col in record for col in RUN_COLUMNS)
    assert record["n"] == 8
    assert len(record["_per_node_cost"]) == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(d_grid=(), beta_grid=(0.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(d_grid=(64,), beta_grid=(0.5,), trials=0)


def test_config_file_loading(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"d_grid": "64,128", "trials": 2, "seed": 9}))
    values = load_config_file(str(path))
    assert values["trials"] == 2
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"grid": {"d": 64}}))
    with pytest.raises(ValueError):
        load_config_file(str(nested))


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


def test_cli_sync_run(capsys):
    code = main(["sync", "run", "--d", "64", "--beta", "0.5", "--seed", "2"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(RUN_COLUMNS)
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


def test_cli_sync_estimate(capsys):
    code = main(["sync", "estimate-n", "--d", "64", "--true-n", "64", "--seed", "2"])
    assert code == 0
    assert "accepted" in capsys.readouterr().out


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
    ],
)
def test_cli_bad_input_is_one_line_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("radiosync: error: ")
    assert "Traceback" not in captured.err


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--d-grid",
            "64",
            "--beta-grid",
            "0.5",
            "--trials",
            "2",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == ",".join(SUMMARY_COLUMNS)


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
