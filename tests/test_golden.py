"""Seeded CLI output pinned byte for byte.

The digests were taken before the meeting kernel and the schedule draw
were vectorized; they hold as long as the random stream and the
simulation are unchanged. A change that alters the stream on purpose
updates them and records why in CHANGES.md. Each of a run's three
CSVs (run summary, event trace, per-node costs) is pinned by name, so a
failure says which of them moved.

``SWEEP_DIGEST`` is the sha256 of the sweep CSV pinned before the
``drift_c`` column was dropped, with that column cut out (rewritten
with ``csv``, ``lineterminator="\n"``): removing the column changed no
other byte of the summary.
"""

import hashlib

import pytest

from radiosync import cli

RUN_DIGESTS = {
    "base": {
        "run": "d8fa288cf01522e57fcb3cab26048c8a990a319ed7df272a37fe4d867323c779",
        "trace": "b0c509e6dc4cb437e20896898ece56a6129b0bb986b053b67de854f55fe0df4c",
        "costs": "1d9c038a244c42b4651a5ee36c1e78aa8e93dd1d6a8079a248c9979960b65f74",
    },
    "exclusive": {
        "run": "aaef3143e0a10a1de402bfae2b4edeb114c36ee575817b4e536fca4c10ed87e1",
        "trace": "299b1f55b1615d3bfa70a2d8e77a18d9d728ccfa2437a3b42476be28ca0bf73c",
        "costs": "60627394415b981b96b6ac889b2689585f3117c73349ee31cb04c593b02eeea1",
    },
}

SWEEP_DIGEST = "2efa42f5076073997963dd1fe615e96de20910b46c43febe0cbebf5c0d0d08ee"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(RUN_DIGESTS))
def test_sync_run_outputs_pinned(mode, tmp_path):
    outs = {name: tmp_path / f"{name}.csv" for name in RUN_DIGESTS[mode]}
    argv = ["sync", "run", "--d", "256", "--seed", "3"]
    if mode == "exclusive":
        argv.append("--exclusive")
    argv += ["--out", str(outs["run"]), "--trace", str(outs["trace"]),
             "--per-node-costs", str(outs["costs"])]
    assert cli.main(argv) == 0
    got = {name: sha256(path) for name, path in outs.items()}
    moved = [name for name, digest in RUN_DIGESTS[mode].items() if got[name] != digest]
    assert not moved, f"{mode} CSV digests moved: {', '.join(moved)} (now {got})"


def test_sweep_summary_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--d-grid", "64,256", "--beta-grid", "0.5,0.75",
            "--both-modes", "--trials", "2", "--seed", "11", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sha256(out) == SWEEP_DIGEST
