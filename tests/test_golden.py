"""Seeded CLI output pinned byte for byte.

The digests were taken before the meeting kernel and the schedule draw
were vectorized; they hold as long as the random stream and the
simulation are unchanged. A change that alters the stream on purpose
updates them and records why in CHANGES.md.

``SWEEP_DIGEST`` is the sha256 of the sweep CSV pinned before the
``drift_c`` column was dropped, with that column cut out (rewritten
with ``csv``, ``lineterminator="\n"``): removing the column changed no
other byte of the summary.
"""

import hashlib

import pytest

from radiosync import cli

RUN_DIGESTS = {
    # mode: (run CSV, event trace CSV, per-node cost CSV)
    "base": (
        "d8fa288cf01522e57fcb3cab26048c8a990a319ed7df272a37fe4d867323c779",
        "b0c509e6dc4cb437e20896898ece56a6129b0bb986b053b67de854f55fe0df4c",
        "1d9c038a244c42b4651a5ee36c1e78aa8e93dd1d6a8079a248c9979960b65f74",
    ),
    "exclusive": (
        "aaef3143e0a10a1de402bfae2b4edeb114c36ee575817b4e536fca4c10ed87e1",
        "6a5899e049ebdb61f9f8295596bb8d9ed4a607831900ab57a3cd111cd593374b",
        "60627394415b981b96b6ac889b2689585f3117c73349ee31cb04c593b02eeea1",
    ),
}

SWEEP_DIGEST = "2efa42f5076073997963dd1fe615e96de20910b46c43febe0cbebf5c0d0d08ee"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(RUN_DIGESTS))
def test_sync_run_outputs_pinned(mode, tmp_path):
    outs = [tmp_path / f"{name}.csv" for name in ("run", "trace", "costs")]
    argv = ["sync", "run", "--d", "256", "--seed", "3"]
    if mode == "exclusive":
        argv.append("--exclusive")
    argv += ["--out", str(outs[0]), "--trace", str(outs[1]),
             "--per-node-costs", str(outs[2])]
    assert cli.main(argv) == 0
    assert tuple(sha256(p) for p in outs) == RUN_DIGESTS[mode]


def test_sweep_summary_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--d-grid", "64,256", "--beta-grid", "0.5,0.75",
            "--both-modes", "--trials", "2", "--seed", "11", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sha256(out) == SWEEP_DIGEST
