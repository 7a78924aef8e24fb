"""Seeded output pinned byte for byte: the CLI's CSVs, and the library
results the CLI does not print.

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

The ``estimate-n`` and large-n pins were taken before meeting bands
were narrowed to a cache-sized count of units. Arrays are pinned by the
sha256 of their little-endian int64 bytes. The large-n base run is the
one pinned output of meeting detection over dozens of bands of a
pipeline-sized matrix.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from radiosync import cli
from radiosync.protocol import EstimateResult, SimConfig, estimate_n, run_pipeline

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


#: ``sync estimate-n`` stdout by (d, true n, seed). No command-line input
#: was found that fails to accept; ``ESTIMATES`` pins such a case.
ESTIMATE_CSV_DIGESTS = {
    # the four guesses above 16 are billed, not synced; accepts at 16
    ("256", "16", "7"): "d8a6f7f539c5b717960256ac24e56323e70a780817c31d45f75949e80eb94cc0",
    # more radios than d: the first epoch is synced and accepts
    ("16", "40", "7"): "db752cf4c89c8d8ce72f47785ed97a680288766b5d212288bd762cdfbc1ac625",
}

#: every :class:`EstimateResult` field of library-level runs, the
#: per-node costs by digest
ESTIMATES = {
    "interference": (
        SimConfig(d=64, seed=3, exclusive=True),
        16,
        dict(
            estimate=16, accepted=True, epochs_run=3, synchronized_fraction=1.0,
            per_node_cost="199f4131e0436002f77ded0f4d6581cfa6092273592658284d58ce5280cc06f7",
            per_epoch_max_cost=[456192, 682560, 1135296],
        ),
    ),
    # one wake-up or two a window over 2**16 columns: the two radios
    # never meet, and the last epochs' duplicate draws move the costs
    "not-accepted": (
        SimConfig(d=64, scale=0.1, columns=2**16, seed=21),
        2,
        dict(
            estimate=None, accepted=False, epochs_run=6, synchronized_fraction=0.0,
            per_node_cost="52f33f0f464e4999123c0fefeecab847347e0b31152100b241d8c1fedf6fde5a",
            per_epoch_max_cost=[6336, 6336, 6336, 12672, 31680, 69680],
        ),
    ),
}

#: ``run_pipeline(SimConfig(d=16384, beta=0.75, seed=3))``: 1449 radios
LARGE_N_DIGESTS = {
    "max_seen": "b75ded86bed723f5c8f1efa576c77c240d7dbe8670718d1580844f7b010ef66f",
    "root_origin": "f6a64c4179ac77dfa67591a565871f9d0fe37628cce70954b3dea14d57747139",
    "hops": "54a129c436f950236c7f871dc5acf2aab388c8443634e152b8b6efa79d88f344",
    "per_node_radio_cost": "adb47a97ee33625941868d7d810bf836c8fd751db79bca8ace149a650080d980",
    "indptr": "42e0135711e61793b305c3e11121781f797bafdfde110d69c1f8f0d4b171a337",
    "indices": "77863e8bd2006b97ba5f4c83ee0c79be7860b8ee5d057bd2f24e56825e4a8b75",
    "first_cols": "37f4a8de49b8585583dff17c0e3e5b412bc41d9bbb2fb45be7a202cfbfca7817",
}


def array_digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("d, true_n, seed", sorted(ESTIMATE_CSV_DIGESTS))
def test_estimate_n_csv_pinned(d, true_n, seed, capsys):
    argv = ["sync", "estimate-n", "--d", d, "--true-n", true_n, "--seed", seed]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    pinned = ESTIMATE_CSV_DIGESTS[d, true_n, seed]
    assert hashlib.sha256(out.encode()).hexdigest() == pinned, out


@pytest.mark.parametrize("case", sorted(ESTIMATES))
def test_estimate_n_result_pinned(case):
    config, true_n, pinned = ESTIMATES[case]
    result = estimate_n(config, true_n)
    got = {f.name: getattr(result, f.name) for f in dataclasses.fields(EstimateResult)}
    got["per_node_cost"] = array_digest(got["per_node_cost"])
    assert got == pinned


def test_large_n_base_run_pinned():
    result = run_pipeline(SimConfig(d=16384, beta=0.75, seed=3))
    graph = result.comm_graph
    got = {
        name: array_digest(getattr(graph if hasattr(graph, name) else result, name))
        for name in LARGE_N_DIGESTS
    }
    moved = [name for name, digest in LARGE_N_DIGESTS.items() if got[name] != digest]
    assert not moved, f"large-n digests moved: {', '.join(moved)} (now {got})"
