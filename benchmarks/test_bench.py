"""Smoke tests of the benchmark at test sizes: it emits every metric
BENCHMARK.json declares, its checks pass on the library as it is, and
they count a planted fault as failed trials."""

import json
from pathlib import Path

import pytest

import run
from bench_workloads import WORKLOADS, protocol

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: bool) -> dict:
    return run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace, smoke=True, setup_reps=1)


def test_declared_workloads_exist():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    out = smoke(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


@pytest.mark.parametrize("workload", ["dense-base", "sparse-multihop", "estimate-n"])
def test_skipped_flood_fails_trials(workload, monkeypatch):
    # run_sync still builds the graph, but no meeting delivers anything;
    # in interference mode an undelivered flood is also what unlucky
    # back-off can produce, so no per-trial check there can tell
    monkeypatch.setattr(protocol, "_deliver_meetings", lambda *args, **kwargs: False)
    out = smoke(workload, trace=False)
    assert out["failed"] == out["attempted"] >= 1
    assert out["metrics"]["passed_frac"]["value"] == 0.0
    assert not out["correct"]
