"""Synchronization pipeline: parameter derivations, hand-simulated
gossip cases, convergence invariants, and the unknown-count loop."""

import math
import re
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import oracles
from radiosync import protocol, seeding
from radiosync.detsched import build_two_proc_schedule
from radiosync.netsim import resolve_backoff
from radiosync.protocol import (
    NodeReading,
    SimConfig,
    build_pipeline_matrix,
    draw_identifiers,
    draw_offsets,
    estimate_n,
    pipeline_params,
    run_pipeline,
    run_sync,
)
from radiosync.randsched import CommGraph, ScheduleMatrix, graph_stats
from radiosync.seeding import spawn_rng


def differing_fields(got, want) -> list[str]:
    """The fields on which two result dataclasses differ: arrays in
    dtype or values, graphs by :func:`oracles.same_graph`, the rest in
    type or by ``==``."""
    out = []
    for name in (f.name for f in fields(want)):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            same = a.dtype == b.dtype and np.array_equal(a, b)
        elif isinstance(b, CommGraph):
            same = oracles.same_graph(a, b)
        else:
            same = type(a) is type(b) and a == b
        if not same:
            out.append(name)
    return out


def matrix_from_ones(columns, rows, offsets):
    rows = [np.array(sorted(r), dtype=np.int64) for r in rows]
    return oracles.matrix(len(rows), columns, rows, np.array(offsets, dtype=np.int64))


# --- config ------------------------------------------------------------------

def test_config_derivations():
    c = SimConfig(d=1024, beta=0.5)
    assert c.n == 32
    assert c.columns == 4096
    assert c.backoff_rounds == 25  # ceil(log2 32)**2
    c2 = SimConfig(d=16, n=4)
    assert c2.backoff_rounds == 4
    unknown = SimConfig(d=64)
    assert unknown.n is None


def test_config_n_must_agree_with_beta():
    # given both, n must be ceil(d**beta): a contradiction is refused,
    # not settled by dropping beta
    with pytest.raises(ValueError, match=r"n=5 contradicts beta=0.9: ceil\(d\*\*beta\) = 13"):
        SimConfig(d=16, n=5, beta=0.9)
    assert SimConfig(d=16, n=13, beta=0.9).n == 13
    # a copy of a config derived from beta carries both, and they agree
    c = SimConfig(d=1024, beta=0.5, seed=1)
    copied = replace(c, seed=2, exclusive=True)
    assert (copied.n, copied.beta, copied.seed, copied.exclusive) == (32, 0.5, 2, True)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(d=0, n=2)
    with pytest.raises(ValueError):
        SimConfig(d=4, n=1)
    with pytest.raises(ValueError):
        SimConfig(d=4, n=2, rounds=0)
    # each bad field fails here, naming itself, before any schedule is drawn
    for field, value in [
        ("scale", -1.0),
        ("scale", 0.0),
        ("scale", math.nan),
        ("scale", math.inf),
        ("repetition_k", 0),
        ("columns", 0),
        ("backoff_rounds", 0),
        ("transmit_delay", -1),
        ("polylog_exp", -3),
    ]:
        with pytest.raises(ValueError, match=field):
            SimConfig(d=64, beta=0.5, exclusive=True, **{field: value})
    # non-finite, or so large that d**beta overflows a float
    for beta in (math.inf, -math.inf, math.nan, 200.0):
        with pytest.raises(ValueError, match="beta"):
            SimConfig(d=64, beta=beta)
    # once n = 64 from d**True, and a TypeError inside math.isfinite
    for beta in (True, "0.5"):
        with pytest.raises(ValueError, match=f"^beta must be finite, got {beta!r}$"):
            SimConfig(d=64, beta=beta)


@pytest.mark.parametrize(
    "field, value",
    [
        # once draws=1 a window (n > d takes the poly-log density)
        ("polylog_exp", -3),
        # once draws=-1, refused later by numpy's negative dimensions
        ("scale", -1.0),
        # once numpy's "cannot convert float NaN to integer"
        ("scale", math.nan),
        # once an empty schedule, or a silent zero-copy budget
        ("columns", 0),
        ("repetition_k", 0),
        ("rounds", 0),
        # once taken as given: a fractional poly-log exponent or window
        ("polylog_exp", 1.5),
        ("columns", 64.5),
        # once a scale of 1, and a TypeError inside math.isfinite
        ("scale", True),
        ("scale", "2"),
    ],
)
def test_pipeline_params_refuses_what_config_refuses(field, value):
    # the library entry and SimConfig share one check and one message
    with pytest.raises(ValueError, match=field) as from_params:
        pipeline_params(16, 40, **{field: value})
    with pytest.raises(ValueError, match=field) as from_config:
        SimConfig(d=16, n=40, **{field: value})
    assert str(from_params.value) == str(from_config.value)


# --- parameter derivations ---------------------------------------------------

def test_pipeline_params_reference_point():
    p = pipeline_params(1024, 32)
    assert p.columns == 4096
    assert p.draws == 15  # ceil(1.82 * 4096**0.25)
    assert p.stage_windows == 55  # ceil(11 * log2(31))
    assert p.amplification == 5
    assert p.rounds == 15
    assert p.windows == 275


def test_pipeline_params_density_scaling():
    assert pipeline_params(4096, 64).draws == 21  # ceil(1.82 * 16384**0.25)
    assert pipeline_params(256, 16).draws == 11
    assert pipeline_params(16384, 128).draws == 30


def test_pipeline_params_equal_count_boundary():
    # n = d: exponent zero, constant draws
    p = pipeline_params(64, 64)
    assert p.draws == 2  # ceil(1.82)


def test_pipeline_params_oversubscribed():
    # n > d: fixed poly-log density, single stage window
    p = pipeline_params(16, 32)
    assert p.draws == 16  # log2(16)**2
    assert p.stage_windows == 1


def test_build_matrix_shape_and_determinism():
    params = pipeline_params(64, 4)
    a = build_pipeline_matrix(4, params, spawn_rng(1))
    b = build_pipeline_matrix(4, params, spawn_rng(1))
    assert a.columns == params.windows * 256
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.starts, b.starts)
    assert a.positions.max() < a.columns
    assert all(a.densities() <= params.windows * params.draws)


def test_schedule_draw_beyond_memory_is_refused():
    # n = ceil(4096**3) rows would need petabytes; nothing is drawn
    config = SimConfig(d=4096, beta=3.0)
    params = pipeline_params(config.d, config.n)
    rng = spawn_rng(0)
    before = rng.bit_generator.state
    shape = f"n={config.n} rows x {params.windows} windows x {params.draws} draws"
    with pytest.raises(ValueError, match=shape):
        build_pipeline_matrix(config.n, params, rng)
    with mock.patch.object(protocol, "spawn_rng", return_value=rng):
        with pytest.raises(ValueError, match="schedule draw too large"):
            estimate_n(SimConfig(d=64), true_n=10**13)
    assert rng.bit_generator.state == before


def test_meeting_pairs_beyond_memory_are_refused(monkeypatch):
    # d=64, beta=1.2: 148 radios, a draw of 0.3 MB and about 760k
    # directed meeting pairs; with 4 MB of physical memory the draw and
    # the detection pass, and the pairs are refused before any is built
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
    monkeypatch.setattr(seeding.os, "sysconf", pages.__getitem__)
    detect, detected = protocol.detect_meetings, []

    def recorded(matrix):
        detected.append(detect(matrix))
        return detected[-1]

    monkeypatch.setattr(protocol, "detect_meetings", recorded)
    for exclusive in (False, True):
        with pytest.raises(ValueError, match="^meeting pairs too large: ") as err:
            run_pipeline(SimConfig(d=64, beta=1.2, exclusive=exclusive))
        sizes = detected[-1].sizes
        assert f": {(sizes * (sizes - 1)).sum()} directed pairs needs " in str(err.value)
    assert len(detected) == 2


def test_run_sync_refuses_mismatched_states():
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    for idents in ([100, 50], [100, 50, 10, 5]):
        shape = rf"3 entries, got \({len(idents)},\)"
        with pytest.raises(ValueError, match=f"^ident must be a 1-D array of {shape}$"):
            run_sync(m, idents, rounds=2)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("ident", [[100, 50, 10]], "must be a 1-D array of 3 entries"),
        ("ident", [100.0, 50.0, 10.0], "must be integers"),
        # one holder per identifier: a tie would leave the root ambiguous
        ("node", [100, 50, 100], "identifiers must be unique"),
    ],
)
def test_run_sync_refuses_bad_node_records(field, value, message):
    # bad identifiers fail with one line, before any meeting is detected
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    with mock.patch.object(protocol, "detect_meetings", side_effect=AssertionError):
        with pytest.raises(ValueError, match=f"^{field} {message}") as err:
            run_sync(m, value, 2)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        # the flood keys time * n + hops pass int64 (once a bare
        # OverflowError)
        ("rounds", dict(rounds=2**62)),
        # 2**70 slot units a radio wrap to a billed cost of 0, in a run
        # that stops after one copy and reports success
        ("backoff_rounds", dict(rounds=2**40, exclusive=True, backoff_rounds=2**30)),
        # the origins wrap: a positive root_origin, a negative root_time
        ("transmit_delay", dict(rounds=2, transmit_delay=2**62)),
    ],
)
def test_run_sync_refuses_int64_overflow(field, kwargs):
    # refused with one line naming the field, before any meeting is
    # detected
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    with mock.patch.object(protocol, "detect_meetings", side_effect=AssertionError):
        with pytest.raises(ValueError, match=f"^{field}={kwargs[field]} is too large") as err:
            run_sync(m, [100, 50, 10], rng=spawn_rng(0), **kwargs)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "call, message",
    [
        # once numpy's "zero-size array to reduction operation maximum"
        (
            lambda: run_sync(ScheduleMatrix(0, 4, [], [], starts=[0]), [], 1),
            "row count must be positive, got 0",
        ),
        (
            lambda: run_sync(
                matrix_from_ones(8, [[2], [2, 5]], [0, 0]), [2, 1], 1, exclusive=True
            ),
            "interference mode needs an rng for back-off",
        ),
        (lambda: run_pipeline(SimConfig(d=64)), "processor count unknown; use estimate_n"),
    ],
    ids=["no-rows", "no-rng", "n-unknown"],
)
def test_run_refuses_what_it_cannot_simulate(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_largest_delay_allowed_keeps_its_clocks():
    # two hops from the root over 2 copies of 8 columns; one more is
    # refused
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    limit = (2**63 - 1 - 8 * 2) // 2
    result = run_sync(m, [100, 50, 10], 2, transmit_delay=limit)
    assert result.success and result.root_origin.tolist() == [0, -limit, -2 * limit]
    assert result.root_time.tolist() == [16, 16 + limit, 16 + 2 * limit]
    with pytest.raises(ValueError, match="^transmit_delay="):
        run_sync(m, [100, 50, 10], 2, transmit_delay=limit + 1)


def test_pipeline_and_estimation_refuse_int64_overflow():
    # refused with one line naming the field, at the worst case of the
    # draw's shape, before any schedule is drawn (a large-n draw alone
    # takes 0.2 s)
    refused = [
        ("transmit_delay", run_pipeline, SimConfig(d=64, beta=0.5, transmit_delay=2**62)),
        ("rounds", run_pipeline, SimConfig(d=64, beta=0.5, rounds=2**50)),
        ("rounds", run_pipeline, SimConfig(d=16384, beta=0.75, rounds=2**60)),
        ("backoff_rounds", estimate_n, SimConfig(d=64, exclusive=True, backoff_rounds=2**60)),
        ("transmit_delay", estimate_n, SimConfig(d=64, transmit_delay=2**62)),
    ]
    with mock.patch.object(protocol, "build_pipeline_matrix", side_effect=AssertionError):
        for field, run, config in refused:
            args = (config, 8) if run is estimate_n else (config,)
            with pytest.raises(ValueError, match=rf"^{field}=\d+ is too large") as err:
                run(*args)
            assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "field, value, exclusive",
    [
        # no back-off slot: zero cost and no delivery, reported as a run
        ("backoff_rounds", 0, True),
        ("rounds", 0, False),
        ("transmit_delay", -3, False),
        ("transmit_delay", -3, True),
        # a fraction would be billed as fractional copies or slots, or
        # truncate the origins, without an error
        ("rounds", 2.5, False),
        ("backoff_rounds", 2.5, True),
        ("transmit_delay", 0.5, False),
        ("transmit_delay", 0.5, True),
    ],
)
def test_run_sync_refuses_what_sim_config_refuses(field, value, exclusive):
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    with pytest.raises(ValueError, match=f"^{field} "):
        SimConfig(d=64, beta=0.5, exclusive=exclusive, **{field: value})
    with pytest.raises(ValueError, match=f"^{field} "):
        run_sync(
            m,
            [100, 50, 10],
            exclusive=exclusive,
            rng=spawn_rng(0),
            **{"rounds": 2, field: value},
        )


@pytest.mark.parametrize("value", ["no", "", 1, None, np.int64(0)])
def test_exclusive_must_be_a_bool(value):
    # once any truthy value chose the interference model ("no" billed
    # the back-off slots) and any falsy one the base model
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    message = f"^exclusive must be a bool, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SimConfig(d=16, beta=0.5, exclusive=value, seed=1)
    with pytest.raises(ValueError, match=message):
        run_sync(m, [100, 50, 10], 2, exclusive=value, rng=spawn_rng(0))
    # a numpy bool is held as a Python bool
    assert SimConfig(d=16, beta=0.5, exclusive=np.True_).exclusive is True


@pytest.mark.parametrize(
    "field, value",
    [
        ("d", 64.0),
        ("n", 8.0),
        ("repetition_k", 11.5),
        ("seed", 1.5),
        ("columns", 300.5),
        ("polylog_exp", 2.0),
        ("rounds", True),
        ("true_n", 8.5),
        ("true_n", np.float64(8)),
    ],
)
def test_counts_must_be_integers(field, value):
    # one line naming the field, not a numpy error or a silent fraction;
    # numpy integers still pass
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got ") as err:
        if field == "true_n":
            estimate_n(SimConfig(d=64), value)
        else:
            SimConfig(**{"d": 64, "n": 8, field: value})
    assert "\n" not in str(err.value)
    SimConfig(d=np.int64(64), n=np.int32(8), rounds=np.uint8(2), seed=np.int64(3))


def test_node_state_origin_is_not_an_argument():
    # the origin starts at the schedule's offsets, the one copy of
    # them; passing one is an error, not silently dropped
    m = matrix_from_ones(8, [[1], [6]], [3, 0])
    assert run_sync(m, [5, 4], 1).root_origin.tolist() == [3, 0]
    with pytest.raises(TypeError, match="root_origin"):
        run_sync(m, [5, 4], 1, root_origin=np.array([9, 9]))


def test_draw_identifiers_unique():
    for seed in range(5):
        idents = draw_identifiers(64, spawn_rng(3, seed))
        assert idents.dtype == np.int64 and idents.shape == (64,)
        assert np.unique(idents).size == 64
        assert idents.min() >= 1
    # a batch with a collision is redrawn whole
    batches = iter([np.array([7, 7, 9]), np.array([7, 8, 9])])
    rng = SimpleNamespace(integers=lambda *args, **kwargs: next(batches))
    assert draw_identifiers(3, rng).tolist() == [7, 8, 9]


# --- hand-simulated gossip ---------------------------------------------------

def test_path_graph_adopts_max_clock():
    # meetings 0-1 at column 3 then 1-2 at column 6 inside one window;
    # max ident at node 0, and the nodes start at offsets 3, 1 and 0
    m = matrix_from_ones(8, [[0], [2, 5], [6]], [3, 1, 0])
    result = run_sync(m, [100, 50, 10], 2)
    assert result.success
    assert result.root_index == 0
    assert result.max_seen.tolist() == [100, 100, 100]
    # everyone ends on the root's running clock
    assert result.root_origin.tolist() == [3, 3, 3]
    assert len(set(result.root_time.tolist())) == 1


def test_adversarial_order_needs_extra_round():
    # edge 1-2 fires before 0-1 in every copy, so reaching node 2 takes
    # a second copy of the schedule
    m = matrix_from_ones(8, [[5], [2, 5], [2]], [0, 0, 0])
    result = run_sync(m, [100, 50, 10], 1)
    assert not result.success
    assert np.flatnonzero(~result.synchronized).tolist() == [2]

    result = run_sync(m, [100, 50, 10], 2)
    assert result.success
    assert result.rounds_used == 2


def test_transmission_delay_accounting():
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    result = run_sync(m, [100, 50, 10], 2, transmit_delay=3)
    assert result.success
    assert result.hops.tolist() == [0, 1, 2]
    # believed clocks run ahead by the accumulated delay
    assert (result.root_time - result.root_time[0]).tolist() == [0, 3, 6]


def test_disconnected_reports_unreached():
    m = matrix_from_ones(64, [[0], [0], [0], [50]], [0, 0, 0, 0])
    result = run_sync(m, [100, 50, 10, 5], 3)
    assert not result.success
    assert result.synchronized.tolist() == [True, True, True, False]


def test_run_leaves_its_identifiers_unchanged():
    # a run reads its identifiers and floods copies of them, so a second
    # run from the same array reports the same, in either model
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    idents = np.array([100, 50, 10])
    for exclusive in (False, True):
        first, rerun = (
            run_sync(m, idents, 2, exclusive=exclusive, rng=spawn_rng(1)) for _ in range(2)
        )
        assert idents.tolist() == [100, 50, 10]
        assert first.max_seen.tolist() == [100, 100, 100]
        for name in ("max_seen", "root_origin", "hops", "synchronized", "root_time"):
            assert np.array_equal(getattr(rerun, name), getattr(first, name))


# --- radio medium ------------------------------------------------------------

def test_base_mode_delivers_pair_and_triple():
    # a pair at 1, a triple at 3, row 2 alone at 5
    m = matrix_from_ones(8, [[1, 3], [1, 3], [3, 5]], [0, 0, 0])
    trace = []
    run_sync(m, [100, 50, 10], 1, trace=trace)
    assert trace == [(1, (0, 1), (0, 1)), (3, (0, 1, 2), (0, 1, 2))]


def test_offset_row_meets_at_position_plus_offset():
    m = matrix_from_ones(8, [[5], [3]], [0, 2])
    trace = []
    run_sync(m, [100, 50], 1, trace=trace)
    assert trace == [(5, (0, 1), (0, 1))]


def test_exclusive_transmitters_replay_backoff():
    # pairs, triples and a quadruple, over up to three schedule copies
    m = matrix_from_ones(
        16, [[1, 4, 9, 12], [1, 6, 9], [4, 6, 9, 12], [4, 9, 12]], [0, 0, 0, 0]
    )
    trace = []
    run_sync(
        m,
        [10, 20, 30, 40],
        3,
        exclusive=True,
        backoff_rounds=3,
        rng=spawn_rng(21),
        trace=trace,
    )
    # each copy's winners are one resolve_backoff draw over its units
    replay = spawn_rng(21)
    assert trace
    for copy in range(3):
        rows = [row for row in trace if row[0] // 16 == copy]
        won = iter(resolve_backoff([len(row[1]) for row in rows], 3, replay).tolist())
        for _t, awake, transmitters in rows:
            heard = {s for s in awake if next(won)}
            assert transmitters == tuple(sorted(heard))


def test_exclusive_unit_without_winner_delivers_nothing():
    # the first seed whose single back-off slot has no sole transmitter
    seed = next(
        s for s in range(100) if not resolve_backoff([3], 1, spawn_rng(s)).any()
    )
    m = matrix_from_ones(8, [[3], [3], [3]], [0, 0, 0])
    trace = []
    result = run_sync(
        m, [100, 50, 10], 1, exclusive=True, backoff_rounds=1, rng=spawn_rng(seed), trace=trace
    )
    assert trace == [(3, (0, 1, 2), ())]
    assert result.max_seen.tolist() == [100, 50, 10]


@pytest.mark.parametrize(
    "exclusive, expected", [(False, [12, 4]), (True, [108, 36])]
)
def test_radio_cost_is_exact(exclusive, expected):
    # awake units x rounds, times the 9 back-off slots in interference mode
    m = matrix_from_ones(16, [[0, 5, 9], [2]], [0, 0])
    result = run_sync(
        m,
        [100, 50],
        4,
        exclusive=exclusive,
        backoff_rounds=9,
        rng=spawn_rng(1),
    )
    assert result.per_node_radio_cost.tolist() == expected


# --- full pipeline -----------------------------------------------------------

def test_smallest_network():
    result = run_pipeline(SimConfig(d=64, n=2, seed=5))
    assert result.success
    assert result.per_node_radio_cost.shape == (2,)


def test_pipeline_convergence_and_agreement():
    for seed in (0, 1, 2):
        result = run_pipeline(SimConfig(d=256, beta=0.5, seed=seed))
        states = result.states
        stats = graph_stats(result.comm_graph, root=result.root_index)
        if stats.connected:
            assert result.success
            assert all(st.max_seen == result.root_ident for st in states)
            assert len({st.root_origin for st in states}) == 1


def test_interference_mode_pipeline():
    config = SimConfig(d=256, beta=0.5, seed=3, exclusive=True)
    result = run_pipeline(config)
    # cost includes the back-off expansion on every awake unit
    counts = result.per_node_radio_cost
    assert (counts % config.backoff_rounds == 0).all()


def test_interference_trial_peak_memory_stays_near_the_raw_draw():
    # what is still live at a trial's peak sets the benchmark's peak
    # RSS; one more array of the kernel's size kept alive pushes the
    # ratio from about 3.2 to about 4.2
    def trial(config):
        result = run_pipeline(config)
        graph_stats(result.comm_graph, root=result.root_index)

    # a fresh process's first trial allocates more than later ones do
    trial(SimConfig(d=4096, beta=0.5, exclusive=True, seed=0))
    config = SimConfig(d=4096, beta=0.5, exclusive=True, seed=1)
    params = pipeline_params(config.d, config.n)
    raw_draw_bytes = config.n * params.windows * params.draws * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        trial(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = (peak - start) / raw_draw_bytes
    assert ratio < 3.5, f"peak {ratio:.2f} x the raw draw's {raw_draw_bytes} bytes"


def test_measure_radio_cost_matches_schedule():
    rng = spawn_rng(9)
    params = pipeline_params(64, 4)
    matrix = build_pipeline_matrix(4, params, rng)
    matrix = matrix.with_offsets(draw_offsets(4, 64, rng))
    result = run_sync(matrix, draw_identifiers(4, rng), params.rounds)
    expected = matrix.densities() * params.rounds
    assert result.per_node_radio_cost.tolist() == expected.tolist()


def test_deterministic_baseline_is_cheaper():
    d = 256
    two_proc = build_two_proc_schedule(d).density
    assert two_proc <= 4 * 16 + 4
    result = run_pipeline(SimConfig(d=d, beta=0.5, seed=0))
    assert two_proc < result.per_node_radio_cost.max()


def test_equal_count_cost_is_polylog():
    # at n = d the density is constant, so the whole per-node budget is
    # repetition counts only; report the measured poly-log constant
    d = 256
    result = run_pipeline(SimConfig(d=d, n=d, seed=1))
    top = int(result.per_node_radio_cost.max())
    lg3 = math.log2(d) ** 3
    print(f"n=d={d}: max cost {top} = {top / lg3:.1f} * log2(d)^3")
    assert top <= 64 * lg3  # loose sanity envelope, not a fitted bound


def test_runs_build_no_per_node_objects(monkeypatch):
    # the node state stays arrays through a run; the per-node view is
    # built only when read, and then from the result's arrays
    built = []

    class Counted(NodeReading):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(protocol, "NodeReading", Counted)
    for exclusive in (False, True):
        result = run_pipeline(SimConfig(d=256, beta=0.75, exclusive=exclusive, seed=4))
        assert built == []
        states = result.states
        assert len(built) == len(states) == 64 and result.states is states
        for name in ("max_seen", "root_origin", "hops", "synchronized", "root_time"):
            assert [getattr(st, name) for st in states] == getattr(result, name).tolist()
        built.clear()
    assert estimate_n(SimConfig(d=64, seed=12), true_n=8).accepted
    assert built == []


# --- unknown count -----------------------------------------------------------

def test_estimate_accepts_first_guess_when_count_equals_bound():
    config = SimConfig(d=64, seed=11)
    res = estimate_n(config, true_n=64)
    assert res.accepted
    assert res.epochs_run == 1
    assert res.estimate == 64


def test_estimate_halving_reaches_true_count():
    config = SimConfig(d=64, seed=12)
    res = estimate_n(config, true_n=8)
    assert res.accepted
    assert res.estimate in (8, 16)  # within factor 2 of 8
    assert res.epochs_run >= 3
    assert res.synchronized_fraction >= 8 / 9


def test_estimate_cost_dominated_by_final_epoch():
    config = SimConfig(d=256, seed=13)
    res = estimate_n(config, true_n=16)
    assert res.accepted
    assert len(res.per_epoch_max_cost) == res.epochs_run
    assert res.total_max_cost <= 4 * res.final_epoch_max_cost
    # densities grow geometrically, so per-epoch costs increase
    assert all(
        a <= b
        for a, b in zip(res.per_epoch_max_cost, res.per_epoch_max_cost[1:])
    )


@pytest.mark.parametrize(
    "field, value", [("n", 500), ("beta", 0.5), ("rounds", 1), ("repetition_k", 1)]
)
def test_estimate_refuses_fields_it_derives(field, value):
    # the count is unknown and the stage shape comes from d alone, so a
    # set field would be silently ignored
    config = SimConfig(d=1024, seed=5, **{field: value})
    with pytest.raises(ValueError, match=f"estimate_n derives {field} from d"):
        estimate_n(config, 32)


@pytest.mark.parametrize("exclusive", [False, True], ids=["base", "exclusive"])
@pytest.mark.parametrize("d", [16, 64, 256])
def test_estimate_equals_syncing_every_epoch(d, exclusive):
    # a root never counts more radios than there are, so an epoch whose
    # guess exceeds true_n is refused whatever it simulates: in the base
    # model it is only drawn and billed, yet every output and the rng
    # stream after the call are those of syncing it in full
    for true_n in (2, 3, 7, 12, 40, 100):
        for transmit_delay in (0, 3):
            for seed in range(3):
                config = SimConfig(
                    d=d, exclusive=exclusive, transmit_delay=transmit_delay, seed=seed
                )
                got_rng, want_rng = spawn_rng(seed), spawn_rng(seed)
                with mock.patch.object(protocol, "spawn_rng", return_value=got_rng):
                    got = estimate_n(config, true_n)
                want = oracles.estimate_every_epoch(config, true_n, want_rng)
                assert differing_fields(got, want) == [], (true_n, transmit_delay, seed)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_estimate_detects_meetings_only_in_epochs_it_could_accept(monkeypatch):
    calls = []
    detect = protocol.detect_meetings
    monkeypatch.setattr(protocol, "detect_meetings", lambda m: calls.append(m) or detect(m))
    # guesses 256, 128, 64 and 32 exceed the 16 radios present
    above = sum(guess > 16 for guess in protocol.estimate_guesses(256))
    assert above == 4
    for exclusive, skipped in ((False, above), (True, 0)):
        calls.clear()
        res = estimate_n(SimConfig(d=256, exclusive=exclusive, seed=13), true_n=16)
        assert res.accepted and res.epochs_run > above
        assert len(calls) == res.epochs_run - skipped


@pytest.mark.parametrize("integer", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integer_counts_run_as_python_ints(integer):
    # a numpy count once reached the uint32 meeting keys: int64 failed
    # to cast, int32 overflowed
    config = SimConfig(d=256, n=integer(16), seed=3)
    assert type(config.n) is int
    want = run_pipeline(SimConfig(d=256, n=16, seed=3))
    assert differing_fields(run_pipeline(config), want) == []
    want = estimate_n(SimConfig(d=64, seed=3), 8)
    assert differing_fields(estimate_n(SimConfig(d=64, seed=3), integer(8)), want) == []
    positions, starts = np.array([0, 4, 1, 4, 7, 4]), np.array([0, 2, 5, 6])
    m = ScheduleMatrix(integer(3), integer(10), positions, [2, 0, 1], starts=starts)
    assert (type(m.n), type(m.columns)) == (int, int)
    plain = ScheduleMatrix(3, 10, positions, [2, 0, 1], starts=starts)
    want = run_sync(plain, [5, 9, 2], 2)
    assert differing_fields(run_sync(m, [5, 9, 2], integer(2)), want) == []
    # the overflow check multiplies Python ints, so the type's largest
    # value neither wraps it nor warns: the refusal is the same
    top = int(np.iinfo(integer).max)
    with pytest.raises(ValueError) as want_err:
        run_sync(plain, [5, 9, 2], top, exclusive=True, backoff_rounds=top)
    with pytest.raises(ValueError) as got_err:
        run_sync(m, [5, 9, 2], integer(top), exclusive=True, backoff_rounds=integer(top))
    assert str(got_err.value) == str(want_err.value)


def test_estimate_requires_known_offset_bound():
    # the guess sequence is derived from d alone; true_n stays hidden
    config = SimConfig(d=128, seed=14)
    res = estimate_n(config, true_n=16)
    assert res.accepted
    assert res.estimate is not None
    assert res.estimate <= 2 * 16
