"""Synchronization pipeline: parameter derivations, hand-simulated
gossip cases, convergence invariants, and the unknown-count loop."""

import math
import tracemalloc

import numpy as np
import pytest

from radiosync.detsched import build_two_proc_schedule, radio_cost
from radiosync.netsim import resolve_backoff
from radiosync.protocol import (
    NodeState,
    SimConfig,
    build_pipeline_matrix,
    draw_offsets,
    estimate_n,
    make_node_states,
    pipeline_params,
    run_pipeline,
    run_sync,
)
from radiosync.randsched import ScheduleMatrix, graph_stats
from radiosync.seeding import spawn_rng


def matrix_from_ones(columns, rows, offsets):
    return ScheduleMatrix(
        n=len(rows),
        columns=columns,
        positions=[np.array(sorted(r), dtype=np.int64) for r in rows],
        offsets=np.array(offsets, dtype=np.int64),
    )


def states_with_idents(idents, offsets=None):
    offsets = offsets or [0] * len(idents)
    return [
        NodeState(index=i, ident=ident, start_offset=off)
        for i, (ident, off) in enumerate(zip(idents, offsets))
    ]


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
    ]:
        with pytest.raises(ValueError, match=field):
            SimConfig(d=64, beta=0.5, exclusive=True, **{field: value})
    # non-finite, or so large that d**beta overflows a float
    for beta in (math.inf, -math.inf, math.nan, 200.0):
        with pytest.raises(ValueError, match="beta"):
            SimConfig(d=64, beta=beta)


# --- parameter derivations ---------------------------------------------------

def test_pipeline_params_reference_point():
    p = pipeline_params(1024, 32)
    assert p.columns == 4096
    assert p.draws == 15  # ceil(1.82 * 4096**0.25)
    assert p.repetition_k == 11
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
    with pytest.raises(ValueError, match="schedule draw too large"):
        estimate_n(SimConfig(d=64), true_n=10**13, rng=rng)
    assert rng.bit_generator.state == before


def test_make_node_states_needs_one_offset_per_node():
    for offsets in ([0, 0], [0, 0, 0, 0], [[0, 0, 0]]):
        with pytest.raises(ValueError, match="need 3 start offsets"):
            make_node_states(3, offsets, spawn_rng(0))


def test_run_sync_refuses_mismatched_states():
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    for idents in ([100, 50], [100, 50, 10, 5]):
        states = states_with_idents(idents)
        with pytest.raises(ValueError, match=f"{len(idents)} node states .* 3 rows"):
            run_sync(m, states, rounds=2)


@pytest.mark.parametrize(
    "field, value, exclusive",
    [
        # no back-off slot: zero cost and no delivery, reported as a run
        ("backoff_rounds", 0, True),
        ("transmit_delay", -3, False),
        ("transmit_delay", -3, True),
    ],
)
def test_run_sync_refuses_what_sim_config_refuses(field, value, exclusive):
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    with pytest.raises(ValueError, match=field):
        SimConfig(d=64, beta=0.5, exclusive=exclusive, **{field: value})
    with pytest.raises(ValueError, match=field):
        run_sync(
            m,
            states_with_idents([100, 50, 10]),
            2,
            exclusive=exclusive,
            rng=spawn_rng(0),
            **{field: value},
        )


def test_make_node_states_unique_idents():
    for seed in range(5):
        states = make_node_states(64, [0] * 64, spawn_rng(3, seed))
        idents = [st.ident for st in states]
        assert len(set(idents)) == 64
        assert all(st.max_seen == st.ident for st in states)


# --- hand-simulated gossip ---------------------------------------------------

def test_path_graph_adopts_max_clock():
    # meetings 0-1 then 1-2 inside one window; max ident at node 0
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    states = states_with_idents([100, 50, 10], offsets=[3, 1, 0])
    result = run_sync(m, states, 2)
    assert result.success
    assert result.root_index == 0
    assert all(st.max_seen == 100 for st in states)
    # everyone ends on the root's running clock
    assert len({st.root_origin for st in states}) == 1
    assert states[0].root_origin == 3
    assert all(st.own_time == st.root_time for st in states)


def test_adversarial_order_needs_extra_round():
    # edge 1-2 fires before 0-1 in every copy, so reaching node 2 takes
    # a second copy of the schedule
    m = matrix_from_ones(8, [[5], [2, 5], [2]], [0, 0, 0])
    states = states_with_idents([100, 50, 10])
    result = run_sync(m, states, 1)
    assert not result.success
    assert result.unreached == frozenset({2})

    states = states_with_idents([100, 50, 10])
    result = run_sync(m, states, 2)
    assert result.success
    assert result.rounds_used == 2


def test_transmission_delay_accounting():
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    states = states_with_idents([100, 50, 10])
    result = run_sync(m, states, 2, transmit_delay=3)
    assert result.success
    assert states[1].hops == 1 and states[2].hops == 2
    # believed clocks run ahead by the accumulated delay
    assert states[1].root_time == states[0].root_time + 3
    assert states[2].root_time == states[0].root_time + 6


def test_disconnected_reports_unreached():
    m = matrix_from_ones(64, [[0], [0], [0], [50]], [0, 0, 0, 0])
    states = states_with_idents([100, 50, 10, 5])
    result = run_sync(m, states, 3)
    assert not result.success
    assert result.unreached == frozenset({3})
    assert not states[3].synchronized
    assert states[0].synchronized


def test_idempotent_on_synchronized_states():
    m = matrix_from_ones(8, [[2], [2, 5], [5]], [0, 0, 0])
    states = states_with_idents([100, 50, 10])
    run_sync(m, states, 2)
    before = [(st.max_seen, st.root_origin, st.hops) for st in states]
    rerun = run_sync(m, states, 2)
    after = [(st.max_seen, st.root_origin, st.hops) for st in states]
    assert before == after
    assert rerun.success


# --- radio medium ------------------------------------------------------------

def test_base_mode_delivers_pair_and_triple():
    # a pair at 1, a triple at 3, row 2 alone at 5
    m = matrix_from_ones(8, [[1, 3], [1, 3], [3, 5]], [0, 0, 0])
    trace = []
    run_sync(m, states_with_idents([100, 50, 10]), 1, trace=trace)
    assert trace == [
        (1, (0, 1), (0, 1), {0: (1,), 1: (0,)}),
        (3, (0, 1, 2), (0, 1, 2), {0: (1, 2), 1: (0, 2), 2: (0, 1)}),
    ]


def test_offset_row_meets_at_position_plus_offset():
    m = matrix_from_ones(8, [[5], [3]], [0, 2])
    trace = []
    run_sync(m, states_with_idents([100, 50]), 1, trace=trace)
    assert trace == [(5, (0, 1), (0, 1), {0: (1,), 1: (0,)})]


def test_exclusive_transmitters_replay_backoff():
    # pairs, triples and a quadruple, over up to three schedule copies
    m = matrix_from_ones(
        16, [[1, 4, 9, 12], [1, 6, 9], [4, 6, 9, 12], [4, 9, 12]], [0, 0, 0, 0]
    )
    trace = []
    run_sync(
        m,
        states_with_idents([10, 20, 30, 40]),
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
        for _t, awake, transmitters, delivered in rows:
            heard = {s for s in awake if next(won)}
            assert transmitters == tuple(sorted(heard))
            assert delivered == {r: tuple(sorted(heard - {r})) for r in awake}


def test_exclusive_unit_without_winner_delivers_nothing():
    # the first seed whose single back-off slot has no sole transmitter
    seed = next(
        s for s in range(100) if not resolve_backoff([3], 1, spawn_rng(s)).any()
    )
    m = matrix_from_ones(8, [[3], [3], [3]], [0, 0, 0])
    states = states_with_idents([100, 50, 10])
    trace = []
    run_sync(
        m, states, 1, exclusive=True, backoff_rounds=1, rng=spawn_rng(seed), trace=trace
    )
    assert trace == [(3, (0, 1, 2), (), {0: (), 1: (), 2: ()})]
    assert [st.max_seen for st in states] == [100, 50, 10]


@pytest.mark.parametrize(
    "exclusive, expected", [(False, [12, 4]), (True, [108, 36])]
)
def test_radio_cost_is_exact(exclusive, expected):
    # awake units x rounds, times the 9 back-off slots in interference mode
    m = matrix_from_ones(16, [[0, 5, 9], [2]], [0, 0])
    result = run_sync(
        m,
        states_with_idents([100, 50]),
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
            root = states[result.root_index]
            assert all(st.max_seen == root.ident for st in states)
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
    states = make_node_states(4, matrix.offsets, rng)
    result = run_sync(matrix, states, params.rounds)
    expected = matrix.densities() * params.rounds
    assert result.per_node_radio_cost.tolist() == expected.tolist()


def test_deterministic_baseline_is_cheaper():
    d = 256
    two_proc = radio_cost(build_two_proc_schedule(d))
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


def test_estimate_requires_known_offset_bound():
    # the guess sequence is derived from d alone; true_n stays hidden
    config = SimConfig(d=128, seed=14)
    res = estimate_n(config, true_n=16)
    assert res.accepted
    assert res.estimate is not None
    assert res.estimate <= 2 * 16
