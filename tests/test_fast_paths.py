"""The vectorized meeting kernel, graph builder and schedule draw
return exactly what the slow reference loops in ``oracles`` return."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from radiosync.protocol import (
    SimConfig,
    build_pipeline_matrix,
    make_node_states,
    pipeline_params,
    run_sync,
)
from radiosync.randsched import (
    ScheduleMatrix,
    build_comm_graph,
    detect_meetings,
    draw_rows,
    gen_matrix,
    graph_from_meetings,
)
from radiosync.seeding import spawn_rng


@st.composite
def matrices(draw, zero_offsets=False):
    """Small random matrices; rows may be empty, offsets may collide."""
    n = draw(st.integers(1, 6))
    columns = draw(st.integers(1, 12))
    rows = [
        np.array(sorted(draw(st.sets(st.integers(0, columns - 1)))), dtype=np.int64)
        for _ in range(n)
    ]
    if zero_offsets:
        offsets = [0] * n
    else:
        offsets = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return ScheduleMatrix(n=n, columns=columns, positions=rows, offsets=offsets)


@st.composite
def meeting_lists(draw):
    """Column-sorted meetings with sorted participants, of any size."""
    n = draw(st.integers(2, 8))
    cols = sorted(draw(st.sets(st.integers(0, 40), max_size=12)))
    return n, [
        (col, tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))))
        for col in cols
    ]


def witness_items(graph):
    return list(graph.witness.items())


@settings(max_examples=200, deadline=None)
@given(m=matrices(), exclusive=st.booleans())
def test_kernel_and_graph_match_oracle(m, exclusive):
    assert detect_meetings(m, exclusive) == oracles.detect_meetings(m, exclusive)
    assert witness_items(build_comm_graph(m, exclusive)) == witness_items(
        oracles.build_comm_graph(m, exclusive)
    )


@settings(max_examples=50, deadline=None)
@given(m=matrices(zero_offsets=True), exclusive=st.booleans())
def test_zero_offsets_match_oracle(m, exclusive):
    assert detect_meetings(m, exclusive) == oracles.detect_meetings(m, exclusive)
    assert witness_items(build_comm_graph(m, exclusive)) == witness_items(
        oracles.build_comm_graph(m, exclusive)
    )


@settings(max_examples=100, deadline=None)
@given(case=meeting_lists())
def test_graph_builder_matches_oracle(case):
    n, meetings = case
    assert witness_items(graph_from_meetings(n, meetings)) == witness_items(
        oracles.graph_from_meetings(n, meetings)
    )


@settings(max_examples=50, deadline=None)
@given(m=matrices(), exclusive=st.booleans())
def test_run_sync_graph_and_neighbors_match_oracle(m, exclusive):
    meetings = oracles.detect_meetings(m)
    if exclusive:
        meetings = [mt for mt in meetings if len(mt[1]) == 2]
    expected = oracles.graph_from_meetings(m.n, meetings)
    rng = spawn_rng(5)
    states = make_node_states(m.n, m.offsets, rng)
    result = run_sync(m, states, 1, exclusive=exclusive, rng=rng)
    assert witness_items(result.comm_graph) == witness_items(expected)
    assert result.comm_graph.adjacency() == expected.adjacency()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_every_row_awake_in_one_column(n):
    m = ScheduleMatrix(
        n=n, columns=8, positions=[np.array([3])] * n, offsets=[0] * n
    )
    for exclusive in (False, True):
        got = detect_meetings(m, exclusive)
        assert got == oracles.detect_meetings(m, exclusive)
        assert witness_items(build_comm_graph(m, exclusive)) == witness_items(
            oracles.build_comm_graph(m, exclusive)
        )
    expected = [(3, tuple(range(n)))] if n >= 2 else []
    assert detect_meetings(m) == expected
    assert detect_meetings(m, exclusive=True) == (expected if n == 2 else [])


def test_empty_rows():
    empty = ScheduleMatrix(n=3, columns=4, positions=[[], [], []], offsets=[0, 1, 2])
    assert detect_meetings(empty) == oracles.detect_meetings(empty) == []
    assert build_comm_graph(empty).witness == {}
    some = ScheduleMatrix(n=3, columns=4, positions=[[1], [], [0, 2]], offsets=[1, 0, 0])
    assert detect_meetings(some) == oracles.detect_meetings(some) == [(2, (0, 2))]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 5),
    windows=st.integers(1, 4),
    columns=st.integers(1, 20),
    draws=st.integers(1, 25),
    seed=st.integers(0, 2**32),
)
def test_draw_rows_matches_oracle(n, windows, columns, draws, seed):
    fast_rng, slow_rng = spawn_rng(seed), spawn_rng(seed)
    fast = draw_rows(n, windows, columns, draws, fast_rng)
    slow = oracles.draw_rows(n, windows, columns, draws, slow_rng)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the stream is consumed identically, so later draws agree too
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@pytest.mark.parametrize(
    "d, beta", [(64, 0.5), (256, 0.5), (256, 0.75), (16, 1.25)]
)
def test_seeded_pipeline_matrix_matches_oracle(d, beta):
    config = SimConfig(d=d, beta=beta)
    params = pipeline_params(d, config.n)
    got = build_pipeline_matrix(config.n, params, spawn_rng(9, d))
    rows = oracles.draw_rows(
        config.n, params.windows, params.columns, params.draws, spawn_rng(9, d)
    )
    assert got.columns == params.windows * params.columns
    assert all(np.array_equal(a, b) for a, b in zip(got.positions, rows))


def test_gen_matrix_matches_per_row_unique():
    rng = spawn_rng(12)
    got = gen_matrix(6, 300, 0.5, 1.82, rng)
    ref_rng = spawn_rng(12)
    ref = [np.unique(ref_rng.integers(0, 300, size=32)) for _ in range(6)]
    assert all(np.array_equal(a, b) for a, b in zip(got.positions, ref))
