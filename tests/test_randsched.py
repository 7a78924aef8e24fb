"""Schedule matrices, meeting detection, and graph statistics."""

import math

import numpy as np
import pytest

from radiosync.bitstrings import BitSchedule, ShiftAssignment, pack_non_overlapping
from radiosync.randsched import (
    CommGraph,
    ScheduleMatrix,
    build_comm_graph,
    detect_meetings,
    gen_matrix,
    graph_stats,
    repetition_constant,
)
from radiosync.seeding import spawn_rng


def matrix_from_ones(columns, rows, offsets=None):
    m = ScheduleMatrix(
        n=len(rows),
        columns=columns,
        positions=[np.array(sorted(r), dtype=np.int64) for r in rows],
    )
    return m.with_offsets(offsets) if offsets is not None else m


# --- generation -------------------------------------------------------------

def test_gen_row_full_draws_classic_occupancy():
    # k = L draws with replacement: expected distinct ~ L(1 - 1/e);
    # exponent 1 at scale 1 draws exactly L per row
    L = 2_000
    densities = [
        len(gen_matrix(1, L, 1.0, 1.0, spawn_rng(1, i)).positions[0])
        for i in range(30)
    ]
    expected = L * (1 - math.exp(-1))
    assert abs(np.mean(densities) - expected) < 0.02 * L
    assert all(d <= L for d in densities)


def test_gen_matrix_zero_exponent_density():
    m = gen_matrix(4, 64, density_exponent=0.0, scale=1.82, rng=spawn_rng(2))
    assert all(len(row) <= 2 for row in m.positions)  # ceil(1.82) draws
    assert m.offsets is None
    assert len(m.positions) == 4


def test_gen_matrix_density_formula():
    # at window 4d with exponent 1/4: ceil(C * (4d)**(1/4)) draws
    d = 4096
    m = gen_matrix(3, 4 * d, density_exponent=0.25, scale=1.82, rng=spawn_rng(3))
    k = math.ceil(1.82 * (4 * d) ** 0.25)
    assert all(len(row) <= k for row in m.positions)
    assert max(len(row) for row in m.positions) > k - 3  # few duplicates


def test_gen_matrix_seeds_differ():
    a = gen_matrix(4, 256, 0.5, 1.82, spawn_rng(10))
    b = gen_matrix(4, 256, 0.5, 1.82, spawn_rng(11))
    assert any(
        not np.array_equal(ra, rb) for ra, rb in zip(a.positions, b.positions)
    )


# --- row validation ------------------------------------------------------------

@pytest.mark.parametrize(
    "positions, message",
    [
        # a repeated position would make row 0 meet itself: a self-loop
        ([[3, 3], [5]], "row 0: .*strictly increasing, 3 then 3"),
        ([[3], [5, 2]], "row 1: .*strictly increasing, 5 then 2"),
        ([[3], [12]], r"row 1: position 12 outside \[0, 10\)"),
        ([[-1, 4], [5]], "row 0: position -1 outside"),
        ([[3, 3], [12]], "row 1: position 12 outside"),
        ([[1], [2.0, 3.0]], "row 1: positions must be integers"),
        ([np.array([[1, 2]]), [5]], "row 0: positions must be 1-D"),
    ],
)
def test_malformed_rows_rejected(positions, message):
    with pytest.raises(ValueError, match=message):
        ScheduleMatrix(n=2, columns=10, positions=positions, offsets=[0, 0])


def test_valid_rows_accepted_across_boundaries():
    # a later row may start below where the previous one ended; empty
    # rows come out as int64
    m = ScheduleMatrix(n=3, columns=10, positions=[[5, 9], [], [0, 1]])
    assert m.positions[1].dtype == np.int64
    assert m.with_offsets([0, 0, 0]).densities().tolist() == [2, 0, 2]


def test_with_offsets_keeps_rows_checked():
    m = ScheduleMatrix(n=2, columns=10, positions=[[1, 2], [3]])
    m.positions[0] = np.array([2, 2])
    with pytest.raises(ValueError, match="row 0"):
        m.with_offsets([0, 0])


# --- meetings ----------------------------------------------------------------

def test_detect_requires_offsets():
    m = matrix_from_ones(8, [[0], [1]])
    with pytest.raises(ValueError):
        detect_meetings(m)


def test_detect_rejects_key_overflow():
    m = matrix_from_ones(2**62, [[0], [1]], offsets=[0, 0])
    with pytest.raises(ValueError, match="overflow"):
        detect_meetings(m)


def test_single_meeting_hand_case():
    # both awake only at global column 5
    m = matrix_from_ones(8, [[5], [3]], offsets=[0, 2])
    assert list(detect_meetings(m)) == [(5, (0, 1))]


def test_exclusive_drops_crowded_columns():
    m = matrix_from_ones(8, [[4], [4], [4]], offsets=[0, 0, 0])
    assert list(detect_meetings(m, exclusive=True)) == []
    assert list(detect_meetings(m, exclusive=False)) == [(4, (0, 1, 2))]
    g = build_comm_graph(m, exclusive=False)
    assert g.edges == {(0, 1), (0, 2), (1, 2)}  # all pairs witnessed
    assert build_comm_graph(m, exclusive=True).edges == frozenset()


def test_disjoint_schedules_empty_graph():
    m = matrix_from_ones(8, [[0, 2], [1, 3]], offsets=[0, 0])
    assert build_comm_graph(m).edges == frozenset()


def test_packed_shifts_produce_no_meetings():
    # non-overlapping shift assignment doubles as offsets under which
    # the rows never meet: the constructive lower-bound witness
    L = 256
    rng = spawn_rng(21)
    strings = [
        BitSchedule.from_positions(L, rng.choice(L, 4, replace=False))
        for _ in range(8)
    ]
    got = pack_non_overlapping(strings, L // 4)
    assert isinstance(got, ShiftAssignment)
    m = matrix_from_ones(
        L, [s.ones for s in strings], offsets=list(got.shifts)
    )
    assert list(detect_meetings(m)) == []
    assert build_comm_graph(m).edges == frozenset()


def test_witness_soundness():
    rng = spawn_rng(30)
    m = gen_matrix(6, 128, 0.5, 1.82, rng).with_offsets(rng.integers(0, 33, 6))
    for exclusive in (False, True):
        g = build_comm_graph(m, exclusive=exclusive)
        for (i, j), col in g.witness.items():
            awake = [
                r
                for r in range(m.n)
                if (col - int(m.offsets[r])) in set(m.positions[r].tolist())
            ]
            assert i in awake and j in awake
            if exclusive:
                assert len(awake) == 2


def test_exclusive_edges_subset_of_base():
    rng = spawn_rng(31)
    m = gen_matrix(8, 64, 0.5, 2.0, rng).with_offsets(rng.integers(0, 17, 8))
    assert build_comm_graph(m, exclusive=True).edges <= build_comm_graph(m).edges


def test_double_construction_identical():
    rng = spawn_rng(32)
    m = gen_matrix(5, 128, 0.5, 1.82, rng).with_offsets([3, 0, 7, 2, 5])
    assert build_comm_graph(m) == build_comm_graph(m)
    assert list(detect_meetings(m)) == list(detect_meetings(m))


# --- graph statistics ---------------------------------------------------------

def complete_graph(n):
    return CommGraph(
        n=n, witness={(i, j): 0 for i in range(n) for j in range(i + 1, n)}
    )


def test_stats_complete_graph():
    stats = graph_stats(complete_graph(5))
    assert stats.min_degree == 4
    assert stats.connected
    assert stats.diameter == 1
    assert len(stats.spanning_tree) == 5


def test_stats_empty_graph():
    stats = graph_stats(CommGraph(n=3, witness={}))
    assert not stats.connected
    assert stats.diameter == math.inf
    assert stats.min_degree == 0
    assert len(stats.spanning_tree) == 1


def test_stats_path_graph():
    g = CommGraph(n=4, witness={(0, 1): 0, (1, 2): 1, (2, 3): 2})
    stats = graph_stats(g, root=1)
    assert stats.diameter == 3
    assert stats.connected
    assert stats.spanning_tree[0] == 1
    assert stats.spanning_tree[3] == 2
    assert stats.spanning_tree[1] is None


def test_single_node_graph():
    stats = graph_stats(CommGraph(n=1, witness={}))
    assert stats.connected
    assert stats.diameter == 0


# --- statistical block properties ----------------------------------------------

def test_single_block_meeting_rate():
    # one random window at d=1024, beta=1/2: a fixed node has degree
    # >= 1 in at least three quarters of seeded trials
    d, n = 1024, 32
    L = 4 * d
    k_exp = 0.25
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = spawn_rng(60, seed)
        m = gen_matrix(n, L, k_exp, 1.82, rng).with_offsets(
            rng.integers(0, d + 1, n)
        )
        if build_comm_graph(m).degrees()[0] >= 1:
            hits += 1
    rate = hits / trials
    assert rate >= 0.75, f"meeting rate {rate}"


def test_repetition_constant_rule():
    assert repetition_constant(32) == 11  # 0.1K > 1 dominates
    assert repetition_constant(4) == 19  # ceil(30 / log2(3))
    assert repetition_constant(2) == 30  # clamped log


def test_amplified_graph_diameter_distribution():
    # the amplified stack at n=64 realizes a small-diameter graph in
    # the vast majority of trials; record the measured distribution
    from radiosync.protocol import build_pipeline_matrix, draw_offsets, pipeline_params

    d, n = 4096, 64
    bound = math.ceil(math.log2(n)) + 10
    diameters = []
    for seed in range(10):
        rng = spawn_rng(70, seed)
        m = build_pipeline_matrix(n, pipeline_params(d, n), rng)
        m = m.with_offsets(draw_offsets(n, d, rng))
        stats = graph_stats(build_comm_graph(m))
        diameters.append(stats.diameter)
    print(f"n={n} amplified-graph diameters: {sorted(diameters)}")
    small = sum(1 for x in diameters if x <= bound)
    assert small >= 9
