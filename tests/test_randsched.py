"""Schedule matrices, meeting detection, and graph statistics."""

import math
import time

import numpy as np
import pytest

import oracles
from radiosync.bitstrings import BitSchedule, ShiftAssignment, pack_non_overlapping
from radiosync.protocol import (
    SimConfig,
    build_pipeline_matrix,
    draw_identifiers,
    draw_offsets,
    pipeline_params,
    run_sync,
)
from radiosync.randsched import (
    CommGraph,
    ScheduleMatrix,
    build_comm_graph,
    detect_meetings,
    draw_rows,
    graph_stats,
    reached_from,
    repetition_constant,
    row_draws,
)
from radiosync.seeding import spawn_rng


def matrix_from_ones(columns, rows, offsets=None):
    rows = [np.array(sorted(r), dtype=np.int64) for r in rows]
    return oracles.matrix(len(rows), columns, rows, offsets)


def random_matrix(n, columns, exponent, scale, rng):
    """n rows of one random window of ``columns`` units with
    ``row_draws(columns, exponent, scale)`` draws each (offsets unset)."""
    draws = row_draws(columns, exponent, scale)
    positions, starts = draw_rows(n, 1, columns, draws, rng)
    return ScheduleMatrix(n, columns, positions, starts=starts)


def edge_set(g):
    return set(g.witness)


def interference_graph(m):
    """The graph ``run_sync`` builds in interference mode: meetings of
    exactly two rows only."""
    rng = spawn_rng(0)
    return run_sync(m, draw_identifiers(m.n, rng), 1, exclusive=True, rng=rng).comm_graph


# --- generation -------------------------------------------------------------

def test_gen_row_full_draws_classic_occupancy():
    # k = L draws with replacement: expected distinct ~ L(1 - 1/e);
    # exponent 1 at scale 1 draws exactly L per row
    L = 2_000
    assert row_draws(L, 1.0, 1.0) == L
    densities = [draw_rows(1, 1, L, L, spawn_rng(1, i))[1][1] for i in range(30)]
    expected = L * (1 - math.exp(-1))
    assert abs(np.mean(densities) - expected) < 0.02 * L
    assert all(d <= L for d in densities)


def test_gen_matrix_zero_exponent_density():
    assert row_draws(64, 0.0, 1.82) == 2  # ceil(1.82) draws
    _positions, starts = draw_rows(4, 1, 64, 2, spawn_rng(2))
    assert starts.size == 5
    assert all(np.diff(starts) <= 2)


def test_gen_matrix_density_formula():
    # at window 4d with exponent 1/4: ceil(C * (4d)**(1/4)) draws
    d = 4096
    k = row_draws(4 * d, 0.25, 1.82)
    assert k == math.ceil(1.82 * (4 * d) ** 0.25)
    densities = np.diff(draw_rows(3, 1, 4 * d, k, spawn_rng(3))[1])
    assert all(densities <= k)
    assert densities.max() > k - 3  # few duplicates


def test_gen_matrix_seeds_differ():
    a = random_matrix(4, 256, 0.5, 1.82, spawn_rng(10))
    b = random_matrix(4, 256, 0.5, 1.82, spawn_rng(11))
    assert any(
        not np.array_equal(ra, rb) for ra, rb in zip(oracles.rows(a), oracles.rows(b))
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
        # row 1's floats turn the flat positions into floats, and 2-D
        # rows a 2-D array: both are refused in flat form, under the
        # ids these cases had when the rows were checked one by one
        pytest.param(
            [[1], [2.0, 3.0]],
            "positions must be integers, got float64",
            id="positions5-row 1: positions must be integers",
        ),
        pytest.param(
            [np.array([[1, 2]]), np.array([[5, 6]])],
            "need 3 ascending row starts from 0 to 4 over one flat position array",
            id="positions6-row 0: positions must be 1-D",
        ),
        # out of range inside a row that also descends, and after an
        # empty row: the full scan finds both
        ([[5, 12, 3], [1]], "row 0: position 12 outside"),
        ([[], [10]], "row 1: position 10 outside"),
    ],
)
def test_malformed_rows_rejected(positions, message):
    with pytest.raises(ValueError, match=message):
        oracles.matrix(2, 10, positions, offsets=[0, 0])


def test_valid_rows_accepted_across_boundaries():
    # a later row may start below where the previous one ended; empty
    # rows come out as int32, the width of 10 columns
    m = oracles.matrix(3, 10, [[5, 9], [], [0, 1]])
    assert m.positions.dtype == np.int32
    assert m.positions.tolist() == [5, 9, 0, 1]
    assert m.starts.tolist() == [0, 2, 2, 4]
    assert m.with_offsets([0, 0, 0]).densities().tolist() == [2, 0, 2]


@pytest.mark.parametrize("columns, width", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_position_width_follows_columns(columns, width):
    # int32 up to 2**31 - 1 columns, int64 beyond, whatever the input
    # type; the largest position fits int32 on both sides
    flat = [0, columns - 1, 5]
    starts = np.array([0, 2, 2, 3])
    given = [[0, columns - 1], [], [5]], *(
        np.array(flat, dtype=dtype) for dtype in (np.int32, np.int64, np.uint64)
    )
    for positions in given:
        if isinstance(positions, list):
            m = oracles.matrix(3, columns, positions)
        else:
            m = ScheduleMatrix(3, columns, positions, starts=starts)
        assert m.positions.dtype == width
        assert m.positions.tolist() == flat
        assert m.densities().tolist() == [2, 0, 1]
    # positions are checked before they are narrowed, so none wraps
    with pytest.raises(ValueError, match=r"position 4294967299 outside \[0, 10\)"):
        ScheduleMatrix(1, 10, np.array([2**32 + 3]), starts=np.array([0, 1]))


def test_with_offsets_keeps_rows_checked():
    # the rows are checked once and cannot be changed afterwards, so a
    # matrix with offsets shares rows that were checked
    m = oracles.matrix(2, 10, [[1, 2], [3]])
    with pytest.raises(ValueError, match="read-only"):
        m.positions[1] = 1
    with pytest.raises(ValueError, match="read-only"):
        m.starts[1] = 0
    shifted = m.with_offsets([0, 4])
    assert shifted.positions.base is m.positions.base
    assert m.offsets is None and shifted.offsets.tolist() == [0, 4]


@pytest.mark.parametrize(
    "offsets, message",
    [
        ([0.7, 1.9], "offsets must be integers, got float64"),
        ([0, 2**70], "offsets must fit in int64"),
        (np.array([0, 2**63], dtype=np.uint64), "offsets must fit in int64"),
        ([0, 1.5, 2**70][1:], "offsets must be integers"),
        ([0, -1], "offsets must be non-negative"),
        ([0], "need one offset per row"),
    ],
)
def test_bad_offsets_rejected(offsets, message):
    m = oracles.matrix(2, 10, [[1, 2], [3]])
    with pytest.raises(ValueError, match=message):
        m.with_offsets(offsets)
    with pytest.raises(ValueError, match=message):
        oracles.matrix(2, 10, [[1, 2], [3]], offsets)


def test_flat_rows_must_be_consistent():
    with pytest.raises(ValueError, match="row starts"):
        ScheduleMatrix(2, 10, np.array([1, 2, 3]), starts=np.array([0, 2]))
    with pytest.raises(ValueError, match="row starts"):
        ScheduleMatrix(2, 10, np.array([1, 2, 3]), starts=np.array([0, 2, 2]))
    with pytest.raises(ValueError, match="row 1: positions must be strictly increasing"):
        ScheduleMatrix(2, 10, np.array([1, 5, 3]), starts=np.array([0, 1, 3]))
    # once an IndexError, and a matrix of -5 columns
    with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
        ScheduleMatrix(-1, 4, [], starts=[])
    with pytest.raises(ValueError, match="^columns must be positive, got -5$"):
        ScheduleMatrix(2, -5, [], starts=[0, 0, 0])


# --- meetings ----------------------------------------------------------------

def test_detect_requires_offsets():
    m = matrix_from_ones(8, [[0], [1]])
    with pytest.raises(ValueError):
        detect_meetings(m)


def test_detect_rejects_key_overflow():
    m = matrix_from_ones(2**62, [[0], [1]], offsets=[0, 0])
    with pytest.raises(ValueError, match="overflow"):
        detect_meetings(m)


def test_detect_beyond_int32_columns():
    # columns and row bases past int32: positions are int64, while the
    # band keys stay uint32
    big = 2**40
    m = matrix_from_ones(big, [[5, big - 9], [big - 7], [0, big - 10]], [2, 0, 3])
    assert list(detect_meetings(m)) == [(big - 7, (0, 1, 2))]
    m = matrix_from_ones(64, [[5], [3]], offsets=[2**31, 2**31 + 2])
    assert list(detect_meetings(m)) == [(2**31 + 5, (0, 1))]


@pytest.mark.parametrize(
    "n, bound",
    [(1, 2**31 - 1), (2, 2**31 - 2), (2, 2**31), (2, 2**31 + 2), (3, 2**31 + 1)],
)
def test_detect_at_the_int32_key_boundary(n, bound):
    # (columns + top offset) * n = bound on either side of 2**31 - 1,
    # the largest int32 key; both sides fit one uint32 band. The
    # largest key, bound - 1, is a top-offset row awake at its last
    # column
    top, reach = 6, bound // n
    assert reach * n == bound
    columns = reach - top
    rows, offsets = [[0, columns - 1]] * n, [top] * n
    if n > 1:
        rows[0], offsets[0] = [top, columns - 1], 0
    m = matrix_from_ones(columns, rows, offsets)
    expect = {1: [], 2: [(top, (0, 1))], 3: [(top, (0, 1, 2)), (reach - 1, (1, 2))]}
    assert list(detect_meetings(m)) == oracles.detect_meetings(m) == expect[n]


def test_detect_meets_at_both_ends_of_a_band():
    # n = 3 does not divide 2**32; bands are 2**32 // 3 columns wide and
    # start at the first unit not yet placed, so the first band is
    # [10, 10 + w) and the second [10 + w, 10 + 2w). Meetings sit at the
    # first and last column of each; row 2 ends alone in a third band
    w = 2**32 // 3
    offsets = [4, 1, 0]
    meet = {10: (0, 1), 10 + w - 1: (1, 2), 10 + w: (0, 2), 10 + 2 * w - 1: (0, 1, 2)}
    rows = [[col - offsets[r] for col, who in meet.items() if r in who] for r in range(3)]
    rows[2].append(10 + 2 * w)
    m = matrix_from_ones(10 + 2 * w + 1, rows, offsets)
    assert list(detect_meetings(m)) == oracles.detect_meetings(m) == list(meet.items())


def test_detect_visits_only_occupied_bands():
    # 2**61 columns make some 10**9 bands of 2**32 // 3 columns; the
    # kernel must go from one awake unit to the next
    big = 2**61
    m = matrix_from_ones(
        big, [[0, 2**60, big - 1], [2**60 - 5, big - 4], [0, big - 1]], [0, 5, 2]
    )
    start = time.perf_counter()
    got = list(detect_meetings(m))
    assert time.perf_counter() - start < 1.0
    assert got == oracles.detect_meetings(m) == [(2**60, (0, 1)), (big + 1, (1, 2))]


def test_detect_on_the_multi_band_sparse_pipeline_shape():
    # the sparse-multihop benchmark shape: n = 1449 over about 2.7 bands
    config = SimConfig(d=16384, beta=0.75, scale=0.5, repetition_k=1)
    params = pipeline_params(config.d, config.n, scale=0.5, repetition_k=1)
    rng = spawn_rng(21)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, config.d, rng))
    assert (m.columns + int(m.offsets.max())) * m.n > 2 * 2**32
    assert list(detect_meetings(m)) == oracles.detect_meetings(m)


def test_single_meeting_hand_case():
    # both awake only at global column 5
    m = matrix_from_ones(8, [[5], [3]], offsets=[0, 2])
    assert list(detect_meetings(m)) == [(5, (0, 1))]


def test_exclusive_drops_crowded_columns():
    m = matrix_from_ones(8, [[4], [4], [4]], offsets=[0, 0, 0])
    assert list(detect_meetings(m)) == [(4, (0, 1, 2))]
    g = build_comm_graph(m)
    assert g.witness == {(0, 1): 4, (0, 2): 4, (1, 2): 4}  # all pairs witnessed
    assert interference_graph(m).indices.size == 0


def test_disjoint_schedules_empty_graph():
    m = matrix_from_ones(8, [[0, 2], [1, 3]], offsets=[0, 0])
    assert build_comm_graph(m).indices.size == 0


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
    assert build_comm_graph(m).indices.size == 0


def test_witness_soundness():
    rng = spawn_rng(30)
    m = random_matrix(6, 128, 0.5, 1.82, rng).with_offsets(rng.integers(0, 33, 6))
    for exclusive, g in ((False, build_comm_graph(m)), (True, interference_graph(m))):
        for (i, j), col in g.witness.items():
            awake = [
                r
                for r in range(m.n)
                if (col - int(m.offsets[r])) in set(oracles.rows(m)[r].tolist())
            ]
            assert i in awake and j in awake
            if exclusive:
                assert len(awake) == 2


def test_exclusive_edges_subset_of_base():
    rng = spawn_rng(31)
    m = random_matrix(8, 64, 0.5, 2.0, rng).with_offsets(rng.integers(0, 17, 8))
    assert edge_set(interference_graph(m)) <= edge_set(build_comm_graph(m))


def test_double_construction_identical():
    rng = spawn_rng(32)
    m = random_matrix(5, 128, 0.5, 1.82, rng).with_offsets([3, 0, 7, 2, 5])
    assert oracles.same_graph(build_comm_graph(m), build_comm_graph(m))
    assert list(detect_meetings(m)) == list(detect_meetings(m))


# --- graph statistics ---------------------------------------------------------

def complete_graph(n):
    return oracles.graph(n, {(i, j): 0 for i in range(n) for j in range(i + 1, n)})


def test_stats_complete_graph():
    g = complete_graph(5)
    stats = graph_stats(g)
    assert g.degrees().min() == 4
    assert stats.connected
    assert stats.diameter == 1
    assert stats.reached == 5


def test_stats_empty_graph():
    g = oracles.graph(3, {})
    stats = graph_stats(g)
    assert not stats.connected
    assert stats.diameter == math.inf
    assert g.degrees().min() == 0
    assert stats.reached == 1


def test_stats_path_graph():
    g = oracles.graph(4, {(0, 1): 0, (1, 2): 1, (2, 3): 2})
    stats = graph_stats(g, root=1)
    assert stats.diameter == 3
    assert stats.connected
    assert stats.reached == 4
    # a path of three and a separate edge: the root's side only
    g = oracles.graph(5, {(0, 1): 0, (1, 2): 1, (3, 4): 2})
    assert [graph_stats(g, root=r).reached for r in range(5)] == [3, 3, 3, 2, 2]


def test_single_node_graph():
    stats = graph_stats(oracles.graph(1, {}))
    assert stats.connected
    assert stats.diameter == 0


@pytest.mark.parametrize("root", [-1, 3, 2**70])
def test_stats_root_outside_graph_rejected(root):
    g = oracles.graph(3, {(0, 1): 0, (1, 2): 1})
    with pytest.raises(ValueError, match=f"root {root} is not a node .* n = 3"):
        graph_stats(g, root=root)


@pytest.mark.parametrize("root", [True, 1.0])
def test_stats_root_must_be_an_integer(root):
    # once True counted from node 1, and 1.0 raised numpy's TypeError
    g = oracles.graph(3, {(0, 1): 0, (1, 2): 1})
    for count in (reached_from, graph_stats):
        with pytest.raises(ValueError, match=f"^root must be an integer, got {root!r}$"):
            count(g, root)


def test_graph_from_unordered_edge_list():
    # given out of order, the edges come back in (i, j) order, not in
    # the order of their columns
    g = oracles.graph(4, {(2, 3): 5, (0, 3): 6, (1, 2): 1, (0, 1): 0})
    assert list(g.witness.items()) == [((0, 1), 0), ((0, 3), 6), ((1, 2), 1), ((2, 3), 5)]
    assert g.indptr.tolist() == [0, 2, 4, 6, 8]
    assert g.indices.tolist() == [1, 3, 0, 2, 1, 3, 0, 2]
    assert g.degrees().tolist() == [2, 2, 2, 2]
    # each CSR entry's first column, the same both ways
    assert g.first_cols.tolist() == [0, 6, 0, 1, 1, 5, 6, 5]
    assert oracles.same_graph(g, oracles.graph(4, g.witness))
    assert not oracles.same_graph(g, oracles.graph(4, {**g.witness, (1, 2): 2}))
    with pytest.raises(TypeError):
        g.witness[(0, 1)] = 3


def test_one_constructor_per_type():
    # a graph comes only from grouped meeting pairs, and a matrix only
    # from flat positions with their row starts
    with pytest.raises(TypeError, match="takes no arguments"):
        CommGraph(3, [0], [1], [0])
    with pytest.raises(TypeError, match="starts"):
        ScheduleMatrix(2, 10, [[1], [2]])


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
        m = random_matrix(n, L, k_exp, 1.82, rng).with_offsets(
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
