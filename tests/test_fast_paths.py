"""The vectorized meeting kernel, graph builder, schedule draw, array
flood and bit-parallel graph statistics return exactly what the slow
reference loops in ``oracles`` return. The back-off draw's distribution
is checked in ``test_netsim.py``."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from radiosync import acceptance, netsim, protocol, randsched
from radiosync.protocol import (
    _arrivals,
    _relax,
    SimConfig,
    build_pipeline_matrix,
    draw_identifiers,
    draw_offsets,
    pipeline_params,
    run_pipeline,
    run_sync,
)
from radiosync.randsched import (
    CommGraph,
    ScheduleMatrix,
    _radix_order,
    build_comm_graph,
    detect_meetings,
    draw_row_counts,
    draw_rows,
    graph_stats,
    row_draws,
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
    return oracles.matrix(n, columns, rows, offsets)


@st.composite
def sparse_matrices(draw, min_rows=9):
    """``min_rows`` to 24 rows of one to three awake units, so meetings
    are mostly of two to four radios, as in the interference workloads."""
    n = draw(st.integers(min_rows, 24))
    columns = draw(st.integers(4, 16))
    awake = st.sets(st.integers(0, columns - 1), min_size=1, max_size=3)
    rows = [np.array(sorted(draw(awake)), dtype=np.int64) for _ in range(n)]
    offsets = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return oracles.matrix(n, columns, rows, offsets)


@st.composite
def banded_matrices(draw):
    """1-6 rows of 0-4 units over up to 2**40 columns, with positions
    and offsets within 3 of multiples of the band width ``2**32 // n``
    of ``detect_meetings``: rows share columns on both sides of a band
    edge, and some rows have no unit in a band."""
    n = draw(st.integers(1, 6))
    width = 2**32 // n

    def near(most):
        return st.builds(lambda j, e: j * width + e, st.integers(0, most), st.integers(-3, 3))

    columns = max(1, draw(st.one_of(st.integers(1, 2**40), near(6))))
    rows = [
        np.array(sorted({min(max(p, 0), columns - 1) for p in draw(st.lists(near(5), max_size=4))}))
        for _ in range(n)
    ]
    offsets = [max(o, 0) for o in draw(st.lists(near(2), min_size=n, max_size=n))]
    return oracles.matrix(n, columns, rows, offsets)


@st.composite
def meeting_lists(draw):
    """Column-sorted meetings with sorted participants, of any size."""
    n = draw(st.integers(2, 8))
    cols = sorted(draw(st.sets(st.integers(0, 40), max_size=12)))
    return n, [
        (col, tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=2)))))
        for col in cols
    ]


def graph_of(n, meetings):
    """The graph of a :class:`Meetings` record, built as
    ``build_comm_graph`` builds it: the runs of its grouped pairs."""
    senders, receivers, which, _ = meetings.grouped_pairs(n)
    return CommGraph._from_pairs(n, senders, receivers, meetings.cols[which])


def assert_csr_matches(g, witness):
    """``g`` is the graph of ``witness`` (edge -> first column): its
    ``witness`` equals it, each CSR row holds the row's neighbours in
    ascending order with each edge's first column, and the degrees are
    the rows' lengths."""
    assert g.witness == witness
    entries = [[] for _ in range(g.n)]
    for (i, j), col in witness.items():
        entries[i].append((j, col))
        entries[j].append((i, col))
    ptr = g.indptr.tolist()
    nbrs, firsts = g.indices.tolist(), g.first_cols.tolist()
    got = [list(zip(nbrs[lo:hi], firsts[lo:hi])) for lo, hi in zip(ptr, ptr[1:])]
    assert got == [sorted(row) for row in entries]
    assert g.degrees().tolist() == [len(row) for row in entries]


def assert_kernel_and_graph_match_oracle(m):
    assert list(detect_meetings(m)) == oracles.detect_meetings(m)
    assert_csr_matches(build_comm_graph(m), oracles.build_comm_graph(m))


@settings(max_examples=200, deadline=None)
@given(m=matrices())
def test_kernel_and_graph_match_oracle(m):
    assert_kernel_and_graph_match_oracle(m)


@settings(max_examples=50, deadline=None)
@given(m=matrices(zero_offsets=True))
def test_zero_offsets_match_oracle(m):
    assert_kernel_and_graph_match_oracle(m)


@settings(max_examples=300, deadline=None)
@given(m=banded_matrices())
def test_banded_kernel_and_graph_match_oracle(m):
    assert_kernel_and_graph_match_oracle(m)


@settings(max_examples=200, deadline=None)
@given(
    m=st.one_of(matrices(), sparse_matrices(min_rows=2)),
    band_units=st.integers(1, 4),
)
def test_narrow_bands_match_oracle(m, band_units):
    # a band of a few units at the mean density: most meetings sit in
    # bands of their own, or at a band's first or last column. Every
    # band places at least one unit and bisects at most once, so a
    # kernel that stops placing units fails here rather than looping
    bisect, calls = randsched._bisect, []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= m.positions.size, "a band placed no unit"
        return bisect(*args)

    with mock.patch.multiple(randsched, _BAND_UNITS=band_units, _bisect=counted):
        assert list(detect_meetings(m)) == oracles.detect_meetings(m)


@settings(max_examples=100, deadline=None)
@given(case=meeting_lists())
def test_graph_builder_matches_oracle(case):
    n, meetings = case
    got = graph_of(n, oracles.as_meetings(meetings))
    assert_csr_matches(got, oracles.graph_from_meetings(meetings))


@settings(max_examples=50, deadline=None)
@given(m=matrices(), exclusive=st.booleans())
def test_run_sync_graph_and_neighbors_match_oracle(m, exclusive):
    meetings = oracles.detect_meetings(m)
    if exclusive:
        meetings = [mt for mt in meetings if len(mt[1]) == 2]
    expected = oracles.graph_from_meetings(meetings)
    rng = spawn_rng(5)
    g = run_sync(m, draw_identifiers(m.n, rng), 1, exclusive=exclusive, rng=rng).comm_graph
    assert_csr_matches(g, expected)


@settings(max_examples=150, deadline=None)
@given(m=st.one_of(matrices(), sparse_matrices(min_rows=2)), exclusive=st.booleans())
def test_run_sync_graph_equals_its_edge_list_rebuild(m, exclusive):
    # the graph read off the flood's grouped pairs is the graph of the
    # oracle's edges grouped by np.lexsort, and each CSR entry carries
    # its edge's first column
    meetings = oracles.detect_meetings(m)
    if exclusive:
        meetings = [mt for mt in meetings if len(mt[1]) == 2]
    expected = oracles.graph_from_meetings(meetings)
    rng = spawn_rng(6)
    g = run_sync(m, draw_identifiers(m.n, rng), 1, exclusive=exclusive, rng=rng).comm_graph
    assert oracles.same_graph(g, oracles.graph(m.n, expected))
    assert_csr_matches(g, expected)


def test_one_pair_grouping_per_run(monkeypatch):
    # base mode at n <= 256: the pairs are grouped once, in one 16-bit
    # radix pass, for the graph and a one-round flood alike; an
    # interference run that ends with every node reached groups its
    # copies' heard pairs never again; build_comm_graph groups once too
    bounds = []
    radix_order = randsched._radix_order

    def counted(keys, bound):
        bounds.append(bound)
        return radix_order(keys, bound)

    # wherever the sort is bound, so that no grouping escapes the count
    for module in (randsched, protocol):
        if hasattr(module, "_radix_order"):
            monkeypatch.setattr(module, "_radix_order", counted)
    for config, copies in (
        (SimConfig(d=4096, beta=0.5, seed=1), 1),
        (SimConfig(d=256, beta=0.75, scale=0.5, repetition_k=1, exclusive=True), 2),
    ):
        bounds.clear()
        result = run_pipeline(config)
        assert result.success and result.rounds_used == copies
        assert bounds == [config.n * config.n] and config.n * config.n <= 2**16
        # the edge count the benchmark's digests record
        g = result.comm_graph
        assert len(g.witness) == g.indices.size // 2 > 0
    # runs that reach later rounds, and their reversed relaxations (in
    # the interference model over the copies laid end to end), still
    # group once
    for exclusive in (False, True):
        config = SimConfig(
            d=16384, beta=0.75, scale=0.5, repetition_k=1, rounds=1, seed=1,
            exclusive=exclusive,
        )
        bounds.clear()
        result = run_pipeline(config)
        assert (~result.synchronized).sum() == 160
        assert bounds == [config.n * config.n]
    rng = spawn_rng(7)
    positions, starts = draw_rows(40, 1, 64, 8, rng)
    m = ScheduleMatrix(40, 64, positions, starts=starts).with_offsets(rng.integers(0, 16, 40))
    bounds.clear()
    assert build_comm_graph(m).indices.size > 0
    assert bounds == [40 * 40]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_every_row_awake_in_one_column(n):
    m = oracles.matrix(n, 8, [np.array([3])] * n, [0] * n)
    assert_kernel_and_graph_match_oracle(m)
    assert list(detect_meetings(m)) == ([(3, tuple(range(n)))] if n >= 2 else [])


def test_empty_rows():
    empty = oracles.matrix(3, 4, [[], [], []], [0, 1, 2])
    assert list(detect_meetings(empty)) == oracles.detect_meetings(empty) == []
    assert build_comm_graph(empty).witness == {}
    assert build_comm_graph(empty).indptr.tolist() == [0, 0, 0, 0]
    some = oracles.matrix(3, 4, [[1], [], [0, 2]], [1, 0, 0])
    assert list(detect_meetings(some)) == oracles.detect_meetings(some) == [(2, (0, 2))]


def assert_draw_matches_oracle(n, windows, columns, draws, fast_rng, slow_rng):
    positions, starts = draw_rows(n, windows, columns, draws, fast_rng)
    slow = oracles.draw_rows(n, windows, columns, draws, slow_rng)
    width = np.int32 if max(windows, 1) * columns <= 2**31 - 1 else np.int64
    assert positions.dtype == width and starts.dtype == np.int64
    assert starts.shape == (n + 1,)
    assert starts[0] == 0 and starts[-1] == positions.size
    assert (np.diff(starts) >= 0).all()
    fast = [positions[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.dtype == width and np.array_equal(a, b)
    # the stream is consumed identically, so later draws agree too
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


#: window bounds that are not powers of two, or lie beyond 2**31 and
#: 2**32 (where bounded draws take whole 64-bit words)
ODD_COLUMNS = [3, 37, 40_000, 2**31 + 1, 2**32 + 3, 2**33 + 7]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    windows=st.integers(0, 150),
    columns=st.one_of(st.integers(1, 20), st.sampled_from(ODD_COLUMNS)),
    draws=st.integers(0, 160),
    seed=st.integers(0, 2**32),
)
def test_draw_rows_matches_oracle(n, windows, columns, draws, seed):
    assert_draw_matches_oracle(
        n, windows, columns, draws, spawn_rng(seed), spawn_rng(seed)
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 9),
    windows=st.integers(1, 12),
    columns=st.integers(1, 20),
    draws=st.integers(1, 12),
    block=st.integers(1, 64),
    seed=st.integers(0, 2**32),
)
def test_draw_in_small_blocks_matches_oracle(n, windows, columns, draws, block, seed):
    # blocks of one row up to a few: narrow windows repeat values in
    # most rows, so every block's kept values move to the front
    with mock.patch.object(randsched, "_BLOCK", block):
        assert_draw_matches_oracle(
            n, windows, columns, draws, spawn_rng(seed), spawn_rng(seed)
        )


@pytest.mark.parametrize(
    "n, windows, columns, draws",
    [
        # many windows per sorted run, and leftover windows in each row
        (4, 121, 65_536, 2),
        (3, 130, 37, 3),
        (2, 64, 5, 2),  # a whole number of runs, no leftover
        # one window per run, and draws beyond the run length
        (3, 5, 40_000, 128),
        (2, 3, 200, 300),
        (2, 7, 2**31 + 1, 129),
        (3, 9, 2**32 + 3, 11),
        (2, 4, 2**33 + 7, 131),
        # windows * columns at 2**31 - 1 (int32) and at 2**31 (int64)
        (1, 1, 2**31 - 1, 5),
        (1, 2, 2**30, 5),
        (1, 1, 2**31, 5),
        # nothing to draw
        (3, 5, 17, 0),
        (3, 0, 17, 5),
    ],
)
@pytest.mark.parametrize("cached_half", [False, True], ids=["fresh", "cached-half"])
def test_draw_rows_runs_and_stream(n, windows, columns, draws, cached_half):
    fast_rng, slow_rng = spawn_rng(21, draws), spawn_rng(21, draws)
    if cached_half:
        # one bounded draw below 2**32 leaves half a 64-bit word cached
        for rng in (fast_rng, slow_rng):
            rng.integers(0, 10)
        assert fast_rng.bit_generator.state["has_uint32"] == 1
    before = fast_rng.bit_generator.state
    assert_draw_matches_oracle(n, windows, columns, draws, fast_rng, slow_rng)
    if draws == 0 or windows == 0:
        assert fast_rng.bit_generator.state == before


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 6),
    windows=st.one_of(st.integers(0, 2), st.integers(0, 40)),
    columns=st.one_of(st.integers(1, 20), st.sampled_from(ODD_COLUMNS)),
    draws=st.integers(0, 60),
    block=st.sampled_from([1, 7, 64, 1 << 18]),
    cached_half=st.booleans(),
    seed=st.integers(0, 2**32),
)
# draws beyond the columns: most values repeat
@example(n=5, windows=3, columns=4, draws=30, block=64, cached_half=False, seed=1)
# one window of few columns, several rows a block: a row's last value
# can equal the next row's first, and with one column always does
@example(n=6, windows=1, columns=3, draws=4, block=1 << 18, cached_half=False, seed=2)
@example(n=4, windows=1, columns=1, draws=5, block=64, cached_half=False, seed=3)
# int64 positions: windows * columns beyond 2**31 - 1
@example(n=3, windows=2, columns=2**31 + 1, draws=5, block=64, cached_half=False, seed=4)
@example(n=0, windows=3, columns=5, draws=2, block=64, cached_half=False, seed=5)
@example(n=4, windows=5, columns=9, draws=6, block=7, cached_half=True, seed=6)
def test_draw_row_counts_match_oracle(
    n, windows, columns, draws, block, cached_half, seed
):
    # the counts are the oracle rows' lengths and draw_rows' densities,
    # and the stream is left where both leave it
    rngs = [spawn_rng(seed) for _ in range(3)]
    if cached_half:
        for rng in rngs:
            rng.integers(0, 10)
    with mock.patch.object(randsched, "_BLOCK", block):
        counts = draw_row_counts(n, windows, columns, draws, rngs[0])
        _positions, starts = draw_rows(n, windows, columns, draws, rngs[1])
    want = [len(row) for row in oracles.draw_rows(n, windows, columns, draws, rngs[2])]
    assert counts.dtype == np.int64 and counts.tolist() == want
    assert np.diff(starts).tolist() == want
    state = rngs[2].bit_generator.state
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == state


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
    assert all(np.array_equal(a, b) for a, b in zip(oracles.rows(got), rows))


def test_gen_matrix_matches_per_row_unique():
    draws = row_draws(300, 0.5, 1.82)
    assert draws == 32
    positions, starts = draw_rows(6, 1, 300, draws, spawn_rng(12))
    got = ScheduleMatrix(6, 300, positions, starts=starts)
    ref_rng = spawn_rng(12)
    ref = [np.unique(ref_rng.integers(0, 300, size=32)) for _ in range(6)]
    assert all(np.array_equal(a, b) for a, b in zip(oracles.rows(got), ref))


@st.composite
def graphs(draw):
    """Graphs of 1 to 40 nodes at any density, from empty to complete,
    built from its edges in shuffled order, and any root."""
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0, 1)) ** 2
    rng = spawn_rng(draw(st.integers(0, 2**32)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kept = [pairs[k] for k in rng.permutation(len(pairs)) if rng.random() < density]
    root = draw(st.integers(0, n - 1))
    return oracles.graph(n, dict.fromkeys(kept, 0)), root


def stats_fields(stats):
    # the diameter's type is part of the value: 2 and 2.0 print
    # differently in the run CSV
    return (stats.connected, stats.reached, stats.diameter, type(stats.diameter))


@settings(max_examples=300, deadline=None)
@given(case=graphs())
def test_graph_stats_matches_oracle(case):
    g, root = case
    assert stats_fields(graph_stats(g, root)) == stats_fields(oracles.graph_stats(g, root))


def test_graph_stats_matches_oracle_on_sparse_pipeline_graphs():
    # the sparse-multihop shape at test size: connected graphs whose
    # diameter is more than 2
    diameters = []
    for seed in range(3):
        config = SimConfig(d=1024, beta=0.75, scale=0.5, repetition_k=1, seed=seed)
        result = run_pipeline(config)
        got = graph_stats(result.comm_graph, root=result.root_index)
        want = oracles.graph_stats(result.comm_graph, root=result.root_index)
        assert stats_fields(got) == stats_fields(want)
        diameters.append(got.diameter)
    assert min(diameters) > 2


@pytest.mark.parametrize("n, seed", [(65, 0), (130, 1), (200, 2)])
def test_diameter_in_blocks_of_sources_matches_oracle(n, seed):
    # several reach words, taken one word per block: a path with random
    # chords, so the diameter is long and every block's differs
    rng = spawn_rng(41, seed)
    edges = {(v, v + 1): 0 for v in range(n - 1)}
    for a, b in rng.integers(0, n, size=(n // 8, 2)).tolist():
        if a != b:
            edges[min(a, b), max(a, b)] = 0
    g = oracles.graph(n, edges)
    want = oracles.graph_stats(g, root=n // 2)
    assert stats_fields(graph_stats(g, root=n // 2)) == stats_fields(want)
    with mock.patch("radiosync.randsched._REACH_BYTES", 1):
        assert stats_fields(graph_stats(g, root=n // 2)) == stats_fields(want)
    assert want.diameter > 5


def skewed_graph(kind: str, seed: int):
    """A connected graph of 65 to 200 nodes whose degrees are far apart,
    so the degree-ordered neighbour columns shrink both one node at a
    time and by dozens at once; node ids are shuffled, so the hubs are
    not the first."""
    rng = spawn_rng(45, seed)
    edges = set()

    def path(nodes):
        edges.update(zip(nodes[:-1], nodes[1:]))

    if kind == "star":
        # one hub of 119 leaves, a tail of 80 hanging off one leaf
        n = 200
        edges.update((0, v) for v in range(1, 120))
        path(list(range(119, n)))
    elif kind == "cliques-on-a-path":
        # cliques of 40, 3, 25 and 12 nodes, joined end to end by paths
        # of 6 nodes, with a path of 10 off the last
        at, prev = 0, None
        for size in (40, 3, 25, 12):
            clique = list(range(at, at + size))
            edges.update((a, b) for a in clique for b in clique if a < b)
            if prev is not None:
                path([prev, *range(at + size, at + size + 6), clique[0]])
                at += 6
            prev, at = clique[-1], at + size
        path([prev, *range(at, at + 10)])
        n = at + 10
    else:
        # a path of 150 nodes, four hubs each joined to 20 to 50 nodes
        # of a stretch of it and to 5 leaves of their own
        n, at = 150, 150
        path(list(range(n)))
        for hub in rng.choice(n, size=4, replace=False).tolist():
            lo = int(rng.integers(0, n - 50))
            size = int(rng.integers(20, 51))
            joined = rng.choice(np.arange(lo, lo + 50), size=size, replace=False)
            edges.update((hub, int(v)) for v in joined if v != hub)
            edges.update((hub, leaf) for leaf in range(at, at + 5))
            at += 5
        n = at
    shuffle = rng.permutation(n)
    witness = {}
    for a, b in edges:
        a, b = sorted((int(shuffle[a]), int(shuffle[b])))
        witness[a, b] = 0
    return oracles.graph(n, witness)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["star", "cliques-on-a-path", "hubs-on-a-path"])
def test_diameter_on_skewed_degrees_matches_oracle(kind, seed):
    # at the default budget (every source word in one block) and at
    # budgets of two words and of one word per block
    g = skewed_graph(kind, seed)
    assert 65 <= g.n <= 200
    want = oracles.graph_stats(g, root=seed)
    assert want.connected and want.diameter > 5
    assert stats_fields(graph_stats(g, root=seed)) == stats_fields(want)
    for budget in (3 * 8 * g.n * 2, 1):
        with mock.patch("radiosync.randsched._REACH_BYTES", budget):
            assert stats_fields(graph_stats(g, root=seed)) == stats_fields(want)


@pytest.mark.parametrize("ends", [(63, 127), (64, 128), (127, 129)])
def test_diameter_counts_every_source_of_every_block(ends):
    # a path of 60 nodes whose middle node holds 68 leaves, plus one leaf
    # at each end of the path: the only pair at the diameter. By degree,
    # the middle node takes label 0, the rest of the path labels 1-59
    # and leaf v label v, so ``ends`` puts that pair at the first or
    # last source of one-word blocks
    n, spine = 130, 60
    edges = {(v, v + 1): 0 for v in range(spine - 1)}
    for leaf in range(spine, n):
        edges[{ends[0]: 0, ends[1]: spine - 1}.get(leaf, spine // 2), leaf] = 0
    g = oracles.graph(n, edges)
    want = oracles.graph_stats(g)
    assert want.diameter == spine + 1
    assert stats_fields(graph_stats(g)) == stats_fields(want)
    with mock.patch("radiosync.randsched._REACH_BYTES", 1):
        assert stats_fields(graph_stats(g)) == stats_fields(want)


def test_callers_that_discard_the_diameter_skip_it():
    # estimate_n reads only how far the root's BFS reaches, and A7 only
    # whether the graph is connected
    with mock.patch("radiosync.randsched._diameter", side_effect=AssertionError):
        result = protocol.estimate_n(SimConfig(d=256, seed=5), true_n=16)
        trials = acceptance._pipeline_trials(seeds=2)
    assert result.accepted
    assert any(t.connected for t in trials)


@pytest.mark.parametrize(
    "bound", [1, 2, 255, 65535, 65536, 65537, 70000, 2**32 - 1, 2**32 + 7, 70000**2]
)
def test_radix_order_is_a_stable_sort(bound):
    # keys crowd both ends of the range, so the high digits decide
    # between keys that tie on the low ones, and ties are many
    rng = spawn_rng(43, bound % 1000)
    keys = np.concatenate(
        [
            rng.integers(0, min(bound, 300), size=500),
            bound - 1 - rng.integers(0, min(bound, 300), size=500),
            rng.integers(0, bound, size=500),
            (rng.integers(0, bound, size=300) >> 16) << 16,
        ]
    )
    rng.shuffle(keys)
    assert np.array_equal(_radix_order(keys, bound), np.lexsort((keys,)))


def test_graph_beyond_16_bit_node_indices_matches_oracles():
    # n = 70000: node codes i * n + j span three 16-bit digits and the
    # receivers two; a few hundred meetings of two to four radios, most
    # radios in none
    n = 70000
    rng = spawn_rng(44)
    hubs = rng.choice(n, size=400, replace=False)
    groups = []
    for col in sorted(rng.choice(10**6, size=300, replace=False).tolist()):
        size = int(rng.integers(2, 5))
        groups.append((col, tuple(sorted(rng.choice(hubs, size, replace=False).tolist()))))
    g = graph_of(n, oracles.as_meetings(groups))
    assert_csr_matches(g, oracles.graph_from_meetings(groups))
    root = int(np.argmax(g.degrees()))
    got = graph_stats(g, root=root)
    assert stats_fields(got) == stats_fields(oracles.graph_stats(g, root=root))
    assert 3 < got.reached < n


def test_batched_backoff_lone_units_draw_nothing():
    rng = spawn_rng(4)
    before = rng.bit_generator.state
    assert netsim.resolve_backoff([0, 1, 1], 9, rng).tolist() == [False, False]
    assert netsim.resolve_backoff([], 9, rng).size == 0
    assert rng.bit_generator.state == before


def flood_both_ways(m, idents, rounds, backoff_rounds, seed):
    """(trace rows, states, rounds used, rng state) of ``run_sync`` and
    of the per-unit oracle flood, from the nodes' unique ``idents``."""
    out = []
    for fast in (True, False):
        rng, trace = spawn_rng(seed), []
        kwargs = dict(backoff_rounds=backoff_rounds, transmit_delay=1, rng=rng, trace=trace)
        if fast:
            result = run_sync(m, idents, rounds, exclusive=True, **kwargs)
            used, states = result.rounds_used, result.states
        else:
            states = oracles.nodes(m, idents)
            used = oracles.flood_exclusive(m, states, rounds, **kwargs)
        out.append(
            (
                oracles.trace_rows(trace) if fast else trace,
                [(s.max_seen, s.root_origin, s.hops) for s in states],
                used,
                rng.bit_generator.state,
            )
        )
    return out


@settings(max_examples=150, deadline=None)
@given(
    m=sparse_matrices(),
    rounds=st.integers(1, 4),
    backoff_rounds=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_exclusive_flood_matches_per_unit_oracle(m, rounds, backoff_rounds, seed, data):
    idents = data.draw(st.permutations(range(1, m.n + 1)))
    fast, slow = flood_both_ways(m, idents, rounds, backoff_rounds, seed)
    assert fast == slow


def flood_both_ways_base(m, idents, rounds, transmit_delay):
    """(trace rows, states, rounds used) of ``run_sync`` in the base model
    and of the per-meeting oracle flood, from the nodes' unique
    ``idents``."""
    out = []
    for fast in (True, False):
        trace = []
        if fast:
            result = run_sync(m, idents, rounds, transmit_delay=transmit_delay, trace=trace)
            used, states = result.rounds_used, result.states
            trace = oracles.trace_rows(trace)
        else:
            nodes = oracles.nodes(m, idents)
            used = oracles.flood_base(
                m, nodes, rounds, transmit_delay=transmit_delay, trace=trace
            )
            oracles.finish(m, nodes, rounds, transmit_delay=transmit_delay)
            states = tuple(node.reading() for node in nodes)
        out.append((trace, states, used))
    return out


@st.composite
def labelled_deliveries(draw, copies=st.integers(1, 4)):
    """Node keys ``time * n + hops``, times in [-1, never] over a
    count of copies drawn from ``copies``, of ``period`` columns each
    (holders at -1, times on and beside copy boundaries, at and near
    ``never``) and hops below n (0 at times -1 and ``never``), and
    deliveries from random nodes, at random columns or at the node's own
    column, that of ``time - 1`` or ``time + 1``."""
    period = draw(st.integers(1, 9))
    copies = draw(copies)
    never = copies * period
    n = draw(st.integers(1, 8))
    boundary = st.integers(0, copies).map(lambda k: k * period)
    some_time = st.one_of(
        st.just(-1),
        st.integers(-1, never),
        boundary,
        boundary.map(lambda b: max(b - 1, -1)),
        st.sampled_from([never - 1, never]),
    )
    time = np.array(draw(st.lists(some_time, min_size=n, max_size=n)), dtype=np.int64)
    inside = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    hops = np.where((time >= 0) & (time < never), draw(inside), 0)
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=20))
    cols = [
        draw(
            st.one_of(
                st.integers(0, period - 1),
                st.sampled_from([(int(time[v]) + d) % period for d in (-1, 0, 1)]),
            )
        )
        for v in nodes
    ]
    nodes, cols = np.array(nodes, dtype=np.int64), np.array(cols, dtype=np.int64)
    return time * n + hops, nodes, cols, period, never


@st.composite
def flood_rounds(draw, copies):
    """A flood round as ``_relax`` starts it, ``(key, senders,
    receivers, cols, period, never)``: one holder at -n, every other
    node at ``never * n``. Early deliveries reach every node within the
    first half of the first copy, each node from the holder or from a
    node reached at an earlier column, some nodes more than once at the
    same column; one or more random deliveries follow."""
    period = draw(st.integers(1, 9))
    never = draw(copies) * period
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    key = np.full(n, never * n, dtype=np.int64)
    key[order[0]] = -n
    half = st.integers(0, (period - 1) // 2)
    times = [-1] + sorted(draw(st.lists(half, min_size=n - 1, max_size=n - 1)))
    early = []
    for i in range(1, n):
        reached = [order[j] for j in range(i) if times[j] < times[i]]
        for sender in draw(st.lists(st.sampled_from(reached), min_size=1, max_size=3)):
            early.append((sender, order[i], times[i]))
    # the last column often, which sets the first cut's bound past twice
    # every early time
    node = st.integers(0, n - 1)
    column = st.one_of(st.just(period - 1), st.integers(0, period - 1))
    later = draw(st.lists(st.tuples(node, node, column), min_size=1, max_size=12))
    senders, receivers, cols = np.array(early + later, dtype=np.int64).T
    return key, senders, receivers, cols, period, never


@settings(max_examples=200, deadline=None)
@given(case=labelled_deliveries())
def test_per_node_division_matches_per_delivery_oracle(case):
    key, nodes, cols, period, never = case
    got = _arrivals(key, nodes, cols, period, never)
    assert np.array_equal(got, oracles.arrivals(key, nodes, cols, period, never))


@settings(max_examples=300, deadline=None)
@given(case=labelled_deliveries(), data=st.data())
def test_reversed_relaxation_mirrors_latest_departures(case, data):
    # a latest departure is an earliest arrival in reversed time: ends
    # swapped, column period - 1 - c, from the open nodes at time -1
    key, senders, cols, period, never = case
    n = key.size
    nodes = st.lists(st.integers(0, n - 1), min_size=senders.size, max_size=senders.size)
    receivers = np.array(data.draw(nodes), dtype=np.int64)
    open_ = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    order = np.argsort(senders, kind="stable")
    backward = receivers[order], senders[order], period - 1 - cols[order]
    back = _relax(np.where(open_, -n, never * n), backward, period, never) // n
    want = oracles.deadlines(open_, senders, receivers, cols, period, never)
    assert np.array_equal(never - 1 - back, want)


@pytest.mark.parametrize(
    "copies", [st.just(1), st.integers(2, 4)], ids=["period-is-never", "period-below-never"]
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_relax_matches_every_delivery_oracle_in_as_many_passes(copies, data):
    # any starting keys, or a flood round's, which reaches the cut;
    # forward deliveries grouped by receiver; one copy is the
    # interference model's copies, period == never
    if data.draw(st.booleans()):
        key, senders, receivers, cols, period, never = data.draw(flood_rounds(copies))
    else:
        key, senders, cols, period, never = data.draw(labelled_deliveries(copies))
        n = key.size
        nodes = st.lists(st.integers(0, n - 1), min_size=senders.size, max_size=senders.size)
        receivers = np.array(data.draw(nodes), dtype=np.int64)
    order = np.argsort(receivers, kind="stable")
    deliveries = senders[order], receivers[order], cols[order]
    passes = []
    arrivals = protocol._arrivals

    def counted(*args):
        passes[-1] += 1
        return arrivals(*args)

    with mock.patch.object(protocol, "_arrivals", counted):
        passes.append(0)
        got = _relax(key, deliveries, period, never)
        passes.append(0)
        want = oracles.relax_every_delivery(key, deliveries, period, never)
    assert np.array_equal(got, want)
    assert passes[0] == passes[1]


def test_large_n_root_round_matches_every_delivery_oracle(monkeypatch):
    # the default large-n path, where the cut drops the most deliveries
    # and no per-meeting oracle runs: the root round's keys, on the real
    # grouped pairs, in as many passes as over every delivery
    relax, arrivals = (counting(monkeypatch, name) for name in ("_relax", "_arrivals"))
    assert run_pipeline(SimConfig(d=16384, beta=0.75, seed=3)).success
    (args, _kwargs), = relax
    per_pass = [call[0][1].size for call in arrivals]
    arrivals.clear()
    want = oracles.relax_every_delivery(*args)
    assert len(arrivals) == len(per_pass)
    assert np.array_equal(_relax(*args), want)
    # the cut fired: the last pass read a small share of the deliveries
    assert per_pass[-1] * 10 < per_pass[0]


def test_per_node_division_hand_cases():
    period, never, n = 10, 30, 5
    # times -1, 9, 10, 29 and 30 at 0, 1, 2, 3 and 0 hops
    key = np.array([-1, 9, 10, 29, 30]) * n + [0, 1, 2, 3, 0]
    nodes = np.array([0, 0, 1, 2, 3, 4])
    cols = np.array([0, 9, 9, 0, 5, 5])
    # a holder reaches column 0 and its own column 9 in copy 0; column 9
    # from time 9 and column 0 from time 10 (own columns) wait a copy,
    # each one hop further; past the budget every arrival reads never
    # at 0 hops, the unreached key
    expect = np.array([0, 9, 19, 20, 30, 30]) * n + [1, 1, 2, 3, 0, 0]
    assert _arrivals(key, nodes, cols, period, never).tolist() == expect.tolist()
    assert oracles.arrivals(key, nodes, cols, period, never).tolist() == expect.tolist()


def test_tie_goes_to_fewest_hops():
    # radio 2 holds the largest identifier; it reaches radio 1 at column
    # 0, and radio 5 over radios 3 and 4 by column 3. Radios 1 and 5 then
    # both carry it to radio 0 in one unit, at hop counts 1 and 3
    positions = [[4], [0, 4], [0, 1], [1, 2], [2, 3], [3, 4]]
    m = oracles.matrix(6, 5, positions, [0] * 6)
    idents = [1, 2, 2000, 4, 5, 6]
    heard_both = 0
    for seed in range(40):
        fast, slow = flood_both_ways(m, idents, 1, 8, seed)
        assert fast == slow
        _t, _awake, sent = fast[0][-1]
        # radio 0 hears every transmitter but itself; count the seeds in
        # which both chains reached it, at one hop and at three
        ends = [(seen, hops) for seen, _origin, hops in fast[1]]
        if {1, 5} <= set(sent) and ends[1] == (2000, 1) and ends[5] == (2000, 3):
            heard_both += 1
            assert fast[1][0][2] == 2
    assert heard_both > 0
    fast, slow = flood_both_ways_base(m, idents, 1, 1)
    # and with it the clock of the shorter chain: one unit of delay a hop
    assert fast == slow and (fast[1][0].hops, fast[1][0].root_origin) == (2, -2)


@pytest.mark.parametrize(
    "positions, idents, rounds, seen",
    [
        # radio 2 holds the largest identifier and reaches radio 1 at
        # column 1, after radio 1 sent its own to radio 0 at column 0: a
        # departure at the very first column, from an assigned radio
        ([[0], [0, 1], [1]], (1, 2, 3), 1, [(2, 1), (3, 1), (3, 0)]),
        # identifier 5 reaches radios 4, 1 and 2 but not radio 0; then 4
        # travels 4 -> 1 -> 2 -> 0 through radios that hold 5, across the
        # copy boundary, leaving radio 2 at its last column in time
        (
            [[1], [0, 3], [1, 3], [2], [0, 2]],
            (2, 1, 3, 5, 4),
            2,
            [(4, 3), (5, 2), (5, 3), (5, 0), (5, 1)],
        ),
        # radio 0 reaches radio 2 over radio 1 at column 1, two hops,
        # then directly at column 3, one hop, later; radio 3 hears radio
        # 2 at column 5. The first arrival counts, so radio 3 is three
        # hops out: a relaxation that kept the hops it was offered first
        # would leave it at two
        ([[0, 3], [0, 1], [1, 3, 5], [5]], (40, 10, 20, 30), 1, [(40, h) for h in range(4)]),
    ],
)
def test_later_rounds_match_oracle_on_hand_schedules(positions, idents, rounds, seen):
    # ``seen`` is each radio's identifier and hops; with offsets 0 and
    # one unit of delay a hop, its origin is minus its hops
    n = len(positions)
    m = oracles.matrix(n, 6, positions, [0] * n)
    fast, slow = flood_both_ways_base(m, idents, rounds, 1)
    assert fast == slow
    assert [(s.max_seen, s.hops, -s.root_origin) for s in fast[1]] == [(v, h, h) for v, h in seen]
    # every meeting here is of two radios; at 64 back-off slots both
    # are heard, so the interference model floods as the base one does
    base = [(s.max_seen, s.root_origin, s.hops) for s in fast[1]]
    fast, slow = flood_both_ways(m, idents, rounds, 64, 0)
    assert fast == slow and fast[1] == base


@settings(max_examples=300, deadline=None)
@given(
    m=sparse_matrices(min_rows=2),
    rounds=st.integers(1, 4),
    transmit_delay=st.integers(0, 2),
    data=st.data(),
)
def test_base_flood_matches_per_meeting_oracle(m, rounds, transmit_delay, data):
    # few rounds on sparse matrices: budget-cut and disconnected floods
    # are common
    idents = data.draw(st.permutations(range(1, m.n + 1)))
    fast, slow = flood_both_ways_base(m, idents, rounds, transmit_delay)
    assert fast == slow


@st.composite
def late_relays(draw):
    """Schedules of 2 to 5 columns in which the holder of identifier
    1000 must reach the end of a chain of pair meetings at consecutive
    columns, through relays that the holder of 2000 meets at one later
    column, often after they have passed 1000 on. Every radio may also
    wake at one random column. Returns the matrix, each radio's
    identifier and one or two rounds."""
    columns = draw(st.integers(2, 5))
    links = draw(st.integers(1, columns - 1))
    start = draw(st.integers(0, columns - 1 - links))
    n = links + 2 + draw(st.integers(0, 2))
    order = draw(st.permutations(range(n)))
    chain, top = order[: links + 1], order[links + 1]
    rows = [set() for _ in range(n)]
    for step, pair in enumerate(zip(chain, chain[1:])):
        for v in pair:
            rows[v].add(start + step)
    late = draw(st.integers(start + 1, columns - 1))
    for v in [top, *draw(st.sets(st.sampled_from(chain[:-1]), min_size=1))]:
        rows[v].add(late)
    for row in rows:
        row.update(draw(st.sets(st.integers(0, columns - 1), max_size=1)))
    positions = [sorted(row) for row in rows]
    m = oracles.matrix(n, columns, positions, [0] * n)
    idents = [v + 1 for v in range(n)]
    idents[chain[0]], idents[top] = 1000, 2000
    return m, idents, draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(case=late_relays(), transmit_delay=st.integers(0, 2), seed=st.integers(0, 2**32))
def test_late_relay_floods_match_oracles(case, transmit_delay, seed):
    # a later flood round relays through radios already assigned a
    # larger identifier, one column before their deadline
    m, idents, rounds = case
    fast, slow = flood_both_ways_base(m, idents, rounds, transmit_delay)
    assert fast == slow
    fast, slow = flood_both_ways(m, idents, rounds, 3, seed)
    assert fast == slow


def seeded_pipeline(d, beta, seed, **shape):
    """A seeded pipeline schedule with offsets and fresh identifiers,
    with its shape and config."""
    config = SimConfig(d=d, beta=beta, **shape)
    params = pipeline_params(d, config.n, **shape)
    rng = spawn_rng(seed, d)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, d, rng))
    return m, draw_identifiers(config.n, rng).tolist(), params, config


@pytest.mark.parametrize("d, scale, seed", [(1024, 0.3, 0), (1024, 0.3, 1), (4096, 0.5, 0)])
def test_budget_cut_pipeline_floods_match_oracles(d, scale, seed):
    # one paid copy of a sparse schedule: most nodes end below the
    # global maximum, on many distinct identifiers, so the flood runs
    # many rounds after its first and prunes holders by deadline
    m, idents, _params, config = seeded_pipeline(d, 0.75, seed, scale=scale, repetition_k=1)
    fast, slow = flood_both_ways_base(m, idents, 1, 1)
    assert fast == slow
    assert len({s.max_seen for s in fast[1]}) > 4
    fast, slow = flood_both_ways(m, idents, 1, config.backoff_rounds, seed)
    assert fast == slow


def test_disconnected_pipeline_floods_match_oracles():
    # at the A13 shape this seed leaves one radio isolated, so the flood
    # takes one round per component, in both modes
    seed = 13
    m, idents, params, config = seeded_pipeline(4096, 0.5, seed, scale=0.6, repetition_k=1)
    assert not graph_stats(build_comm_graph(m)).connected
    fast, slow = flood_both_ways_base(m, idents, params.rounds, 1)
    assert fast == slow
    fast, slow = flood_both_ways(m, idents, params.rounds, config.backoff_rounds, seed)
    assert fast == slow


@pytest.mark.parametrize("d, beta, seed", [(256, 0.5, 1), (256, 0.75, 2), (1024, 0.5, 3)])
def test_seeded_exclusive_flood_matches_per_unit_oracle(d, beta, seed):
    m, idents, params, config = seeded_pipeline(d, beta, seed)
    fast, slow = flood_both_ways(m, idents, params.rounds, config.backoff_rounds, seed)
    assert fast == slow
    assert fast[0]


def counting(monkeypatch, name):
    """Wrap ``protocol.<name>`` so that the arguments of its calls are
    recorded, one (args, kwargs) pair a call."""
    calls = []
    fn = getattr(protocol, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(protocol, name, counted)
    return calls


def later_of(spread_calls):
    """The ``later`` deliveries of each recorded ``_spread`` call."""
    return [args[1] for args, _kwargs in spread_calls]


@pytest.mark.parametrize("scale, repetition_k, seed, copies", [(1.82, None, 3, 1), (0.5, 1, 0, 2)])
def test_exclusive_stop_check_is_the_only_relaxation(
    scale, repetition_k, seed, copies, monkeypatch
):
    # a run that ends with every node at the global maximum relaxes each
    # copy it draws once, and never builds the concatenated flood
    calls = {
        name: counting(monkeypatch, name)
        for name in ("resolve_backoff", "_relax", "_spread")
    }
    config = SimConfig(
        d=256, beta=0.75, scale=scale, repetition_k=repetition_k, exclusive=True, seed=seed
    )
    result = run_pipeline(config)
    assert result.success and result.rounds_used == copies
    assert len(calls["resolve_backoff"]) == len(calls["_relax"]) == copies
    assert later_of(calls["_spread"]) == [None]


@pytest.mark.parametrize("seed", [0, 1])
def test_exclusive_fallback_relaxes_from_the_root_only_per_copy(seed, monkeypatch):
    # a node left unreached lays the copies end to end for the later
    # rounds, but the root's round is the per-copy labels: no relaxation
    # after the copy loop starts from the root again
    draws, relax = (counting(monkeypatch, name) for name in ("resolve_backoff", "_relax"))
    config = SimConfig(
        d=1024, beta=0.75, scale=0.3, repetition_k=1, rounds=2, exclusive=True, seed=seed
    )
    result = run_pipeline(config)
    assert not result.success and len(relax) > len(draws) == 2
    # the root starts each of its relaxations at time -1 and 0 hops
    from_root = [args[0][result.root_index] == -config.n for args, _kwargs in relax]
    assert from_root == [True] * len(draws) + [False] * (len(relax) - len(draws))


def test_base_later_deliveries_only_when_the_first_round_falls_short(monkeypatch):
    # a default run's first round reaches every node, so the reversed
    # deliveries are never built; a budget-cut run needs them
    spread = counting(monkeypatch, "_spread")
    assert run_pipeline(SimConfig(d=256, beta=0.5, seed=0)).success
    cut = run_pipeline(SimConfig(d=1024, beta=0.75, scale=0.3, repetition_k=1, rounds=1))
    assert not cut.success
    (no_later, later) = later_of(spread)
    assert no_later is None and later is not None


@pytest.mark.parametrize("ending", ["all-reached", "unreached"])
@pytest.mark.parametrize("d, seed", [(256, 0), (1024, 1)])
def test_exclusive_flood_endings_match_per_unit_oracle(ending, d, seed, monkeypatch):
    # a sparse schedule that the flood needs two or more copies of
    m, idents, params, config = seeded_pipeline(d, 0.75, seed, scale=0.5, repetition_k=1)
    rounds, backoff_rounds = params.rounds, config.backoff_rounds
    if ending == "unreached":
        rounds = backoff_rounds = 1
    spread = counting(monkeypatch, "_spread")
    fast, slow = flood_both_ways(m, idents, rounds, backoff_rounds, seed)
    assert fast == slow
    seen = [max_seen for max_seen, _origin, _hops in fast[1]]
    (later,) = later_of(spread)
    if ending == "all-reached":
        assert seen == [max(idents)] * m.n and fast[2] >= 2 and later is None
    else:
        assert max(idents) in seen and min(seen) < max(idents) and later is not None
