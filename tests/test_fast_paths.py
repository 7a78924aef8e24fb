"""The vectorized meeting kernel, graph builder, schedule draw, array
flood and bit-parallel graph statistics return exactly what the slow
reference loops in ``oracles`` return. The back-off draw's distribution
is checked in ``test_netsim.py``."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from radiosync import netsim
from radiosync.protocol import (
    NodeState,
    _by_receiver,
    SimConfig,
    build_pipeline_matrix,
    draw_offsets,
    make_node_states,
    pipeline_params,
    run_pipeline,
    run_sync,
)
from radiosync.randsched import (
    ScheduleMatrix,
    _radix_order,
    build_comm_graph,
    detect_meetings,
    draw_rows,
    gen_matrix,
    graph_from_meetings,
    graph_stats,
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
def sparse_matrices(draw, min_rows=9):
    """``min_rows`` to 24 rows of one to three awake units, so meetings
    are mostly of two to four radios, as in the interference workloads."""
    n = draw(st.integers(min_rows, 24))
    columns = draw(st.integers(4, 16))
    awake = st.sets(st.integers(0, columns - 1), min_size=1, max_size=3)
    rows = [np.array(sorted(draw(awake)), dtype=np.int64) for _ in range(n)]
    offsets = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
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


def witness_items(witness):
    return list(witness.items())


def assert_csr_matches(g):
    """The CSR rows are the sorted neighbour lists of the edge set, and
    the degrees their lengths."""
    adj = oracles.adjacency(g)
    ptr = g.indptr.tolist()
    assert [g.indices[lo:hi].tolist() for lo, hi in zip(ptr, ptr[1:])] == adj
    assert g.degrees().tolist() == [len(nbrs) for nbrs in adj]


@settings(max_examples=200, deadline=None)
@given(m=matrices(), exclusive=st.booleans())
def test_kernel_and_graph_match_oracle(m, exclusive):
    assert list(detect_meetings(m, exclusive)) == oracles.detect_meetings(m, exclusive)
    assert witness_items(build_comm_graph(m, exclusive).witness) == witness_items(
        oracles.build_comm_graph(m, exclusive)
    )


@settings(max_examples=50, deadline=None)
@given(m=matrices(zero_offsets=True), exclusive=st.booleans())
def test_zero_offsets_match_oracle(m, exclusive):
    assert list(detect_meetings(m, exclusive)) == oracles.detect_meetings(m, exclusive)
    assert witness_items(build_comm_graph(m, exclusive).witness) == witness_items(
        oracles.build_comm_graph(m, exclusive)
    )


@settings(max_examples=100, deadline=None)
@given(case=meeting_lists())
def test_graph_builder_matches_oracle(case):
    n, meetings = case
    got = graph_from_meetings(n, oracles.as_meetings(meetings))
    assert witness_items(got.witness) == witness_items(
        oracles.graph_from_meetings(meetings)
    )
    assert_csr_matches(got)


@settings(max_examples=50, deadline=None)
@given(m=matrices(), exclusive=st.booleans())
def test_run_sync_graph_and_neighbors_match_oracle(m, exclusive):
    meetings = oracles.detect_meetings(m)
    if exclusive:
        meetings = [mt for mt in meetings if len(mt[1]) == 2]
    expected = oracles.graph_from_meetings(meetings)
    rng = spawn_rng(5)
    states = make_node_states(m.n, m.offsets, rng)
    result = run_sync(m, states, 1, exclusive=exclusive, rng=rng)
    assert witness_items(result.comm_graph.witness) == witness_items(expected)
    assert_csr_matches(result.comm_graph)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_every_row_awake_in_one_column(n):
    m = ScheduleMatrix(
        n=n, columns=8, positions=[np.array([3])] * n, offsets=[0] * n
    )
    for exclusive in (False, True):
        got = list(detect_meetings(m, exclusive))
        assert got == oracles.detect_meetings(m, exclusive)
        assert witness_items(build_comm_graph(m, exclusive).witness) == witness_items(
            oracles.build_comm_graph(m, exclusive)
        )
    expected = [(3, tuple(range(n)))] if n >= 2 else []
    assert list(detect_meetings(m)) == expected
    assert list(detect_meetings(m, exclusive=True)) == (expected if n == 2 else [])


def test_empty_rows():
    empty = ScheduleMatrix(n=3, columns=4, positions=[[], [], []], offsets=[0, 1, 2])
    assert list(detect_meetings(empty)) == oracles.detect_meetings(empty) == []
    assert build_comm_graph(empty).witness == {}
    assert build_comm_graph(empty).indptr.tolist() == [0, 0, 0, 0]
    some = ScheduleMatrix(n=3, columns=4, positions=[[1], [], [0, 2]], offsets=[1, 0, 0])
    assert list(detect_meetings(some)) == oracles.detect_meetings(some) == [(2, (0, 2))]


def assert_draw_matches_oracle(n, windows, columns, draws, fast_rng, slow_rng):
    positions, starts = draw_rows(n, windows, columns, draws, fast_rng)
    slow = oracles.draw_rows(n, windows, columns, draws, slow_rng)
    assert positions.dtype == starts.dtype == np.int64
    assert starts.shape == (n + 1,)
    assert starts[0] == 0 and starts[-1] == positions.size
    assert (np.diff(starts) >= 0).all()
    fast = [positions[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and np.array_equal(a, b)
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
    rng = spawn_rng(12)
    got = gen_matrix(6, 300, 0.5, 1.82, rng)
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
    return (
        stats.min_degree,
        stats.connected,
        stats.root,
        stats.diameter,
        type(stats.diameter),
        list(stats.spanning_tree.items()),
    )


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
    meetings = oracles.as_meetings(groups)
    g = graph_from_meetings(n, meetings)
    assert witness_items(g.witness) == witness_items(oracles.graph_from_meetings(groups))
    assert_csr_matches(g)
    root = int(np.argmax(g.degrees()))
    got = graph_stats(g, root=root)
    assert stats_fields(got) == stats_fields(oracles.graph_stats(g, root=root))
    assert 3 < len(got.spanning_tree) < n
    # the flood's receiver grouping at this size is the stable sort
    slots, dst, which = meetings.pairs()
    receivers = meetings.owners[dst]
    by = _by_receiver(meetings.owners[slots], receivers, meetings.cols[which], n)
    order = np.argsort(receivers, kind="stable")
    assert np.array_equal(by[1], receivers[order])
    assert np.array_equal(by[0], meetings.owners[slots][order])
    assert np.array_equal(by[4], np.unique(receivers))


def test_batched_backoff_lone_units_draw_nothing():
    rng = spawn_rng(4)
    before = rng.bit_generator.state
    assert netsim.resolve_backoff([0, 1, 1], 9, rng).tolist() == [False, False]
    assert netsim.resolve_backoff([], 9, rng).size == 0
    assert rng.bit_generator.state == before


def flood_both_ways(m, held, rounds, backoff_rounds, seed):
    """(trace, states, rounds used, rng state) of ``run_sync`` and of the
    per-unit oracle flood, from equal inputs. ``held`` gives each node's
    (ident, max_seen, hops) at the start; a max_seen of 0 means its own
    identifier."""
    out = []
    for fast in (True, False):
        states = [
            NodeState(i, ident, int(m.offsets[i]), max_seen=seen, hops=hops)
            for i, (ident, seen, hops) in enumerate(held)
        ]
        rng, trace = spawn_rng(seed), []
        kwargs = dict(backoff_rounds=backoff_rounds, transmit_delay=1, rng=rng, trace=trace)
        if fast:
            used = run_sync(m, states, rounds, exclusive=True, **kwargs).rounds_used
        else:
            used = oracles.flood_exclusive(m, states, rounds, **kwargs)
        out.append(
            (
                trace,
                [(s.max_seen, s.root_origin, s.hops) for s in states],
                used,
                rng.bit_generator.state,
            )
        )
    return out


@settings(max_examples=150, deadline=None)
@given(
    # past 8 radios, identifiers share hash slots in the senders' set, so
    # the order winners are inserted in can decide ties
    m=sparse_matrices(),
    rounds=st.integers(1, 4),
    backoff_rounds=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_exclusive_flood_matches_per_unit_oracle(m, rounds, backoff_rounds, seed, data):
    # nodes may start out holding one of two large identifiers at
    # different hop counts, so senders tie often
    idents = spawn_rng(seed, 1).permutation(np.arange(1, m.n + 1)).tolist()
    held = [
        (ident, data.draw(st.sampled_from([0, 1000, 2000])), data.draw(st.integers(0, 4)))
        for ident in idents
    ]
    fast, slow = flood_both_ways(m, held, rounds, backoff_rounds, seed)
    assert fast == slow


def flood_both_ways_base(m, held, rounds, transmit_delay):
    """(trace, states, rounds used) of ``run_sync`` in the base model
    and of the per-meeting oracle flood, from equal inputs; ``held`` as
    in :func:`flood_both_ways`."""
    out = []
    for fast in (True, False):
        states = [
            NodeState(i, ident, int(m.offsets[i]), max_seen=seen, hops=hops)
            for i, (ident, seen, hops) in enumerate(held)
        ]
        trace = []
        if fast:
            used = run_sync(
                m, states, rounds, transmit_delay=transmit_delay, trace=trace
            ).rounds_used
        else:
            used = oracles.flood_base(
                m, states, rounds, transmit_delay=transmit_delay, trace=trace
            )
            oracles.finish(m, states, rounds, transmit_delay=transmit_delay)
        out.append((trace, states, used))
    return out


def test_tie_goes_to_fewest_hops_then_lowest_sender():
    # radios 1 and 9 both carry identifier 1000 to radio 0 in one unit,
    # at hop counts 1 and 3; they share a hash slot in a small set, so
    # a set-ordered choice would depend on which won its slot first
    positions = [[0], [0]] + [[]] * 7 + [[0]]
    m = ScheduleMatrix(n=10, columns=2, positions=positions, offsets=[0] * 10)
    held = [(i + 1, 0, 0) for i in range(10)]
    held[1] = (2, 1000, 1)
    held[9] = (10, 1000, 3)
    heard_both = 0
    for seed in range(40):
        fast, slow = flood_both_ways(m, held, 1, 8, seed)
        assert fast == slow
        ((_t, _awake, _sent, delivered),) = fast[0]
        if delivered[0] == (1, 9):
            heard_both += 1
            assert fast[1][0][2] == 2
    assert heard_both > 0
    fast, slow = flood_both_ways_base(m, held, 1, 1)
    assert fast == slow and fast[1][0].hops == 2
    # equal hop counts: the lower sender index wins, and with it that
    # sender's clock (radios 1 and 9 start at different offsets)
    positions = [[1], [0]] + [[]] * 7 + [[1]]
    m = ScheduleMatrix(n=10, columns=2, positions=positions, offsets=[0, 1] + [0] * 8)
    held[9] = (10, 1000, 1)
    fast, slow = flood_both_ways_base(m, held, 1, 1)
    assert fast == slow
    assert (fast[1][0].hops, fast[1][0].root_origin) == (2, 1 - 1)


@settings(max_examples=300, deadline=None)
@given(
    m=sparse_matrices(min_rows=2),
    rounds=st.integers(1, 4),
    transmit_delay=st.integers(0, 2),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_base_flood_matches_per_meeting_oracle(m, rounds, transmit_delay, seed, data):
    # few rounds on sparse matrices: budget-cut and disconnected floods
    # are common, and pre-held tied identifiers make senders tie
    idents = spawn_rng(seed, 1).permutation(np.arange(1, m.n + 1)).tolist()
    seen, hops = st.sampled_from([0, 1000, 2000]), st.integers(0, 4)
    held = [(ident, data.draw(seen), data.draw(hops)) for ident in idents]
    fast, slow = flood_both_ways_base(m, held, rounds, transmit_delay)
    assert fast == slow


@pytest.mark.parametrize("d, scale, seed", [(1024, 0.3, 0), (1024, 0.3, 1), (4096, 0.5, 0)])
def test_budget_cut_pipeline_floods_match_oracles(d, scale, seed):
    # one paid copy of a sparse schedule: most nodes end below the
    # global maximum, on many distinct identifiers, so the flood runs
    # many rounds after its first and prunes holders by deadline
    config = SimConfig(d=d, beta=0.75, scale=scale, repetition_k=1)
    params = pipeline_params(d, config.n, scale=scale, repetition_k=1)
    rng = spawn_rng(seed, d)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, d, rng))
    held = [(s.ident, 0, 0) for s in make_node_states(config.n, m.offsets, rng)]
    fast, slow = flood_both_ways_base(m, held, 1, 1)
    assert fast == slow
    assert len({s.max_seen for s in fast[1]}) > 4
    fast, slow = flood_both_ways(m, held, 1, config.backoff_rounds, seed)
    assert fast == slow


@pytest.mark.parametrize("d, beta, seed", [(256, 0.5, 1), (256, 0.75, 2), (1024, 0.5, 3)])
def test_seeded_exclusive_flood_matches_per_unit_oracle(d, beta, seed):
    config = SimConfig(d=d, beta=beta, exclusive=True)
    params = pipeline_params(d, config.n)
    rng = spawn_rng(seed, d)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, d, rng))
    held = [(s.ident, 0, 0) for s in make_node_states(config.n, m.offsets, rng)]
    fast, slow = flood_both_ways(m, held, params.rounds, config.backoff_rounds, seed)
    assert fast == slow
    assert fast[0]
