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
from radiosync import acceptance, netsim, protocol
from radiosync.protocol import (
    NodeState,
    _arrivals,
    _by_receiver,
    _relax,
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
    graph_from_pairs,
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


def graph_of(n, meetings):
    """The graph of a :class:`Meetings` record, built as
    ``build_comm_graph`` builds it: its pairs through
    ``graph_from_pairs``."""
    src, dst, which = meetings.pairs()
    owners = meetings.owners
    return graph_from_pairs(n, owners[src], owners[dst], meetings.cols[which])


def assert_csr_matches(g):
    """The CSR rows are the sorted neighbour lists of the edge set, and
    the degrees their lengths."""
    adj = oracles.adjacency(g)
    ptr = g.indptr.tolist()
    assert [g.indices[lo:hi].tolist() for lo, hi in zip(ptr, ptr[1:])] == adj
    assert g.degrees().tolist() == [len(nbrs) for nbrs in adj]


def assert_kernel_and_graph_match_oracle(m):
    assert list(detect_meetings(m)) == oracles.detect_meetings(m)
    assert witness_items(build_comm_graph(m).witness) == witness_items(
        oracles.build_comm_graph(m)
    )


@settings(max_examples=200, deadline=None)
@given(m=matrices())
def test_kernel_and_graph_match_oracle(m):
    assert_kernel_and_graph_match_oracle(m)


@settings(max_examples=50, deadline=None)
@given(m=matrices(zero_offsets=True))
def test_zero_offsets_match_oracle(m):
    assert_kernel_and_graph_match_oracle(m)


@settings(max_examples=100, deadline=None)
@given(case=meeting_lists())
def test_graph_builder_matches_oracle(case):
    n, meetings = case
    got = graph_of(n, oracles.as_meetings(meetings))
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
    result = run_sync(m, make_node_states(m.n, rng), 1, exclusive=exclusive, rng=rng)
    assert witness_items(result.comm_graph.witness) == witness_items(expected)
    assert_csr_matches(result.comm_graph)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_every_row_awake_in_one_column(n):
    m = ScheduleMatrix(
        n=n, columns=8, positions=[np.array([3])] * n, offsets=[0] * n
    )
    assert_kernel_and_graph_match_oracle(m)
    assert list(detect_meetings(m)) == ([(3, tuple(range(n)))] if n >= 2 else [])


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
    meetings = oracles.as_meetings(groups)
    g = graph_of(n, meetings)
    assert witness_items(g.witness) == witness_items(oracles.graph_from_meetings(groups))
    assert_csr_matches(g)
    root = int(np.argmax(g.degrees()))
    got = graph_stats(g, root=root)
    assert stats_fields(got) == stats_fields(oracles.graph_stats(g, root=root))
    assert 3 < got.reached < n
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


def node_record(held):
    """The record of nodes that start with ``held`` (ident, max_seen,
    hops) triples."""
    ident, seen, hops = (np.array(column, dtype=np.int64) for column in zip(*held))
    return NodeState(ident, max_seen=seen, hops=hops)


def flood_both_ways(m, held, rounds, backoff_rounds, seed):
    """(trace, states, rounds used, rng state) of ``run_sync`` and of the
    per-unit oracle flood, from equal inputs. ``held`` gives each node's
    (ident, max_seen, hops) at the start; a max_seen of 0 means its own
    identifier."""
    held = [(ident, seen or ident, hops) for ident, seen, hops in held]
    out = []
    for fast in (True, False):
        rng, trace = spawn_rng(seed), []
        kwargs = dict(backoff_rounds=backoff_rounds, transmit_delay=1, rng=rng, trace=trace)
        if fast:
            result = run_sync(m, node_record(held), rounds, exclusive=True, **kwargs)
            used, states = result.rounds_used, result.states
        else:
            states = oracles.nodes(m, held)
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
    held = [(ident, seen or ident, hops) for ident, seen, hops in held]
    out = []
    for fast in (True, False):
        trace = []
        if fast:
            result = run_sync(
                m, node_record(held), rounds, transmit_delay=transmit_delay, trace=trace
            )
            used, states = result.rounds_used, result.states
        else:
            nodes = oracles.nodes(m, held)
            used = oracles.flood_base(
                m, nodes, rounds, transmit_delay=transmit_delay, trace=trace
            )
            oracles.finish(m, nodes, rounds, transmit_delay=transmit_delay)
            states = tuple(node.reading() for node in nodes)
        out.append((trace, states, used))
    return out


@st.composite
def labelled_deliveries(draw):
    """Node labels in [-1, never] over ``copies`` copies of ``period``
    columns (holders at -1, labels on and beside copy boundaries, at and
    near ``never``) and deliveries from random nodes, at random columns
    or at the node's own column, that of ``label - 1`` or ``label + 1``."""
    period = draw(st.integers(1, 9))
    copies = draw(st.integers(1, 4))
    never = copies * period
    n = draw(st.integers(1, 8))
    boundary = st.integers(0, copies).map(lambda k: k * period)
    some_label = st.one_of(
        st.just(-1),
        st.integers(-1, never),
        boundary,
        boundary.map(lambda b: max(b - 1, -1)),
        st.sampled_from([never - 1, never]),
    )
    label = np.array(draw(st.lists(some_label, min_size=n, max_size=n)), dtype=np.int64)
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=20))
    cols = [
        draw(
            st.one_of(
                st.integers(0, period - 1),
                st.sampled_from([(int(label[v]) + d) % period for d in (-1, 0, 1)]),
            )
        )
        for v in nodes
    ]
    nodes, cols = np.array(nodes, dtype=np.int64), np.array(cols, dtype=np.int64)
    return label, nodes, cols, period, never


@settings(max_examples=200, deadline=None)
@given(case=labelled_deliveries())
def test_per_node_division_matches_per_delivery_oracle(case):
    label, nodes, cols, period, never = case
    got = _arrivals(label, nodes, cols, period, never)
    assert np.array_equal(got, oracles.arrivals(label, nodes, cols, period, never))


@settings(max_examples=300, deadline=None)
@given(case=labelled_deliveries(), data=st.data())
def test_reversed_relaxation_mirrors_latest_departures(case, data):
    # a latest departure is an earliest arrival in reversed time: ends
    # swapped, column period - 1 - c, from the open nodes at -1
    label, senders, cols, period, never = case
    n = label.size
    nodes = st.lists(st.integers(0, n - 1), min_size=senders.size, max_size=senders.size)
    receivers = np.array(data.draw(nodes), dtype=np.int64)
    open_ = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    backward = _by_receiver(receivers, senders, period - 1 - cols, n)
    back = _relax(np.where(open_, -1, never), backward, period, never)[0]
    want = oracles.deadlines(open_, senders, receivers, cols, period, never)
    assert np.array_equal(never - 1 - back, want)


def test_per_node_division_hand_cases():
    period, never = 10, 30
    label = np.array([-1, 9, 10, 29, 30])
    nodes = np.array([0, 0, 1, 2, 3, 4])
    cols = np.array([0, 9, 9, 0, 5, 5])
    # a holder reaches column 0 and its own column 9 in copy 0; column 9
    # from label 9 and column 0 from label 10 (own columns) wait a copy;
    # past the budget every arrival reads never
    expect = [0, 9, 19, 20, 30, 30]
    assert _arrivals(label, nodes, cols, period, never).tolist() == expect
    assert oracles.arrivals(label, nodes, cols, period, never).tolist() == expect


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
        ((_t, _awake, sent),) = fast[0]
        # radio 0 hears every transmitter but itself
        if {1, 9} <= set(sent):
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


@pytest.mark.parametrize(
    "positions, idents, rounds, seen",
    [
        # radio 2 holds the largest identifier and reaches radio 1 at
        # column 1, after radio 1 sent its own to radio 0 at column 0: a
        # departure at the very first column, from an assigned radio
        ([[0], [0, 1], [1]], (1, 2, 3), 1, [2, 3, 3]),
        # identifier 5 reaches radios 4, 1 and 2 but not radio 0; then 4
        # travels 4 -> 1 -> 2 -> 0 through radios that hold 5, across the
        # copy boundary, leaving radio 2 at its last column in time
        ([[1], [0, 3], [1, 3], [2], [0, 2]], (2, 1, 3, 5, 4), 2, [4, 5, 5, 5, 5]),
    ],
)
def test_later_rounds_match_oracle_on_hand_schedules(positions, idents, rounds, seen):
    n = len(positions)
    m = ScheduleMatrix(n=n, columns=4, positions=positions, offsets=[0] * n)
    held = [(ident, 0, 0) for ident in idents]
    fast, slow = flood_both_ways_base(m, held, rounds, 1)
    assert fast == slow
    assert [s.max_seen for s in fast[1]] == seen


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


@st.composite
def late_relays(draw):
    """Schedules of 2 to 5 columns in which a radio pre-assigned 1000
    must reach the end of a chain of pair meetings at consecutive
    columns, through relays that the holder of 2000 meets at one later
    column, often after they have passed 1000 on. Every radio may also
    wake at one random column. Returns the matrix, each radio's held
    (ident, max_seen, hops) and one or two rounds."""
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
    m = ScheduleMatrix(n=n, columns=columns, positions=positions, offsets=[0] * n)
    held = [(v + 1, 0, 0) for v in range(n)]
    for v, seen in ((chain[0], 1000), (top, 2000)):
        held[v] = (v + 1, seen, draw(st.integers(0, 2)))
    return m, held, draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(case=late_relays(), transmit_delay=st.integers(0, 2), seed=st.integers(0, 2**32))
def test_late_relay_floods_match_oracles(case, transmit_delay, seed):
    # a later flood round relays through radios already assigned a
    # larger identifier, one column before their deadline
    m, held, rounds = case
    fast, slow = flood_both_ways_base(m, held, rounds, transmit_delay)
    assert fast == slow
    fast, slow = flood_both_ways(m, held, rounds, 3, seed)
    assert fast == slow


def seeded_pipeline(d, beta, seed, **shape):
    """A seeded pipeline schedule with offsets and fresh identifiers
    held as (ident, 0, 0), with its shape and config."""
    config = SimConfig(d=d, beta=beta, **shape)
    params = pipeline_params(d, config.n, **shape)
    rng = spawn_rng(seed, d)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, d, rng))
    held = [(ident, 0, 0) for ident in make_node_states(config.n, rng).ident.tolist()]
    return m, held, params, config


@pytest.mark.parametrize("d, scale, seed", [(1024, 0.3, 0), (1024, 0.3, 1), (4096, 0.5, 0)])
def test_budget_cut_pipeline_floods_match_oracles(d, scale, seed):
    # one paid copy of a sparse schedule: most nodes end below the
    # global maximum, on many distinct identifiers, so the flood runs
    # many rounds after its first and prunes holders by deadline
    m, held, _params, config = seeded_pipeline(d, 0.75, seed, scale=scale, repetition_k=1)
    fast, slow = flood_both_ways_base(m, held, 1, 1)
    assert fast == slow
    assert len({s.max_seen for s in fast[1]}) > 4
    fast, slow = flood_both_ways(m, held, 1, config.backoff_rounds, seed)
    assert fast == slow


def test_disconnected_pipeline_floods_match_oracles():
    # at the A13 shape this seed leaves one radio isolated, so the flood
    # takes one round per component, in both modes
    seed = 13
    m, held, params, config = seeded_pipeline(4096, 0.5, seed, scale=0.6, repetition_k=1)
    assert not graph_stats(build_comm_graph(m)).connected
    fast, slow = flood_both_ways_base(m, held, params.rounds, 1)
    assert fast == slow
    fast, slow = flood_both_ways(m, held, params.rounds, config.backoff_rounds, seed)
    assert fast == slow


@pytest.mark.parametrize("d, beta, seed", [(256, 0.5, 1), (256, 0.75, 2), (1024, 0.5, 3)])
def test_seeded_exclusive_flood_matches_per_unit_oracle(d, beta, seed):
    m, held, params, config = seeded_pipeline(d, beta, seed)
    fast, slow = flood_both_ways(m, held, params.rounds, config.backoff_rounds, seed)
    assert fast == slow
    assert fast[0]


def counting(monkeypatch, name):
    """Wrap ``protocol.<name>`` so that its calls are counted."""
    calls = []
    fn = getattr(protocol, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(protocol, name, counted)
    return calls


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
    assert calls["_spread"] == []


@pytest.mark.parametrize("ending", ["all-reached", "unreached", "above-max"])
@pytest.mark.parametrize("d, seed", [(256, 0), (1024, 1)])
def test_exclusive_flood_endings_match_per_unit_oracle(ending, d, seed, monkeypatch):
    # a sparse schedule that the flood needs two or more copies of
    m, held, params, config = seeded_pipeline(d, 0.75, seed, scale=0.5, repetition_k=1)
    rounds, backoff_rounds = params.rounds, config.backoff_rounds
    top = max(ident for ident, _seen, _hops in held)
    # two holders of the maximum, at different hop counts
    held = [(ident, 0, 3 if ident == top else 0) for ident, _seen, _hops in held]
    held[5] = (held[5][0], top, 1)
    if ending == "unreached":
        rounds = backoff_rounds = 1
    if ending == "above-max":
        # one node already holds more than any identifier
        held[7] = (held[7][0], top + 1, 2)
    spread = counting(monkeypatch, "_spread")
    fast, slow = flood_both_ways(m, held, rounds, backoff_rounds, seed)
    assert fast == slow
    seen = [max_seen for max_seen, _origin, _hops in fast[1]]
    if ending == "all-reached":
        assert seen == [top] * m.n and fast[2] >= 2 and not spread
    elif ending == "unreached":
        assert top in seen and min(seen) < top and spread
    else:
        assert top + 1 in seen and fast[2] == rounds and spread
