"""Metamorphic relations of the flood: two runs of the fast path against
each other, with no oracle, so they hold at every size.

* Translation: adding c to every offset adds c to ``root_origin`` and
  to the graph's first columns and changes nothing else, in either
  model.
* Row permutation (base model): permuting rows, offsets and identifiers
  permutes every per-node result and leaves ``rounds_used`` alone. The
  interference model is left out: its winners follow slot order.
* Model containment: on one matrix, every node the interference model
  synchronizes, the base model synchronizes too.
* Copy monotonicity: a node synchronized within one copy is
  synchronized within the full budget, in either model (the first
  copy's back-off draws are the same).

Each run is also checked on its own: every node's delay-adjusted clock
is the offset of the node whose identifier it ends with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from radiosync.protocol import (
    SimConfig,
    build_pipeline_matrix,
    draw_identifiers,
    draw_offsets,
    pipeline_params,
    run_sync,
)
from radiosync.seeding import spawn_rng

#: the per-node arrays of a result, and those a translation leaves alone
PER_NODE = ("max_seen", "root_origin", "hops", "synchronized", "root_time")
UNMOVED = ("max_seen", "hops", "synchronized", "root_time", "per_node_radio_cost")


@st.composite
def small_matrices(draw):
    """2-10 rows of 0-4 units over up to 12 columns, offsets up to 6."""
    n = draw(st.integers(2, 10))
    columns = draw(st.integers(1, 12))
    awake = st.sets(st.integers(0, columns - 1), max_size=4)
    rows = [np.array(sorted(draw(awake)), dtype=np.int64) for _ in range(n)]
    offsets = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return oracles.matrix(n, columns, rows, offsets)


@st.composite
def pipeline_matrices(draw):
    """Seeded pipeline schedules with one repetition a stage at a scale
    that leaves some graphs sparse or disconnected, as the relations were
    checked on at the A13 setting."""
    d = draw(st.sampled_from((64, 256, 1024)))
    beta = draw(st.sampled_from((0.5, 0.75)))
    scale = draw(st.sampled_from((0.3, 0.6, 1.0)))
    n = SimConfig(d=d, beta=beta).n
    rng = spawn_rng(draw(st.integers(0, 2**32)), d)
    m = build_pipeline_matrix(n, pipeline_params(d, n, scale=scale, repetition_k=1), rng)
    return m.with_offsets(draw_offsets(n, d, rng))


@st.composite
def cases(draw):
    """A matrix, unique identifiers, a budget of 1-3 copies, a transmit
    delay of 0-2 and a back-off seed."""
    m = draw(st.one_of(small_matrices(), pipeline_matrices()))
    idents = np.array(draw(st.permutations(range(1, m.n + 1))), dtype=np.int64)
    rounds = draw(st.integers(1, 3))
    return m, idents, rounds, draw(st.integers(0, 2)), draw(st.integers(0, 2**32))


def sync(m, idents, rounds, delay, seed, exclusive, backoff_rounds=3):
    result = run_sync(
        m,
        idents,
        rounds,
        exclusive=exclusive,
        backoff_rounds=backoff_rounds,
        transmit_delay=delay,
        rng=spawn_rng(seed),
    )
    assert_clocks(m, idents, result, delay)
    return result


def assert_clocks(m, idents, result, delay):
    """Each node's delay-adjusted clock is the offset of the owner of
    the identifier it ends with."""
    owner = np.argsort(idents)[np.searchsorted(np.sort(idents), result.max_seen)]
    assert (result.root_origin + delay * result.hops == m.offsets[owner]).all()


def assert_translated(moved, base, c):
    """``moved`` is ``base`` with every offset plus ``c``."""
    for name in UNMOVED:
        assert (getattr(moved, name) == getattr(base, name)).all(), name
    assert (moved.root_origin == base.root_origin + c).all()
    assert (moved.rounds_used, moved.success, moved.unreached) == (
        base.rounds_used,
        base.success,
        base.unreached,
    )
    g, h = moved.comm_graph, base.comm_graph
    assert (g.indptr == h.indptr).all() and (g.indices == h.indices).all()
    assert (g.first_cols == h.first_cols + c).all()


def contained(inner, outer):
    """Every node ``inner`` synchronizes, ``outer`` synchronizes too."""
    return not (inner.synchronized & ~outer.synchronized).any()


@settings(max_examples=150, deadline=None)
@given(case=cases(), c=st.integers(1, 10**6), exclusive=st.booleans())
def test_translation(case, c, exclusive):
    m, idents, rounds, delay, seed = case
    base = sync(m, idents, rounds, delay, seed, exclusive)
    moved = sync(m.with_offsets(m.offsets + c), idents, rounds, delay, seed, exclusive)
    assert_translated(moved, base, c)


@settings(max_examples=150, deadline=None)
@given(case=cases(), data=st.data())
def test_row_permutation_base(case, data):
    m, idents, rounds, delay, seed = case
    perm = np.array(data.draw(st.permutations(range(m.n))))
    rows = oracles.rows(m)
    permuted = oracles.matrix(m.n, m.columns, [rows[r] for r in perm], m.offsets[perm])
    base = sync(m, idents, rounds, delay, seed, False)
    got = sync(permuted, idents[perm], rounds, delay, seed, False)
    for name in (*PER_NODE, "per_node_radio_cost"):
        assert (getattr(got, name) == getattr(base, name)[perm]).all(), name
    assert got.rounds_used == base.rounds_used
    assert (got.comm_graph.degrees() == base.comm_graph.degrees()[perm]).all()


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_model_containment(case):
    m, idents, rounds, delay, seed = case
    interference = sync(m, idents, rounds, delay, seed, True)
    assert contained(interference, sync(m, idents, rounds, delay, seed, False))


@settings(max_examples=150, deadline=None)
@given(case=cases(), exclusive=st.booleans())
def test_copy_monotonicity(case, exclusive):
    m, idents, rounds, delay, seed = case
    one = sync(m, idents, 1, delay, seed, exclusive)
    assert contained(one, sync(m, idents, rounds + 1, delay, seed, exclusive))


def test_large_n_translation_and_containment():
    # run_pipeline's draws at d=16384, beta=0.75, seed 3 (1449 radios),
    # where no oracle runs; the interference run continues the same rng
    config = SimConfig(d=16384, beta=0.75, seed=3)
    params = pipeline_params(config.d, config.n)
    rng = spawn_rng(config.seed)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, config.d, rng))
    idents = draw_identifiers(config.n, rng)
    base = run_sync(m, idents, params.rounds)
    c = 12_345
    assert_translated(run_sync(m.with_offsets(m.offsets + c), idents, params.rounds), base, c)
    interference = run_sync(
        m,
        idents,
        params.rounds,
        exclusive=True,
        backoff_rounds=config.backoff_rounds,
        rng=rng,
    )
    assert contained(interference, base)
    for result in (base, interference):
        assert_clocks(m, idents, result, 0)


@pytest.mark.parametrize("exclusive", (False, True))
def test_one_copy_syncs_fewer_at_the_a13_setting(exclusive):
    # copy monotonicity is not vacuous: at the A13 setting one copy
    # leaves nodes unsynchronized that the full budget reaches
    config = SimConfig(d=4096, beta=0.5, scale=0.6, repetition_k=1, exclusive=exclusive)
    params = pipeline_params(config.d, config.n, scale=0.6, repetition_k=1)
    rng = spawn_rng(1000)
    m = build_pipeline_matrix(config.n, params, rng)
    m = m.with_offsets(draw_offsets(config.n, config.d, rng))
    idents = draw_identifiers(config.n, rng)
    seed, delay, backoff = 7, 0, config.backoff_rounds
    one = sync(m, idents, 1, delay, seed, exclusive, backoff)
    full = sync(m, idents, params.rounds, delay, seed, exclusive, backoff)
    assert contained(one, full)
    assert one.synchronized.sum() < full.synchronized.sum()
