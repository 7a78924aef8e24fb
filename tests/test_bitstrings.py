"""Overlap algebra and shift construction against hand-derived and
brute-force oracles."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiosync.bitstrings import (
    BitSchedule,
    NotFound,
    ShiftAssignment,
    brute_force_min_overlap_shift,
    find_non_overlap_shift,
    overlaps_at,
    pack_non_overlapping,
)
from radiosync.seeding import spawn_rng


def sched(length, *ones):
    return BitSchedule(length, tuple(ones))


# --- BitSchedule -----------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        BitSchedule(0, ())
    with pytest.raises(ValueError):
        BitSchedule(4, (2, 1))  # not increasing
    with pytest.raises(ValueError):
        BitSchedule(4, (1, 1))  # duplicate
    with pytest.raises(ValueError):
        BitSchedule(4, (4,))  # out of range
    with pytest.raises(ValueError, match="int64"):
        BitSchedule(2**63 + 1, ())
    assert BitSchedule(2**63, (2**63 - 1,)).density == 1


def test_from_positions_collapses_duplicates():
    s = BitSchedule.from_positions(10, [3, 1, 3, 7])
    assert s.ones == (1, 3, 7)
    assert s.density == 3


def test_text_roundtrip():
    s = sched(12, 0, 5, 11)
    assert BitSchedule.from_text(s.to_text()) == s
    empty = BitSchedule(3, ())
    assert BitSchedule.from_text(empty.to_text()) == empty
    with pytest.raises(ValueError):
        BitSchedule.from_text("bogus\n")


def test_text_refuses_lines_after_the_positions():
    # a third line would otherwise be dropped, and another schedule read
    with pytest.raises(ValueError, match=r"line 3: '5' follows the positions line"):
        BitSchedule.from_text("L=10\n1\n5\n")
    with pytest.raises(ValueError, match=r"line 4: 'x' follows"):
        BitSchedule.from_text("L=10\n1\n\nx\n")
    # blank lines after the positions are accepted
    assert BitSchedule.from_text("L=10\n1 5\n\n") == sched(10, 1, 5)
    assert BitSchedule.from_text("L=10\n1 5\n  \n\n") == sched(10, 1, 5)


@pytest.mark.parametrize(
    "text, token",
    [("L=ten\n1\n", "ten"), ("L=10\n1 x 3\n", "x"), ("L=10\n1.5\n", "1.5")],
)
def test_text_names_the_bad_token(text, token):
    with pytest.raises(ValueError, match=rf"^'{re.escape(token)}' is not an integer$"):
        BitSchedule.from_text(text)


# --- overlaps_at -----------------------------------------------------------

def test_overlap_identical_zero_shift():
    a = sched(1, 0)
    assert overlaps_at(a, a, 0)


def test_overlap_single_one_misses_after_shift():
    a = sched(2, 0)
    assert not overlaps_at(a, a, 1)


def test_overlap_hand_enumerated():
    # pairs (p, q): p = q + 1 holds for p=2, q=1
    a = sched(6, 2, 5)
    b = sched(6, 1, 4)
    assert overlaps_at(a, b, 1)
    assert not overlaps_at(a, b, 2)


# --- find_non_overlap_shift ------------------------------------------------

def test_find_dense_difference_set():
    # differences of {0,1,2} with itself are {-2..2}; first gap is 3
    a = sched(3, 0, 1, 2)
    assert find_non_overlap_shift(a, a, 3) == 3


def test_find_pigeonhole_always_succeeds():
    rng = spawn_rng(42)
    for _ in range(50):
        L = int(rng.integers(32, 257))
        na = int(rng.integers(1, 6))
        nb = int(rng.integers(1, 6))
        a = BitSchedule.from_positions(L, rng.integers(0, L, na))
        b = BitSchedule.from_positions(L, rng.integers(0, L, nb))
        bound = a.density * b.density  # candidates exceed differences
        got = find_non_overlap_shift(a, b, bound)
        assert got is not None
        assert not overlaps_at(a, b, got)


def test_find_matches_exhaustive_check():
    # density ceil(sqrt(L)/C), C=1, L=1024: a free self-shift exists
    # within ceil(L/2); confirm against overlaps_at over every shift
    rng = spawn_rng(7)
    L = 1024
    m = math.ceil(math.sqrt(L))
    s = BitSchedule.from_positions(L, rng.choice(L, m, replace=False))
    bound = math.ceil(L / 2)
    got = find_non_overlap_shift(s, s, bound)
    assert got is not None and got <= bound
    for i in range(got):
        assert overlaps_at(s, s, i)
    assert not overlaps_at(s, s, got)


def test_find_bidirectional():
    # ones at {0}, {1}: forward shifts 0.. never overlap except -1
    a = sched(2, 0)
    b = sched(2, 1)
    assert find_non_overlap_shift(a, b, 3) == 0
    # force the interesting case: a={5}, b={0..4}: differences 1..5
    a = sched(6, 5)
    b = sched(6, 0, 1, 2, 3, 4)
    assert find_non_overlap_shift(a, b, 4) == 0
    full = sched(6, 0, 1, 2, 3, 4, 5)
    # self-differences cover -5..5; no unidirectional shift below 6
    assert find_non_overlap_shift(full, full, 5) is None
    assert find_non_overlap_shift(full, full, 6) == 6


def test_find_rejects_negative_bound():
    a = sched(2, 0)
    with pytest.raises(ValueError):
        find_non_overlap_shift(a, a, -1)
    with pytest.raises(ValueError):
        pack_non_overlapping([a], -1)


# --- brute-force oracle agreement ------------------------------------------

def test_brute_force_tiny():
    a = sched(1, 0)
    assert brute_force_min_overlap_shift(a, a, 1) == 1


@settings(max_examples=300, deadline=None)
# a = k consecutive ones after (m - 1) * k, b = m ones k apart: the
# non-negative differences are exactly 0..k*m - 1, so the first gap is
# |a|*|b| itself, the last shift the table holds short of the bound
@example((1, [0], [0], 10**12))
@example((12, [9, 10, 11], [0, 3, 6, 9], 11))
@example((12, [9, 10, 11], [0, 3, 6, 9], 12))
@example((12, [9, 10, 11], [0, 3, 6, 9], 10**12))
@example((49, list(range(42, 49)), list(range(0, 49, 7)), 10**12))
@given(
    st.integers(1, 256).flatmap(
        lambda L: st.tuples(
            st.just(L),
            st.lists(st.integers(0, L - 1), max_size=12),
            st.lists(st.integers(0, L - 1), max_size=12),
            st.one_of(st.integers(0, L), st.integers(L, 10**12)),
        )
    )
)
def test_oracle_agreement(case):
    # empty strings, and bounds far past |a|*|b| and the string length;
    # the oracle stops at the first gap, which lies below L
    L, ones_a, ones_b, bound = case
    a = BitSchedule.from_positions(L, ones_a)
    b = BitSchedule.from_positions(L, ones_b)
    assert find_non_overlap_shift(a, b, bound) == brute_force_min_overlap_shift(
        a, b, bound
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(16, 512), st.data())
def test_low_density_self_shift_exists(L, data):
    # any string with <= ceil(sqrt(L)/C) ones, C >= 1/sqrt(2), has a
    # non-overlapping self-shift within ceil(L/(2C^2))
    c = data.draw(st.sampled_from([1.0 / math.sqrt(2), 1.0, 1.5]))
    m = max(1, math.ceil(math.sqrt(L) / c))
    ones = data.draw(
        st.lists(st.integers(0, L - 1), min_size=1, max_size=m, unique=True)
    )
    s = BitSchedule.from_positions(L, ones)
    bound = math.ceil(L / (2 * c * c))
    got = find_non_overlap_shift(s, s, bound)
    assert got is not None
    assert not overlaps_at(s, s, got)


def test_general_density_bound_never_fails():
    # whenever |a||b| <= L/C^2, the budget ceil(L/C^2)+1 suffices
    rng = spawn_rng(99)
    for _ in range(200):
        L = int(rng.integers(64, 1025))
        c = float(1.0 + rng.random())
        budget = max(1, math.floor(L / c**2))
        na = int(rng.integers(1, math.isqrt(budget) + 1))
        nb = max(1, budget // na)
        a = BitSchedule.from_positions(L, rng.choice(L, na, replace=False))
        b = BitSchedule.from_positions(L, rng.choice(L, nb, replace=False))
        assert find_non_overlap_shift(a, b, math.ceil(L / c**2) + 1) is not None


# --- pack_non_overlapping ---------------------------------------------------

def test_pack_single_string():
    s = sched(8, 1, 4)
    got = pack_non_overlapping([s], 4)
    assert got == ShiftAssignment((0,), 4)


def test_pack_full_strings_impossible():
    full = BitSchedule(4, (0, 1, 2, 3))
    got = pack_non_overlapping([full, full], 0)
    assert isinstance(got, NotFound)
    assert got.failing_index == 1


def test_pack_reports_first_failing_string():
    a = sched(4, 0)
    full = BitSchedule(4, (0, 1, 2, 3))
    got = pack_non_overlapping([a, a, full], 1)
    assert isinstance(got, NotFound)
    assert got.failing_index == 2


def test_pack_density_regime_succeeds_and_verifies():
    # d**beta strings with ceil(d**((1-beta)/2)) ones each, beta = 1/2
    d = 64
    count = math.ceil(d**0.5)
    density = math.ceil(d**0.25)
    L = 4 * d
    rng = spawn_rng(5)
    for trial in range(20):
        strings = [
            BitSchedule.from_positions(L, rng.choice(L, density, replace=False))
            for _ in range(count)
        ]
        got = pack_non_overlapping(strings, L // 4)
        assert isinstance(got, ShiftAssignment), f"trial {trial}"
        shifted = [
            {p + shift for p in s.ones} for s, shift in zip(strings, got.shifts)
        ]
        for i in range(count):
            for j in range(i + 1, count):
                assert not (shifted[i] & shifted[j])


def test_pack_empty_rejected():
    with pytest.raises(ValueError):
        pack_non_overlapping([], 3)
