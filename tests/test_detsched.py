"""Two-processor schedule: frozen worked example, exhaustive small
cases, and cross-validation of the fast verifier against a literal
per-shift loop."""

import math
import re

import pytest

from radiosync.bitstrings import BitSchedule, overlaps_at
from radiosync.detsched import (
    build_two_proc_schedule,
    ceil_sqrt,
    first_uncovered_shift,
    verify_self_overlap,
)
from radiosync.seeding import spawn_rng


def naive_verify(s: BitSchedule, d: int):
    """Independent slow oracle: literal all-shift overlap loop."""
    for shift in range(1, d + 1):
        if not overlaps_at(s, s, shift):
            return shift
    return None


def test_params_derivation():
    # at d = 36 = 6**2 the window bound 2d + 4*ceil_sqrt(d) + 2 is 98,
    # and the families run over indices 1..2*6 + 2 = 14, filling it
    s = build_two_proc_schedule(36)
    assert s.length == 2 * 36 + 4 * ceil_sqrt(36) + 2 == 98
    assert max(s.ones) == 14 * 7 - 1
    with pytest.raises(ValueError, match="offset bound must be positive, got 0"):
        build_two_proc_schedule(0)


@pytest.mark.parametrize(
    "d, message",
    [
        (0, "must be positive, got 0"),
        # once the d=1 schedule, and a TypeError from range or numpy
        (True, "must be an integer, got True"),
        (2.5, "must be an integer, got 2.5"),
    ],
)
def test_offset_bound_must_be_a_positive_integer(d, message):
    s = build_two_proc_schedule(4)
    for refuse in (build_two_proc_schedule, lambda d: first_uncovered_shift(s, d)):
        with pytest.raises(ValueError, match=f"^offset bound {re.escape(message)}$"):
            refuse(d)


def test_worked_example_d36():
    s = build_two_proc_schedule(36)
    assert s.length == 98
    assert s.density == 26
    # multiples of 6 and of 7 (indices 1..14, zero-based): the two
    # families coincide at 42 and 84
    expected = {6 * i - 1 for i in range(1, 15)} | {7 * i - 1 for i in range(1, 15)}
    assert set(s.ones) == expected
    assert verify_self_overlap(s, 36)
    assert naive_verify(s, 36) is None


def test_smallest_case_exhaustive():
    s = build_two_proc_schedule(1)
    assert verify_self_overlap(s, 1)
    assert naive_verify(s, 1) is None
    assert s.density <= 4 * 1 + 4


@pytest.mark.parametrize("d", [2, 3, 5, 17, 20, 42, 99, 100, 144])
def test_bounds_and_overlap(d):
    s = build_two_proc_schedule(d)
    cd = ceil_sqrt(d)
    assert s.length <= 2 * d + 4 * cd + 2
    assert s.density <= 4 * cd + 4
    assert verify_self_overlap(s, d)
    assert naive_verify(s, d) is None


def test_fast_verifier_matches_naive_loop():
    # the coverage-based verifier and the literal loop must agree on
    # arbitrary strings, including the first failing shift; empty
    # strings included, and d far past |s|**2 and the string length
    # (the loop stops at the first gap, which lies below L)
    rng = spawn_rng(31)
    for _ in range(200):
        L = int(rng.integers(1, 120))
        m = int(rng.integers(0, min(L, 14) + 1))
        s = BitSchedule.from_positions(L, rng.choice(L, m, replace=False))
        for d in (int(rng.integers(1, L + 1)), int(rng.integers(L, 4 * L)), 10**12):
            assert first_uncovered_shift(s, d) == naive_verify(s, d)


def test_dense_string_always_overlaps():
    d = 50
    dense = BitSchedule(d + 1, tuple(range(d + 1)))
    assert verify_self_overlap(dense, d)


def test_empty_string_never_overlaps():
    empty = BitSchedule(10, ())
    assert not verify_self_overlap(empty, 1)
    assert first_uncovered_shift(empty, 5) == 1


def test_monotone_in_offset_bound():
    s = build_two_proc_schedule(200)
    for smaller in (1, 13, 57, 199):
        assert verify_self_overlap(s, smaller)


def test_sparse_negative_control():
    # strings below the sqrt density threshold must fail the verifier
    # for shifts up to half their window
    rng = spawn_rng(77)
    for _ in range(50):
        W = int(rng.integers(64, 512))
        m = math.ceil(math.sqrt(W))
        s = BitSchedule.from_positions(W, rng.choice(W, m, replace=False))
        assert not verify_self_overlap(s, math.ceil(W / 2))


def test_radio_cost_counts_ones():
    assert BitSchedule(5, ()).density == 0
    assert BitSchedule(5, (0, 2, 4)).density == 3
