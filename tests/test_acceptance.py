"""Release-gating acceptance criteria, one test per criterion.

Each test prints the criterion's one-line report (visible with -s or
on failure) and asserts it passed at its pinned tolerance. A7 and A8
share one cached batch of seeded pipeline runs.
"""

from radiosync.acceptance import (
    criterion_a1,
    criterion_a2,
    criterion_a3,
    criterion_a4,
    criterion_a5,
    criterion_a6,
    criterion_a7,
    criterion_a8,
    criterion_a9,
    criterion_a10,
    criterion_a11,
    criterion_a12,
)


def check(res):
    print(res.line())
    assert res.passed, res.line()


def test_a1_two_proc_schedule_exact():
    check(criterion_a1())


def test_a2_worked_example():
    check(criterion_a2())


def test_a3_shift_finder_vs_oracle():
    check(criterion_a3())


def test_a4_sequential_packing():
    check(criterion_a4())


def test_a5_shared_bin_probability():
    check(criterion_a5())


def test_a6_exclusive_pair_probability():
    check(criterion_a6())


def test_a7_min_degree_fractions():
    check(criterion_a7())


def test_a8_sync_exact_on_connected():
    check(criterion_a8())


def test_a9_cost_scaling_exponent():
    check(criterion_a9())


def test_a10_unknown_count_loop():
    check(criterion_a10())


def test_a11_drift_overlap_contract():
    check(criterion_a11())


def test_a12_sparse_negative_control():
    check(criterion_a12())
