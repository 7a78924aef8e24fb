"""Release-gating acceptance criteria, one test per criterion.

Each test prints the criterion's one-line report (visible with -s or
on failure), asserts it passed at its pinned tolerance, and pins its
measured values, so a change that moves any seeded number behind a gate
shows here. A7 and A8
share one cached batch of seeded pipeline runs.
"""

from radiosync import acceptance
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
from radiosync.bitstrings import ShiftAssignment


def check(res, measured):
    """The criterion passed, and measured what it measured when the
    expected string was recorded: the report line but its seconds."""
    print(res.line())
    assert res.passed, res.line()
    assert res.measured == measured


def test_a1_two_proc_schedule_exact():
    check(criterion_a1(), "2003/2003 values of d exact")


def test_a2_worked_example():
    check(criterion_a2(), "window 98, 26 ones")


def test_a3_shift_finder_vs_oracle():
    check(criterion_a3(), "10000/10000 agree")


def test_a4_sequential_packing():
    check(criterion_a4(), "100/100 clean")


def test_a4_counts_failing_seeds_once(monkeypatch):
    # with every shift 0, a seed is clean iff its strings are pairwise
    # disjoint as drawn; one that overlaps counts once, however many of
    # its pairs do
    disjoint = []

    def unshifted(strings, bound):
        ones = [set(s.ones) for s in strings]
        disjoint.append(
            all(not a & b for i, a in enumerate(ones) for b in ones[i + 1 :])
        )
        return ShiftAssignment((0,) * len(strings), bound)

    monkeypatch.setattr(acceptance, "pack_non_overlapping", unshifted)
    res = criterion_a4()
    clean = sum(disjoint)
    assert len(disjoint) == 100 and 0 < clean < 100
    assert not res.passed
    assert res.measured == f"{clean}/100 clean"


def test_a5_shared_bin_probability():
    check(criterion_a5(), "0.9637 +/- 0.0048")


def test_a6_exclusive_pair_probability():
    check(criterion_a6(), "T=0.9814, H=0.9828")


def test_a7_min_degree_fractions():
    check(criterion_a7(), "stage 1.000, amplified 1.000")


def test_a8_sync_exact_on_connected():
    check(criterion_a8(), "200/200 connected runs exact")


def test_a9_cost_scaling_exponent():
    check(criterion_a9(), "base x=0.159, interference x=0.159")


def test_a10_unknown_count_loop():
    check(
        criterion_a10(),
        "100/100 within factor 2, 100 accepted, fraction_ok=True, cost_ok=True, "
        "estimates {32: 100}, 100 of 600 epochs synced",
    )


def test_a11_drift_overlap_contract():
    check(criterion_a11(), "100002/100002 satisfied")


def test_a12_sparse_negative_control():
    check(criterion_a12(), "1000/1000 failed as required")
