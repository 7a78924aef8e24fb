"""Deterministic two-processor wake-up schedule.

For a maximum clock offset of ``d`` time units, a single string whose
translated copy collides with itself at every shift 1..d lets two
identically-programmed radios meet regardless of their offset. The
schedule below achieves that with O(sqrt(d)) awake units inside a
window of 2d + 4*ceil(sqrt(d)) + 2 units, matching the sqrt(d) lower
bound that low-density strings cannot beat.

Construction: with r = ceil(sqrt(d)), turn on the multiples of r and
the multiples of r + 1. Any shift D <= d splits as D = q*r + s and is
realized either as s*(r+1) - (s-q)*r (when s >= q) or as
(r-s+q+1)*r - (r-s)*(r+1) (when s < q), so every shift is a pairwise
difference of awake positions. When d is a perfect square the same
two families are written as {i*r} and {i*(r+1)} for i = 1..2r+2,
which fills the full window; otherwise the index ranges are trimmed
(j <= 2r for multiples of r, i <= r for multiples of r+1, zero
included) to keep the window within its bound.

``verify_self_overlap`` is the arbiter for all of this: it checks
every shift 1..d against the difference-set table shared with the
shift finder (``bitstrings._difference_flags``), which is bounded by
the position-pair count rather than by d; the tests compare it with a
literal per-shift loop.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .bitstrings import BitSchedule, _difference_flags, _first_gap


def ceil_sqrt(d: int) -> int:
    r = isqrt(d)
    return r if r * r == d else r + 1


def build_two_proc_schedule(d: int) -> BitSchedule:
    """Schedule that self-overlaps at every shift 1..d (see module docs).

    The result has at most 4*ceil(sqrt(d)) + 4 ones inside a window of
    at most 2d + 4*ceil(sqrt(d)) + 2 units.
    """
    if d < 1:
        raise ValueError(f"offset bound must be positive, got {d}")
    r = isqrt(d)
    if r * r == d:
        # integer sqrt: both families over i = 1..2r+2, zero-based via -1
        positions = set()
        for i in range(1, 2 * r + 3):
            positions.add(i * r - 1)
            positions.add(i * (r + 1) - 1)
    else:
        r += 1
        positions = {j * r for j in range(0, 2 * r + 1)}
        positions.update(i * (r + 1) for i in range(0, r + 1))
    length = max(positions) + 1
    bound = 2 * d + 4 * ceil_sqrt(d) + 2
    assert length <= bound, f"window {length} exceeds bound {bound} for d={d}"
    return BitSchedule.from_positions(length, positions)


def first_uncovered_shift(s: BitSchedule, d: int) -> Optional[int]:
    """Smallest shift in 1..d at which ``s`` misses its own translate,
    or ``None`` when every shift produces a collision.

    A shift collides iff it is a pairwise difference of one-positions,
    so this is the first gap past shift 0 in the shared difference-set
    table.
    """
    if d < 1:
        raise ValueError(f"offset bound must be positive, got {d}")
    return _first_gap(_difference_flags(s.ones, s.ones, d), start=1)


def verify_self_overlap(s: BitSchedule, d: int) -> bool:
    """True iff ``s`` overlaps its own translate at every shift 1..d."""
    return first_uncovered_shift(s, d) is None


def radio_cost(s: BitSchedule) -> int:
    """Awake time units needed to run the schedule once."""
    return s.density
