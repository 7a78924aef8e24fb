"""Wake-up strings and the non-colliding shift machinery.

A radio schedule over a finite window is a bit string: position ``p``
is 1 iff the radio is on during time unit ``p``. Two strings *overlap*
at shift ``i`` when some 1 of the first lands on a 1 of the second
after the second is translated by ``i`` units. The constructive side
of the low-density lower bounds is a difference-set argument: the
shifts at which two strings collide are exactly the pairwise position
differences, so any shift outside that set separates them.

One routine, ``_difference_flags``, builds that set as a numpy
membership table for the shift finder, the packer and the
two-processor verifier in :mod:`radiosync.detsched`. The table stops at
|a|*|b| + 1, one past the most differences there can be, so a gap
always lies inside it, whatever the shift bound. ``overlaps_at`` and
``brute_force_min_overlap_shift`` test shifts one at a time and stay
as its independent oracles.

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class BitSchedule:
    """A finite wake-up string.

    ``ones`` holds the zero-based awake positions, strictly increasing
    and all below ``length``. ``density`` is the radio cost of running
    the schedule once.
    """

    length: int
    ones: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.length > 2**63:
            raise ValueError(
                f"length {self.length} exceeds 2**63: positions must fit in int64"
            )
        prev = -1
        for p in self.ones:
            if p <= prev:
                raise ValueError("one-positions must be strictly increasing")
            prev = p
        if prev >= self.length:
            raise ValueError(
                f"position {prev} does not fit in a length-{self.length} string"
            )

    @classmethod
    def from_positions(cls, length: int, positions: Iterable[int]) -> "BitSchedule":
        """Build from any iterable of positions; duplicates collapse."""
        return cls(length, tuple(sorted(set(positions))))

    @property
    def density(self) -> int:
        return len(self.ones)

    @cached_property
    def ones_set(self) -> frozenset[int]:
        return frozenset(self.ones)

    def to_text(self) -> str:
        """Two-line interchange format: ``L=<length>`` then the positions."""
        return f"L={self.length}\n{' '.join(str(p) for p in self.ones)}\n"

    @classmethod
    def from_text(cls, text: str) -> "BitSchedule":
        """Read :meth:`to_text`'s format back. The positions line may be
        left out for a string of no ones; only blank lines may follow
        it."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith("L="):
            raise ValueError("expected first line 'L=<length>'")
        for number, line in enumerate(lines[2:], start=3):
            if line.strip():
                raise ValueError(f"line {number}: {line!r} follows the positions line")
        length = _integer(lines[0][2:])
        positions = tuple(_integer(tok) for tok in lines[1].split()) if len(lines) > 1 else ()
        return cls(length, positions)


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token!r} is not an integer") from None


@dataclass(frozen=True)
class ShiftAssignment:
    """Per-string translations, each at most ``bound``."""

    shifts: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        for s in self.shifts:
            if s < 0 or s > self.bound:
                raise ValueError(f"shift {s} outside [0, {self.bound}]")


@dataclass(frozen=True)
class NotFound:
    """Returned by :func:`pack_non_overlapping` when some string exhausts
    the shift budget; ``failing_index`` names the first string that
    could not be placed."""

    failing_index: int


def overlaps_at(a: BitSchedule, b: BitSchedule, shift: int) -> bool:
    """True iff some 1 of ``a`` meets a 1 of ``b`` translated by ``shift``.

    Equivalently: ``shift`` is a member of the difference set
    ``{p - q : p in a.ones, q in b.ones}``.
    """
    a_set = a.ones_set
    return any(q + shift in a_set for q in b.ones)


#: the most position pairs :func:`_difference_flags` forms at once
_PAIR_CHUNK = 8_000_000


def _difference_flags(
    a_ones: Iterable[int], b_ones: Sequence[int], bound: int
) -> np.ndarray:
    """Membership table of the difference set ``{p - q}`` of the two
    position families over shifts 0..min(bound, |a|*|b| + 1).

    At most |a|*|b| shifts are differences, so whenever the table stops
    short of ``bound`` it holds a gap; the ``+ 1`` keeps shift 1 in it
    for an empty family. The pairs are formed ``_PAIR_CHUNK`` at a time,
    so memory stays bounded by the pair count and the chunk, never by
    ``bound`` alone.
    """
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    a = np.fromiter(a_ones, dtype=np.int64)
    b = np.asarray(b_ones, dtype=np.int64)
    top = min(bound, a.size * b.size + 1)
    flags = np.zeros(top + 1, dtype=bool)
    rows = max(1, _PAIR_CHUNK // max(1, b.size))
    for lo in range(0, a.size, rows):
        diffs = (a[lo : lo + rows, None] - b[None, :]).ravel()
        flags[diffs[(diffs >= 0) & (diffs <= top)]] = True
    return flags


def _first_gap(flags: np.ndarray, start: int = 0) -> Optional[int]:
    """Smallest shift >= ``start`` that the table marks as no difference."""
    gaps = np.flatnonzero(~flags[start:])
    return int(gaps[0]) + start if gaps.size else None


def find_non_overlap_shift(a: BitSchedule, b: BitSchedule, bound: int) -> Optional[int]:
    """Smallest shift in [0, bound] at which ``b`` avoids every 1 of ``a``.

    The first gap in the difference-set table
    (:func:`_difference_flags`), or ``None`` when every candidate shift
    is a difference. Whenever ``a.density * b.density <= bound`` a gap
    is guaranteed by counting.
    """
    return _first_gap(_difference_flags(a.ones, b.ones, bound))


def brute_force_min_overlap_shift(
    a: BitSchedule, b: BitSchedule, bound: int
) -> Optional[int]:
    """Exhaustive oracle: test every shift 0..bound with overlaps_at."""
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    for i in range(bound + 1):
        if not overlaps_at(a, b, i):
            return i
    return None


def pack_non_overlapping(
    strings: Sequence[BitSchedule], bound: int
) -> ShiftAssignment | NotFound:
    """Assign each string a shift <= bound so that no two shifted strings
    share a position.

    Strings are placed sequentially: each one gets the smallest shift
    that avoids the union of everything placed so far. Succeeds whenever
    the running density product stays within the shift budget; on
    failure reports the index of the string that could not be placed.
    """
    if not strings:
        raise ValueError("nothing to pack")
    placed: set[int] = set()
    shifts: list[int] = []
    for idx, s in enumerate(strings):
        shift = _first_gap(_difference_flags(placed, s.ones, bound))
        if shift is None:
            return NotFound(failing_index=idx)
        shifts.append(shift)
        placed.update(q + shift for q in s.ones)
    return ShiftAssignment(tuple(shifts), bound)
