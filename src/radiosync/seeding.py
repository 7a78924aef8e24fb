"""Deterministic RNG derivation, and the memory guard on large draws.

All randomness in the package flows from one root seed. Sub-streams
(per trial, per grid cell, per node) are derived by feeding the root
seed plus integer indices into ``numpy.random.SeedSequence``, which
mixes the key material platform-independently. There is no global RNG
state anywhere. A draw whose buffers would exceed physical memory is
refused by :func:`refuse_beyond_memory` before the rng is touched.
:func:`require_integer` states the rule of every integer input (an
integer, and positive or non-negative), seeds included; :func:`require_real`
that of a finite, or finite and positive, real; :func:`require_bool` a switch's.
"""

from __future__ import annotations

import math
import numbers
import operator
import os

import numpy as np


def _sequence(key: tuple) -> np.random.SeedSequence:
    """The seed sequence of ``key``; a seed or index that is not a
    non-negative integer is refused by value."""
    return np.random.SeedSequence([require_integer("seeds", part, 0) for part in key])


def spawn_rng(*key: int) -> np.random.Generator:
    """Generator for a hierarchical key (root seed followed by indices)."""
    return np.random.default_rng(_sequence(key))


def derive_seed(*key: int) -> int:
    """Collapse a hierarchical key to a single 63-bit integer seed."""
    state = _sequence(key).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def refuse_beyond_memory(need: float, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` if ``need`` bytes exceed the
    machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} needs {need:.4g} bytes, physical memory is {have}")


def require_integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int. A count that is not an integer, a bool
    included, is refused with one line naming it: a fraction would be
    billed or truncated silently. So is one below ``least`` (1 or 0), as
    not positive or not non-negative. A numpy integer is converted,
    since its fixed width would wrap or refuse to mix with the unsigned
    keys that count rows."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        rule = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def require_bool(name: str, value) -> bool:
    """``value`` as a Python bool; anything but a Python or numpy bool,
    which would pick a mode by its truth, is refused with one line."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def require_real(name: str, value, positive: bool = False) -> None:
    """Refuse, in one line naming it, a ``value`` that is not a finite
    real number (a bool or a string included) or, with ``positive``,
    one that is not above 0."""
    rule = "finite and positive" if positive else "finite"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"{name} must be {rule}, got {value}")
