"""Deterministic RNG derivation, and the memory guard on large draws.

All randomness in the package flows from one root seed. Sub-streams
(per trial, per grid cell, per node) are derived by feeding the root
seed plus integer indices into ``numpy.random.SeedSequence``, which
mixes the key material platform-independently. There is no global RNG
state anywhere. A draw whose buffers would exceed physical memory is
refused by :func:`refuse_beyond_memory` before the rng is touched, and
a count that is not an integer by :func:`require_integer`, which
gives the others back as Python ints.
"""

from __future__ import annotations

import numbers
import operator
import os

import numpy as np


def _sequence(key: tuple) -> np.random.SeedSequence:
    """The seed sequence of ``key``; a negative seed or index is
    refused by value."""
    for part in key:
        if part < 0:
            raise ValueError(f"seeds must be non-negative, got {part}")
    return np.random.SeedSequence(key)


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


def require_integer(name: str, value) -> int:
    """``value`` as a Python int. A count that is not an integer, a bool
    included, is refused with one line naming it: a fraction would be
    billed or truncated silently. A numpy integer is converted, since
    its fixed width would wrap or refuse to mix with the unsigned keys
    that count rows."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)
