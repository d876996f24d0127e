"""Deterministic seed derivation.

Experiments average over many runs; each run must be independent yet
replayable.  ``spawn_seeds`` derives child seeds from a root seed with
NumPy's SeedSequence (collision-resistant, unlike ``seed + i``
arithmetic which correlates adjacent generators); ``stable_seed`` turns
an experiment's key into a root seed that every process agrees on.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["spawn_seeds", "stable_seed"]


def spawn_seeds(root: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds derived from ``root``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    ss = np.random.SeedSequence(root)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(count)]


def stable_seed(key: object) -> int:
    """A root seed derived from ``key``, the same in every process.

    ``hash()`` of a ``str`` (or of a tuple holding one) is salted per
    process, so seeds drawn from it cannot be replayed; the CRC32 of
    ``repr(key)`` can.
    """
    return zlib.crc32(repr(key).encode("utf-8"))
