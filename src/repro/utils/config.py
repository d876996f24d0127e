"""Benchmark run configuration.

Every benchmark reads two environment variables so the same code runs
at laptop scale by default and at paper scale on demand:

- ``REPRO_SCALE``  (float, default 0.25): multiplies every mesh size.
  ``REPRO_SCALE=1`` reproduces the paper's problem sizes (27k-512k
  rows); the default keeps a full benchmark pass in minutes.
- ``REPRO_RUNS``   (int, default 2): runs averaged per data point
  (the paper uses 20).
"""

from __future__ import annotations

import os
from typing import Sequence

__all__ = ["env_float", "env_int", "scaled_sizes"]


def env_float(name: str, default: float) -> float:
    """Read a float environment variable with a default."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not a float") from exc


def env_int(name: str, default: int) -> int:
    """Read an int environment variable with a default."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not an int") from exc


def scaled_sizes(paper_sizes: Sequence[int], minimum: int = 6) -> list[int]:
    """Scale the paper's mesh sizes by ``REPRO_SCALE``.

    Duplicate sizes after rounding are collapsed (preserving order) so
    small scales do not run the same problem twice.
    """
    scale = env_float("REPRO_SCALE", 0.25)
    if scale <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    out: list[int] = []
    for s in paper_sizes:
        v = max(minimum, int(round(s * scale)))
        if v not in out:
            out.append(v)
    return out
