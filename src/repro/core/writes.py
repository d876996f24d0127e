"""Write policies for shared vectors (Section IV).

When several grids correct the shared iterate ``x`` (and, for
global-res, the shared residual ``r``) concurrently, the updates race.
The paper studies two remedies:

- **lock-write** — a mutex per shared vector; a grid's whole update is
  applied atomically (:class:`LockWrite`).
- **atomic-write** — element-granular atomic fetch-and-add.  Python has
  no element atomics, so :class:`AtomicWrite` emulates the semantics
  with *striped* locks: the vector is cut into fixed-size stripes, each
  guarded by its own lock, and an update commits stripe by stripe.
  Element-level consistency is preserved while other grids may observe
  a partially-committed update — the defining behaviour (and overhead)
  of atomic writes.  The stripe count also feeds the performance
  model's per-element atomic cost.
- :class:`UnsafeWrite` — no protection at all (NumPy ``+=`` from
  threads can lose updates); kept for the ablation that shows why the
  paper needs the other two.

The modes are defined by what a reader may observe, not by who the
workers are: a policy takes its lock objects, fresh ``threading``
locks by default, so the procs executor runs the same policies over
``multiprocessing`` locks on shared memory.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "WRITES",
    "WritePolicy",
    "LockWrite",
    "AtomicWrite",
    "UnsafeWrite",
    "make_write_policy",
]

WRITES = ("lock", "atomic", "unsafe")


class WritePolicy(ABC):
    """Owns the synchronization for one shared vector of length ``n``."""

    name = "abstract"

    def __init__(self, n: int) -> None:
        self.n = int(n)

    @abstractmethod
    def add(self, target: np.ndarray, update: np.ndarray) -> None:
        """``target += update`` with this policy's consistency."""

    @abstractmethod
    def assign_slice(self, target: np.ndarray, lo: int, hi: int, values: np.ndarray) -> None:
        """``target[lo:hi] = values`` (global-res residual refresh)."""

    @abstractmethod
    def read(self, source: np.ndarray) -> np.ndarray:
        """Read a copy of the shared vector under this policy."""


class LockWrite(WritePolicy):
    """One mutex: whole-vector updates and reads are atomic."""

    name = "lock"

    def __init__(self, n: int, lock: Any = None) -> None:
        super().__init__(n)
        self._lock = threading.Lock() if lock is None else lock

    def add(self, target: np.ndarray, update: np.ndarray) -> None:
        with self._lock:
            target += update

    def assign_slice(self, target: np.ndarray, lo: int, hi: int, values: np.ndarray) -> None:
        with self._lock:
            target[lo:hi] = values

    def read(self, source: np.ndarray) -> np.ndarray:
        with self._lock:
            return source.copy()


class AtomicWrite(WritePolicy):
    """Striped locks emulating element-granular atomic adds.

    Reads take each stripe's lock too, so a reader sees whole stripes,
    possibly from different commits; the lock is a full barrier, which
    is what makes this hold across processes on any platform.
    """

    name = "atomic"

    def __init__(self, n: int, stripe: int = 1024, locks: Optional[Sequence[Any]] = None) -> None:
        super().__init__(n)
        if stripe < 1:
            raise ValueError("stripe must be >= 1")
        self.stripe = int(stripe)
        self.nstripes = max(1, -(-n // self.stripe))
        if locks is None:
            locks = [threading.Lock() for _ in range(self.nstripes)]
        if len(locks) != self.nstripes:
            raise ValueError(f"need {self.nstripes} stripe locks, got {len(locks)}")
        self._locks = list(locks)

    def _ranges(self, lo: int = 0, hi: int | None = None) -> Iterator[Tuple[int, int, int]]:
        hi = self.n if hi is None else hi
        first = lo // self.stripe
        last = (hi - 1) // self.stripe if hi > lo else first - 1
        for s in range(first, last + 1):
            a = max(lo, s * self.stripe)
            b = min(hi, (s + 1) * self.stripe)
            yield s, a, b

    def add(self, target: np.ndarray, update: np.ndarray) -> None:
        for s, a, b in self._ranges():
            with self._locks[s]:
                target[a:b] += update[a:b]

    def assign_slice(self, target: np.ndarray, lo: int, hi: int, values: np.ndarray) -> None:
        for s, a, b in self._ranges(lo, hi):
            with self._locks[s]:
                target[a:b] = values[a - lo : b - lo]

    def read(self, source: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        for s, a, b in self._ranges():
            with self._locks[s]:
                out[a:b] = source[a:b]
        return out


class UnsafeWrite(WritePolicy):
    """No synchronization at all (lost updates possible — by design)."""

    name = "unsafe"

    def add(self, target: np.ndarray, update: np.ndarray) -> None:
        target += update

    def assign_slice(self, target: np.ndarray, lo: int, hi: int, values: np.ndarray) -> None:
        target[lo:hi] = values

    def read(self, source: np.ndarray) -> np.ndarray:
        return source.copy()


def make_write_policy(
    name: str, n: int, stripe: int = 1024, locks: Optional[Sequence[Any]] = None
) -> WritePolicy:
    """Build a write policy by name (one of :data:`WRITES`).

    ``locks`` are the policy's lock objects: one for ``lock``, one per
    ``stripe``-sized stripe for ``atomic``, none for ``unsafe``; None
    creates fresh ``threading`` locks.
    """
    if name not in WRITES:
        raise KeyError(f"unknown write policy {name!r}; known: {sorted(WRITES)}")
    if name == "atomic":
        return AtomicWrite(n, stripe, locks)
    need = int(name == "lock")
    if locks is not None and len(locks) != need:
        raise ValueError(f"a {name!r} policy takes {need} lock(s), got {len(locks)}")
    if name == "lock":
        return LockWrite(n, locks[0] if locks else None)
    return UnsafeWrite(n)
