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

All three are one stripe sweep (:class:`WritePolicy`): ``add``,
``assign_slice`` and ``read`` visit the stripes in ascending order and
move each stripe's data inside that stripe's critical section.
``lock`` is one locked stripe over the whole vector, ``unsafe`` one
unlocked stripe, ``atomic`` many locked stripes.

A :class:`WriteObserver` attached to a policy rides that sweep: it is
called inside each stripe's critical section before and after the data
movement, and once after the sweep with the summed lock-acquire wait.
While an observer is attached the policy also keeps the commit epoch
(completed ``add`` calls — the models' time instant ``t``) and each
thread's last read epoch, under one leaf lock taken after the sweep, so
the epochs one thread reads never decrease.  The tracer's
:class:`~repro.observe.TracedPolicy` and the happens-before checker
:class:`~repro.analysis.CheckedWrite` are such observers.

The modes are defined by what a reader may observe, not by who the
workers are: a policy takes its lock objects, fresh ``threading``
locks by default, so the procs executor runs the same policies over
``multiprocessing`` locks on shared memory.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "WRITES",
    "ADD",
    "ASSIGN",
    "READ",
    "WriteObserver",
    "WritePolicy",
    "LockWrite",
    "AtomicWrite",
    "UnsafeWrite",
    "lock_count",
    "make_write_policy",
]

WRITES = ("lock", "atomic", "unsafe")

#: entries per stripe of the executors' ``atomic`` policies
STRIPE = 1024

#: The sweep's operations, as an observer sees them.
ADD, ASSIGN, READ = "add", "assign", "read"


def lock_count(name: str, n: int, stripe: int) -> int:
    """Locks a ``name`` policy takes over a vector of length ``n``: one
    for ``lock``, one per ``stripe``-sized stripe for ``atomic``, none
    for ``unsafe``."""
    if name not in WRITES:
        raise KeyError(f"unknown write policy {name!r}; known: {sorted(WRITES)}")
    if name != "atomic":
        return int(name == "lock")
    if stripe < 1:
        raise ValueError("stripe must be >= 1")
    return max(1, -(-n // stripe))


class WriteObserver:
    """Bookkeeping that rides a policy's stripe sweep.

    ``op`` is :data:`ADD`, :data:`ASSIGN` or :data:`READ` and ``s`` the
    stripe index.  The hooks here do nothing, so an observer overrides
    only the ones it needs.
    """

    def before(self, op: str, s: int) -> Any:
        """Inside stripe ``s``'s critical section, before the data
        moves; the return value is handed to :meth:`after`."""
        return None

    def after(self, op: str, s: int, token: Any) -> None:
        """Inside the same critical section, after the data moved."""

    def swept(self, op: str, wait: float, epoch: int, staleness: int) -> None:
        """Once per sweep, after every stripe lock is released, under
        the policy's epoch lock.

        ``wait`` is the seconds spent blocked on stripe acquires.
        ``epoch`` is the commit epoch: for an ``add`` the one it just
        completed, for a ``read`` the one it observed.  ``staleness``
        is, for an ``add`` by a thread that has read, the commits
        completed between that read and this commit, else −1.
        """


class WritePolicy:
    """One stripe sweep over a shared vector of length ``n``.

    Stripe ``s`` covers ``[s * stripe, (s + 1) * stripe)`` and is
    guarded by ``locks[s]``, or by nothing when that is None.  The
    subclasses only choose the stripes and their locks.
    """

    name = "stripes"

    def __init__(self, n: int, stripe: int, locks: Sequence[Any]) -> None:
        self.n = int(n)
        self.stripe = int(stripe)
        self.nstripes = len(locks)
        self._locks = list(locks)
        self._stripes = list(self._ranges())  # the whole-vector sweep
        self.observer: Optional[WriteObserver] = None
        # Kept only while observed: the commit epoch and each thread's
        # last read epoch, under a leaf lock never held with a stripe's.
        self.commits = 0
        self._read_epochs: Dict[int, int] = {}
        self._epoch_lock = threading.Lock()

    def _ranges(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[Tuple[int, int, int]]:
        """``(s, a, b)``: stripe ``s`` holds ``[a, b)`` of ``[lo, hi)``."""
        hi = self.n if hi is None else hi
        stripe = self.stripe
        stop = -(-hi // stripe) if hi > lo else 0
        for s in range(lo // stripe, stop):
            yield s, max(lo, s * stripe), min(hi, (s + 1) * stripe)

    def _sweep(self, op: str, dst: np.ndarray, src: np.ndarray, lo: int, hi: int) -> None:
        """Move ``src`` into ``dst[lo:hi]`` stripe by stripe, ascending,
        each stripe under its lock: ``+=`` for :data:`ADD`, ``=``
        otherwise.  ``src`` is indexed from ``lo``."""
        obs = self.observer
        wait = 0.0
        stripes = self._stripes if lo == 0 and hi == self.n else self._ranges(lo, hi)
        for s, a, b in stripes:
            lock = self._locks[s]
            if lock is not None:
                if obs is None:
                    lock.acquire()
                else:  # only an observed sweep times its acquires
                    t0 = _time.perf_counter()
                    lock.acquire()
                    wait += _time.perf_counter() - t0
            try:
                token = obs.before(op, s) if obs is not None else None
                if op == ADD:
                    dst[a:b] += src[a - lo : b - lo]
                else:
                    dst[a:b] = src[a - lo : b - lo]
                if obs is not None:
                    obs.after(op, s, token)
            finally:
                if lock is not None:
                    lock.release()
        if obs is None:
            return
        tid = threading.get_ident()
        staleness = -1
        with self._epoch_lock:
            if op == ADD:
                self.commits += 1
                z = self._read_epochs.get(tid)
                if z is not None:
                    staleness = self.commits - 1 - z
            elif op == READ:
                self._read_epochs[tid] = self.commits
            obs.swept(op, wait, self.commits, staleness)

    def add(self, target: np.ndarray, update: np.ndarray) -> None:
        """``target += update`` with this policy's consistency."""
        self._sweep(ADD, target, update, 0, self.n)

    def assign_slice(self, target: np.ndarray, lo: int, hi: int, values: np.ndarray) -> None:
        """``target[lo:hi] = values`` (global-res residual refresh)."""
        self._sweep(ASSIGN, target, values, lo, hi)

    def read(self, source: np.ndarray) -> np.ndarray:
        """Read a copy of the shared vector under this policy."""
        out = np.empty(self.n)
        self._sweep(READ, out, source, 0, self.n)
        return out


class LockWrite(WritePolicy):
    """One mutex: whole-vector updates and reads are atomic."""

    name = "lock"

    def __init__(self, n: int, lock: Any = None) -> None:
        super().__init__(n, max(int(n), 1), [threading.Lock() if lock is None else lock])


class AtomicWrite(WritePolicy):
    """Striped locks emulating element-granular atomic adds.

    Reads take each stripe's lock too, so a reader sees whole stripes,
    possibly from different commits; the lock is a full barrier, which
    is what makes this hold across processes on any platform.
    """

    name = "atomic"

    def __init__(self, n: int, stripe: int = STRIPE, locks: Optional[Sequence[Any]] = None) -> None:
        need = lock_count(self.name, n, stripe)
        if locks is None:
            locks = [threading.Lock() for _ in range(need)]
        if len(locks) != need:
            raise ValueError(f"need {need} stripe locks, got {len(locks)}")
        super().__init__(n, stripe, locks)


class UnsafeWrite(WritePolicy):
    """No synchronization at all (lost updates possible — by design)."""

    name = "unsafe"

    def __init__(self, n: int) -> None:
        super().__init__(n, max(int(n), 1), [None])


def make_write_policy(
    name: str, n: int, stripe: int = STRIPE, locks: Optional[Sequence[Any]] = None
) -> WritePolicy:
    """Build a write policy by name (one of :data:`WRITES`).

    ``locks`` are the policy's lock objects, :func:`lock_count` of
    them; None creates fresh ``threading`` locks.
    """
    need = lock_count(name, n, stripe)
    if locks is not None and len(locks) != need:
        raise ValueError(f"a {name!r} policy takes {need} lock(s), got {len(locks)}")
    if name == "atomic":
        return AtomicWrite(n, stripe, locks)
    if name == "lock":
        return LockWrite(n, locks[0] if locks else None)
    return UnsafeWrite(n)
