"""Bounded admission with explicit backpressure and tenant-fair shed.

The queue is the server's only buffer, and it is *bounded twice*:

- ``max_depth`` is the hard wall — an offer against a full queue is
  rejected immediately with ``overloaded``.  Nothing is ever queued
  unboundedly, so a traffic spike surfaces as fast rejections rather
  than as memory growth and collapsing latency for everyone.
- ``high_water`` is the fairness threshold — while the depth exceeds
  it, the queue sheds the *newest* job of the tenant holding the
  largest share of the queue.  A single tenant flooding the server
  therefore sheds mostly its own tail, and a light tenant's jobs
  survive the storm (the chaos test's "healthy tenants' p99 within 2x
  of fault-free" claim rests on this policy).

Shedding returns the victims to the caller instead of completing them
here: the server owns result completion (single completion path), the
queue owns ordering and bounds.

The server's worker threads are the consumers: each takes the head
job itself and coalesces queued same-operator jobs behind it with
:meth:`take_matching`, so a job waits here and nowhere else.  Every
blocking operation takes a timeout (linter rule RPR013): workers wait
in :meth:`take` for a bounded time, an admitted offer wakes one of
them and :meth:`close` wakes them all, so server shutdown never hangs
on an empty queue.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .jobs import Job

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """FIFO of admitted jobs with hard bound + tenant-fair shedding."""

    def __init__(self, max_depth: int = 64, high_water: Optional[int] = None) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        hw = max_depth if high_water is None else high_water
        if not 1 <= hw <= max_depth:
            raise ValueError("high_water must be in [1, max_depth]")
        self.max_depth = int(max_depth)
        self.high_water = int(hw)
        self._q: Deque[Job] = deque()  # repro: noqa[RPR013] offer() bounds it at max_depth
        self._cond = threading.Condition()
        self._closed = False

    # -- producer side -------------------------------------------------
    def offer(self, job: Job) -> Tuple[bool, List[Job]]:
        """Try to admit ``job``.

        Returns ``(admitted, shed)``: ``admitted`` is False when the
        queue is at ``max_depth`` (or closed) — explicit backpressure,
        the job never entered.  ``shed`` lists jobs evicted by the
        tenant-fair policy to bring the depth back to ``high_water``
        (possibly including ``job`` itself, when its tenant dominates);
        the caller completes them as ``rejected/shed``.
        """
        with self._cond:
            if self._closed or len(self._q) >= self.max_depth:
                return False, []
            self._q.append(job)
            shed: List[Job] = []
            while len(self._q) > self.high_water:
                victim = self._pick_victim_locked()
                self._q.remove(victim)
                shed.append(victim)
            admitted = job not in shed
            if admitted:
                self._cond.notify()
            return admitted, shed

    def _pick_victim_locked(self) -> Job:
        """Newest job of the tenant with the largest queue share."""
        counts: Dict[str, int] = {}
        for j in self._q:
            counts[j.spec.tenant] = counts.get(j.spec.tenant, 0) + 1
        heaviest = max(counts, key=lambda t: counts[t])
        for j in reversed(self._q):
            if j.spec.tenant == heaviest:
                return j
        raise RuntimeError("unreachable: heaviest tenant vanished")  # pragma: no cover

    # -- consumer side -------------------------------------------------
    def take(self, timeout: float) -> Optional[Job]:
        """Pop the oldest job, waiting up to ``timeout`` seconds (not at
        all once closed)."""
        with self._cond:
            if not self._q and not self._closed:
                self._cond.wait(timeout=timeout)
            if not self._q:
                return None
            return self._q.popleft()

    def take_matching(self, fingerprint: str, limit: int) -> List[Job]:
        """Remove up to ``limit`` queued jobs for one operator (FIFO
        order preserved among them) — the batch coalescing hook."""
        if limit < 1:
            return []
        with self._cond:
            out = [j for j in self._q if j.spec.operator.fingerprint == fingerprint][:limit]
            for j in out:
                self._q.remove(j)
        return out

    # -- lifecycle / introspection ------------------------------------
    def close(self) -> List[Job]:
        """Stop admitting; drain and return everything still queued."""
        with self._cond:
            self._closed = True
            rest = list(self._q)
            self._q.clear()
            self._cond.notify_all()
            return rest

    def depth(self) -> int:
        with self._cond:
            return len(self._q)

    def tenant_depths(self) -> Dict[str, int]:
        with self._cond:
            counts: Dict[str, int] = {}
            for j in self._q:
                counts[j.spec.tenant] = counts.get(j.spec.tenant, 0) + 1
            return counts
