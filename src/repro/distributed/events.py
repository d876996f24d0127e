"""Indexed event queue and message dedup index for the simulator.

The original simulator used a bare ``heapq`` of ``(time, seq, kind,
proc, payload)`` tuples and a per-process ``set`` of applied message
ids.  Both worked, but neither supported the operations elasticity
needs:

- **cancellation** — when churn kills the last rank backing a grid,
  the grid's in-flight ``done`` event must die with it.  A bare heap
  cannot remove an interior element; :class:`IndexedEventQueue` hands
  out a handle per push and cancels in O(1) by tombstoning the entry
  (lazy deletion — the tombstone is skipped at pop time, the classic
  heapq recipe).
- **pending-kind queries** — the heartbeat scan must know whether any
  *solve* events remain so it can stop rescheduling itself and let the
  queue drain (otherwise an elastic run never terminates).
  :class:`IndexedEventQueue` keeps a live-count per kind.

Pop order is exactly the old ``(time, seq)`` order — ``seq`` is a
monotonic push counter, so two queues fed the same pushes pop the same
sequence.  That is what keeps a churn-free elastic run bit-identical
to the pre-elastic simulator.

:class:`DedupIndex` is the old per-process ``seen`` sets behind a
first-class interface: O(1) check-and-insert keyed by destination, and
O(1) amortised ``clear_rank`` on restart/handoff (the old code cleared
the set in place; the index swaps in a fresh one).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["IndexedEventQueue", "DedupIndex", "EventHandle"]

_CANCELLED = "<cancelled>"

# Entry layout: [time, seq, kind, proc, payload].  Entries are lists so
# a cancel can overwrite ``kind`` in place through the handle.
EventHandle = List[Any]


class IndexedEventQueue:
    """Min-heap of timestamped events with O(1) cancellation.

    Events pop in ``(time, seq)`` order where ``seq`` is the push
    sequence number — deterministic and identical to the tuple-heap it
    replaces.  ``push`` returns a handle; ``cancel(handle)`` tombstones
    the entry without disturbing the heap.
    """

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._seq = itertools.count()
        self._live = 0
        self._live_by_kind: Dict[str, int] = {}

    def push(self, time: float, kind: str, proc: int, payload: Any = None) -> EventHandle:
        entry: EventHandle = [time, next(self._seq), kind, proc, payload]
        heapq.heappush(self._heap, entry)
        self._live += 1
        self._live_by_kind[kind] = self._live_by_kind.get(kind, 0) + 1
        return entry

    def cancel(self, handle: Optional[EventHandle]) -> bool:
        """Tombstone a pending event; returns False if it already ran
        (or was already cancelled)."""
        if handle is None or handle[2] == _CANCELLED:
            return False
        self._live -= 1
        self._live_by_kind[handle[2]] -= 1
        handle[2] = _CANCELLED
        handle[4] = None  # drop the payload reference eagerly
        return True

    def pop(self) -> Tuple[float, str, int, Any]:
        """Pop the earliest live event as ``(time, kind, proc, payload)``."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[2] == _CANCELLED:
                continue
            self._live -= 1
            self._live_by_kind[entry[2]] -= 1
            return entry[0], entry[2], entry[3], entry[4]
        raise IndexError("pop from empty event queue")

    def pending(self, *kinds: str) -> int:
        """Live events of the given kinds (all kinds when none given)."""
        if not kinds:
            return self._live
        return sum(self._live_by_kind.get(k, 0) for k in kinds)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class DedupIndex:
    """Per-destination message-id dedup with O(1) lookup and clear.

    ``first_delivery(dst, mid)`` returns True exactly once per
    ``(dst, mid)`` pair; a repeat is a duplicate to discard.
    ``clear_rank`` forgets a destination's history on restart/handoff:
    the re-synced replica is a fresh consistent snapshot that already
    folds in every applied message, so old ids are irrelevant and
    keeping them would only leak memory across restarts.
    """

    def __init__(self, nranks: int) -> None:
        self._seen: List[Set[int]] = [set() for _ in range(nranks)]

    def first_delivery(self, dst: int, mid: int) -> bool:
        s = self._seen[dst]
        if mid in s:
            return False
        s.add(mid)
        return True

    def clear_rank(self, dst: int) -> None:
        self._seen[dst] = set()
