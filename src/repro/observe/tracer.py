"""Low-overhead structured tracer shared by all three async backends.

The hot-path contract: a worker (grid thread, engine coroutine slot,
or simulated process) appends 6-tuples to its **own**
:class:`TraceBuffer` — an append-only ring with no cross-thread
locking anywhere on the record path.  Buffers are merged into one
time-ordered event stream only at run end (:meth:`Tracer.events`),
the same merge-late discipline the executors already use for fault
telemetry.

Clocks: the tracer does not impose one.  The threaded executor
records wall seconds from run start (``clock="s"``), the sequential
engine records scheduler micro-steps (``clock="steps"`` — integral,
so a seeded run's event stream is bit-identical across repeats), and
the distributed simulator records simulated seconds (``clock="sim"``).

:class:`TracedPolicy` is the threaded executor's instrumentation
hook: an observer of a :class:`~repro.core.writes.WritePolicy`'s
stripe sweep (the hook :class:`repro.analysis.racecheck.CheckedWrite`
uses too) that emits ``read``/``write`` events carrying the policy's
commit epochs, effective read staleness, and summed lock-wait
durations.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.writes import ADD, ASSIGN, WriteObserver
from .events import ALERT, CORRECT_END, READ, RESIDUAL, WRITE, Event
from .metrics import Metrics

__all__ = ["TraceBuffer", "Tracer", "TraceSummary", "TracedPolicy"]

WorkerKey = Union[int, str]


class TraceBuffer:
    """Append-only ring buffer owned by exactly one worker.

    Records are raw ``(t, kind, grid, a, b, tag)`` tuples.  When the
    ring is full the oldest record is overwritten and ``dropped`` is
    bumped — a traced run degrades to a suffix window, never to a
    stall or an allocation storm.
    """

    __slots__ = ("worker", "capacity", "records", "dropped", "_head")

    def __init__(self, worker: WorkerKey, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.worker = worker
        self.capacity = int(capacity)
        self.records: List[tuple] = []
        self.dropped = 0
        self._head = 0

    def record(
        self,
        t: float,
        kind: str,
        grid: int,
        a: float = 0.0,
        b: float = 0.0,
        tag: str = "",
    ) -> None:
        rec = (t, kind, grid, a, b, tag)
        if len(self.records) < self.capacity:
            self.records.append(rec)
        else:
            self.records[self._head] = rec
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.records)

    def in_order(self) -> Iterator[tuple]:
        """Records oldest-first (unwinds the ring head)."""
        yield from self.records[self._head :]
        yield from self.records[: self._head]

    def position(self) -> int:
        """Total records ever appended (``len + dropped``) — the
        cursor value a tail reader compares against."""
        return len(self.records) + self.dropped

    def tail(self, cursor: int) -> Tuple[int, List[tuple]]:
        """Records appended since ``cursor``, oldest-first, without
        copying the full ring.

        Returns ``(new_cursor, records)`` where ``new_cursor`` is the
        buffer position the read observed — pass it back on the next
        call.  If more than ``capacity`` records landed since the
        cursor, only the latest ``capacity`` are returned (the rest
        were overwritten).  Safe to call from a *sampling* thread while
        the owner appends: list append/index assignment are atomic
        under the GIL, so the worst case is a torn read near the head
        returning a record twice or one snapshot late — acceptable for
        telemetry, never for correctness-bearing analysis (use
        :meth:`Tracer.events` after the run for that).
        """
        pos = self.position()
        missed = pos - cursor
        if missed <= 0:
            return pos, []
        n = len(self.records)
        take = missed if missed < n else n
        head = self._head
        if head == 0 or take <= 0:
            out = self.records[n - take :]
        else:
            # Ring order is records[head:] + records[:head]; the last
            # `take` of that sequence, via at most two slices.
            if take <= head:
                out = self.records[head - take : head]
            else:
                out = self.records[head - take + n :] + self.records[:head]
        return pos, out


@dataclass
class TraceSummary:
    """Compact digest of a traced run, attached to result objects.

    ``staleness`` statistics are in commit epochs (the paper's read
    delay δ units); ``lock_wait_*`` in seconds (zero for backends
    without real locks).
    """

    clock: str = "s"
    events: int = 0
    dropped: int = 0
    workers: int = 0
    corrections: int = 0
    reads: int = 0
    writes: int = 0
    span: float = 0.0
    max_staleness: float = 0.0
    mean_staleness: float = 0.0
    lock_wait_total: float = 0.0
    lock_wait_max: float = 0.0
    residual_first: float = float("nan")
    residual_last: float = float("nan")
    alerts: int = 0
    per_grid_counts: Dict[int, int] = field(default_factory=dict)

    def oneline(self) -> str:
        return (
            f"trace: {self.events} events ({self.dropped} dropped) from "
            f"{self.workers} worker(s), {self.corrections} corrections over "
            f"{self.span:g} {self.clock}; staleness max/mean = "
            f"{self.max_staleness:g}/{self.mean_staleness:.2f}; "
            f"lock-wait total/max = {self.lock_wait_total:.3g}/"
            f"{self.lock_wait_max:.3g} s"
        )


class Tracer:
    """Per-worker ring buffers plus the run-end merge.

    Thread-safety: buffer creation and the thread registry use plain
    dict operations (atomic under the GIL); every *record* goes to a
    buffer only its owner writes.  The merge (:meth:`events`,
    :meth:`summary`) is a run-end, single-caller operation.
    ``metrics`` is the registry the live collector counts its alerts
    into.
    """

    def __init__(self, capacity: int = 1 << 16, clock: str = "s") -> None:
        self.capacity = int(capacity)
        self.clock = clock
        self.metrics = Metrics()
        self._buffers: Dict[WorkerKey, TraceBuffer] = {}
        self._thread_worker: Dict[int, Tuple[WorkerKey, int]] = {}
        self._worker_pids: Dict[WorkerKey, int] = {}
        self._t0 = _time.perf_counter()

    # -- clock ---------------------------------------------------------
    def now(self) -> float:
        """Wall seconds since tracer construction (``clock="s"``)."""
        return _time.perf_counter() - self._t0

    def restart_clock(self) -> None:
        """Re-zero the wall clock (executors call this at run start so
        event times align with the run's own t0)."""
        self._t0 = _time.perf_counter()

    # -- worker registry -----------------------------------------------
    def buffer(self, worker: WorkerKey) -> TraceBuffer:
        buf = self._buffers.get(worker)
        if buf is None:
            buf = self._buffers.setdefault(worker, TraceBuffer(worker, self.capacity))
        return buf

    def register_worker(self, grid: int, worker: Optional[WorkerKey] = None) -> None:
        """Bind the calling thread to ``grid`` so :meth:`record_here`
        (and :class:`TracedPolicy`, which has no grid context) can file
        events under the right worker buffer."""
        key: WorkerKey = grid if worker is None else worker
        self._thread_worker[threading.get_ident()] = (key, grid)
        self.buffer(key)

    def register_worker_pid(self, worker: WorkerKey, pid: int) -> None:
        """Bind a worker key to an OS process id (the procs backend's
        parent calls this at spawn) so merged events carry
        ``worker_pid``.  A restarted worker re-registers under the same
        key; the latest pid wins — the one the surviving ring records
        were last written by."""
        self._worker_pids[worker] = int(pid)
        self.buffer(worker)

    def buffers(self) -> Dict[WorkerKey, TraceBuffer]:
        """Live view of the per-worker buffers, for *sampling* readers
        (the snapshot collector).  Treat as read-only; iterate over
        ``list(...)`` since workers may still be registering."""
        return self._buffers

    def worker_threads(self) -> Dict[int, Tuple[WorkerKey, int]]:
        """Snapshot of the thread-ident → (worker, grid) registry (the
        sampling profiler's attribution table)."""
        return dict(self._thread_worker)

    def _current(self) -> Tuple[WorkerKey, int]:
        ent = self._thread_worker.get(threading.get_ident())
        if ent is None:
            # Unregistered thread (supervisor/monitor): file under a
            # thread-keyed buffer with no grid attribution.
            key = f"thread-{threading.get_ident()}"
            return key, -1
        return ent

    # -- recording -----------------------------------------------------
    def record(
        self,
        kind: str,
        grid: int,
        t: float,
        a: float = 0.0,
        b: float = 0.0,
        tag: str = "",
        worker: Optional[WorkerKey] = None,
    ) -> None:
        """Record with an explicit timestamp and worker key (the
        engine and the distributed simulator's form)."""
        self.buffer(grid if worker is None else worker).record(t, kind, grid, a, b, tag)

    def record_here(
        self,
        kind: str,
        a: float = 0.0,
        b: float = 0.0,
        tag: str = "",
        t: Optional[float] = None,
        grid: Optional[int] = None,
    ) -> None:
        """Record from the calling thread's registered worker context
        at the current wall clock (the threaded executor's form)."""
        key, bound_grid = self._current()
        self.buffer(key).record(
            self.now() if t is None else t,
            kind,
            bound_grid if grid is None else grid,
            a,
            b,
            tag,
        )

    # -- run-end merge ----------------------------------------------------
    @property
    def dropped_events(self) -> int:
        return sum(buf.dropped for buf in self._buffers.values())

    def events(self) -> List[Event]:
        """Merge every worker buffer into one time-ordered stream."""
        merged: List[Event] = []
        for key in sorted(self._buffers, key=str):
            buf = self._buffers[key]
            pid = self._worker_pids.get(key, -1)
            for seq, (t, kind, grid, a, b, tag) in enumerate(buf.in_order()):
                merged.append(
                    Event(
                        t=t, kind=kind, grid=grid, a=a, b=b, tag=tag,
                        worker=key, seq=seq, worker_pid=pid,
                    )
                )
        merged.sort(key=lambda e: e.sort_key)
        return merged

    def summary(self) -> TraceSummary:
        """Compact digest for attaching to a result object."""
        events = self.events()
        per_grid: Dict[int, int] = {}
        stal: List[float] = []
        waits: List[float] = []
        reads = writes = alerts = 0
        res_first = res_last = float("nan")
        for ev in events:
            if ev.kind == CORRECT_END:
                per_grid[ev.grid] = per_grid.get(ev.grid, 0) + 1
                if ev.b >= 0:
                    stal.append(ev.b)
            elif ev.kind == WRITE:
                writes += 1
                waits.append(ev.a)
            elif ev.kind == READ:
                reads += 1
            elif ev.kind == RESIDUAL:
                if np.isnan(res_first):
                    res_first = ev.a
                res_last = ev.a
            elif ev.kind == ALERT:
                alerts += 1
        span = events[-1].t - events[0].t if len(events) > 1 else 0.0
        return TraceSummary(
            clock=self.clock,
            events=len(events),
            dropped=self.dropped_events,
            workers=len(self._buffers),
            corrections=sum(per_grid.values()),
            reads=reads,
            writes=writes,
            span=float(span),
            max_staleness=max(stal) if stal else 0.0,
            mean_staleness=float(np.mean(stal)) if stal else 0.0,
            lock_wait_total=float(sum(waits)),
            lock_wait_max=max(waits) if waits else 0.0,
            residual_first=res_first,
            residual_last=res_last,
            alerts=alerts,
            per_grid_counts=per_grid,
        )


class TracedPolicy(WriteObserver):
    """Trace emission for one shared vector, as an observer of its
    write policy's stripe sweep (attach it as the policy's
    ``observer``).

    After each sweep it emits one event through the tracer's
    per-thread buffers: ``write`` with the sweep's summed lock-acquire
    wait (the paper's lock-write contention cost) and the commit's read
    staleness, ``write`` tagged ``<tag>:assign`` for a slice refresh,
    and ``read`` with the commit epoch the read observed.  The epochs
    are the policy's own, issued under its epoch lock, so the read
    epochs one thread records never decrease.
    """

    def __init__(self, tracer: Tracer, tag: str) -> None:
        self.tracer = tracer
        self.tag = tag
        self._last_commit_staleness: Dict[int, float] = {}

    def swept(self, op: str, wait: float, epoch: int, staleness: int) -> None:
        if op == ADD:
            self._last_commit_staleness[threading.get_ident()] = float(staleness)
            self.tracer.record_here(WRITE, a=wait, b=float(staleness), tag=self.tag)
        elif op == ASSIGN:
            self.tracer.record_here(WRITE, a=wait, b=-1.0, tag=f"{self.tag}:assign")
        else:
            self.tracer.record_here(READ, a=float(epoch), tag=self.tag)

    def last_staleness(self) -> float:
        """Staleness of the calling thread's most recent commit, as
        captured *at* that commit (−1 before its first read) — workers
        stamp this onto their ``correct_end`` events."""
        return self._last_commit_staleness.get(threading.get_ident(), -1.0)
