"""Per-operator circuit breaker (closed → open → half-open).

A *poisoned operator* — one whose solves repeatedly diverge, trip
guards, or blow their deadlines — would otherwise burn a worker slot
per submission while every tenant behind it queues.  The breaker keys
on the operator's content hash (the same fingerprint the setup cache
and batcher use) and fast-fails jobs against a tripped operator at
admission time, before they consume queue depth or worker cycles.

State machine, per fingerprint::

    CLOSED --[FAILURE_THRESHOLD consecutive failures]--> OPEN
    OPEN   --[RESET_TIMEOUT_S elapsed]-->                HALF_OPEN
    HALF_OPEN: exactly one probe job is admitted;
               probe success --> CLOSED (counters reset)
               probe failure --> OPEN   (timer restarts)

Successes in CLOSED reset the consecutive-failure counter, so a flaky
operator must fail ``FAILURE_THRESHOLD`` times *in a row* to trip.
All clocks are caller-supplied ``perf_counter`` values — the breaker
itself never reads time, which keeps it deterministic under test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "BreakerDecision", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class BreakerDecision:
    """Outcome of :meth:`CircuitBreaker.allow` for one job."""

    allowed: bool
    state: str
    probe: bool = False
    """True when this job was admitted as the half-open probe; the
    caller must report its outcome via record_success/record_failure."""


@dataclass
class _Entry:
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    probe_in_flight: bool = False
    trips: int = 0
    fast_fails: int = 0


class CircuitBreaker:
    """Registry of per-fingerprint breaker entries (thread-safe)."""

    #: consecutive operator-attributed failures that trip the breaker
    FAILURE_THRESHOLD = 3
    #: open → half-open probe delay, seconds
    RESET_TIMEOUT_S = 0.25

    def __init__(self) -> None:
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        #: (perf_counter, fingerprint, from_state, to_state) transition log —
        #: the chaos test asserts open *and* re-close were both observed.
        self.transitions: List[Tuple[float, str, str, str]] = []

    def _move(self, key: str, e: _Entry, to: str, now: float) -> None:
        self.transitions.append((now, key, e.state, to))
        e.state = to

    def allow(self, key: str, now: float) -> BreakerDecision:
        """May a job against operator ``key`` proceed right now?"""
        with self._lock:
            e = self._entries.setdefault(key, _Entry())
            if e.state == CLOSED:
                return BreakerDecision(True, CLOSED)
            if e.state == OPEN and now - e.opened_at >= self.RESET_TIMEOUT_S:
                self._move(key, e, HALF_OPEN, now)
                e.probe_in_flight = False
            if e.state == HALF_OPEN and not e.probe_in_flight:
                e.probe_in_flight = True
                return BreakerDecision(True, HALF_OPEN, probe=True)
            e.fast_fails += 1
            return BreakerDecision(False, e.state)

    def record_success(self, key: str, now: float) -> None:
        with self._lock:
            e = self._entries.setdefault(key, _Entry())
            if e.state == HALF_OPEN:
                self._move(key, e, CLOSED, now)
                e.probe_in_flight = False
            e.consecutive_failures = 0

    def record_failure(self, key: str, now: float) -> None:
        with self._lock:
            e = self._entries.setdefault(key, _Entry())
            if e.state == HALF_OPEN:
                # The probe failed: back to OPEN, restart the timer.
                self._move(key, e, OPEN, now)
                e.probe_in_flight = False
                e.opened_at = now
                e.trips += 1
                return
            e.consecutive_failures += 1
            if e.state == CLOSED and e.consecutive_failures >= self.FAILURE_THRESHOLD:
                self._move(key, e, OPEN, now)
                e.opened_at = now
                e.trips += 1

    def abandon_probe(self, key: str) -> None:
        """Release a half-open probe slot whose job never produced an
        operator-attributable outcome (shed, overloaded, worker crash):
        the breaker stays HALF_OPEN and the next ``allow`` becomes the
        new probe, instead of the slot leaking and every later job
        fast-failing forever."""
        with self._lock:
            e = self._entries.get(key)
            if e is not None and e.state == HALF_OPEN:
                e.probe_in_flight = False

    def state(self, key: str) -> str:
        with self._lock:
            e = self._entries.get(key)
            return e.state if e is not None else CLOSED

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-operator breaker stats (for /metrics and introspection)."""
        with self._lock:
            return {
                key: {
                    "state": e.state,
                    "consecutive_failures": e.consecutive_failures,
                    "trips": e.trips,
                    "fast_fails": e.fast_fails,
                }
                for key, e in self._entries.items()
            }
