"""Fault/recovery telemetry shared by all three execution backends.

Every asynchronous executor threads one :class:`FaultTelemetry` through
its run and attaches it to its result object, so a benchmark can put
"what was injected" and "what the guards did about it" on the same row:
injected crashes/stalls/corruptions on one side, detections,
rejections, rollbacks, restarts and retransmissions on the other.

The counters are plain ints with **single-writer** semantics: each
instance is only ever bumped from one thread (the engine/simulator
scheduler, a supervisor, or one worker's private shard), so increments
need no lock.  The threaded executor gives every worker its own shard
and folds them into the run's main telemetry through :meth:`merge` once
at run end — one merge path instead of one lock acquire per bump on the
hot path (the same per-worker-buffer discipline as
:class:`repro.observe.Tracer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

__all__ = ["FaultTelemetry"]


@dataclass
class FaultTelemetry:
    """Counters for injected faults and the guard layer's responses.

    Injection side (what the :class:`~repro.resilience.FaultInjector`
    did to the run):

    - ``injected_crashes`` — fail-stop grid/process deaths.
    - ``injected_stalls`` — transient straggler pauses.
    - ``injected_corruptions`` — corrections perturbed (NaN/Inf/scale).
    - ``messages_duplicated`` / ``messages_delayed`` — message-level
      faults (distributed simulator only).

    Detection/recovery side (what the :class:`~repro.resilience.Guard`
    observed and did):

    - ``corrections_rejected`` — corrections discarded by the
      non-finite or magnitude screen.
    - ``corrections_clamped`` — corrections scaled down instead of
      discarded (``on_magnitude="clamp"``).
    - ``checkpoints`` / ``rollbacks`` — iterate snapshots taken and
      restored after a residual spike or divergence.
    - ``watchdog_detections`` — grids/processes declared dead or hung
      by the staleness watchdog/heartbeat monitor.
    - ``alert_stops`` — runs aborted early by a live anomaly alert
      (the ``alert_stop`` policy of :mod:`repro.observe.live`).
    - ``restarts`` — crashed grids/processes restarted and re-synced.
    - ``retransmissions`` — dropped messages re-sent (with backoff).
    - ``messages_lost`` — messages abandoned after exhausting retries
      (or with retransmission disabled).
    - ``duplicates_discarded`` — duplicate deliveries suppressed by
      sequence-number dedup.

    Message accounting (distributed simulator):

    - ``messages_sent`` — transmissions attempted, including retries.
    - ``messages_delivered`` — messages that reached their destination.
    - ``messages_dropped`` — individual transmissions lost in flight
      (a message dropped then retransmitted successfully counts one
      drop and one delivery).
    - ``delivery_attempts`` — histogram ``{attempts: messages}`` of how
      many transmissions each *delivered* message needed (1 = first
      try); recorded via :meth:`record_delivery`.

    Elastic membership (:mod:`repro.distributed.elastic`):

    - ``rank_crashes`` / ``rank_stalls`` — churn-plan events applied.
    - ``member_joins`` / ``member_leaves`` — ranks that joined cold or
      left permanently.
    - ``member_suspects`` — ranks whose heartbeats went silent past the
      suspect timeout.
    - ``member_evictions`` — suspects declared dead and removed.
    - ``member_recoveries`` — suspected/stalled ranks that resumed
      heartbeating and were re-admitted.
    - ``repartitions`` — incremental work re-partitions triggered by a
      membership change.
    - ``handoffs`` — checkpointed grid-level state handoffs to a new
      owner after a repartition.
    """

    injected_crashes: int = 0
    injected_stalls: int = 0
    injected_corruptions: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0

    corrections_rejected: int = 0
    corrections_clamped: int = 0
    checkpoints: int = 0
    rollbacks: int = 0
    watchdog_detections: int = 0
    alert_stops: int = 0
    restarts: int = 0
    retransmissions: int = 0
    messages_lost: int = 0
    duplicates_discarded: int = 0

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0

    rank_crashes: int = 0
    rank_stalls: int = 0
    member_joins: int = 0
    member_leaves: int = 0
    member_suspects: int = 0
    member_evictions: int = 0
    member_recoveries: int = 0
    repartitions: int = 0
    handoffs: int = 0

    delivery_attempts: Dict[int, int] = field(default_factory=dict)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment one counter by ``by`` (single-writer: only the
        owning thread may bump an instance — give each worker its own
        shard and :meth:`merge` them at run end)."""
        if by < 0:
            raise ValueError("telemetry increments must be non-negative")
        setattr(self, counter, getattr(self, counter) + by)

    def record_delivery(self, attempts: int) -> None:
        """Record one delivered message that needed ``attempts``
        transmissions (1 = delivered on the first try)."""
        if attempts < 1:
            raise ValueError("a delivered message took at least one attempt")
        self.delivery_attempts[attempts] = self.delivery_attempts.get(attempts, 0) + 1

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """All counters as a flat ``{name: int}`` dict; the delivery
        histogram is flattened to ``delivery_attempts[k]`` keys so the
        result stays numeric-valued (a :class:`~repro.observe.Metrics`
        provider can return it as is)."""
        out: Dict[str, int] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "delivery_attempts":
                for k in sorted(value):
                    out[f"delivery_attempts[{k}]"] = value[k]
            else:
                out[f.name] = value
        return out

    @property
    def total_injected(self) -> int:
        return (
            self.injected_crashes
            + self.injected_stalls
            + self.injected_corruptions
            + self.messages_duplicated
            + self.messages_delayed
        )

    @property
    def total_recovery_actions(self) -> int:
        return (
            self.corrections_rejected
            + self.corrections_clamped
            + self.rollbacks
            + self.restarts
            + self.retransmissions
            + self.duplicates_discarded
        )

    def merge(self, other: "FaultTelemetry") -> "FaultTelemetry":
        """Add ``other``'s counters into self (returns self) — the
        single path by which worker shards reach a run's telemetry."""
        for f in fields(self):
            if f.name == "delivery_attempts":
                for k, v in other.delivery_attempts.items():
                    self.delivery_attempts[k] = self.delivery_attempts.get(k, 0) + v
            else:
                self.bump(f.name, getattr(other, f.name))
        return self

    def summary(self) -> str:
        """One-line human-readable digest of the nonzero counters."""
        nonzero = [f"{k}={v}" for k, v in self.as_dict().items() if v]
        return ", ".join(nonzero) if nonzero else "no faults"
