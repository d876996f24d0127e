"""Detection and recovery: the guard layer.

Asynchronous additive multigrid has no synchronization points where a
conventional solver would notice a fault, so detection must be cheap,
local, and require no coordination — exactly the constraints of
Coleman & Sosonkina's fault-tolerant asynchronous iterations.  The
:class:`GuardPolicy` groups the knobs; a per-run :class:`Guard` holds
the mutable state (checkpoint, rollback/restart budgets):

- **correction screening** (:meth:`Guard.screen`) — a correction with a
  non-finite entry, or with norm beyond ``magnitude_bound x ||b||``, is
  rejected (or clamped) *before* it touches the shared iterate.  One
  ``isfinite`` pass and one max-abs per correction; no reductions
  across grids.
- **residual-spike detection + checkpoint/rollback**
  (:meth:`Guard.checkpoint_or_rollback`) — the executor offers the
  current iterate and relative residual every :data:`CHECKPOINT_ROUNDS`
  correction rounds (engine, distributed) or ``checkpoint_period_s``
  wall seconds (threaded, procs); a spike past ``spike_factor x`` the
  last checkpoint (or a non-finite residual) returns the checkpointed
  iterate to restore instead of recording a new snapshot.
- **staleness watchdog + restart budgets** — executors consult
  ``watchdog_timeout``/``watchdog_microsteps`` to declare a silent grid
  dead, and :meth:`Guard.try_restart` to spend one of ``max_restarts``
  re-spawns (with replica re-sync, executor-specific); ``max_restarts=0``
  turns restarts off.
- **message policies** (distributed) — a dropped message is re-sent
  with exponential backoff from ``retransmit_timeout``, at most
  :data:`MAX_RETRANSMITS` times, and duplicate deliveries are discarded
  by sequence number.

``guard=None`` everywhere means *no protection*: faults land unchecked,
which is the ablation the fault-tolerance benchmark contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .telemetry import FaultTelemetry

__all__ = ["CHECKPOINT_ROUNDS", "MAX_RETRANSMITS", "GuardPolicy", "Guard"]

_ON_MAGNITUDE = ("reject", "clamp")

#: the engine and the distributed simulator checkpoint the iterate every
#: this many correction rounds (one round = one correction per grid)
CHECKPOINT_ROUNDS = 5
#: the distributed simulator re-sends a dropped message at most this often
MAX_RETRANSMITS = 3


@dataclass(frozen=True)
class GuardPolicy:
    """Configuration of the detection/recovery layer.

    Time-like fields follow the executing backend's clock (seconds for
    the threaded executor, simulated seconds for the distributed
    simulator, micro-steps for the sequential engine — the engine uses
    ``watchdog_microsteps``, auto-derived when None).
    """

    #: reject/clamp corrections with max-abs beyond this multiple of ||b||
    magnitude_bound: float = 1e4
    #: what to do with an oversized (but finite) correction
    on_magnitude: str = "reject"
    #: residual growth past the last checkpoint that triggers rollback
    spike_factor: float = 100.0
    #: checkpoint period in wall seconds (threaded and procs supervisors)
    checkpoint_period_s: float = 0.05
    #: rollback budget; 0 disables rollback entirely
    max_rollbacks: int = 10
    #: engine: micro-steps without progress before a grid is declared
    #: dead (None = 50 x ngrids x (3 x chunks + 4), chunks being 1 with
    #: lock-write and 8 with atomic-write: 1050 on three grids with
    #: lock-write, where a fault-free round takes 9, so ~117 rounds)
    watchdog_microsteps: Optional[int] = None
    #: threaded/distributed: seconds without a heartbeat before a
    #: worker/process is declared dead
    watchdog_timeout: float = 0.25
    #: restarts (with replica re-sync) of grids/processes declared dead,
    #: across the whole run; 0 disables restarts
    max_restarts: int = 3
    #: distributed: first retransmission backoff, doubled per attempt
    retransmit_timeout: float = 1e-4

    def __post_init__(self) -> None:
        if self.on_magnitude not in _ON_MAGNITUDE:
            raise ValueError(f"on_magnitude must be one of {_ON_MAGNITUDE}")
        if self.magnitude_bound <= 0 or self.spike_factor <= 1.0:
            raise ValueError("magnitude_bound must be > 0 and spike_factor > 1")
        if self.checkpoint_period_s <= 0:
            raise ValueError("checkpoint cadence must be positive")
        if min(self.max_rollbacks, self.max_restarts) < 0:
            raise ValueError("budgets must be non-negative")
        if self.watchdog_timeout <= 0 or self.retransmit_timeout <= 0:
            raise ValueError("timeouts must be positive")


class Guard:
    """Per-run mutable guard state built from a :class:`GuardPolicy`.

    ``ref_norm`` anchors the magnitude screen (executors pass
    ``||b||``); all detections/recoveries are tallied into
    ``telemetry``.  Thread-safety: :meth:`screen` only reads policy
    fields, so worker threads may call it concurrently — each passing
    its *own* single-writer telemetry shard (merged at run end) so no
    bump contends; checkpoint/rollback and restart bookkeeping are
    supervisor/scheduler-only and tally into the guard's telemetry.
    """

    def __init__(
        self,
        policy: GuardPolicy,
        ref_norm: float,
        telemetry: Optional[FaultTelemetry] = None,
    ) -> None:
        self.policy = policy
        self.ref_norm = max(float(ref_norm), 1e-30)
        self.telemetry = telemetry if telemetry is not None else FaultTelemetry()
        self._ckpt_x: Optional[np.ndarray] = None
        self._ckpt_rel: float = np.inf
        self.rollbacks_used = 0
        self.restarts_used = 0

    # -- correction screening -----------------------------------------
    def screen(
        self, e: np.ndarray, telemetry: Optional[FaultTelemetry] = None
    ) -> Optional[np.ndarray]:
        """Vet one correction; returns the (possibly clamped) vector to
        apply, or None when it must be discarded.  Concurrent callers
        pass their own ``telemetry`` shard; None tallies into the
        guard's own (scheduler/supervisor use)."""
        tel = self.telemetry if telemetry is None else telemetry
        pol = self.policy
        if not np.all(np.isfinite(e)):
            tel.bump("corrections_rejected")
            return None
        if e.size:
            mag = float(np.abs(e).max())
            bound = pol.magnitude_bound * self.ref_norm
            if mag > bound:
                if pol.on_magnitude == "clamp":
                    tel.bump("corrections_clamped")
                    return e * (bound / mag)
                tel.bump("corrections_rejected")
                return None
        return e

    # -- checkpoint / rollback ----------------------------------------
    def checkpoint_or_rollback(
        self, x: np.ndarray, rel: float
    ) -> Tuple[str, Optional[np.ndarray]]:
        """Offer the current state; returns one of

        - ``("checkpoint", None)`` — state recorded as the new snapshot;
        - ``("rollback", x_restore)`` — residual spiked (or went
          non-finite): restore the returned iterate;
        - ``("none", None)`` — spike detected but the rollback budget is
          spent or no checkpoint exists yet.
        """
        healthy = np.isfinite(rel) and (
            self._ckpt_x is None or rel <= self.policy.spike_factor * self._ckpt_rel
        )
        if healthy:
            self._ckpt_x = np.array(x, copy=True)
            self._ckpt_rel = float(rel)
            self.telemetry.bump("checkpoints")
            return "checkpoint", None
        if self._ckpt_x is not None and self.rollbacks_used < self.policy.max_rollbacks:
            self.rollbacks_used += 1
            self.telemetry.bump("rollbacks")
            return "rollback", np.array(self._ckpt_x, copy=True)
        return "none", None

    # -- restart budget ------------------------------------------------
    def try_restart(self) -> bool:
        """Spend one restart from the budget (True when granted)."""
        if self.restarts_used >= self.policy.max_restarts:
            return False
        self.restarts_used += 1
        self.telemetry.bump("restarts")
        return True
