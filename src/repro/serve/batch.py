"""Blocked multi-RHS batch execution with per-column isolation.

One *batch* is k same-operator jobs solved together: the residual for
all live columns comes from one :func:`repro.kernels.range_residual_block`
call (the PR 9 blocked kernels), then each column receives its grid
corrections independently.  Column ``j`` of the blocked residual is
bit-identical to the scalar kernel on that column (the kernels' parity
contract), and the per-column correction path below is byte-for-byte
the same code whether the batch holds 1 or 32 columns — so a healthy
job's iterate is **bitwise independent of its batch siblings**, which
is what makes coalescing safe to enable by default.

Isolation is per column in every direction:

- *early exit* — a converged, diverged, crashed or deadline-expired
  column leaves the active set immediately; the survivors' next
  blocked residual simply has fewer columns.  One slow RHS can never
  hold siblings past their deadlines.
- *faults* — each column carries its own optional
  :class:`~repro.resilience.FaultInjector` (the submitting tenant's
  plan) and its own single-writer telemetry shard; a corruption landing
  in column j is screened (guard) or detected (divergence) in column j
  alone.
- *crashes* — a worker crash scheduled by a column's fault plan kills
  that column (``worker_crash``) and flags the batch so the pool can
  retire the worker; sibling columns still terminate normally first.

Statuses reuse the server vocabulary: ``ok`` (converged), ``degraded``
(deadline or cycle budget exhausted — best iterate, honest residual,
``stalled=True`` per the repo-wide result contract), ``failed``
(divergence / full-cycle guard rejection / worker crash).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.run import screen_correction
from ..kernels import range_residual_block
from ..resilience import FaultInjector, FaultTelemetry, Guard
from ..solvers import AdditiveMultigrid
from .jobs import DEGRADED, FAILED, OK

__all__ = ["ColumnContext", "ColumnOutcome", "solve_batch"]

#: Causes attributed to the *operator* (they feed the circuit breaker),
#: as opposed to ``worker_crash`` (attributed to the worker).
OPERATOR_FAULT_CAUSES = ("divergence", "guard_trip", "timeout")


@dataclass(frozen=True)
class ColumnContext:
    """Per-column solve parameters (one submitted job)."""

    tol: float = 1e-8
    tmax: int = 60
    divergence_threshold: float = 1e6
    #: absolute ``perf_counter`` deadline; ``inf`` = none
    t_deadline: float = float("inf")
    injector: Optional[FaultInjector] = None
    #: per-column guard (its ``ref_norm`` anchors to *this* column's
    #: ``||b||`` — a shared guard would let a large sibling RHS widen
    #: the magnitude screen of a small one: cross-column contamination)
    guard: Optional[Guard] = None
    telemetry: FaultTelemetry = field(default_factory=FaultTelemetry)


@dataclass
class ColumnOutcome:
    """Terminal state of one column after :func:`solve_batch`."""

    status: str
    cause: str
    x: np.ndarray
    rel_residual: float
    cycles: int
    stalled: bool = False
    crashed: bool = False
    telemetry: FaultTelemetry = field(default_factory=FaultTelemetry)


def solve_batch(
    solver: AdditiveMultigrid,
    columns: Sequence[np.ndarray],
    contexts: Sequence[ColumnContext],
    now_fn: Callable[[], float] = perf_counter,
) -> List[ColumnOutcome]:
    """Solve ``A x_j = b_j`` for every column, with per-column exits.

    ``now_fn`` exists for tests (deterministic clocks); production use
    passes wall ``perf_counter`` values consistent with the contexts'
    absolute deadlines.
    """
    if len(columns) != len(contexts):
        raise ValueError("one context per RHS column required")
    k = len(columns)
    if k == 0:
        return []
    n = solver.n
    for b in columns:
        if b.shape != (n,):
            raise ValueError(f"every RHS must have shape ({n},), got {b.shape}")

    A = solver.A
    B = np.column_stack(columns).astype(np.float64, copy=False)
    X = np.zeros((n, k), dtype=np.float64)
    bnorm = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
    rel = np.full(k, np.inf)
    cycles = [0] * k
    outcomes: List[Optional[ColumnOutcome]] = [None] * k
    active = list(range(k))
    last_cycle_s = 0.0

    def finish(
        j: int, status: str, cause: str = "", stalled: bool = False,
        crashed: bool = False,
    ) -> None:
        outcomes[j] = ColumnOutcome(
            status=status,
            cause=cause,
            x=np.array(X[:, j], copy=True),
            rel_residual=float(rel[j]),
            cycles=cycles[j],
            stalled=stalled,
            crashed=crashed,
            telemetry=contexts[j].telemetry,
        )

    while active:
        # One blocked residual for every live column (the batching win);
        # column j is bit-identical to the scalar residual kernel on
        # (X[:, j], B[:, j]) whatever the sibling set is.
        Xa = np.ascontiguousarray(X[:, active])
        Ba = np.ascontiguousarray(B[:, active])
        R = range_residual_block(A, Xa, Ba, 0, n)
        now = now_fn()
        still = []
        for idx, j in enumerate(active):
            rel[j] = float(np.linalg.norm(R[:, idx]) / bnorm[j])
            ctx = contexts[j]
            if np.isfinite(rel[j]) and rel[j] <= ctx.tol:
                finish(j, OK)
            elif not np.isfinite(rel[j]) or rel[j] > ctx.divergence_threshold:
                finish(j, FAILED, cause="divergence")
            elif cycles[j] >= ctx.tmax:
                finish(j, DEGRADED, cause="cycle_budget", stalled=True)
            elif now + last_cycle_s > ctx.t_deadline:
                # Can't afford another full cycle: return the best
                # iterate with its honest residual now, instead of
                # blowing the deadline mid-cycle.
                finish(j, DEGRADED, cause="deadline", stalled=True)
            else:
                still.append((idx, j))
        if not still:
            break

        t_cycle = now_fn()
        survivors = []
        for ridx, j in still:
            ctx = contexts[j]
            r = np.ascontiguousarray(R[:, ridx])
            out = np.array(X[:, j], copy=True)
            crashed = False
            rejected = 0
            for g in range(solver.ngrids):
                if ctx.injector is not None and ctx.injector.crash_due(g, cycles[j]):
                    # The worker dies mid-job: this column's partial
                    # cycle is lost, siblings are untouched.
                    ctx.telemetry.bump("injected_crashes")
                    finish(j, FAILED, cause="worker_crash", crashed=True)
                    crashed = True
                    break
                e = screen_correction(
                    solver.correction(g, r), ctx.injector, ctx.guard, ctx.telemetry
                )
                if e is None:
                    rejected += 1
                    continue
                out += e
            if crashed:
                continue
            if ctx.guard is not None and rejected >= solver.ngrids:
                # Every correction of a full cycle was rejected: the
                # operator is unusable for this RHS, not merely noisy.
                finish(j, FAILED, cause="guard_trip")
                continue
            X[:, j] = out
            cycles[j] += 1
            survivors.append(j)
        last_cycle_s = now_fn() - t_cycle
        active = survivors

    # Every column leaves the active set through finish(), so the
    # outcome list is fully populated by construction.
    assert all(o is not None for o in outcomes)
    return [o for o in outcomes if o is not None]
