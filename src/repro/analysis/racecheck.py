"""Happens-before race/staleness checker for the threaded executor.

:class:`CheckedWrite` observes a :class:`~repro.core.writes.WritePolicy`'s
stripe sweep with seqlock-style instrumentation *inside* the policy's
own critical sections: the sweep calls it before and after each
stripe's data movement, so the metadata is exactly as consistent as
the data it describes.

Per stripe it maintains

- a **write sequence counter** (odd while a write is in flight — the
  classic seqlock): a reader that observes an odd counter, or a
  counter that changed across its copy, has read a torn stripe;
- a **vector clock** mapping writer thread → number of commits to that
  stripe: successive reads by one thread must observe component-wise
  non-decreasing clocks (the paper's monotone read instants
  ``z_k(tau_k) <= z_k(t)``);

and globally an **epoch log** of every operation, and the read
staleness measured against the policy's **commit epoch** (total
``add`` commits — the dynamic analogue of the models' time instant
``t``): when a worker commits correction number ``t`` (global count),
the read it computed from was taken at epoch ``z``; the paper's
bounded-delay assumption (Section III) demands ``t - 1 - z <= delta``.

:func:`run_conformance` runs a real threaded solve with both shared
vectors instrumented and folds the measurements into a
:class:`ModelConformanceReport`, consumed by the test-suite and by
``python -m repro analyze --conformance``.

Under ``lock``/``atomic`` policies the instrumentation shares the
policy's own locks, so a torn read or a vector-clock regression is a
genuine policy bug, not checker noise.  Observing
:class:`~repro.core.writes.UnsafeWrite` (which has no locks) turns the
checker into a tearing *detector* — the ablation that shows the
instrument actually fires.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.writes import ASSIGN, READ, WriteObserver, WritePolicy

__all__ = ["CheckedWrite", "ModelConformanceReport", "run_conformance"]


@dataclass
class ModelConformanceReport:
    """Empirical verification of the paper's asynchronous model
    assumptions on one instrumented threaded run."""

    policy: str
    n: int
    nstripes: int
    total_commits: int
    total_reads: int
    total_assigns: int
    torn_reads: int
    torn_read_events: List[Tuple[int, int]] = field(default_factory=list)
    """``(thread_slot, stripe)`` of each torn stripe read (truncated)."""
    lock_order_violations: int = 0
    monotone_violations: int = 0
    staleness_bound: int = 0
    """The configured maximum read delay δ (in commit epochs)."""
    max_staleness: int = 0
    mean_staleness: float = 0.0
    staleness_samples: int = 0
    counts: List[int] = field(default_factory=list)
    """Per-grid correction counts from the solve result."""
    p_hat: List[float] = field(default_factory=list)
    """Empirical per-grid update rates ``counts_k / max(counts)`` —
    the measured analogue of the models' ``p_k ~ U[alpha, 1]``."""
    min_update_share: float = 0.0
    rel_residual: float = float("inf")
    diverged: bool = False
    stalled: bool = False

    @classmethod
    def measured(
        cls, staleness: Sequence[float], counts: Optional[Iterable[int]], **fields: Any
    ) -> "ModelConformanceReport":
        """The report, with the quantities every instrument derives
        alike computed here: p̂ and the minimum update share from the
        per-grid ``counts`` (None: unknown), and the staleness maximum,
        mean and sample count from the per-commit ``staleness``
        samples.  ``fields`` are the remaining report fields."""
        counts_list = [int(c) for c in counts] if counts is not None else []
        cmax = max(counts_list, default=0)
        p_hat = [c / cmax for c in counts_list] if cmax else []
        return cls(
            max_staleness=int(max(staleness)) if staleness else 0,
            mean_staleness=float(np.mean(staleness)) if staleness else 0.0,
            staleness_samples=len(staleness),
            counts=counts_list,
            p_hat=p_hat,
            min_update_share=min(p_hat) if p_hat else 0.0,
            **fields,
        )

    @property
    def staleness_ok(self) -> bool:
        return self.max_staleness <= self.staleness_bound

    @property
    def monotone_ok(self) -> bool:
        return self.monotone_violations == 0

    @property
    def counts_ok(self) -> bool:
        """Every grid made progress (``p_k >= alpha > 0`` implies no
        grid starves)."""
        return bool(self.counts) and min(self.counts) > 0

    @property
    def passed(self) -> bool:
        return (
            self.torn_reads == 0
            and self.lock_order_violations == 0
            and self.staleness_ok
            and self.monotone_ok
            and self.counts_ok
            and not self.diverged
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] policy={self.policy} commits={self.total_commits} "
            f"reads={self.total_reads} torn={self.torn_reads} "
            f"lock_order_violations={self.lock_order_violations} "
            f"staleness(max/mean/δ)={self.max_staleness}/"
            f"{self.mean_staleness:.1f}/{self.staleness_bound} "
            f"monotone={'ok' if self.monotone_ok else 'VIOLATED'} "
            f"p_hat_min={self.min_update_share:.2f} "
            f"relres={self.rel_residual:.2e}"
        )


class CheckedWrite(WriteObserver):
    """Happens-before checking for one write policy, as an observer of
    its stripe sweep (attach it as the policy's ``observer``).

    The hooks run inside the policy's own critical sections, so the
    synchronization (and contention profile) is exactly the policy's
    under test — only the bookkeeping rides along.
    """

    #: cap on retained epoch-log entries / torn-read events
    LOG_LIMIT = 100_000

    def __init__(self, policy: WritePolicy) -> None:
        self.policy = policy
        self.name = f"checked[{policy.name}]"
        nstripes = policy.nstripes
        # Seqlock counters: odd while a write to the stripe is in flight.
        self._wseq = [0] * nstripes
        # Per-stripe vector clocks: thread ident -> commits to stripe.
        self._clock: List[Dict[int, int]] = [dict() for _ in range(nstripes)]
        self._last_clocks_seen: Dict[Tuple[int, int], Dict[int, int]] = {}
        # Stripes each thread's current sweep has visited, in order.
        self._order: Dict[int, List[int]] = {}
        # Measurements.
        self.total_reads = 0
        self.total_assigns = 0
        self.torn_reads = 0
        self.torn_read_events: List[Tuple[int, int]] = []
        self.lock_order_violations = 0
        self.monotone_violations = 0
        self.staleness: List[int] = []
        self.epoch_log: Deque[Tuple[float, str, int, int, int]] = deque(
            maxlen=self.LOG_LIMIT
        )
        """``(perf_counter, op, thread_ident, stripe, wseq_after)``."""
        self._t0 = _time.perf_counter()

    # ------------------------------------------------------------------
    def _log(self, op: str, tid: int, s: int) -> None:
        # deque.append is atomic under the GIL; entries record the
        # post-operation sequence number for offline happens-before
        # reconstruction.
        self.epoch_log.append(
            (_time.perf_counter() - self._t0, op, tid, s, self._wseq[s])
        )

    def _check_order(self, order: List[int]) -> None:
        if any(b <= a for a, b in zip(order, order[1:])):
            self.lock_order_violations += 1

    # -- the sweep's hooks ----------------------------------------------
    def before(self, op: str, s: int) -> int:
        if op != READ:
            self._wseq[s] += 1  # odd: write in flight
        return self._wseq[s]

    def after(self, op: str, s: int, pre: int) -> None:
        tid = threading.get_ident()
        if op != READ:
            self._clock[s][tid] = self._clock[s].get(tid, 0) + 1
            self._wseq[s] += 1  # even: committed
        else:
            if pre % 2 == 1 or self._wseq[s] != pre:
                # Seqlock tear: the stripe changed under the copy.
                self.torn_reads += 1
                if len(self.torn_read_events) < 1000:
                    self.torn_read_events.append((tid, s))
            clock_snap = dict(self._clock[s])
            prev = self._last_clocks_seen.get((tid, s))
            if prev is not None and any(
                clock_snap.get(writer, 0) < count for writer, count in prev.items()
            ):
                # A component of the vector clock went backwards: this
                # reader observed an *older* version than it already
                # read — the monotone-read assumption is violated.
                self.monotone_violations += 1
            self._last_clocks_seen[(tid, s)] = clock_snap
        self._log(op, tid, s)
        self._order.setdefault(tid, []).append(s)

    def swept(self, op: str, wait: float, epoch: int, staleness: int) -> None:
        self._check_order(self._order.pop(threading.get_ident(), []))
        if op == READ:
            self.total_reads += 1
        elif op == ASSIGN:
            self.total_assigns += 1
        elif staleness >= 0:
            # Commits by *other* grids between this grid's read and its
            # own commit — the measured read delay of Section III.
            self.staleness.append(staleness)

    # ------------------------------------------------------------------
    def report(
        self,
        staleness_bound: int = 0,
        counts: Optional[np.ndarray] = None,
        rel_residual: float = float("inf"),
        diverged: bool = False,
        stalled: bool = False,
    ) -> ModelConformanceReport:
        """Fold the collected measurements into a report."""
        return ModelConformanceReport.measured(
            self.staleness,
            counts,
            policy=self.name,
            n=self.policy.n,
            nstripes=self.policy.nstripes,
            total_commits=self.policy.commits,
            total_reads=self.total_reads,
            total_assigns=self.total_assigns,
            torn_reads=self.torn_reads,
            torn_read_events=list(self.torn_read_events[:100]),
            lock_order_violations=self.lock_order_violations,
            monotone_violations=self.monotone_violations,
            staleness_bound=int(staleness_bound),
            rel_residual=float(rel_residual),
            diverged=bool(diverged),
            stalled=bool(stalled),
        )


def run_conformance(
    solver: Any,
    b: np.ndarray,
    write: str = "lock",
    delta: Optional[int] = None,
    tmax: int = 5,
    criterion: str = "criterion1",
) -> ModelConformanceReport:
    """Run one instrumented threaded local-res solve (stripes of
    :data:`~repro.core.writes.STRIPE` entries, at most 120 s) and report
    model conformance.

    ``delta`` is the staleness bound to verify against, in commit
    epochs.  Under criterion 1 every grid performs exactly ``tmax``
    commits, so ``(ngrids - 1) * tmax`` is a *sound* a-priori bound on
    the commits any other grid can interleave between one grid's read
    and its commit — a fault-free run can only exceed it through a
    genuine model violation, which is why criterion 1 is the default
    here.  Under criterion 2 fast grids keep correcting while slow
    ones catch up, so no a-priori bound exists; the default then falls
    back to the run's total commit count (the trivially sound bound),
    and ``max_staleness`` remains the informative measurement.
    """
    from ..core.threaded import run_threaded

    checkers: List[CheckedWrite] = []

    def observe(policy: WritePolicy) -> CheckedWrite:
        checkers.append(CheckedWrite(policy))
        return checkers[-1]

    result = run_threaded(
        solver,
        b,
        tmax=tmax,
        rescomp="local",
        write=write,
        criterion=criterion,
        timeout=120.0,
        observe=observe,
    )
    # checkers[0] instruments the shared iterate x — the vector the
    # paper's read-delay model is stated for.
    xchk = checkers[0]
    if delta is None:
        if criterion == "criterion1":
            delta = (solver.ngrids - 1) * tmax
        else:
            delta = xchk.policy.commits
    return xchk.report(
        staleness_bound=delta,
        counts=result.counts,
        rel_residual=result.rel_residual,
        diverged=result.diverged,
        stalled=result.stalled,
    )
