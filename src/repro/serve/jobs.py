"""Job vocabulary of the solve server: specs, tickets, results.

A *job* is one tenant's request to solve ``A x = b`` against a named
operator to a tolerance, under a deadline.  The server's whole
robustness contract is expressed through the job lifecycle: every
submitted job terminates in **exactly one** of four terminal statuses

- ``ok``        — converged within its cycle budget and deadline;
- ``degraded``  — ran out of deadline or cycle budget: the result
  carries the best available iterate and its *honest* residual
  (``stalled=True``, mirroring the executor result contract);
- ``rejected``  — never ran: admission backpressure (``overloaded``),
  tenant-fair shedding (``shed``), circuit breaker (``circuit_open``),
  or server shutdown;
- ``failed``    — ran and could not produce an iterate: divergence,
  guard trip, worker crash with no retry budget left.

No job is ever silently dropped and no caller ever hangs: a
:class:`Ticket` resolves for every accepted *or* rejected submission.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from ..amg import SetupOptions
from ..kernels.setupcache import problem_fingerprint
from ..resilience import FaultTelemetry

__all__ = [
    "OK",
    "DEGRADED",
    "REJECTED",
    "FAILED",
    "TERMINAL_STATUSES",
    "OperatorRef",
    "JobSpec",
    "Job",
    "JobResult",
    "Ticket",
]

#: Terminal job statuses — the acceptance criterion "every job
#: terminates in exactly one of {ok, degraded, rejected,
#: failed-with-cause}" is checked against this vocabulary.
OK = "ok"
DEGRADED = "degraded"
REJECTED = "rejected"
FAILED = "failed"
TERMINAL_STATUSES = (OK, DEGRADED, REJECTED, FAILED)


class OperatorRef:
    """A registered operator: matrix + setup options + content hash.

    The fingerprint is the identity the whole serving stack keys on —
    the setup cache, the batcher's coalescing, and the circuit
    breaker all treat "same fingerprint" as "same operator".  It
    covers the matrix *content* plus the setup options and solver
    kwargs: the same matrix served under two solver configurations is
    two operators (one may diverge while the other is healthy, and a
    breaker trip on one must not black out the other).
    """

    __slots__ = ("A", "options", "solver_kwargs", "fingerprint")

    def __init__(
        self,
        A: sp.spmatrix,
        options: Optional[SetupOptions] = None,
        solver_kwargs: Optional[Dict[str, object]] = None,
    ) -> None:
        from dataclasses import astuple

        from ..linalg import as_csr

        self.A: sp.csr_matrix = as_csr(A)
        self.options = options or SetupOptions()
        #: extra solver-constructor kwargs (e.g. ``weight``); the server
        #: builds one solver per fingerprint from the first ref seen
        self.solver_kwargs: Dict[str, object] = dict(solver_kwargs or {})
        config = repr((astuple(self.options), sorted(self.solver_kwargs.items())))
        suffix = hashlib.blake2b(config.encode("utf-8"), digest_size=8).hexdigest()
        self.fingerprint = f"{problem_fingerprint(self.A)}-{suffix}"

    @property
    def n(self) -> int:
        return int(self.A.shape[0])


@dataclass(frozen=True)
class JobSpec:
    """What a tenant asks for (immutable once submitted)."""

    tenant: str
    operator: OperatorRef
    b: np.ndarray
    tol: float = 1e-8
    tmax: int = 60
    deadline_s: float = 5.0
    retries: int = 1
    divergence_threshold: float = 1e6

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.b.ndim != 1 or self.b.shape[0] != self.operator.n:
            raise ValueError(
                f"b must be 1-D of length {self.operator.n}, got {self.b.shape}"
            )
        if self.tol <= 0 or self.tmax < 1:
            raise ValueError("tol must be positive and tmax >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")


@dataclass
class JobResult:
    """Terminal outcome of one job.

    ``stalled``/``telemetry`` follow the repo-wide result contract
    (RPR005): a degraded job is a stalled run, and the telemetry
    carries what the guards saw while it executed.
    """

    job_id: int
    tenant: str
    status: str
    cause: str = ""
    x: Optional[np.ndarray] = None
    rel_residual: float = float("inf")
    cycles: int = 0
    attempts: int = 0
    batched: int = 0
    """Sibling count of the blocked multi-RHS batch this job ran in
    (1 = solo; 0 = never dispatched)."""
    fingerprint: str = ""
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    deadline_met: bool = False
    stalled: bool = False
    telemetry: FaultTelemetry = field(default_factory=FaultTelemetry)

    def __post_init__(self) -> None:
        if self.status not in TERMINAL_STATUSES:
            raise ValueError(
                f"status must be one of {TERMINAL_STATUSES}, got {self.status!r}"
            )

    def oneline(self) -> str:
        extra = f" cause={self.cause}" if self.cause else ""
        return (
            f"job {self.job_id} [{self.tenant}] {self.status}{extra}: "
            f"relres={self.rel_residual:.3e} cycles={self.cycles} "
            f"attempts={self.attempts} latency={self.latency_s * 1e3:.1f}ms"
        )

    def to_dict(self, with_x: bool = False) -> Dict[str, object]:
        d: Dict[str, object] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "cause": self.cause,
            "rel_residual": (
                None if not np.isfinite(self.rel_residual) else float(self.rel_residual)
            ),
            "cycles": self.cycles,
            "attempts": self.attempts,
            "batched": self.batched,
            "fingerprint": self.fingerprint,
            "queue_wait_s": self.queue_wait_s,
            "service_s": self.service_s,
            "latency_s": self.latency_s,
            "deadline_met": self.deadline_met,
            "stalled": self.stalled,
        }
        if with_x and self.x is not None:
            d["x"] = [float(v) for v in self.x]
        return d


class Ticket:
    """Caller-facing handle: resolves exactly once, never hangs.

    ``result(timeout)`` blocks on an event with a mandatory timeout —
    the server completes every job (terminal status) even under crash
    and overload, and a caller that outlives its own patience gets
    ``None`` back rather than a hung thread.
    """

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        self._event = threading.Event()
        self._result: Optional[JobResult] = None

    def complete(self, result: JobResult) -> None:
        """Resolve the ticket (idempotent: the first completion wins)."""
        if self._result is None:
            self._result = result
            self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float = 30.0) -> Optional[JobResult]:
        """The terminal :class:`JobResult`, or None after ``timeout``."""
        if self._event.wait(timeout=timeout):
            return self._result
        return None


_job_ids = itertools.count(1)


@dataclass(eq=False)
class Job:
    """Runtime record: one spec travelling through the server.

    ``eq=False`` on purpose: jobs compare (and deque-remove) by
    identity — field equality would try to compare the spec's numpy
    RHS elementwise.

    Timestamps are ``perf_counter`` values (monotonic).  The absolute
    deadline is fixed at *first* admission — a retried job re-enters
    admission with its original deadline, so retries consume the
    tenant's budget rather than extending it.
    """

    spec: JobSpec
    ticket: Ticket
    job_id: int = 0
    t_submit: float = 0.0
    t_deadline: float = 0.0
    t_enqueue: float = 0.0
    """When this job last entered admission (re-stamped on retry)."""
    t_dispatch: float = 0.0
    attempts: int = 0
    queue_wait_s: float = 0.0
    probe: bool = False
    """True when the breaker admitted this job as its half-open probe."""

    @classmethod
    def create(cls, spec: JobSpec, now: float) -> "Job":
        job_id = next(_job_ids)
        job = cls(spec=spec, ticket=Ticket(job_id), job_id=job_id)
        job.t_submit = now
        job.t_enqueue = now
        job.t_deadline = now + spec.deadline_s
        return job

    def make_result(self, status: str, now: float, **kw: object) -> JobResult:
        """Build a terminal result stamped with this job's accounting."""
        res = JobResult(
            job_id=self.job_id,
            tenant=self.spec.tenant,
            status=status,
            attempts=self.attempts,
            fingerprint=self.spec.operator.fingerprint,
            queue_wait_s=self.queue_wait_s,
            latency_s=max(0.0, now - self.t_submit),
            **kw,  # type: ignore[arg-type]
        )
        res.deadline_met = res.status in (OK, DEGRADED) and now <= self.t_deadline
        return res
