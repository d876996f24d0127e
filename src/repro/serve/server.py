"""The in-process multi-tenant solve server.

:class:`SolveServer` multiplexes concurrent solve jobs from many
tenants over shared cached AMG hierarchies.  The moving parts, in the
order a job meets them:

1. **submit** — the circuit breaker (:mod:`repro.serve.breaker`) may
   fast-fail the operator (``rejected/circuit_open``); otherwise the
   bounded admission queue (:mod:`repro.serve.admission`) accepts,
   rejects (``overloaded``) or sheds by tenant-fair policy.
2. **take** — each worker thread takes the queue head itself and
   *coalesces* up to ``batch_max - 1`` more queued jobs for the same
   operator fingerprint into one group (the blocked multi-RHS batch),
   so a job only ever waits in the one bounded queue.
3. **execute** — the worker runs the group through
   :func:`repro.serve.batch.solve_batch` over a solver built once per
   fingerprint on top of the thread-safe setup cache.  Guards screen
   corruptions per column; a fault-plan crash kills only its own job
   and retires the worker thread, which first starts its successor
   (self-healing).
4. **finish** — a failed attempt with retry budget re-enters admission
   after exponential backoff with seeded jitter (no queue jumping); a
   job that runs out of deadline returns ``degraded`` with its best
   iterate and honest residual; every terminal result resolves the
   submitter's :class:`~repro.serve.jobs.Ticket` exactly once.

Per-tenant counters, latency histograms and SLO attainment flow into a
:class:`repro.observe.Metrics` registry (scrapeable via the observe
layer's OpenMetrics endpoint); the setup cache, the breaker and the
pool's gauges (queue depth, retry backlog, live workers) register as
providers, read at collect time, so one ``collect()`` covers the whole
serving stack.

Every blocking primitive here is bounded (linter rule RPR013): an idle
worker waits on the admission queue for at most ``backoff_base_s``
(then re-admits the retries now due), an offer wakes one waiting
worker and ``close()`` wakes them all, and shutdown joins carry
timeouts, so ``stop()`` cannot hang even mid-overload.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..amg import SetupOptions
from ..core.run import RunContext
from ..kernels.setupcache import (
    cached_setup_hierarchy,
    register_setupcache_metrics,
    setup_cache_info,
)
from ..observe import Metrics
from ..resilience import FaultInjector, FaultPlan, GuardPolicy
from ..solvers import AdditiveMultigrid, Multadd
from .admission import AdmissionQueue
from .batch import ColumnContext, solve_batch
from .breaker import CircuitBreaker
from .jobs import (
    DEGRADED,
    FAILED,
    Job,
    JobResult,
    JobSpec,
    OK,
    OperatorRef,
    REJECTED,
    Ticket,
)

__all__ = ["ServeConfig", "SolveServer", "LATENCY_BUCKETS_S"]

#: latency histogram bounds, seconds (shared by latency + queue wait)
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

#: failure causes attributed to the operator → they feed the breaker
_BREAKER_FAULT_CAUSES = frozenset({"divergence", "guard_trip"})


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`SolveServer`."""

    workers: int = 2
    max_depth: int = 64
    high_water: Optional[int] = None
    #: max same-operator jobs coalesced into one blocked solve (1 = off)
    batch_max: int = 8
    smoother: str = "jacobi"
    #: consecutive operator-attributed failures that trip the breaker
    failure_threshold: int = 3
    #: open → half-open probe delay, seconds
    reset_timeout_s: float = 0.25
    #: first retry backoff, seconds; also the longest an idle worker
    #: waits before it looks for retries now due
    backoff_base_s: float = 0.01
    backoff_jitter: float = 0.5
    join_timeout_s: float = 5.0
    guard_policy: Optional[GuardPolicy] = field(default_factory=GuardPolicy)
    #: per-tenant fault plans (chaos/injection); each job derives its
    #: own seeded injector from its tenant's plan
    fault_plans: Dict[str, FaultPlan] = field(default_factory=dict)
    #: seeds the backoff-jitter stream (RPR003: no unseeded RNG)
    seed: int = 0
    #: terminal results retained for inspection (bounded ring)
    result_history: int = 4096

    def __post_init__(self) -> None:
        if self.workers < 1 or self.batch_max < 1:
            raise ValueError("workers and batch_max must be >= 1")
        if self.join_timeout_s <= 0:
            raise ValueError("join_timeout_s must be positive")
        if self.backoff_base_s <= 0 or self.backoff_jitter < 0:
            raise ValueError("backoff_base_s must be > 0, jitter >= 0")


class SolveServer:
    """In-process multi-tenant solve server (see module docstring)."""

    def __init__(
        self, config: Optional[ServeConfig] = None, metrics: Optional[Metrics] = None
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else Metrics()
        self.admission = AdmissionQueue(
            max_depth=self.config.max_depth, high_water=self.config.high_water
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.failure_threshold,
            reset_timeout_s=self.config.reset_timeout_s,
        )
        self._operators: Dict[str, OperatorRef] = {}
        self._solvers: Dict[str, AdditiveMultigrid] = {}
        self._injectors: Dict[int, FaultInjector] = {}
        self._retries: List[Tuple[float, Job]] = []
        self._state_lock = threading.Lock()  # operators/solvers/injectors/retries/workers
        self._metrics_lock = threading.Lock()  # serializes multi-writer bumps
        self._results: Deque[JobResult] = deque(maxlen=self.config.result_history)
        self._rng = np.random.default_rng(self.config.seed)
        self._stop = threading.Event()
        self._worker_threads: List[threading.Thread] = []
        self._started = False
        register_setupcache_metrics(self.metrics)
        self.metrics.register_provider("breaker", self._breaker_provider)
        self.metrics.register_provider("serve", self._pool_provider)

    # -- metrics helpers ----------------------------------------------
    def _bump(self, name: str, by: float = 1.0) -> None:
        with self._metrics_lock:
            self.metrics.counter(name).inc(by)

    def _observe(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.metrics.histogram(name, LATENCY_BUCKETS_S).observe(value)

    def _breaker_provider(self) -> Dict[str, float]:
        snap = self.breaker.snapshot()
        out = {"closed": 0.0, "open": 0.0, "half_open": 0.0, "trips": 0.0,
               "fast_fails": 0.0}
        for entry in snap.values():
            out[str(entry["state"])] += 1.0
            out["trips"] += float(entry["trips"])  # type: ignore[arg-type]
            out["fast_fails"] += float(entry["fast_fails"])  # type: ignore[arg-type]
        return out

    def _pool_provider(self) -> Dict[str, float]:
        """Queue, pool and retry gauges, read when metrics are collected
        (so they never go stale while every worker is busy)."""
        with self._state_lock:
            backlog = len(self._retries)
        return {
            "queue_depth": float(self.admission.depth()),
            "workers_alive": float(len(self.alive_threads())),
            "retry_backlog": float(backlog),
        }

    # -- operator registry --------------------------------------------
    def register_operator(
        self,
        name: str,
        A: sp.spmatrix,
        options: Optional[SetupOptions] = None,
        solver_kwargs: Optional[Dict[str, object]] = None,
    ) -> OperatorRef:
        """Register (or replace) a named operator; returns its ref."""
        ref = OperatorRef(A, options, solver_kwargs)
        with self._state_lock:
            self._operators[name] = ref
        return ref

    def operator(self, name: str) -> OperatorRef:
        with self._state_lock:
            try:
                return self._operators[name]
            except KeyError:
                raise KeyError(f"unknown operator {name!r}") from None

    def operator_names(self) -> List[str]:
        with self._state_lock:
            return sorted(self._operators)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SolveServer":
        if self._started:
            return self
        self._started = True
        self._stop.clear()
        for _ in range(self.config.workers):
            self._start_worker()
        return self

    def _start_worker(self) -> bool:
        """Start one worker thread; False (none started) once stopping."""
        with self._state_lock:
            # Decided under the lock stop() snapshots the workers with,
            # so no worker starts after that snapshot and goes unjoined.
            if self._stop.is_set() or not self._started:
                return False
            self._worker_threads = [t for t in self._worker_threads if t.is_alive()]
            t = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{len(self._worker_threads)}",
                daemon=True,
            )
            self._worker_threads.append(t)
            t.start()
        return True

    def stop(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: reject everything queued, finish what's
        in flight, join every worker (bounded)."""
        timeout = self.config.join_timeout_s if timeout_s is None else timeout_s
        self._stop.set()
        now = perf_counter()
        for job in self.admission.close():
            self._complete(job, job.make_result(REJECTED, now, cause="shutdown"))
        with self._state_lock:
            pending = [job for _, job in self._retries]
            self._retries.clear()
            threads = list(self._worker_threads)
        for job in pending:
            self._complete(job, job.make_result(REJECTED, now, cause="shutdown"))
        for t in threads:
            t.join(timeout=timeout)

    def alive_threads(self) -> List[threading.Thread]:
        """Worker threads still running (empty after a clean stop)."""
        with self._state_lock:
            return [t for t in self._worker_threads if t.is_alive()]

    # -- submission ----------------------------------------------------
    def submit(self, spec: JobSpec) -> Ticket:
        """Submit one job; always returns a ticket that resolves."""
        now = perf_counter()
        job = Job.create(spec, now)
        self._bump("serve.submitted")
        self._bump(f"serve.submitted.{spec.tenant}")
        if self._stop.is_set() or not self._started:
            self._complete(job, job.make_result(REJECTED, now, cause="shutdown"))
            return job.ticket
        self._admit(job, now)
        return job.ticket

    def submit_named(
        self, tenant: str, operator: str, b: np.ndarray, **spec_kwargs: object
    ) -> Ticket:
        """Submit against a registered operator name (CLI/HTTP path)."""
        spec = JobSpec(
            tenant=tenant, operator=self.operator(operator), b=b,
            **spec_kwargs,  # type: ignore[arg-type]
        )
        return self.submit(spec)

    def _admit(self, job: Job, now: float) -> None:
        decision = self.breaker.allow(job.spec.operator.fingerprint, now)
        if not decision.allowed:
            self._complete(job, job.make_result(REJECTED, now, cause="circuit_open"))
            return
        job.probe = job.probe or decision.probe
        job.t_enqueue = now
        admitted, shed = self.admission.offer(job)
        for victim in shed:
            self._complete(
                victim, victim.make_result(REJECTED, perf_counter(), cause="shed")
            )
        if not admitted and not any(victim is job for victim in shed):
            # After stop() the queue is closed: the refusal is the shutdown.
            cause = "shutdown" if self._stop.is_set() else "overloaded"
            self._complete(job, job.make_result(REJECTED, now, cause=cause))

    # -- workers -------------------------------------------------------
    def _worker_loop(self) -> None:
        """Take a group, run it, repeat; the thread retires on stop, or
        once a fault-plan crash killed it mid-job (its successor already
        runs, see :meth:`_process_group`)."""
        crashed = False
        wait_s = self.config.backoff_base_s
        while not crashed and not self._stop.is_set():
            job = self.admission.take(timeout=wait_s)
            group = [] if job is None else [job] + self.admission.take_matching(
                job.spec.operator.fingerprint, self.config.batch_max - 1
            )
            # After the take, so under saturation a due retry can have
            # a slot this group just freed.
            wait_s = self._readmit_due_retries()
            if not group:
                continue
            try:
                crashed = self._process_group(group)
            except Exception as exc:  # defensive: no job may hang on a bug
                now = perf_counter()
                self._bump("serve.internal_errors")
                for job in group:
                    self._complete(
                        job,
                        job.make_result(
                            FAILED, now, cause=f"internal:{type(exc).__name__}"
                        ),
                    )

    def _readmit_due_retries(self) -> float:
        """Re-admit the retries now due; return how long the caller may
        then wait for work: until the next retry comes due, at most
        ``backoff_base_s``.  No retry comes due sooner than that after
        it is scheduled, so an idle worker never sleeps through one."""
        now = perf_counter()
        wait_s = self.config.backoff_base_s
        with self._state_lock:
            due = [job for t, job in self._retries if t <= now]
            if due:
                self._retries = [(t, job) for t, job in self._retries if t > now]
            for t, _ in self._retries:
                wait_s = min(wait_s, t - now)
        for job in due:
            # Re-enters admission like any fresh submission: breaker
            # check, bounded queue, shed policy — no queue jumping.
            self._admit(job, perf_counter())
        return max(wait_s, 0.0)

    def _process_group(self, group: List[Job]) -> bool:
        now = perf_counter()
        ref = group[0].spec.operator
        live: List[Job] = []
        for job in group:
            job.attempts += 1
            job.queue_wait_s += max(0.0, now - job.t_enqueue)
            job.t_dispatch = now
            if now >= job.t_deadline:
                # Could not even start before the deadline: degrade
                # honestly (x = 0 ⇒ relative residual exactly 1).
                self._finish_attempt(
                    job,
                    job.make_result(
                        DEGRADED,
                        now,
                        cause="deadline",
                        x=np.zeros(ref.n),
                        rel_residual=1.0,
                        cycles=0,
                        stalled=True,
                        service_s=0.0,
                    ),
                )
            else:
                live.append(job)
        if not live:
            return False
        solver = self._solver_for(ref)
        contexts = [self._context_for(job, solver) for job in live]
        columns = [job.spec.b for job in live]
        outcomes = solve_batch(solver, columns, contexts)
        done = perf_counter()
        crashed = any(out.crashed for out in outcomes)
        if crashed:
            # A fault-plan crash killed this worker mid-job.  Count it
            # and start the successor before any result goes out, so
            # whoever sees the crashed job's result (or its retry's)
            # sees a healed pool; the caller then retires this thread.
            self._bump("serve.worker_crashes")
            if self._start_worker():
                self._bump("serve.workers_respawned")
        for job, out in zip(live, outcomes):
            self._finish_attempt(
                job,
                job.make_result(
                    out.status,
                    done,
                    cause=out.cause,
                    x=out.x,
                    rel_residual=out.rel_residual,
                    cycles=out.cycles,
                    batched=len(live),
                    stalled=out.stalled,
                    telemetry=out.telemetry,
                    service_s=done - job.t_dispatch,
                ),
            )
        return crashed

    def _solver_for(self, ref: OperatorRef) -> AdditiveMultigrid:
        with self._state_lock:
            solver = self._solvers.get(ref.fingerprint)
        if solver is not None:
            return solver
        # Cold path outside the lock: the hierarchy build is seconds at
        # large sizes, and cached_setup_hierarchy already dedups
        # concurrent same-key builds (first insertion wins).
        hierarchy = cached_setup_hierarchy(ref.A, ref.options)
        built = Multadd(
            hierarchy,
            smoother=self.config.smoother,
            **ref.solver_kwargs,  # type: ignore[arg-type]
        )
        with self._state_lock:
            return self._solvers.setdefault(ref.fingerprint, built)

    def _context_for(self, job: Job, solver: AdditiveMultigrid) -> ColumnContext:
        spec = job.spec
        # The column's own guard and telemetry, the guard anchored to
        # this column's ||b||; the injector persists across retries.
        run = RunContext(
            "serve", solver.ngrids, float(np.linalg.norm(spec.b)), guard=self.config.guard_policy
        )
        return ColumnContext(
            tol=spec.tol,
            tmax=spec.tmax,
            divergence_threshold=spec.divergence_threshold,
            t_deadline=job.t_deadline,
            injector=self._injector_for(job, solver.ngrids),
            guard=run.guard,
            telemetry=run.telemetry,
        )

    def _injector_for(self, job: Job, ngrids: int) -> Optional[FaultInjector]:
        plan = self.config.fault_plans.get(job.spec.tenant)
        if plan is None or not plan.active:
            return None
        with self._state_lock:
            injector = self._injectors.get(job.job_id)
            if injector is None:
                # One injector per *job*, persisted across retries: a
                # one-shot crash sentence is served once, so the retry
                # runs clean instead of crash-looping.  The per-job
                # seed offset keeps tenant streams independent.
                per_job = replace(plan, seed=plan.seed + job.job_id)
                injector = FaultInjector(per_job, ngrids)
                self._injectors[job.job_id] = injector
            return injector

    # -- completion ----------------------------------------------------
    def _finish_attempt(self, job: Job, result: JobResult) -> None:
        if result.status == FAILED and self._schedule_retry(job):
            return
        self._complete(job, result)

    def _schedule_retry(self, job: Job) -> bool:
        """Park a failed job for re-admission after its backoff; False
        if the retry budget, the remaining deadline or shutdown rule
        the retry out (the failed result then completes the job)."""
        if job.attempts > job.spec.retries:
            return False
        delay = self.config.backoff_base_s * (2.0 ** (job.attempts - 1))
        with self._state_lock:
            # Checked under the lock stop() drains the retries with: a
            # retry parked after that drain would never end.
            if self._stop.is_set():
                return False
            delay *= 1.0 + self.config.backoff_jitter * float(self._rng.random())
            due = perf_counter() + delay
            if due >= job.t_deadline:
                return False
            self._bump("serve.retries")
            self._bump(f"serve.retries.{job.spec.tenant}")
            self._retries.append((due, job))
        return True

    def _complete(self, job: Job, result: JobResult) -> None:
        self._record_breaker(job, result)
        job.ticket.complete(result)
        tenant = job.spec.tenant
        self._bump(f"serve.jobs.{result.status}")
        self._bump(f"serve.jobs.{result.status}.{tenant}")
        if result.cause:
            self._bump(f"serve.cause.{result.status}.{result.cause}")
        if result.status == REJECTED:
            self._observe(f"serve.reject_latency_s.{tenant}", result.latency_s)
        else:
            self._observe(f"serve.latency_s.{tenant}", result.latency_s)
            self._observe(f"serve.queue_wait_s.{tenant}", result.queue_wait_s)
            slo = "met" if result.deadline_met else "missed"
            self._bump(f"serve.slo.{slo}.{tenant}")
        if result.batched > 1:
            self._bump("serve.batched_jobs")
        with self._state_lock:
            self._injectors.pop(job.job_id, None)
            self._results.append(result)

    def _record_breaker(self, job: Job, result: JobResult) -> None:
        key = job.spec.operator.fingerprint
        now = perf_counter()
        if result.status == OK:
            self.breaker.record_success(key, now)
        elif result.status == DEGRADED:
            if result.cycles > 0 and result.rel_residual < 1.0:
                self.breaker.record_success(key, now)
            else:
                # Timed out with zero cycles, or burned its whole
                # budget ending *worse* than the zero iterate (a
                # guard-throttled divergent operator looks exactly
                # like this): counts as a breaker failure.
                self.breaker.record_failure(key, now)
        elif result.status == FAILED and result.cause in _BREAKER_FAULT_CAUSES:
            self.breaker.record_failure(key, now)
        elif job.probe:
            # The probe ended without telling us anything about the
            # operator (shed/overloaded/crash/internal): release the
            # half-open slot for the next candidate.
            self.breaker.abandon_probe(key)

    # -- introspection -------------------------------------------------
    def recent_results(self) -> List[JobResult]:
        with self._state_lock:
            return list(self._results)

    def stats(self) -> Dict[str, object]:
        """One inspectable snapshot of the whole serving stack."""
        return {
            "queue_depth": self.admission.depth(),
            "tenant_depths": self.admission.tenant_depths(),
            "breaker": self.breaker.snapshot(),
            "setup_cache": setup_cache_info(),
            "metrics": self.metrics.flatten(),
            "results": len(self._results),
            "workers_alive": len(self.alive_threads()),
        }
