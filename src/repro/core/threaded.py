"""Real-thread shared-memory executor (the OpenMP substitute).

One Python thread per grid runs the Algorithm-5 loop against shared
NumPy arrays, with race handling delegated to the
:mod:`repro.core.writes` policies; the run's wiring, stopping
criterion and supervisor come from :mod:`repro.core.run`.  Under
CPython's GIL the threads interleave rather than truly overlap, so
wall-clock speedups are *not*
meaningful here (the performance model covers that); what this executor
delivers is genuine nondeterministic asynchrony — real stale reads,
real partially-committed atomic writes, real Criterion-1/2 behaviour —
for the convergence experiments (Figs. 4/5 and the corrects/V-cycles
columns of Table I).

Threading notes (see DESIGN.md): the paper assigns *groups* of threads
to a grid and synchronizes inside the group; a GIL runtime gains
nothing from intra-grid thread groups, so each grid gets one worker and
the intra-grid barriers are implicit in its sequential kernel calls.
The grid-to-thread *work partition* still matters for the performance
model and is computed there.
"""

from __future__ import annotations

import threading
import time as _time
import traceback
from typing import TYPE_CHECKING, Any, Callable, List, Optional

import numpy as np

from ..linalg import two_norm
from ..resilience import FaultPlan, FaultTelemetry, GuardPolicy
from .run import (
    RESCOMP,
    WORKER_ERRORS,
    Criterion,
    GridStep,
    RunContext,
    RunResult,
    Supervisor,
    check_choice,
    exploded,
    row_blocks,
    start_residual,
)
from .writes import WritePolicy, make_write_policy

if TYPE_CHECKING:  # runtime import would cycle through repro.observe
    from ..observe.live import LiveConfig
    from ..observe.tracer import TracedPolicy, Tracer

__all__ = ["run_threaded"]


def _start_thread(target: Callable[[int, bool], None], k: int, resync: bool) -> threading.Thread:
    th = threading.Thread(target=target, args=(k, resync), daemon=True)
    th.start()
    return th


def run_threaded(
    solver: Any,
    b: np.ndarray,
    tmax: int = 20,
    rescomp: str = "local",
    write: str = "lock",
    criterion: str = "criterion1",
    stripe: int = 1024,
    x0: Optional[np.ndarray] = None,
    divergence_threshold: float = 1e6,
    timeout: float = 600.0,
    monitor_interval: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    guard: Optional[GuardPolicy] = None,
    policy_wrapper: Optional[Callable[[WritePolicy], WritePolicy]] = None,
    tracer: Optional["Tracer"] = None,
    live: Optional["LiveConfig"] = None,
) -> RunResult:
    """Run asynchronous additive multigrid with real threads.

    Parameters mirror :func:`repro.core.engine.run_async_engine`;
    ``write`` additionally accepts ``"unsafe"`` for the lost-update
    ablation.  ``timeout`` bounds the whole run's wall-clock, and the
    :class:`~repro.core.run.Supervisor` tracks liveness per worker by
    heartbeats, so a crashed or hung worker is noticed within
    ``guard.watchdog_timeout`` seconds.  ``monitor_interval`` (in
    seconds) samples the true relative residual into
    ``residual_samples``.

    ``faults`` injects real-thread faults (fail-stop worker deaths,
    ``time.sleep`` stalls, correction corruption; stall durations are
    seconds).  ``guard`` screens corrections, checkpoints/rolls back
    the shared iterate from the supervisor, and restarts dead workers
    re-synced from the current shared state.

    ``policy_wrapper`` decorates each shared-vector write policy after
    construction (applied to the iterate's policy first, then the
    residual's) — the hook
    :class:`repro.analysis.racecheck.CheckedWrite` uses to instrument
    a run with happens-before checking without changing its
    synchronization.

    ``tracer`` is the parallel observability hook: both shared-vector
    policies are wrapped in
    :class:`~repro.observe.TracedPolicy` (outside ``policy_wrapper``,
    delegating to it, so both hooks compose), each worker records into
    its own per-thread ring buffer (no cross-thread locking on the hot
    path), and the merged digest lands on ``result.trace_summary``.
    Event times are wall seconds from the run's start.

    ``live`` (see :class:`~repro.core.run.RunContext`) turns the
    residual monitor on at the snapshot cadence when
    ``monitor_interval`` is unset; an ``alert_stop`` alert sets the
    run's stop event, and the aborted run is reported ``stalled``
    (never ``diverged`` unless the residual actually blew up).
    """
    check_choice("rescomp", rescomp, RESCOMP)
    n = solver.n
    ngrids = solver.ngrids
    A = solver.A
    nb = two_norm(b) or 1.0
    ctx = RunContext("threaded", ngrids, nb, faults, guard, tracer, live)
    tracer = ctx.tracer
    crit = Criterion(criterion, tmax, ngrids)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x
    r_start = start_residual(A, b, x0)

    xpol = make_write_policy(write, n, **({"stripe": stripe} if write == "atomic" else {}))
    rpol = make_write_policy(write, n, **({"stripe": stripe} if write == "atomic" else {}))
    if policy_wrapper is not None:
        xpol = policy_wrapper(xpol)
        rpol = policy_wrapper(rpol)
    traced_x: Optional["TracedPolicy"] = None
    if tracer is not None:
        # Imported lazily: repro.observe imports repro.core.writes, so a
        # module-level import here would be circular.
        from ..observe.tracer import TracedPolicy as _TracedPolicy

        traced_x = _TracedPolicy(xpol, tracer, "x")
        xpol = traced_x
        rpol = _TracedPolicy(rpol, tracer, "r")

    rows = row_blocks(solver.work_per_grid(), n)
    stop_event = threading.Event()
    errors: List[str] = []
    errors_lock = threading.Lock()
    # Single-writer telemetry shards: each worker bumps only its own,
    # merged into the run's telemetry once at run end — no lock per bump.
    shards = [FaultTelemetry() for _ in range(ngrids)]
    sup = Supervisor(
        ctx,
        crit,
        [(k,) for k in range(ngrids)],
        A,
        b,
        (x, r, xpol, rpol),
        clock=_time.perf_counter,
        poll_s=0.002,
        timeout=timeout,
        interval=monitor_interval,
        stopped=stop_event.is_set,
        stop=stop_event.set,
    )

    def worker(k: int, resync: bool) -> None:
        if tracer is not None:
            tracer.register_worker(k)
        shard = shards[k]
        # A restarted worker re-syncs from the shared iterate instead
        # of assuming the initial residual (its replica is gone).
        r_local = (b - A @ xpol.read(x)) if resync else r_start.copy()
        step = GridStep(rescomp, A, b, rows[k], (x, r, xpol, rpol))
        try:
            while not crit.grid_done(k) and not stop_event.is_set():
                sup.heartbeats[k] = _time.perf_counter()
                fault = ctx.fault_due(k, crit.counts, shard)
                if fault is not None:
                    fkind, dur = fault
                    if tracer is not None:
                        tracer.record_here("fault", a=dur, tag=fkind)
                    if fkind == "crash":
                        return  # fail-stop: the thread just dies
                    _time.sleep(min(dur, max(0.0, sup.deadline - _time.perf_counter())))
                if tracer is not None:
                    tracer.record_here("correct_begin", a=float(crit.counts[k]) + 1.0)
                e = solver.correction(k, r_local)
                if ctx.screens:
                    e = ctx.screen(e, shard)
                r_local = step.commit(e)
                crit.record(k)
                sup.heartbeats[k] = _time.perf_counter()
                if tracer is not None:
                    tracer.record_here(
                        "correct_end",
                        a=float(crit.counts[k]),
                        b=traced_x.last_staleness() if traced_x is not None else -1.0,
                    )
                    tracer.record_here(
                        "residual", a=float(two_norm(r_local) / nb), tag="local"
                    )
                # Divergence guard on the *local* view — no extra sync.
                if exploded(r_local, divergence_threshold, nb):
                    stop_event.set()
        except WORKER_ERRORS:
            # Record the full traceback, not just str(exc): a worker
            # dies on another thread's stack, so this is the only
            # diagnosable record of where it failed.
            with errors_lock:
                errors.append(f"grid {k}:\n{traceback.format_exc()}")
            stop_event.set()

    sup.run(lambda k, resync: _start_thread(worker, k, resync))
    for shard in shards:  # single merge path for worker telemetry
        ctx.telemetry.merge(shard)
    return sup.result(x, crit.counts.copy(), divergence_threshold, errors)
