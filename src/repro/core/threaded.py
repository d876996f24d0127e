"""Real-thread shared-memory executor (the OpenMP substitute).

One Python thread per grid runs the Algorithm-5 loop against shared
NumPy arrays, with race handling delegated to the
:mod:`repro.core.writes` policies; the run's wiring, stopping
criterion, correction loop and supervisor come from
:mod:`repro.core.run`.  Under CPython's GIL the threads interleave
rather than truly overlap, so wall-clock speedups are *not*
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
    correction_loop,
    row_blocks,
    start_residual,
)
from .writes import WRITES, WriteObserver, WritePolicy, make_write_policy

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
    x0: Optional[np.ndarray] = None,
    divergence_threshold: float = 1e6,
    timeout: float = 600.0,
    monitor_interval: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    guard: Optional[GuardPolicy] = None,
    observe: Optional[Callable[[WritePolicy], WriteObserver]] = None,
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

    ``observe`` is called on each shared-vector write policy after
    construction (the iterate's first, then the residual's) and its
    result is attached as that policy's
    :class:`~repro.core.writes.WriteObserver`, which rides the policy's
    stripe sweep inside its critical sections — the hook
    :class:`repro.analysis.racecheck.CheckedWrite` uses to instrument
    a run with happens-before checking without changing its
    synchronization.

    ``tracer`` is the parallel observability hook: both shared-vector
    policies are observed by a :class:`~repro.observe.TracedPolicy`,
    and each worker records into its own per-thread ring buffer (no
    cross-thread locking on the hot path), merged by
    ``tracer.events()`` after the run.  Event times are wall seconds
    from the run's start.  A policy has one observer, so ``observe``
    together with ``tracer`` (or ``live``, which implies one) raises
    :class:`ValueError`.

    ``live`` (see :class:`~repro.core.run.RunContext`) turns the
    residual monitor on at the snapshot cadence when
    ``monitor_interval`` is unset; an ``alert_stop`` alert sets the
    run's stop event, and the aborted run is reported ``stalled``
    (never ``diverged`` unless the residual actually blew up).
    """
    check_choice("rescomp", rescomp, RESCOMP)
    check_choice("write", write, WRITES)
    if observe is not None and (tracer is not None or live is not None):
        raise ValueError("a write policy has one observer: pass observe or a tracer, not both")
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

    xpol = make_write_policy(write, n)
    rpol = make_write_policy(write, n)
    traced_x: Optional["TracedPolicy"] = None
    if tracer is not None:
        # Imported lazily: repro.observe imports repro.core.writes, so a
        # module-level import here would be circular.
        from ..observe.tracer import TracedPolicy as _TracedPolicy

        traced_x = xpol.observer = _TracedPolicy(tracer, "x")
        rpol.observer = _TracedPolicy(tracer, "r")
    elif observe is not None:
        xpol.observer = observe(xpol)
        rpol.observer = observe(rpol)

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
        # A restarted worker re-syncs from the shared iterate instead
        # of assuming the initial residual (its replica is gone).
        r_local = (b - A @ xpol.read(x)) if resync else r_start.copy()
        step = GridStep(rescomp, A, b, rows[k], (x, r, xpol, rpol))
        try:
            # An injected crash just returns: the thread dies fail-stop.
            correction_loop(
                ctx, crit, solver.correction, {k: step}, {k: r_local}, shards[k],
                heartbeats=sup.heartbeats, slot=k, clock=_time.perf_counter,
                deadline=sup.deadline, stopped=stop_event.is_set, stop=stop_event.set,
                nb=nb, threshold=divergence_threshold,
                trace=tracer.record_here if tracer is not None else None,
                staleness=traced_x.last_staleness if traced_x is not None else None,
            )
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
