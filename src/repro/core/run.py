"""One run harness for the asynchronous executors.

Algorithm 5 is one algorithm whatever executes it: every grid adds
corrections to a shared iterate and stops under Criterion 1 or 2
(Section V).  The sequential engine, the threaded and procs executors,
the distributed simulator and the server's blocked batch loop differ
only in how the grids interleave, so each supplies its own loop and
takes the rest from here: :class:`RunContext` (faults, guard,
telemetry, tracing, live session, kernel stats, correction screening,
the :class:`RunResult`), :class:`Criterion`, :func:`exploded` and
:func:`final_verdict`, and for the threaded and procs workers the
:func:`correction_loop`, the :class:`GridStep` commit and the
:class:`Supervisor`.  The Section-III model simulators
(:mod:`repro.core.models`) stop by :class:`Criterion` and return
:class:`RunResult` too.

:mod:`repro.observe` is imported only inside functions: importing an
executor must not load the observability layer (procs workers import
this module, and their memory counts toward every procs run).
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import kernels
from ..linalg import two_norm
from ..resilience import FaultInjector, FaultPlan, FaultTelemetry, Guard, GuardPolicy

if TYPE_CHECKING:  # runtime import would cycle through repro.observe
    from ..observe.live import LiveConfig, LiveSession, LiveSummary
    from ..observe.tracer import Tracer, TraceSummary

__all__ = [
    "CRITERIA",
    "RESCOMP",
    "WORKER_ERRORS",
    "Criterion",
    "GridStep",
    "RunContext",
    "RunResult",
    "Supervisor",
    "check_choice",
    "correction_loop",
    "exploded",
    "final_verdict",
    "row_blocks",
    "screen_correction",
    "start_residual",
]

RESCOMP = ("local", "global", "rupdate")
CRITERIA = ("criterion1", "criterion2")

#: The failure classes a worker's numerical kernel can actually raise.
#: Anything else escapes to ``threading.excepthook`` (or kills the
#: worker process): an unknown exception type should be loudly fatal,
#: not silently folded into a result.
WORKER_ERRORS = (
    ArithmeticError,
    AttributeError,
    LookupError,
    MemoryError,
    RuntimeError,
    TypeError,
    ValueError,
    np.linalg.LinAlgError,
)


def check_choice(name: str, value: str, allowed: Tuple[str, ...]) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}")


@dataclass
class RunResult:
    """Outcome of one asynchronous run, whichever executor or
    Section-III model simulator ran it.

    ``corrects`` follows the paper's Table-I definition: the average
    number of corrections per grid.  ``wall_time`` is wall seconds
    (threaded, procs) or simulated seconds (distributed); the engine's
    clock is its ``micro_steps``, and a model's ``micro_steps`` are the
    time instants it simulated.  A field an executor has no use for
    keeps its default: ``errors`` (worker tracebacks) belongs to
    threaded and procs; ``micro_steps`` to the engine and the models;
    ``checkpoint_results`` and ``activity_trace`` to the engine (the
    last also to distributed); ``workers`` and ``deterministic`` to
    procs; ``strategy``, ``messages``, ``dropped``, ``flops_total``,
    ``nranks``, ``degraded`` and ``membership`` to distributed.
    """

    x: np.ndarray
    rel_residual: float
    counts: np.ndarray
    wall_time: float = 0.0
    diverged: bool = False
    stalled: bool = False
    """The run ended without satisfying its stopping criterion (a dead
    grid, a stall past the budget, a timeout or an alert stop).  The
    paper's "no deadlock" claim shows up as a stalled-but-finite run,
    never a hang."""
    degraded: bool = False
    """Elastic runs: finished (no divergence, no stall) below the
    commissioned strength — fewer ranks than the initial pool, or
    parked grids short of ``tmax``.  Success with a footnote."""
    errors: List[str] = field(default_factory=list)
    residual_samples: List[Tuple[float, float]] = field(default_factory=list)
    """``(t, rel_residual)``: monitor samples in wall seconds (threaded,
    procs), or with ``track_trace`` one per correction — ``t`` the
    correction index (engine) or the simulated time (distributed) — or
    one per time instant, numbered from 0 (models)."""
    telemetry: FaultTelemetry = field(default_factory=FaultTelemetry)
    trace_summary: Optional["TraceSummary"] = None
    live_summary: Optional["LiveSummary"] = None
    kernel_backend: str = "numpy"
    micro_steps: int = 0
    checkpoint_results: List[Tuple[int, float, float]] = field(default_factory=list)
    """``(vcycles, rel_residual, corrects)`` at each checkpoint; valid
    with criterion 2, where a longer run passes through exactly the
    states of shorter runs."""
    activity_trace: List[Tuple[int, float, float]] = field(default_factory=list)
    """``(grid, start, end)`` of each correction — render with
    :func:`repro.utils.ascii_timeline` to see the interleaving."""
    workers: int = 0
    deterministic: bool = False
    strategy: str = ""
    messages: int = 0
    dropped: int = 0
    flops_total: float = 0.0
    nranks: int = 0
    membership: Dict[str, int] = field(default_factory=dict)

    @property
    def corrects(self) -> float:
        return float(self.counts.mean())


class Criterion:
    """Criterion 1 or 2 (Section V) over a counts array and a done flag.

    Runs stop by counting corrections, never by a residual norm (a norm
    is a synchronization).  Under ``criterion1`` grid ``k`` stops after
    its own ``tmax`` corrections; under ``criterion2`` every grid keeps
    correcting until all have ``tmax``, and whichever grid's
    :meth:`record` sees that raises the done flag (the paper's master
    thread, without burning a thread on it).

    Lock-free for threads and processes alike: every count has one
    writer, the live worker that owns the grid (a restart replaces a
    dead worker, never runs beside it).  The criterion-2 check reads the
    other counters racily; they only grow, so the worst case raises the
    flag one correction late, and the flag only goes from 0 to 1.
    ``counts`` is a grid count (fresh private counters) or an int64
    array; it and ``done`` (one int64 slot) may live in shared memory.
    """

    def __init__(
        self,
        kind: str,
        tmax: int,
        counts: Union[int, np.ndarray],
        done: Optional[np.ndarray] = None,
    ) -> None:
        check_choice("criterion", kind, CRITERIA)
        if tmax < 1:
            raise ValueError("tmax must be >= 1")
        self.tmax = int(tmax)
        if not isinstance(counts, np.ndarray):
            counts = np.zeros(int(counts), dtype=np.int64)
        self.counts = counts
        self.done = np.zeros(1, dtype=np.int64) if done is None else done
        self._flag = kind == "criterion2"

    def record(self, k: int) -> None:
        self.counts[k] += 1
        if self._flag and not self.done[0] and bool(np.all(self.counts >= self.tmax)):
            self.done[0] = 1

    def grid_done(self, k: int) -> bool:
        return bool(self.done[0]) if self._flag else bool(self.counts[k] >= self.tmax)

    def all_done(self) -> bool:
        return bool(self.done[0]) if self._flag else bool(np.all(self.counts >= self.tmax))


def row_blocks(work: np.ndarray, n: int) -> List[Tuple[int, int]]:
    """Contiguous row blocks proportional to each grid's share of the
    work: the rows a grid refreshes in the global-res no-wait parfor
    (Section IV's thread partition)."""
    shares = np.maximum(work / work.sum(), 1e-6)
    cuts = np.concatenate([[0.0], np.cumsum(shares) / shares.sum()])
    bounds = np.round(cuts * n).astype(np.int64)
    return [(int(bounds[g]), int(bounds[g + 1])) for g in range(len(work))]


def start_residual(A: Any, b: np.ndarray, x0: Optional[np.ndarray]) -> np.ndarray:
    """The residual every grid starts from (Algorithm 5 line 1):
    ``b - A x0``, or a copy of ``b`` when the run starts from zero."""
    if x0 is None:
        return b.copy()
    return b - A @ np.asarray(x0, dtype=np.float64)


def screen_correction(
    e: np.ndarray,
    injector: Optional[FaultInjector],
    guard: Optional[Guard],
    telemetry: FaultTelemetry,
) -> Optional[np.ndarray]:
    """One correction through fault injection and the guard: the vector
    to commit (possibly corrupted, or clamped), or None when the guard
    rejects it.  A concurrent worker passes its own single-writer
    ``telemetry`` shard."""
    if injector is not None:
        e = injector.corrupt(e, telemetry)
    if guard is not None:
        return guard.screen(e, telemetry)
    return e


def exploded(v: np.ndarray, threshold: float, ref_norm: float) -> bool:
    """The divergence guard: ``v`` (an iterate or a grid's residual)
    has a non-finite entry or one past ``threshold * max(||b||, 1)``."""
    m = float(np.abs(v).max()) if v.size else 0.0
    return not np.isfinite(m) or m > threshold * max(ref_norm, 1.0)


def final_verdict(
    rel: float, threshold: float, diverged: bool, stalled: bool, done: bool, suspect: bool
) -> Tuple[bool, bool]:
    """``(diverged, stalled)`` at the end of a run.

    A non-finite residual, or one past ``threshold``, is divergence
    whatever the loop saw.  A run that may have lost a grid
    (``suspect``: injected faults, elastic membership, a timeout or an
    alert stop) and did not meet its criterion (``done``) stalled.
    Divergence wins.
    """
    diverged = bool(diverged or not np.isfinite(rel) or rel > threshold)
    return diverged, bool((stalled or (suspect and not done)) and not diverged)


class RunContext:
    """The wiring one run needs around its loop, built once.

    Builds the run's :class:`FaultTelemetry`, a :class:`FaultInjector`
    when ``faults`` is active and a :class:`Guard` anchored at
    ``ref_norm`` when ``guard`` is given.  ``live`` (a
    :class:`~repro.observe.live.LiveConfig`) runs the streaming snapshot
    collector, with its optional scrape endpoint, JSONL stream and
    sampling profiler, alongside the run and implies tracing: a tracer
    on the backend's ``clock`` is created when none was passed.  The
    collector only reads, so results are those of the same run without
    it; an ``alert_stop`` alert aborts the run, reported ``stalled``.
    :meth:`begin` starts the instrumentation, :meth:`result` ends it
    with the digests on ``trace_summary`` and ``live_summary``.
    """

    def __init__(
        self,
        backend: str,
        ngrids: int,
        ref_norm: float,
        faults: Optional[FaultPlan] = None,
        guard: Optional[GuardPolicy] = None,
        tracer: Optional["Tracer"] = None,
        live: Optional["LiveConfig"] = None,
        clock: str = "s",
    ) -> None:
        if live is not None and tracer is None:
            from ..observe.tracer import Tracer as _Tracer

            tracer = _Tracer(clock=clock)
        self.backend = backend
        self.tracer = tracer
        self.live = live
        self.telemetry = FaultTelemetry()
        self.injector = (
            FaultInjector(faults, ngrids) if faults is not None and faults.active else None
        )
        self.guard = Guard(guard, ref_norm, self.telemetry) if guard is not None else None
        self.screens = self.injector is not None or self.guard is not None
        self.live_session: Optional["LiveSession"] = None
        self._zeros: Optional[np.ndarray] = None
        self._stats_were_on = False
        self._kstats0: Dict[str, Tuple[int, float]] = {}

    def screen(self, e: np.ndarray, telemetry: Optional[FaultTelemetry] = None) -> np.ndarray:
        """``e`` through :func:`screen_correction`, or a cached zero
        vector (read-only) when the guard rejects it: the grid simply
        computes its next correction (Coleman-style extra work, not
        divergence)."""
        out = screen_correction(
            e, self.injector, self.guard, self.telemetry if telemetry is None else telemetry
        )
        if out is not None:
            return out
        if self._zeros is None or self._zeros.shape != e.shape:
            self._zeros = np.zeros(e.shape)
        return self._zeros

    def correction_fn(
        self, correction: Callable[[int, np.ndarray], np.ndarray]
    ) -> Callable[[int, np.ndarray], np.ndarray]:
        """``correction`` then :meth:`screen`; ``correction`` itself when
        nothing screens, so a fault-free run pays no wrapper call."""
        if not self.screens:
            return correction

        def screened(k: int, r: np.ndarray) -> np.ndarray:
            return self.screen(correction(k, r))

        return screened

    def fault_due(
        self, k: int, counts: np.ndarray, telemetry: Optional[FaultTelemetry] = None
    ) -> Optional[Tuple[str, float]]:
        """The injected fault due at grid ``k``'s correction boundary,
        ``("crash", 0.0)`` or ``("stall", duration)``, counted into
        ``telemetry`` (default: the run's); None when there is none."""
        if self.injector is None:
            return None
        tel = self.telemetry if telemetry is None else telemetry
        if self.injector.crash_due(k, int(counts[k])):
            tel.bump("injected_crashes")
            return "crash", 0.0
        dur = self.injector.stall_due(k, int(counts[k]))
        if dur is None:
            return None
        tel.bump("injected_stalls")
        return "stall", float(dur)

    def begin(self, stop: Optional[Callable[[], None]] = None) -> None:
        """Start the instrumentation.  A traced run times every kernel
        call (so the trace can say where the time went) and re-zeroes
        the tracer's wall clock; ``live`` starts its session.  ``stop``
        is the executor's abort hook for an ``alert_stop`` alert;
        executors without one poll :attr:`alert_stopped`."""
        tracer = self.tracer
        if tracer is None:
            return
        self._stats_were_on = kernels.enable_stats(True)
        self._kstats0 = kernels.stats()
        tracer.restart_clock()
        if self.live is None:
            return
        from ..observe.live import start_live

        callback: Optional[Callable[[], None]] = None
        if stop is not None:
            abort = stop

            def on_alert() -> None:
                # Stop first: the counter bump must never delay (or, if
                # it ever raises, prevent) the abort itself.
                abort()
                self.telemetry.bump("alert_stops")

            callback = on_alert
        self.live_session = start_live(
            self.live, tracer, backend=self.backend, stop_callback=callback
        )

    def checkpoint(
        self, x: np.ndarray, rel: float, grid: int, t: float, worker: Optional[str] = None
    ) -> Optional[np.ndarray]:
        """Offer the iterate and its relative residual to the guard's
        checkpoint/rollback (any action traced as a ``guard`` event):
        the checkpointed iterate to restore when ``rel`` spiked or is
        not finite and the rollback budget allows, else None."""
        assert self.guard is not None
        action, x_restore = self.guard.checkpoint_or_rollback(x, rel)
        if self.tracer is not None and action != "none":
            self.tracer.record("guard", grid, t, tag=action, worker=worker)
        return x_restore if action == "rollback" else None

    @property
    def alert_stopped(self) -> bool:
        return self.live_session is not None and self.live_session.stop_requested

    def result(
        self, x: np.ndarray, rel: float, counts: np.ndarray, t_end: float, **fields: Any
    ) -> RunResult:
        """End the run: one ``kernel`` event per kernel at ``t_end`` (the
        backend's clock) closes the stats bracket, and the live session
        finishes before the trace summary so the collector's alert
        events are part of it."""
        tracer = self.tracer
        if tracer is not None:
            for kname, (calls, secs) in sorted(kernels.stats_delta(self._kstats0).items()):
                tracer.record("kernel", -1, t_end, float(secs), float(calls), kname)
            kernels.enable_stats(self._stats_were_on)
        live_summary = self.live_session.finish() if self.live_session is not None else None
        self.live_session = None
        return RunResult(
            x=x,
            rel_residual=rel,
            counts=counts,
            telemetry=self.telemetry,
            trace_summary=tracer.summary() if tracer is not None else None,
            live_summary=live_summary,
            kernel_backend=kernels.current_backend(),
            **fields,
        )

    def close(self) -> None:
        """Teardown for a run that raised: stop a live session still open."""
        session, self.live_session = self.live_session, None
        if session is not None:
            try:
                session.finish()
            except Exception:  # pragma: no cover - teardown best effort
                pass


class GridStep:
    """The commit half of one grid's correction step in a concurrent
    worker (threaded, procs) over the shared vectors
    ``shared = (x, r, xpol, rpol)``.

    :meth:`commit` adds the screened correction to the shared iterate
    through its write policy and returns the grid's next residual:
    recomputed from the shared iterate (local-res), refreshed on the
    grid's owned ``rows`` of the shared residual and read back
    (global-res, the no-wait parfor), or updated by ``-A e`` (rupdate).
    Buffers are allocated once per grid, never per correction, and
    belong to the calling worker alone.
    """

    def __init__(
        self,
        rescomp: str,
        A: Any,
        b: np.ndarray,
        rows: Tuple[int, int],
        shared: Tuple[np.ndarray, np.ndarray, Any, Any],
    ) -> None:
        self.rescomp = rescomp
        self.A = A
        self.b = b
        self.rows = rows
        self.x, self.r, self.xpol, self.rpol = shared
        self.n = int(A.shape[0])
        lo, hi = rows
        self.out = np.empty(self.n)
        self.de = np.empty(self.n) if rescomp == "rupdate" else None
        self.fresh = np.empty(hi - lo) if rescomp == "global" and hi > lo else None

    def commit(self, e: np.ndarray) -> np.ndarray:
        n = self.n
        self.xpol.add(self.x, e)
        if self.de is not None:  # rupdate
            kernels.range_matvec(self.A, e, 0, n, out=self.de)
            np.negative(self.de, out=self.de)
            self.rpol.add(self.r, self.de)
            return self.rpol.read(self.r)
        x_loc = self.xpol.read(self.x)
        if self.rescomp == "local":
            return kernels.range_residual(self.A, x_loc, self.b, 0, n, out=self.out)
        if self.fresh is not None:
            lo, hi = self.rows
            kernels.range_residual(self.A, x_loc, self.b, lo, hi, out=self.fresh)
            self.rpol.assign_slice(self.r, lo, hi, self.fresh)
        return self.rpol.read(self.r)


def correction_loop(
    ctx: RunContext,
    crit: Criterion,
    correction: Callable[[int, np.ndarray], np.ndarray],
    steps: Dict[int, GridStep],
    r_local: Dict[int, np.ndarray],
    telemetry: Any,
    *,
    heartbeats: np.ndarray,
    slot: int,
    clock: Callable[[], float],
    deadline: float,
    stopped: Callable[[], bool],
    stop: Callable[[], None],
    nb: float,
    threshold: float,
    trace: Optional[Callable[..., None]] = None,
    staleness: Optional[Callable[[], float]] = None,
) -> bool:
    """One concurrent worker's Algorithm-5 loop, threads and processes
    alike: round-robin over the worker's grids (the keys of ``steps``)
    until each meets the criterion or the run stops.

    Per correction: stamp ``heartbeats[slot]`` on ``clock``, serve the
    due fault (a stall sleeps, capped at ``deadline``), compute
    ``correction(g, r_local[g])``, screen it, commit it through
    ``steps[g]`` (which yields the grid's next replica residual), count
    it, and stop the run through ``stop`` when that residual exploded.
    ``telemetry`` is the worker's single-writer counter shard.
    ``trace`` is the worker's event sink, called like
    :meth:`~repro.observe.Tracer.record_here`; ``correct_end`` carries
    ``staleness()``, or -1 (unknown) when the backend has no read
    epochs.  Returns True when an injected crash ended the worker,
    which the backend then makes a real fail-stop death.
    """
    pending = list(steps)
    while pending:
        for g in list(pending):
            if stopped():
                return False
            if crit.grid_done(g):
                pending.remove(g)
                continue
            heartbeats[slot] = clock()
            fault = ctx.fault_due(g, crit.counts, telemetry)
            if fault is not None:
                fkind, dur = fault
                if trace is not None:
                    trace("fault", a=dur, tag=fkind, grid=g)
                if fkind == "crash":
                    return True
                _time.sleep(min(dur, max(0.0, deadline - clock())))
            if trace is not None:
                trace("correct_begin", a=float(crit.counts[g]) + 1.0, grid=g)
            e = correction(g, r_local[g])
            if ctx.screens:
                e = ctx.screen(e, telemetry)
            r_local[g] = steps[g].commit(e)
            crit.record(g)
            heartbeats[slot] = clock()
            if trace is not None:
                trace(
                    "correct_end",
                    a=float(crit.counts[g]),
                    b=staleness() if staleness is not None else -1.0,
                    grid=g,
                )
                trace("residual", a=float(two_norm(r_local[g]) / nb), tag="local", grid=g)
            # Divergence guard on the *local* view — no extra sync.
            if exploded(r_local[g], threshold, nb):
                stop()
                return False
    return False


class Supervisor:
    """Liveness, restart and checkpointing of concurrent workers.

    The threaded and procs executors supervise their workers with this
    one loop.  Unit ``u`` is one worker, a thread or a process owning
    the grids ``units[u]``; the backend's ``spawn(u, resync)`` starts
    it, and it stamps ``heartbeats[u]`` (on ``clock``) every iteration.
    Every ``poll_s`` the supervisor flags a worker alive but silent past
    the guard's ``watchdog_timeout`` as hung; restarts a worker that
    died before its grids were done, re-synced from the shared iterate,
    while the guard's restart budget lasts, else stops the run as
    stalled (a dead grid can never meet the criterion); and lets the
    guard checkpoint or roll back the shared iterate every
    ``checkpoint_period_s``.  A monitor thread samples the true relative
    residual every ``interval`` seconds into ``samples`` — the paper's
    residual-vs-time measurement, outside the solve path (its racy
    reads only blur samples); ``live`` needs residuals, so its cadence
    is the default.  ``shared`` is ``(x, r, xpol, rpol)``.
    """

    def __init__(
        self,
        ctx: RunContext,
        crit: Criterion,
        units: Sequence[Sequence[int]],
        A: Any,
        b: np.ndarray,
        shared: Tuple[np.ndarray, np.ndarray, Any, Any],
        *,
        clock: Callable[[], float],
        poll_s: float,
        timeout: float,
        interval: Optional[float],
        stopped: Callable[[], bool],
        stop: Callable[[], None],
        heartbeats: Optional[np.ndarray] = None,
    ) -> None:
        if interval is None and ctx.live is not None:
            interval = ctx.live.interval_s
        if interval is not None and interval <= 0:
            raise ValueError("monitor_interval must be positive")
        self.ctx = ctx
        self.crit = crit
        self.units = [tuple(u) for u in units]
        self.A = A
        self.b = b
        self.nb = two_norm(b) or 1.0
        self.shared = shared
        self.clock = clock
        self.poll_s = poll_s
        self.interval = interval
        self.stopped = stopped
        self.stop = stop
        self.t0 = clock()
        self.deadline = self.t0 + timeout
        self.heartbeats = np.empty(len(self.units)) if heartbeats is None else heartbeats
        self.heartbeats[...] = self.t0
        self.samples: List[Tuple[float, float]] = []
        self.handles: List[Any] = []
        self.timed_out = False
        self.stalled = False
        self.wall = 0.0
        self._monitor_stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    def rel(self, x: np.ndarray) -> float:
        """Relative residual of the iterate ``x``."""
        return float(kernels.residual_norm(self.A, x, self.b) / self.nb)

    def _sample(self) -> None:
        now = self.clock() - self.t0
        rel = self.rel(self.shared[0])  # racy read: sampling only
        self.samples.append((now, rel))
        if self.ctx.tracer is not None:
            self.ctx.tracer.record("residual", -1, now, rel, 0.0, "global", worker="monitor")

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.interval):
            self._sample()

    def stop_monitor(self) -> None:
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None

    def _guard_event(self, grid: int, tag: str, t: float) -> None:
        if self.ctx.tracer is not None:
            self.ctx.tracer.record("guard", grid, t, tag=tag, worker="supervisor")

    def _checkpoint(self) -> None:
        x, r, xpol, rpol = self.shared
        x_snap = xpol.read(x)
        t = self.clock() - self.t0
        x_restore = self.ctx.checkpoint(x_snap, self.rel(x_snap), -1, t, "supervisor")
        if x_restore is not None:
            n = self.b.shape[0]
            out = kernels.scratch(n, slot=5)
            r_new = kernels.range_residual(self.A, x_restore, self.b, 0, n, out=out)
            xpol.assign_slice(x, 0, n, x_restore)
            rpol.assign_slice(r, 0, n, r_new)

    def run(
        self,
        spawn: Callable[[int, bool], Any],
        exited: Optional[Callable[[int], bool]] = None,
        poll: Optional[Callable[[], None]] = None,
    ) -> None:
        """Begin the run (with :attr:`stop` as the alert abort), start the
        monitor and every worker, and supervise until the criterion is
        met, the run stops or the deadline passes; then stop and join
        the workers and measure ``wall``.

        ``spawn`` returns a handle with ``is_alive()`` and
        ``join(timeout)``.  ``exited(u)`` says a dead worker left on its
        own (a clean stop or a reported error) and needs no restart;
        ``poll()`` runs once per tick.
        """
        ctx, crit, grd = self.ctx, self.crit, self.ctx.guard
        pol = grd.policy if grd is not None else None

        def start(u: int, resync: bool) -> Any:
            self.heartbeats[u] = self.clock()
            return spawn(u, resync)

        if self.interval is not None:
            # The starting residual is on record before the live session
            # starts, so its endpoint never serves a run without one.
            self._sample()
        ctx.begin(stop=self.stop)
        self.handles = [start(u, False) for u in range(len(self.units))]
        if self.interval is not None:
            # Sampling starts once the workers are up: it must not compete
            # for the parent's GIL and cores while procs pickles bundles.
            self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
            self._monitor.start()
        dead = [False] * len(self.units)
        hung = [False] * len(self.units)
        next_ckpt = self.t0 + pol.checkpoint_period_s if pol is not None else np.inf
        while self.clock() < self.deadline:
            if crit.all_done() or self.stopped():
                break
            now = self.clock()
            for u, grids in enumerate(self.units):
                done = all(crit.grid_done(g) for g in grids)
                if self.handles[u].is_alive():
                    if (
                        pol is not None
                        and pol.watchdog
                        and not hung[u]
                        and not done
                        and now - float(self.heartbeats[u]) > pol.watchdog_timeout
                    ):
                        hung[u] = True
                        ctx.telemetry.bump("watchdog_detections")
                        self._guard_event(grids[0], "watchdog", now - self.t0)
                    continue
                if done or (exited is not None and exited(u)):
                    continue
                # Fail-stop death: restart, re-synced, while the budget lasts.
                ctx.telemetry.bump("watchdog_detections")
                self._guard_event(grids[0], "watchdog", now - self.t0)
                if grd is not None and pol is not None and grd.try_restart():
                    self._guard_event(grids[0], "restart", now - self.t0)
                    if pol.restart_delay:
                        _time.sleep(pol.restart_delay)
                    hung[u] = False
                    self.handles[u] = start(u, True)
                else:
                    dead[u] = True
            if any(dead):
                self.stalled = True
                self.stop()
                break
            if not any(h.is_alive() for h in self.handles):
                break
            if pol is not None and now >= next_ckpt:
                self._checkpoint()
                next_ckpt = self.clock() + pol.checkpoint_period_s
            if poll is not None:
                poll()
            _time.sleep(self.poll_s)

        self.timed_out = self.clock() >= self.deadline and any(h.is_alive() for h in self.handles)
        if self.timed_out or self.stalled:
            self.stop()
        for h in self.handles:
            h.join(timeout=5.0)
        self.wall = self.clock() - self.t0
        self.stop_monitor()

    def result(
        self, x: np.ndarray, counts: np.ndarray, threshold: float, errors: List[str], **fields: Any
    ) -> RunResult:
        """The run's :class:`RunResult` from its final iterate ``x``.
        In the :func:`final_verdict`, a stop that no worker error,
        timeout, dead worker or alert explains came from a worker's
        divergence check."""
        rel = self.rel(x)
        alert = self.ctx.alert_stopped
        diverged = self.stopped() and not (self.timed_out or self.stalled or alert or errors)
        suspect = self.timed_out or alert or self.ctx.injector is not None
        diverged, stalled = final_verdict(
            rel, threshold, diverged, self.stalled, self.crit.all_done(), suspect
        )
        return self.ctx.result(
            x,
            rel,
            counts,
            t_end=self.wall,
            wall_time=self.wall,
            diverged=diverged,
            stalled=stalled,
            errors=errors,
            residual_samples=self.samples,
            **fields,
        )
