"""Sequential micro-step executor for Algorithm 5.

This engine runs the paper's shared-memory asynchronous multigrid
(Algorithm 5) *deterministically*: every grid is a coroutine whose
yield points are exactly the grid-local synchronization boundaries of
the algorithm (write ``x``, read ``x``, refresh/read ``r``), and a
seeded scheduler interleaves the coroutines one micro-step at a time.
Real threads (see :mod:`repro.core.threaded`) give true asynchrony but
irreproducible interleavings; this engine gives the same *semantics*
with replayable randomness, which is what the convergence benchmarks
need (the paper averages 20 runs for the same reason).

Semantics mapped from Section IV:

- ``rescomp="local"`` — local-res: a grid reads the shared ``x`` and
  recomputes its own fine-grid residual (Algorithm 5 line 13).
- ``rescomp="global"`` — global-res: a shared residual vector is
  refreshed piecewise; each grid's no-wait global-parfor share is the
  block of rows its threads own, so rows owned by slow grids go stale
  (Algorithm 5 lines 15-18) — the mechanism behind global-res's slower
  convergence in Fig. 4/5.
- ``rescomp="rupdate"`` — the r-Multadd variant (last bullet of the
  Algorithm 5 discussion): the shared residual is updated incrementally
  as ``r -= A e`` whenever a correction ``e`` is written.

Write policies:

- ``write="lock"`` — a grid's whole update (and a reader's whole
  snapshot) happens in one micro-step: consistent vectors.  local-res +
  lock is the only combination modeled by *semi*-async (Eq. 6), as the
  paper notes; everything else is full-async.
- ``write="atomic"`` — updates and reads are split into ``nchunks``
  chunk micro-steps that interleave with other grids' steps: readers
  observe partially-committed updates (element-consistent, vector-
  inconsistent) — the full-async component mixing of Eq. 7/10.

Scheduling: each micro-step runs one ready grid, drawn with probability
proportional to its speed.  The draw bisects one ``rng.random()`` into
the ready set's normalised cumulative weights, computed with the numpy
operations ``Generator.choice`` uses and cached per ready set, so it
picks what ``rng.choice(ready, p=w / w.sum())`` would pick and a seeded
run replays bit for bit.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from .. import kernels
from ..linalg import two_norm
from ..resilience import FaultPlan, GuardPolicy
from .run import (
    RESCOMP,
    Criterion,
    RunContext,
    RunResult,
    check_choice,
    exploded,
    final_verdict,
    row_blocks,
    start_residual,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.observe
    from ..observe.live import LiveConfig
    from ..observe.tracer import Tracer

__all__ = ["run_async_engine"]

_WRITE = ("lock", "atomic")


def _next_grid(
    rng: np.random.Generator,
    speeds: np.ndarray,
    ready: List[int],
    cdfs: Dict[Tuple[int, ...], List[float]],
) -> int:
    """The grid ``rng.choice(ready, p=w / w.sum())`` would pick, ``w =
    speeds[ready]``: one ``rng.random()`` bisected into the cumulative
    weights ``choice`` computes, cached per ready set in ``cdfs``."""
    key = tuple(ready)
    cdf = cdfs.get(key)
    if cdf is None:
        w = speeds[ready]
        p = w / w.sum()
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        c = p.cumsum()
        c /= c[-1]
        cdf = cdfs[key] = c.tolist()
    return ready[bisect.bisect_right(cdf, rng.random())]


def _grid_coroutine(
    solver: Any,
    k: int,
    b: np.ndarray,
    rescomp: str,
    nchunks: int,
    n: int,
    rows: Tuple[int, int],
    correct: Callable[[int, np.ndarray], np.ndarray],
    r0: np.ndarray,
) -> Generator:
    """Coroutine for grid ``k``; yields (op, payload) micro-steps.

    Ops understood by the scheduler:
      ("add_x", lo, hi, values)   -- commit a chunk of the correction
      ("add_r", lo, hi, values)   -- commit a chunk of -A e (rupdate)
      ("read_x", lo, hi)          -- receive x[lo:hi] via gen.send
      ("read_r", lo, hi)          -- receive r[lo:hi] via gen.send
      ("refresh_r", lo, hi, vals) -- global-res row refresh
      ("done_correction",)        -- bookkeeping barrier
    """
    bounds = np.linspace(0, n, nchunks + 1).astype(np.int64)
    chunks = [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(nchunks)
        if bounds[i + 1] > bounds[i]
    ]

    # The grid's own copy of its starting residual (Algorithm 5 line 1,
    # b - A x0); a restarted grid is re-synced with the residual of the
    # shared iterate instead.
    r_local = np.array(r0, dtype=np.float64)
    # Steady-state buffers, allocated once per coroutine: the iterate
    # snapshot, the recomputed residual, and (mode-dependent) the A·e
    # product / owned-row refresh slice.  The kernel layer fills these
    # in place, so the correction loop below allocates nothing per
    # iteration.  Buffer reuse across yields is safe because at most
    # one micro-op per grid is pending and the scheduler consumes its
    # payload before resuming the coroutine.
    x_buf = np.empty(n, dtype=np.float64)
    r_buf = np.empty(n, dtype=np.float64)
    de_buf = np.empty(n, dtype=np.float64) if rescomp == "rupdate" else None
    lo_r, hi_r = rows
    fresh_buf = (
        np.empty(hi_r - lo_r, dtype=np.float64)
        if rescomp == "global" and hi_r > lo_r
        else None
    )
    while True:
        e = correct(k, r_local)
        # --- write the correction to the shared iterate -------------
        for lo, hi in chunks:
            yield ("add_x", lo, hi, e[lo:hi])
        if rescomp == "rupdate":
            assert de_buf is not None
            kernels.range_matvec(solver.A, e, 0, n, out=de_buf)
            np.negative(de_buf, out=de_buf)
            for lo, hi in chunks:
                yield ("add_r", lo, hi, de_buf[lo:hi])
        # --- obtain the next residual -------------------------------
        if rescomp == "local":
            for lo, hi in chunks:
                x_buf[lo:hi] = yield ("read_x", lo, hi)
            r_local = kernels.range_residual(solver.A, x_buf, b, 0, n, out=r_buf)
        elif rescomp == "global":
            # No-wait global parfor share: refresh only our own rows
            # of the shared residual from the current shared iterate.
            for lo, hi in chunks:
                x_buf[lo:hi] = yield ("read_x", lo, hi)
            if fresh_buf is not None:
                kernels.range_residual(solver.A, x_buf, b, lo_r, hi_r, out=fresh_buf)
                yield ("refresh_r", lo_r, hi_r, fresh_buf)
            for lo, hi in chunks:
                r_buf[lo:hi] = yield ("read_r", lo, hi)
            r_local = r_buf
        else:  # rupdate
            for lo, hi in chunks:
                r_buf[lo:hi] = yield ("read_r", lo, hi)
            r_local = r_buf
        yield ("done_correction",)


def run_async_engine(
    solver: Any,
    b: np.ndarray,
    tmax: int = 20,
    rescomp: str = "local",
    write: str = "lock",
    criterion: str = "criterion1",
    alpha: float = 0.1,
    nchunks: int = 8,
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
    divergence_threshold: float = 1e6,
    track_trace: bool = False,
    checkpoints: Optional[List[int]] = None,
    faults: Optional[FaultPlan] = None,
    guard: Optional[GuardPolicy] = None,
    tracer: Optional["Tracer"] = None,
    live: Optional["LiveConfig"] = None,
) -> RunResult:
    """Run asynchronous additive multigrid (Algorithm 5), sequentially.

    Parameters
    ----------
    solver:
        An :class:`~repro.solvers.base.AdditiveMultigrid` (Multadd or
        AFACx).
    rescomp:
        ``"local"``, ``"global"`` or ``"rupdate"`` (see module docs).
    write:
        ``"lock"`` or ``"atomic"``.
    criterion:
        ``"criterion1"`` or ``"criterion2"`` (Section V).
    alpha:
        Minimum relative speed of a grid: per-grid scheduler weights
        are drawn from ``U[alpha, 1]`` — the engine's analogue of the
        models' minimum update probability.
    nchunks:
        Chunk count for atomic-write interleaving (ignored for lock).
    checkpoints:
        Sorted V-cycle counts at which to snapshot ``(relres,
        corrects)`` — requires ``criterion="criterion2"`` (grids keep
        correcting, so a long run's prefix equals a shorter run).  Used
        by the Table-I harness to sweep tolerance crossings in one run.
    faults:
        Optional :class:`~repro.resilience.FaultPlan`.  Injection is
        seeded and happens at micro-step granularity: corruption when a
        grid's correction is computed, crashes and stalls at its
        ``done_correction`` boundary (stall durations are micro-steps).
        The run stays deterministic: same solver/seeds/plan, same run.
    guard:
        Optional :class:`~repro.resilience.GuardPolicy`.  Screens every
        correction before it is committed, checkpoints the iterate
        every ``checkpoint_interval`` V-cycle-equivalents with
        rollback on residual spikes/divergence, and runs a staleness
        watchdog that restarts (re-syncs) grids that stopped making
        progress.  ``None`` = no protection (the ablation).
    tracer:
        Optional :class:`~repro.observe.Tracer` (use ``clock="steps"``).
        Event times are scheduler micro-steps, so a traced run with a
        fixed seed produces a bit-identical algorithmic event stream on
        every repeat (the per-run ``kernel`` timing events carry
        measured wall seconds, which naturally vary).  Tracing records
        correction begin/end, read/write and
        staleness, and guard/fault events; residual snapshots are only
        emitted for norms the run computes anyway (``track_trace`` or
        guard checkpoints), so tracing itself adds no SpMV.  The digest
        lands on ``result.trace_summary``.
    live:
        Optional :class:`~repro.observe.live.LiveConfig` (see
        :class:`~repro.core.run.RunContext`); also implies
        ``track_trace``, since the detectors need residual events.  An
        ``alert_stop`` alert ends the run at the next correction
        boundary.
    """
    if checkpoints and criterion != "criterion2":
        raise ValueError("checkpoints require criterion2 semantics")
    check_choice("rescomp", rescomp, RESCOMP)
    check_choice("write", write, _WRITE)
    if nchunks < 1:
        raise ValueError("nchunks must be >= 1")
    n = solver.n
    ngrids = solver.ngrids
    A = solver.A
    nb = two_norm(b) or 1.0
    ctx = RunContext("engine", ngrids, nb, faults, guard, tracer, live, clock="steps")
    tracer = ctx.tracer
    track_trace = track_trace or live is not None  # detectors need residual events
    grd = ctx.guard
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(alpha, 1.0, size=ngrids)
    # Cumulative scheduler weights by ready set, which changes only when
    # a grid stalls, resumes, finishes, crashes or restarts.
    cdfs: Dict[Tuple[int, ...], List[float]] = {}
    crit = Criterion(criterion, tmax, ngrids)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x  # shared residual (global / rupdate modes)
    rows = row_blocks(solver.work_per_grid(), n)
    eff_chunks = 1 if write == "lock" else nchunks
    # A rejected correction is simply skipped: the grid recomputes next
    # round (Coleman-style extra work, not divergence).
    correct = ctx.correction_fn(solver.correction)

    def spawn(k: int, r0: np.ndarray) -> Generator:
        return _grid_coroutine(solver, k, b, rescomp, eff_chunks, n, rows[k], correct, r0)

    r_start = start_residual(A, b, x0)
    gens = [spawn(k, r_start) for k in range(ngrids)]
    running = [True] * ngrids
    crashed = [False] * ngrids  # fail-stop injected, awaiting watchdog
    stall_until = [0] * ngrids  # micro-step when a stalled grid resumes
    # Prime each coroutine to its first yield; `requests[k]` always
    # holds grid k's currently pending micro-op.
    requests: List[Optional[tuple]] = [g.send(None) for g in gens]
    ctx.begin()
    live_session = ctx.live_session

    samples: List[Tuple[float, float]] = []
    cps = sorted(checkpoints) if checkpoints else []
    cp_idx = 0
    cp_results: List[Tuple[int, float, float]] = []
    activity: List[Tuple[int, int, int]] = []
    last_done = [0] * ngrids
    # Tracing state: commit epochs count completed corrections (the
    # dynamic analogue of the models' time instant t); a grid's read
    # staleness is the epochs other grids committed between its input
    # read and its own commit.
    commit_epoch = 0
    last_read_epoch = [-1] * ngrids
    micro = 0
    ops_per_corr = eff_chunks * 3 + 4
    max_micro = 50 * tmax * ngrids * ops_per_corr
    # Watchdog horizon: a healthy grid completes a correction roughly
    # every (ngrids / alpha) * ops_per_corr micro-steps; 50x that in
    # V-cycle units is far beyond any fair scheduler gap.
    wd_micro: Optional[int] = None
    if grd is not None and guard.watchdog:
        wd_micro = (
            guard.watchdog_microsteps
            if guard.watchdog_microsteps is not None
            else 50 * ngrids * ops_per_corr
        )
    ckpt_every = guard.checkpoint_interval * ngrids if grd is not None else 0
    diverged = False
    stalled = False
    while not diverged:
        if live_session is not None and live_session.stop_requested:
            stalled = True
            break
        alive = [k for k in range(ngrids) if running[k] and not crashed[k]]
        if not alive:
            break
        ready = [k for k in alive if stall_until[k] <= micro]
        if not ready:
            # Everyone left is mid-stall: jump the logical clock to the
            # earliest resume point (no grid waits on another — the
            # scheduler just has nothing to run).
            micro = min(stall_until[k] for k in alive)
            continue
        k = _next_grid(rng, speeds, ready, cdfs)
        op = requests[k]
        g = gens[k]
        send_val = None
        kind = op[0]
        # The scheduler below is the engine's WritePolicy: exactly one
        # micro-op executes at a time, so these direct commits are the
        # single serialization point (one noqa per commit site).
        if kind == "add_x":
            _, lo, hi, vals = op
            x[lo:hi] += vals  # repro: noqa[RPR001] single-threaded scheduler commit
            if tracer is not None and lo == 0:
                tracer.record("write", k, float(micro), 0.0, -1.0, "x")
        elif kind == "add_r":
            _, lo, hi, vals = op
            r[lo:hi] += vals  # repro: noqa[RPR001] single-threaded scheduler commit
            if tracer is not None and lo == 0:
                tracer.record("write", k, float(micro), 0.0, -1.0, "r")
        elif kind == "read_x":
            _, lo, hi = op
            # The coroutine copies the sent slice into its own buffer
            # before it can observe further commits, so a view is safe
            # here and skips a per-read allocation.
            send_val = x[lo:hi]
            if lo == 0:
                last_read_epoch[k] = commit_epoch
                if tracer is not None:
                    tracer.record("read", k, float(micro), float(commit_epoch), 0.0, "x")
        elif kind == "read_r":
            _, lo, hi = op
            send_val = r[lo:hi]
            if lo == 0:
                last_read_epoch[k] = commit_epoch
                if tracer is not None:
                    tracer.record("read", k, float(micro), float(commit_epoch), 0.0, "r")
        elif kind == "refresh_r":
            _, lo, hi, vals = op
            r[lo:hi] = vals  # repro: noqa[RPR001] single-threaded scheduler commit
            if tracer is not None:
                tracer.record("write", k, float(micro), 0.0, -1.0, "r:assign")
        elif kind == "done_correction":
            crit.record(k)
            start_micro = last_done[k]
            activity.append((k, start_micro, micro))
            last_done[k] = micro
            commit_epoch += 1
            rel_now: Optional[float] = None
            if track_trace:
                rel_now = float(kernels.residual_norm(A, x, b) / nb)
                samples.append((float(len(samples)), rel_now))
            if tracer is not None:
                cnt = float(crit.counts[k])
                stal = (
                    float(commit_epoch - 1 - last_read_epoch[k])
                    if last_read_epoch[k] >= 0
                    else -1.0
                )
                tracer.record("correct_begin", k, float(start_micro), cnt)
                tracer.record("correct_end", k, float(micro), cnt, stal)
                # Residual snapshots piggyback on norms that are being
                # computed anyway (track_trace / checkpoints) so that
                # tracing alone never adds an SpMV to the hot loop.
                if rel_now is not None:
                    tracer.record("residual", k, float(micro), rel_now, 0.0, "global")
            while cp_idx < len(cps) and int(crit.counts.min()) >= cps[cp_idx]:
                cp_results.append(
                    (
                        cps[cp_idx],
                        float(kernels.residual_norm(A, x, b) / nb),
                        float(crit.counts.mean()),
                    )
                )
                cp_idx += 1
            if crit.grid_done(k):
                running[k] = False
                g.close()
            # --- fault injection at the correction boundary ---------
            fault = ctx.fault_due(k, crit.counts) if running[k] else None
            if fault is not None:
                fkind, dur = fault
                if fkind == "crash":
                    crashed[k] = True
                else:
                    stall_until[k] = micro + int(dur)
                if tracer is not None:
                    tracer.record("fault", k, float(micro), dur, tag=fkind)
            # --- guard: periodic checkpoint / spike rollback --------
            if ckpt_every and int(crit.counts.sum()) % ckpt_every == 0:
                if rel_now is None:
                    rel_now = float(kernels.residual_norm(A, x, b) / nb)
                    if tracer is not None:
                        tracer.record("residual", k, float(micro), rel_now, 0.0, "global")
                x_restore = ctx.checkpoint(x, rel_now, k, float(micro))
                if x_restore is not None:
                    x[:] = x_restore  # repro: noqa[RPR001] rollback at the scheduler barrier
                    kernels.range_residual(A, x, b, 0, n, out=r)
            # --- guard: staleness watchdog + restart ----------------
            if wd_micro is not None:
                for j in range(ngrids):
                    if j == k or not running[j] or stall_until[j] > micro:
                        continue
                    if micro - last_done[j] <= wd_micro:
                        continue
                    ctx.telemetry.bump("watchdog_detections")
                    if tracer is not None:
                        tracer.record("guard", j, float(micro), tag="watchdog")
                    if grd.try_restart():
                        if tracer is not None:
                            tracer.record("guard", j, float(micro), tag="restart")
                        # Replica re-sync: the restarted grid starts
                        # from the residual of the current iterate.
                        gens[j] = spawn(j, b - A @ x)
                        requests[j] = gens[j].send(None)
                        crashed[j] = False
                        last_done[j] = micro
                        if guard.restart_delay:
                            stall_until[j] = micro + int(guard.restart_delay)
                    else:
                        running[j] = False  # dead for good
            # Divergence guard: corrections exploding means the run is
            # lost; a guarded run first spends its rollback budget.
            if exploded(x, divergence_threshold, nb):
                x_restore = ctx.checkpoint(x, np.inf, k, float(micro)) if grd is not None else None
                if x_restore is None:
                    diverged = True
                else:
                    x[:] = x_restore  # repro: noqa[RPR001] rollback at the scheduler barrier
                    kernels.range_residual(A, x, b, 0, n, out=r)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown micro-op {kind!r}")
        if running[k] and not crashed[k]:
            requests[k] = g.send(send_val)
        micro += 1
        if micro > max_micro:
            if ctx.injector is not None:
                stalled = True
                break
            raise RuntimeError("engine exceeded micro-step budget")

    rel = kernels.residual_norm(A, x, b) / nb
    diverged, stalled = final_verdict(
        rel, divergence_threshold, diverged, stalled, crit.all_done(), ctx.injector is not None
    )
    return ctx.result(
        x,
        rel,
        crit.counts.copy(),
        t_end=float(micro),
        micro_steps=micro,
        diverged=diverged,
        stalled=stalled,
        residual_samples=samples,
        activity_trace=activity,
        checkpoint_results=cp_results,
    )
