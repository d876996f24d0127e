"""True-parallel shared-memory executor (``--backend procs``).

One worker **process** per thread-group runs the Algorithm-5 loop
(:func:`repro.core.run.correction_loop`, the one the threaded executor
runs) against vectors living in a single
:class:`multiprocessing.shared_memory.SharedMemory` block, np-viewed
zero-copy in every worker — the GIL-free counterpart of
:mod:`repro.core.threaded`.  Where the threaded executor delivers
genuine interleaving but no speedup, this executor delivers real
parallel wall-clock behaviour: the measured Fig.-6 curves come from
here.  What is process-specific lives here: the segment, spawn and the
:class:`SetupBundle`, deterministic mode, telemetry rows and trace
rings.

Design notes
------------

**Memory layout.**  Everything shared lives in one segment, laid out by
:class:`_Layout` (all slots are 8-byte aligned float64/int64): the
iterate ``x``, residual ``r`` and RHS ``b`` (one RHS, ``n`` each),
per-grid correction counts, control flags (stop / criterion-2 done),
per-worker heartbeats, exit status, telemetry shards and trace rings.
NumPy views into the segment are constructed **only** inside
:class:`SharedVectors` (linter rule RPR012 enforces this), so every
view's lifetime is tied to the object that owns the mapping.

**Write policies on real shared memory.**  The :mod:`repro.core.writes`
policies, built over ``multiprocessing`` locks the parent creates:
``lock`` takes one mutex per vector, ``atomic`` one per stripe, for
writers and readers alike, so a reader sees whole stripes, possibly
from different commits (Section IV's read model), and each lock is a
full barrier on every platform.  ``unsafe`` is the lost-update
ablation, as in the threaded executor.

**Worker bootstrap.**  Workers are spawned (never forked — the parent
holds live locks, scipy state and possibly threads) and receive a
pickled :class:`SetupBundle`: the AMG hierarchy (with any memoized
smoothed interpolants riding along) plus the solver's constructor
recipe.  The bundle is adopted into the worker's AMG setup cache under
the problem's content hash, so anything else in the worker that asks
for the same ``(matrix, options)`` setup gets the shipped hierarchy
for free.  The :mod:`repro.kernels` dispatch runs unchanged in every
worker — plan caches and scratch pools are process-local by design.

**Faults and recovery.**  A crash fault is a *real* process death
(``os._exit``), detected by the supervisor through heartbeats/exit
codes and restarted through the existing :class:`~repro.resilience.Guard`
budget with replica re-sync from the shared iterate.  Telemetry uses
the single-writer-shard idiom: each worker bumps only its own int64
row, merged into the run's :class:`FaultTelemetry` at join.  Trace
events flow through single-writer rings, drained by the parent into
the run's :class:`~repro.observe.Tracer` under worker keys
``"p<wid>"``.  A ring publishes its cursor after the record with plain
stores, which assumes store order (x86-TSO); the rings carry telemetry
only, never solve data.

**Clock.**  Everything here uses ``time.monotonic`` — on Linux it is
system-wide, so heartbeat timestamps written by workers are directly
comparable in the parent.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time as _time
import traceback
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from .. import kernels
from ..linalg import two_norm
from ..resilience import FaultPlan, GuardPolicy
from .engine import run_async_engine
from .run import (
    CRITERIA,
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
)
from .writes import WRITES, lock_count, make_write_policy

if TYPE_CHECKING:  # runtime import would cycle through repro.observe
    from ..observe.live import LiveConfig
    from ..observe.tracer import Tracer

__all__ = ["SetupBundle", "SharedVectors", "run_procs"]

#: Worker exit code for an injected fail-stop (distinct from 0/clean
#: and from Python's 1/traceback so the supervisor can tell them apart
#: in logs; detection itself only needs "died without finishing").
_CRASH_EXIT = 17

#: Flag slots in the shared control region.
_FLAG_STOP = 0
_FLAG_DONE = 1  # criterion-2 master flag
_NFLAGS = 2

#: Worker status codes (``SharedVectors.status``).
_STATUS_RUNNING = 0
_STATUS_OK = 1
_STATUS_ERROR = 2

#: Telemetry counters a worker may bump, in shared-row slot order.
_TEL_COUNTERS = (
    "injected_crashes",
    "injected_stalls",
    "injected_corruptions",
    "corrections_rejected",
    "corrections_clamped",
)

#: Ring-record vocabularies: events cross the process boundary as six
#: float64 slots, so kinds and tags are encoded as indices into these
#: tuples (index 0 = the empty tag).
_TRACE_KINDS = ("correct_begin", "correct_end", "residual", "fault")
_TRACE_TAGS = ("", "crash", "stall", "local")

_RING_CAPACITY = 4096
_RING_WIDTH = 6


# ----------------------------------------------------------------------
# Shared segment layout + views
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """Geometry of the shared segment (picklable, shipped to workers)."""

    n: int
    ngrids: int
    nworkers: int
    ring_capacity: int = _RING_CAPACITY

    def slots(self) -> Tuple[Tuple[str, int, str, Tuple[int, ...]], ...]:
        """``(name, count, dtype, shape)`` for every region, in order."""
        n = self.n
        w = self.nworkers
        return (
            ("x", n, "f8", (n,)),
            ("r", n, "f8", (n,)),
            ("b", n, "f8", (n,)),
            ("counts", self.ngrids, "i8", (self.ngrids,)),
            ("flags", _NFLAGS, "i8", (_NFLAGS,)),
            ("heartbeats", w, "f8", (w,)),
            ("status", w, "i8", (w,)),
            ("telemetry", w * len(_TEL_COUNTERS), "i8", (w, len(_TEL_COUNTERS))),
            ("ring_cursors", w, "i8", (w,)),
            (
                "rings",
                w * self.ring_capacity * _RING_WIDTH,
                "f8",
                (w, self.ring_capacity, _RING_WIDTH),
            ),
        )

    @property
    def nbytes(self) -> int:
        return 8 * sum(count for _, count, _, _ in self.slots())


class SharedVectors:
    """Sole owner of the run's shared segment and of every view into it.

    All ``np.frombuffer`` views are constructed here and nowhere else
    (RPR012): workers and the parent both talk to the segment through a
    ``SharedVectors`` instance, so teardown can drop the views before
    closing the mapping and the unlink happens exactly once, in the
    parent, no matter how workers died.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, layout: _Layout, owner: bool
    ) -> None:
        self._shm = shm
        self.layout = layout
        self.name = shm.name
        self._owner = owner
        self._unlinked = False
        self._closed = False
        offset = 0
        for vname, count, dtype, shape in layout.slots():
            view = np.frombuffer(shm.buf, dtype=dtype, count=count, offset=offset)
            setattr(self, vname, view.reshape(shape))
            offset += 8 * count
        if offset > shm.size:  # pragma: no cover - layout arithmetic guard
            raise ValueError(f"layout needs {offset} bytes, segment has {shm.size}")

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, layout: _Layout) -> "SharedVectors":
        """Allocate a fresh segment in the parent (auto-named)."""
        shm = shared_memory.SharedMemory(create=True, size=layout.nbytes)
        sv = cls(shm, layout, owner=True)
        for vname, *_ in layout.slots():  # POSIX zero-fills, but be explicit
            getattr(sv, vname)[...] = 0
        return sv

    @classmethod
    def attach(cls, name: str, layout: _Layout) -> "SharedVectors":
        """Map an existing segment in a worker.

        Python 3.11's ``SharedMemory`` registers *every* attach with the
        resource tracker (no ``track=`` parameter yet).  Spawned workers
        share the parent's tracker process, so that re-registration is
        an idempotent set-add — harmless — while an *unregister* here
        would strip the parent's own registration and turn the parent's
        final unlink into tracker noise.  Lifetime management therefore
        stays entirely with the parent: workers only ever ``close()``.
        """
        return cls(shared_memory.SharedMemory(name=name), layout, owner=False)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Drop the views and unmap.  Safe to call twice; tolerates a
        stray external reference still pinning the buffer (the mapping
        then frees at garbage collection instead)."""
        if self._closed:
            return
        self._closed = True
        for vname, *_ in self.layout.slots():
            setattr(self, vname, None)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - external view still alive
            pass

    def unlink(self) -> None:
        """Remove the segment name — parent only, exactly once."""
        if self._owner and not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# ----------------------------------------------------------------------
# Solver transport
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SetupBundle:
    """Everything a worker needs to rebuild its solver, shipped once.

    The hierarchy (a plain dataclass of CSR levels — cheap to pickle,
    and any memoized smoothed interpolants in its ``__dict__`` ride
    along) plus the constructor recipe.  The coarse LU factorisation is
    *not* shipped (SuperLU objects don't pickle); each worker refactors
    deterministically from the same coarse operator, so a rebuilt
    solver is numerically identical to the parent's.
    """

    hierarchy: Any
    method: str
    smoother: str
    smoother_kwargs: Dict[str, Any]
    extra: Dict[str, Any]
    fingerprint: str

    @classmethod
    def from_solver(cls, solver: Any) -> "SetupBundle":
        from ..kernels.setupcache import problem_fingerprint
        from ..solvers import AFACx, BPX, Multadd

        if isinstance(solver, Multadd):
            method = "multadd"
            extra: Dict[str, Any] = {
                "lambda_mode": solver.lambda_mode,
                "interp_smoother_kind": solver.interp_smoother_kind,
                "interp_weight": solver.interp_weight,
            }
        elif isinstance(solver, AFACx):
            method = "afacx"
            extra = {
                "s1": solver.s1,
                "s2": solver.s2,
                "coarse_sweeps": solver.coarse_sweeps,
                "exact_coarse": solver.exact_coarse,
            }
        elif isinstance(solver, BPX):
            method = "bpx"
            extra = {"scale": solver.scale}
        else:
            raise TypeError(
                f"cannot ship a {type(solver).__name__} to worker processes; "
                "the procs backend knows multadd/afacx/bpx"
            )
        return cls(
            hierarchy=solver.hierarchy,
            method=method,
            smoother=solver.smoother_name,
            smoother_kwargs=dict(solver.smoother_kwargs),
            extra=extra,
            fingerprint=problem_fingerprint(solver.A),
        )

    def build_solver(self) -> Any:
        """Rebuild the solver in a worker, seeding its setup cache."""
        from ..kernels.setupcache import adopt_hierarchy
        from ..solvers import AFACx, BPX, Multadd

        adopt_hierarchy(self.hierarchy, self.fingerprint)
        ctor = {"multadd": Multadd, "afacx": AFACx, "bpx": BPX}[self.method]
        return ctor(
            self.hierarchy, self.smoother, **self.extra, **self.smoother_kwargs
        )


# ----------------------------------------------------------------------
# Worker-side helpers
# ----------------------------------------------------------------------


class _ShardTelemetry:
    """``FaultTelemetry``-compatible ``bump`` over one shared int64 row."""

    def __init__(self, row: np.ndarray) -> None:
        self._row = row

    def bump(self, counter: str, by: int = 1) -> None:
        self._row[_TEL_COUNTERS.index(counter)] += by


@dataclass(frozen=True)
class _WorkerConfig:
    """Per-run constants shipped to every worker (picklable)."""

    tmax: int
    rescomp: str
    write: str
    criterion: str
    stripe: int
    alpha: float
    seed: int
    deterministic: bool
    trace: bool
    nb: float
    t0: float
    deadline: float
    divergence_threshold: float
    kernel_backend: str
    guard: Optional[GuardPolicy]
    faults: Optional[FaultPlan]


def _ring_record(
    sv: SharedVectors,
    wid: int,
    t0: float,
    kind: str,
    a: float = 0.0,
    b: float = 0.0,
    tag: str = "",
    grid: int = -1,
) -> None:
    """Append one event, stamped ``monotonic() - t0``, to this worker's
    ring (single writer); bound to ``sv, wid, t0`` it is the worker's
    trace sink, called like :meth:`~repro.observe.Tracer.record_here`.

    The record is fully written before the cursor store publishes it,
    which relies on store order (x86-TSO); a reordered store could only
    garble a telemetry record, never solve data.
    """
    cap = sv.layout.ring_capacity
    cur = int(sv.ring_cursors[wid])
    rec = sv.rings[wid, cur % cap]
    rec[0] = _time.monotonic() - t0
    rec[1] = float(_TRACE_KINDS.index(kind))
    rec[2] = float(grid)
    rec[3] = a
    rec[4] = b
    rec[5] = float(_TRACE_TAGS.index(tag))
    sv.ring_cursors[wid] = cur + 1


def _worker_main(
    wid: int,
    shm_name: str,
    layout: _Layout,
    bundle: SetupBundle,
    grids: Tuple[int, ...],
    rows: Tuple[Tuple[int, int], ...],
    cfg: _WorkerConfig,
    locks_x: List[Any],
    locks_r: List[Any],
    errq: Any,
    resync: bool,
) -> None:
    """Worker process entry point (module-level: spawn-picklable)."""
    sv = SharedVectors.attach(shm_name, layout)
    try:
        try:
            kernels.use(cfg.kernel_backend)
            solver = bundle.build_solver()
            if cfg.deterministic:
                _run_deterministic(sv, solver, cfg)
            else:
                _worker_loop(
                    sv, wid, solver, grids, rows, cfg, locks_x, locks_r, resync
                )
            sv.status[wid] = _STATUS_OK
        except WORKER_ERRORS:
            errq.put((wid, traceback.format_exc()))
            sv.status[wid] = _STATUS_ERROR
            sv.flags[_FLAG_STOP] = 1
    finally:
        sv.close()


def _run_deterministic(sv: SharedVectors, solver: Any, cfg: _WorkerConfig) -> None:
    """Single-worker transport-validation mode: run the sequential
    engine *inside* the worker over the shipped operands and write the
    result back through shared memory.  Bit-identical to a direct
    ``run_async_engine`` call by construction, while still exercising
    the pickle + SharedMemory round trip end to end."""
    b = np.array(sv.b, copy=True)
    res = run_async_engine(
        solver,
        b,
        tmax=cfg.tmax,
        rescomp=cfg.rescomp,
        write=cfg.write,
        criterion=cfg.criterion,
        alpha=cfg.alpha,
        seed=cfg.seed,
        divergence_threshold=cfg.divergence_threshold,
    )
    sv.x[:] = res.x
    sv.counts[:] = res.counts


def _worker_loop(
    sv: SharedVectors,
    wid: int,
    solver: Any,
    grids: Tuple[int, ...],
    rows: Tuple[Tuple[int, int], ...],
    cfg: _WorkerConfig,
    locks_x: List[Any],
    locks_r: List[Any],
    resync: bool,
) -> None:
    """Run :func:`~repro.core.run.correction_loop` over this worker's
    grids against the shared segment."""
    n = sv.layout.n
    A = solver.A
    b = np.array(sv.b, copy=True)  # private RHS replica
    xpol = make_write_policy(cfg.write, n, cfg.stripe, locks_x)
    rpol = make_write_policy(cfg.write, n, cfg.stripe, locks_r)
    crit = Criterion(cfg.criterion, cfg.tmax, sv.counts, sv.flags[_FLAG_DONE : _FLAG_DONE + 1])
    # Offset the stochastic fault streams per worker so concurrent
    # workers don't draw identical corruption patterns; deterministic
    # schedules (crash/stall) are grid-indexed and unaffected.
    faults = cfg.faults
    if faults is not None:
        faults = replace(faults, seed=faults.seed + wid)
    ctx = RunContext("procs", sv.layout.ngrids, cfg.nb, faults, cfg.guard)
    if resync and ctx.injector is not None:
        # A restarted process must not re-serve crash sentences that
        # already executed (the one-shot state died with its predecessor).
        ctx.injector.forgive_completed_crashes(sv.counts)

    # Replicas seeded from the *current* shared state — correct both at
    # cold start (x is x0) and after a watchdog restart.
    r0 = kernels.range_residual(A, xpol.read(sv.x), b, 0, n)
    shared = (sv.x, sv.r, xpol, rpol)
    flags = sv.flags

    def stop() -> None:
        flags[_FLAG_STOP] = 1

    crashed = correction_loop(
        ctx, crit, solver.correction,
        {g: GridStep(cfg.rescomp, A, b, rows[g], shared) for g in grids},
        {g: r0.copy() for g in grids},
        _ShardTelemetry(sv.telemetry[wid]),
        heartbeats=sv.heartbeats, slot=wid, clock=_time.monotonic, deadline=cfg.deadline,
        stopped=lambda: bool(flags[_FLAG_STOP]), stop=stop,
        nb=cfg.nb, threshold=cfg.divergence_threshold,
        trace=partial(_ring_record, sv, wid, cfg.t0) if cfg.trace else None,
    )
    if crashed:
        os._exit(_CRASH_EXIT)  # a real fail-stop process death


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _assign_grids(work: np.ndarray, nworkers: int) -> List[List[int]]:
    """Deterministic LPT partition of grids onto worker processes.

    Heaviest grid first onto the least-loaded worker (ties broken by
    index) — the paper's thread-group work split, at process
    granularity.
    """
    order = sorted(range(len(work)), key=lambda g: (-float(work[g]), g))
    loads = [0.0] * nworkers
    owned: List[List[int]] = [[] for _ in range(nworkers)]
    for g in order:
        w = min(range(nworkers), key=lambda i: (loads[i], i))
        owned[w].append(g)
        loads[w] += float(work[g])
    for lst in owned:
        lst.sort()
    return owned


def _make_locks(write: str, n: int, stripe: int, ctx: Any) -> List[Any]:
    """The write policy's locks for one shared vector, created in the
    parent (mp locks are only shippable through ``Process`` args, not
    via late pickling)."""
    return [ctx.Lock() for _ in range(lock_count(write, n, stripe))]


def _drain_rings(sv: SharedVectors, tracer: "Tracer", cursors: List[int]) -> None:
    """Feed new ring records into the parent's tracer buffers.

    Safe to run while workers append: the published cursor is read
    first, so only fully-written records are consumed; anything
    overwritten between drains is tallied as dropped.
    """
    cap = sv.layout.ring_capacity
    for wid in range(sv.layout.nworkers):
        pos = int(sv.ring_cursors[wid])
        have = pos - cursors[wid]
        if have <= 0:
            continue
        take = min(have, cap)
        key = f"p{wid}"
        tracer.buffer(key).dropped += have - take
        for idx in range(pos - take, pos):
            rec = sv.rings[wid, idx % cap]
            tracer.record(
                _TRACE_KINDS[int(rec[1])],
                int(rec[2]),
                float(rec[0]),
                float(rec[3]),
                float(rec[4]),
                _TRACE_TAGS[int(rec[5])],
                worker=key,
            )
        cursors[wid] = pos


def run_procs(
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
    workers: Optional[int] = None,
    deterministic: bool = False,
    alpha: float = 0.1,
    seed: int = 0,
    monitor_interval: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    guard: Optional[GuardPolicy] = None,
    tracer: Optional["Tracer"] = None,
    live: Optional["LiveConfig"] = None,
) -> RunResult:
    """Run asynchronous additive multigrid with worker *processes*.

    Parameters mirror :func:`repro.core.threaded.run_threaded`, plus:

    ``workers``
        Number of worker processes (thread-groups).  Default:
        ``min(ngrids, cpu_count)``.  Grids are LPT-partitioned onto
        workers by :meth:`work_per_grid`; each worker round-robins its
        owned grids, so any worker count from 1 to ``ngrids`` is valid.
    ``deterministic``
        Single-worker transport-validation mode: the worker runs the
        sequential engine (same ``alpha``/``seed`` semantics as
        ``run_async_engine``) over the shipped operands and writes the
        result back through shared memory — bit-identical to the engine
        backend by construction.  Requires ``workers=1`` and no
        faults/guard.

    Crash faults are *real* process deaths (``os._exit``), detected by
    the supervisor via exit codes and restarted — whole process, all
    its grids re-synced from the shared iterate — through the guard's
    restart budget.  ``telemetry.restarts`` counts those respawns.
    """
    check_choice("rescomp", rescomp, RESCOMP)
    check_choice("criterion", criterion, CRITERIA)
    check_choice("write", write, WRITES)

    n = solver.n
    ngrids = solver.ngrids
    A = solver.A
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")

    if workers is None:
        workers = min(ngrids, os.cpu_count() or 1)
    workers = max(1, min(int(workers), ngrids))
    if deterministic:
        if workers != 1:
            raise ValueError("deterministic mode needs workers=1")
        if faults is not None or guard is not None or rescomp == "global":
            raise ValueError(
                "deterministic mode is fault-free and engine-compatible "
                "(rescomp local/rupdate, no faults, no guard)"
            )

    x_start = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64).reshape(n)
    nb = two_norm(b) or 1.0
    ctx = RunContext("procs", ngrids, nb, faults, guard, tracer, live)
    tracer = ctx.tracer

    bundle = SetupBundle.from_solver(solver)
    mpctx = mp.get_context("spawn")
    layout = _Layout(n=n, ngrids=ngrids, nworkers=workers)
    sv = SharedVectors.create(layout)
    sup: Optional[Supervisor] = None
    try:
        sv.x[...] = x_start
        sv.b[...] = b
        sv.r[...] = b - A @ x_start
        locks_x = _make_locks(write, n, stripe, mpctx)
        locks_r = _make_locks(write, n, stripe, mpctx)
        xpol = make_write_policy(write, n, stripe, locks_x)
        rpol = make_write_policy(write, n, stripe, locks_r)
        crit = Criterion(criterion, tmax, sv.counts, sv.flags[_FLAG_DONE : _FLAG_DONE + 1])

        def stop() -> None:
            sv.flags[_FLAG_STOP] = 1

        owned = _assign_grids(solver.work_per_grid(), workers)
        sup = Supervisor(
            ctx,
            crit,
            owned,
            A,
            b,
            (sv.x, sv.r, xpol, rpol),
            clock=_time.monotonic,
            poll_s=0.005,
            timeout=timeout,
            interval=monitor_interval,
            stopped=lambda: bool(sv.flags[_FLAG_STOP]),
            stop=stop,
            heartbeats=sv.heartbeats,
        )
        rows = tuple(row_blocks(solver.work_per_grid(), n))
        cfg = _WorkerConfig(
            tmax=tmax,
            rescomp=rescomp,
            write=write,
            criterion=criterion,
            stripe=stripe,
            alpha=alpha,
            seed=seed,
            deterministic=deterministic,
            trace=tracer is not None,
            nb=nb,
            t0=sup.t0,
            deadline=sup.deadline,
            divergence_threshold=divergence_threshold,
            kernel_backend=kernels.current_backend(),
            guard=guard,
            faults=faults,
        )
        errq = mpctx.SimpleQueue()

        def spawn(wid: int, resync: bool) -> Any:
            sv.status[wid] = _STATUS_RUNNING
            p = mpctx.Process(
                target=_worker_main,
                args=(
                    wid, sv.name, layout, bundle, tuple(owned[wid]), rows,
                    cfg, locks_x, locks_r, errq, resync,
                ),
                daemon=True,
            )
            p.start()
            if tracer is not None and p.pid is not None:
                tracer.register_worker_pid(f"p{wid}", p.pid)
            return p

        cursors = [0] * workers

        def drain() -> None:
            if tracer is not None:
                _drain_rings(sv, tracer, cursors)

        sup.run(spawn, exited=lambda wid: int(sv.status[wid]) != _STATUS_RUNNING, poll=drain)
        for p in sup.handles:
            if p.is_alive():  # pragma: no cover - stuck worker backstop
                p.terminate()
                p.join(timeout=1.0)
        drain()
        errors: List[str] = []
        while not errq.empty():
            wid, tb = errq.get()
            errors.append(f"worker {wid}:\n{tb}")
        for wid in range(workers):
            for counter, v in zip(_TEL_COUNTERS, sv.telemetry[wid]):
                if int(v):
                    ctx.telemetry.bump(counter, int(v))

        return sup.result(
            np.array(sv.x, copy=True),
            np.array(sv.counts, copy=True),
            divergence_threshold,
            errors,
            workers=workers,
            deterministic=deterministic,
        )
    finally:
        # Teardown is unconditional: reap any stragglers, stop the
        # samplers, then unmap and unlink exactly once — the segment
        # must never outlive the run, even when a worker crashed
        # mid-solve or the parent raised.
        procs = sup.handles if sup is not None else []
        if sup is not None:
            sup.stop_monitor()
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=1.0)
        ctx.close()
        sv.close()
        sv.unlink()
