"""Discrete-event simulator of distributed asynchronous multigrid.

One process per grid.  Each process repeatedly:

1. reads its *replica* of the shared fine-grid state (a residual for
   ``global-res``, an iterate for ``local-res``),
2. computes its grid's correction (simulated duration = flops divided
   by the process's compute rate, with heterogeneity jitter),
3. applies the correction to its own replica and sends an update
   message to every other process (arrival = completion + link
   latency + size/bandwidth),
4. goes back to 1 — no synchronization anywhere.

Message payloads follow the two strategies of Section IV transplanted
to distributed memory:

- ``global-res`` (the paper's recommendation): the sender ships the
  residual increment ``-A e``; receivers fold it into their residual
  replica with one vector add.  No process ever recomputes a full
  fine-grid residual.
- ``local-res``: the sender ships the correction ``e``; receivers fold
  it into their iterate replica, and every process recomputes
  ``r = b - A x`` (one fine-grid SpMV) before each correction.

The *true* iterate accumulates every correction exactly (as in the
Section-III models), so the reported relative residual is exact; the
asynchrony lives in what each process *reads*.

Faults and recovery are first-class events (``faults=`` /
``guard=``, see :mod:`repro.resilience`):

- a **fail-stop crash** removes a process from the simulation; with a
  guard, the heartbeat watchdog schedules a ``restart`` event
  (``watchdog_timeout`` after the crash) that re-syncs the replica from
  a peer (one message transfer) and resumes computing;
- a **dropped transmission** (sampled per attempt from the network's
  drop process plus the plan's extra loss) triggers, with a guard,
  **retransmission** events with exponential backoff, at most
  :data:`~repro.resilience.MAX_RETRANSMITS` per message;
- **duplicated** deliveries are discarded by sequence-number dedup
  with a guard — without one, a duplicated ``global-res`` increment is
  applied twice and silently corrupts the replica;
- **corrupted corrections** (NaN/Inf/scaled entries) are screened by
  the guard before they touch the true iterate or any message.

Elastic membership (``elastic=`` / ``churn=`` / ``nranks=``, see
:mod:`repro.distributed.elastic`) replaces the fixed worker set with a
pool of ``nranks`` simulated ranks backing the grid processes.  Churn
events (rank crash / stall / cold join / graceful leave) are
first-class simulator events; failures are detected by heartbeat
silence (never by omniscient crash knowledge), work is re-partitioned
incrementally over the believed-alive ranks, revived grids receive a
checkpoint **handoff**, and a solve that lost capacity finishes
**degraded** rather than failed.  The event loop runs on an
:class:`~repro.distributed.events.IndexedEventQueue` (O(1) interior
cancellation — a dead team's in-flight correction dies with it) and a
:class:`~repro.distributed.events.DedupIndex`; per-rank state is
vectorised numpy, so churn runs at 1k+ ranks complete in seconds.  A
churn-free elastic run is bit-identical to a plain run under the same
seeds: membership draws no random numbers, and heartbeat scans touch
neither the compute-jitter RNG nor the event budget.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .. import kernels
from ..core.perfmodel import MachineParams
from ..core.run import (
    CRITERIA,
    Criterion,
    RunContext,
    RunResult,
    check_choice,
    exploded,
    final_verdict,
)
from ..linalg import two_norm
from ..partition import partition_threads
from ..resilience import MAX_RETRANSMITS, FaultPlan, GuardPolicy
from .elastic import ChurnPlan, ElasticityPolicy, MembershipManager
from .events import DedupIndex, EventHandle, IndexedEventQueue
from .network import NetworkModel

if TYPE_CHECKING:  # runtime import would cycle through repro.observe
    from ..observe.live import LiveConfig
    from ..observe.tracer import Tracer

__all__ = ["simulate_distributed"]

_STRATEGIES = ("global", "local")

# Kinds that represent solve/recovery activity and therefore advance the
# reported wall clock.  Heartbeat scans and not-yet-applied churn are
# bookkeeping: a churn event scheduled long after convergence must not
# inflate ``wall_time``.
_WALL_KINDS = frozenset(("done", "msg", "restart", "retransmit", "sync"))


def simulate_distributed(
    solver,
    b: np.ndarray,
    tmax: int = 20,
    strategy: str = "global",
    network: Optional[NetworkModel] = None,
    machine: Optional[MachineParams] = None,
    nthreads_total: int = 64,
    criterion: str = "criterion1",
    seed: int = 0,
    track_trace: bool = False,
    max_events: int = 2_000_000,
    divergence_threshold: float = 1e6,
    faults: Optional[FaultPlan] = None,
    guard: Optional[GuardPolicy] = None,
    tracer: Optional["Tracer"] = None,
    live: Optional["LiveConfig"] = None,
    elastic: Optional[ElasticityPolicy] = None,
    churn: Optional[ChurnPlan] = None,
    nranks: Optional[int] = None,
) -> RunResult:
    """Simulate distributed asynchronous additive multigrid.

    Parameters
    ----------
    solver:
        An :class:`~repro.solvers.base.AdditiveMultigrid`.
    strategy:
        ``"global"`` (residual-increment messages) or ``"local"``
        (iterate messages + per-correction residual recomputation).
    network / machine:
        Cost models; defaults are a 1-us/10-GB/s network and the
        KNL-class machine of :class:`repro.core.perfmodel`.
    nthreads_total:
        Threads distributed over the grid processes proportionally to
        per-correction work (Section IV's partitioning).
    criterion:
        ``"criterion1"`` — each process stops after ``tmax`` own
        corrections; ``"criterion2"`` — processes keep correcting
        until every process reached ``tmax`` (elastic runs exempt
        *parked* grids, else a churn loss would hang the run).
    faults:
        Optional :class:`~repro.resilience.FaultPlan`; crash/stall
        times are simulated seconds, message faults apply per
        transmission.
    guard:
        Optional :class:`~repro.resilience.GuardPolicy`; enables
        correction screening, checkpoint/rollback of the true iterate
        every :data:`~repro.resilience.CHECKPOINT_ROUNDS` rounds,
        crash detection + restart (replica re-sync), retransmission
        with backoff, and duplicate suppression.
    tracer:
        Optional :class:`~repro.observe.Tracer` (use ``clock="sim"``).
        Event times are simulated seconds; message sends, deliveries
        and drops are recorded as ``msg`` events alongside the usual
        correction / staleness / guard / fault vocabulary.  Like the
        engine, a fixed seed reproduces the event stream exactly.
    live:
        Optional :class:`~repro.observe.live.LiveConfig` (see
        :class:`~repro.core.run.RunContext`); also implies
        ``track_trace``.  Snapshots additionally carry the event-queue
        depth and (elastic runs) the live membership census; an
        ``alert_stop`` alert ends the run at the next event pop.
    elastic / churn / nranks:
        Elastic membership (see :mod:`repro.distributed.elastic`).
        Passing any of the three enables the rank-pool model:
        ``nranks`` simulated ranks (default ``nthreads_total``) staff
        the grid processes via :func:`repro.partition.partition_ranks`;
        ``churn`` schedules rank crash/stall/join/leave events; the
        :class:`~repro.distributed.elastic.ElasticityPolicy` sets
        heartbeat cadence and suspicion/eviction timeouts.  Without
        churn the elastic run is bit-identical to a plain run.
    """
    check_choice("strategy", strategy, _STRATEGIES)
    check_choice("criterion", criterion, CRITERIA)
    net = network or NetworkModel(seed=seed)
    mach = machine or MachineParams()
    rng = np.random.default_rng(seed)
    A = solver.A
    n = solver.n
    ngrids = solver.ngrids
    groups = partition_threads(solver.work_per_grid(), nthreads_total)
    rates = mach.flop_rate * groups.astype(np.float64)

    elastic_on = (
        elastic is not None or nranks is not None or (churn is not None and churn.active)
    )
    pol = elastic if elastic is not None else ElasticityPolicy()
    nranks_val = int(nranks) if nranks is not None else nthreads_total
    if elastic_on and nranks_val < 1:
        raise ValueError("nranks must be >= 1")

    b = np.asarray(b, dtype=np.float64)
    nb = two_norm(b) or 1.0
    ctx = RunContext("distributed", ngrids, nb, faults, guard, tracer, live, clock="sim")
    tracer = ctx.tracer
    track_trace = track_trace or live is not None  # detectors need residual events
    telemetry = ctx.telemetry
    injector = ctx.injector
    grd = ctx.guard
    x_true = np.zeros(n)
    r0 = b.copy()
    if strategy == "global":
        replicas = [r0.copy() for _ in range(ngrids)]
    else:
        replicas = [np.zeros(n) for _ in range(ngrids)]
    # All liveness state — the plain path's grid crash flags and the
    # elastic path's per-rank membership arrays — lives behind the
    # MembershipManager (sole mutator; linter rule RPR008).
    mm = MembershipManager(
        ngrids,
        nranks=nranks_val if elastic_on else 0,
        work=solver.work_per_grid() if elastic_on else None,
        policy=pol,
        telemetry=telemetry,
        tracer=tracer,
    )

    crit = Criterion(criterion, tmax, ngrids)
    counts = crit.counts
    msg_bytes = 8.0 * n
    flops_total = 0.0
    messages = 0
    dropped = 0
    samples: List[Tuple[float, float]] = []

    def correction_duration(k: int, t: float) -> Tuple[float, float]:
        flops = solver.correction_flops(k)
        if strategy == "local":
            flops += solver.residual_flops()
        else:
            flops += 2.0 * A.nnz  # forming the -A e increment
        jit = 1.0 + abs(float(rng.normal(0.0, mach.jitter))) if mach.jitter else 1.0
        # Elastic rate = one rank-worth of throughput per live, unstalled
        # team member; churn-free this equals the static partition, so
        # the computed duration is bit-identical to the plain path.
        rate = mach.flop_rate * float(mm.capacity(k, t)) if elastic_on else rates[k]
        return flops / rate * jit, flops

    def all_done() -> bool:
        if elastic_on:
            # Parked grids (no assigned ranks) cannot correct; waiting
            # on them would hang criterion2 forever after a churn loss.
            return bool(np.all((counts >= tmax) | ~mm.staffed()))
        return crit.all_done()

    def keep_going(k: int) -> bool:
        """Whether grid ``k`` computes another correction."""
        if elastic_on and criterion == "criterion2":
            return not all_done()
        return not crit.grid_done(k)

    q = IndexedEventQueue()
    msg_ids = itertools.count()

    activity: List[tuple] = []
    # Sequence-number dedup (guard): message ids each process applied.
    dedup = DedupIndex(ngrids)
    # In-flight "done" event handle per grid — cancelled when churn
    # kills the whole team backing the grid mid-correction.
    inflight: List[Optional[EventHandle]] = [None] * ngrids
    # Tracing state: commit epochs count "done" events on the true
    # iterate; a process's staleness is the epochs committed between
    # its replica read (start_compute) and its own commit.
    commit_epoch = 0
    last_read_epoch = [-1] * ngrids
    read_tag = "r" if strategy == "global" else "x"

    def transmit(src: int, dst: int, vec: np.ndarray, t: float, mid: int, attempt: int) -> None:
        """One transmission attempt; with a guard, a drop triggers a
        retransmission with exponential backoff while the budget lasts."""
        nonlocal messages, dropped
        telemetry.bump("messages_sent")
        lost = net.dropped() or (injector is not None and injector.message_dropped())
        if lost:
            dropped += 1
            telemetry.bump("messages_dropped")
            if tracer is not None:
                tracer.record("msg", dst, t, float(mid), float(src), "drop")
            if grd is not None and attempt < MAX_RETRANSMITS:
                backoff = guard.retransmit_timeout * (2.0**attempt)
                q.push(t + backoff, "retransmit", dst, (src, vec, mid, attempt + 1))
                telemetry.bump("retransmissions")
                if tracer is not None:
                    tracer.record(
                        "retry", dst, t, float(mid), backoff, f"a{attempt + 1}"
                    )
            else:
                telemetry.bump("messages_lost")
            return
        lat = net.transfer_time(msg_bytes)
        if injector is not None:
            factor = injector.message_delay_factor()
            if factor is not None:
                lat *= factor
                telemetry.bump("messages_delayed")
        arr = t + lat
        q.push(arr, "msg", dst, (src, mid, vec))
        messages += 1
        telemetry.bump("messages_delivered")
        telemetry.record_delivery(attempt + 1)
        if tracer is not None:
            tracer.record("msg", src, t, float(mid), float(dst), "send")
        if injector is not None and injector.message_duplicated():
            q.push(arr + net.latency, "msg", dst, (src, mid, vec))
            telemetry.bump("messages_duplicated")

    def start_compute(k: int, t: float) -> None:
        if elastic_on and mm.capacity(k, t) == 0:
            # No live, unstalled rank backs this grid right now.  If
            # members are merely stalled, retry when the first returns;
            # a fully-dead team waits for a repartition handoff.
            nse = mm.next_stall_end(k, t)
            if nse is not None:
                q.push(nse, "wake", k, None)
            return
        if strategy == "global":
            r_in = replicas[k].copy()
        else:
            # Fused residual into the event loop's scratch vector: the
            # input is consumed synchronously by solver.correction (no
            # solver retains or aliases its residual argument), so the
            # buffer is free again by the next start_compute.
            r_in = kernels.range_residual(
                A, replicas[k], b, 0, n, out=kernels.scratch(n, slot=6)
            )
        last_read_epoch[k] = commit_epoch
        if tracer is not None:
            tracer.record("read", k, t, float(commit_epoch), 0.0, read_tag)
            tracer.record("correct_begin", k, t, float(counts[k]) + 1.0)
        e = solver.correction(k, r_in)
        dur, flops = correction_duration(k, t)
        if injector is not None:
            stall = injector.stall_due(k, int(counts[k]))
            if stall is not None:
                dur += float(stall)
                telemetry.bump("injected_stalls")
                if tracer is not None:
                    tracer.record("fault", k, t, float(stall), tag="stall")
        inflight[k] = q.push(t + dur, "done", k, e)
        activity.append((k, t, t + dur))
        nonlocal flops_total
        flops_total += flops

    def resync_replica(k: int) -> None:
        """Restart/handoff re-sync: fetch a consistent view of the
        current state (modeled as a checkpoint transfer from a peer)."""
        if strategy == "global":
            replicas[k] = b - A @ x_true
        else:
            replicas[k] = x_true.copy()

    def do_repartition(t: float) -> None:
        """Re-spread believed membership; cancel work on grids that
        lost their whole team and schedule checkpoint handoffs for
        grids gaining a fresh one."""
        teams, handoffs = mm.repartition(t)
        for g in range(ngrids):
            if teams[g] == 0 and inflight[g] is not None:
                q.cancel(inflight[g])
                inflight[g] = None
        for g in handoffs:
            if mm.grid_down[g]:
                continue
            # A grid checkpoint is its replica: one update message's bytes.
            dt = net.transfer_time(msg_bytes)
            telemetry.bump("handoffs")
            if tracer is not None:
                tracer.record("member", g, t, dt, 0.0, "handoff")
            q.push(t + dt, "sync", g, None)

    for k in range(ngrids):
        start_compute(k, 0.0)
    if churn is not None:
        for ev in churn.events:
            q.push(ev.t, "churn", ev.rank, ev)
    if elastic_on:
        q.push(pol.heartbeat_interval, "hb", -1, None)

    ctx.begin()
    live_session = ctx.live_session
    if live_session is not None:
        # Queue depth + live membership census ride on every snapshot.
        live_session.collector.queue_depth_fn = lambda: float(len(q))
        if elastic_on:
            live_session.collector.membership_fn = mm.census

    ckpt_every = ctx.checkpoint_every
    wall = 0.0
    events = 0
    diverged = False
    stalled = False
    while q and not diverged:
        if live_session is not None and live_session.stop_requested:
            stalled = True
            break
        t, kind, proc, payload = q.pop()
        if kind in _WALL_KINDS:
            wall = max(wall, t)
        if kind != "hb":
            # Heartbeat scans are membership bookkeeping, not solve
            # events: exempting them keeps the budget — and therefore a
            # churn-free elastic run — identical to the plain path.
            events += 1
        if events > max_events:
            if injector is not None or elastic_on:
                stalled = True
                break
            raise RuntimeError("distributed simulation exceeded event budget")
        if kind == "done":
            inflight[proc] = None
            if mm.grid_down[proc]:
                continue  # stale event from before a crash (defensive)
            e = payload
            if ctx.screens:
                # A rejected correction is discarded outright: the
                # process just computes the next one from its replica.
                e = ctx.screen(e)
            # The discrete-event loop is single-threaded: the true
            # iterate is only touched here, between events.
            x_true += e  # repro: noqa[RPR001] event-loop is the serialization point
            crit.record(proc)
            commit_epoch += 1
            rel_now: Optional[float] = None
            if track_trace:
                rel_now = float(kernels.residual_norm(A, x_true, b) / nb)
                samples.append((t, rel_now))
            if tracer is not None:
                stal = (
                    float(commit_epoch - 1 - last_read_epoch[proc])
                    if last_read_epoch[proc] >= 0
                    else -1.0
                )
                tracer.record("correct_end", proc, t, float(counts[proc]), stal)
                tracer.record("write", proc, t, 0.0, stal, read_tag)
                # Residual snapshots ride on track_trace norms so that
                # tracing alone never adds an SpMV per commit.
                if rel_now is not None:
                    tracer.record("residual", proc, t, rel_now, 0.0, "global")
            if strategy == "global":
                dr = -(A @ e)
                replicas[proc] += dr
                out = dr
            else:
                replicas[proc] += e
                out = e
            for j in range(ngrids):
                if j == proc:
                    continue
                transmit(proc, j, out, t, next(msg_ids), attempt=0)
            # --- divergence detection (guarded runs roll back below) -
            unhealthy = exploded(x_true, divergence_threshold, nb)
            # --- guard: periodic checkpoint / spike rollback ---------
            if ckpt_every and int(counts.sum()) % ckpt_every == 0:
                if rel_now is None:
                    rel_now = float(kernels.residual_norm(A, x_true, b) / nb)
                    if tracer is not None:
                        tracer.record("residual", proc, t, rel_now, 0.0, "global")
                x_restore = ctx.checkpoint(x_true, rel_now, proc, t)
                if x_restore is not None:
                    x_true = x_restore
                    for j in range(ngrids):
                        if not mm.grid_down[j]:
                            resync_replica(j)
                    unhealthy = False
            if unhealthy:
                x_restore = ctx.checkpoint(x_true, np.inf, proc, t) if grd is not None else None
                if x_restore is None:
                    diverged = True
                    continue
                x_true = x_restore
                for j in range(ngrids):
                    if not mm.grid_down[j]:
                        resync_replica(j)
            # --- fail-stop crash at the correction boundary ----------
            if injector is not None and injector.crash_due(proc, int(counts[proc])):
                mm.mark_grid_down(proc)
                telemetry.bump("injected_crashes")
                if tracer is not None:
                    tracer.record("fault", proc, t, tag="crash")
                if grd is not None and grd.try_restart():
                    # The heartbeat watchdog notices the silence after
                    # watchdog_timeout and the replacement comes up then.
                    telemetry.bump("watchdog_detections")
                    t_up = t + guard.watchdog_timeout
                    if tracer is not None:
                        tracer.record("guard", proc, t_up, tag="watchdog")
                    q.push(t_up, "restart", proc, None)
                continue
            if keep_going(proc):
                start_compute(proc, t)
        elif kind == "restart":
            mm.mark_grid_up(proc)
            if tracer is not None:
                tracer.record("guard", proc, t, tag="restart")
            # Replica re-sync: one state transfer from a peer.
            t_sync = t + net.transfer_time(msg_bytes)
            resync_replica(proc)
            dedup.clear_rank(proc)
            if keep_going(proc):
                start_compute(proc, t_sync)
        elif kind == "retransmit":
            src, vec, mid, attempt = payload
            transmit(src, proc, vec, t, mid, attempt)
        elif kind == "churn":
            ev = payload
            g_prev = (
                int(mm.rank_grid[ev.rank])
                if 0 <= ev.rank < mm.rank_grid.size
                else -1
            )
            changed = mm.apply_churn(ev, t)
            if (
                ev.kind in ("crash", "leave")
                and g_prev >= 0
                and mm.capacity(g_prev, t) == 0
            ):
                # The whole team backing g_prev is gone — its in-flight
                # correction dies with it (this is the cancellation the
                # indexed queue exists for).  Survivors merely stalled
                # get a wake-up at the earliest stall end.
                if inflight[g_prev] is not None:
                    q.cancel(inflight[g_prev])
                    inflight[g_prev] = None
                nse = mm.next_stall_end(g_prev, t)
                if nse is not None:
                    q.push(nse, "wake", g_prev, None)
            if changed:  # announced (graceful) departures repartition now
                do_repartition(t)
        elif kind == "hb":
            if mm.scan(t):
                do_repartition(t)
            if mm.no_ranks_left:
                stalled = True
                break
            if q.pending() - q.pending("hb") > 0:
                # Keep scanning only while solve/churn events remain;
                # otherwise let the queue drain so the run terminates.
                q.push(t + pol.heartbeat_interval, "hb", -1, None)
        elif kind == "wake":
            if mm.grid_down[proc] or inflight[proc] is not None:
                continue
            if keep_going(proc):
                start_compute(proc, t)
        elif kind == "sync":
            # Checkpoint handoff landed: the grid's fresh team starts
            # from a consistent snapshot; old message ids are moot.
            if mm.grid_down[proc] or inflight[proc] is not None:
                continue
            resync_replica(proc)
            dedup.clear_rank(proc)
            if tracer is not None:
                tracer.record("guard", proc, t, tag="restart")
            if keep_going(proc):
                start_compute(proc, t)
        else:  # msg
            if mm.grid_down[proc]:
                continue  # delivered to a dead process
            src, mid, vec = payload
            if grd is not None and not dedup.first_delivery(proc, mid):
                telemetry.bump("duplicates_discarded")
                if tracer is not None:
                    tracer.record("msg", proc, t, float(mid), float(src), "dup")
                continue
            if tracer is not None:
                tracer.record("msg", proc, t, float(mid), float(src), "recv")
            replicas[proc] += vec

    rel = kernels.residual_norm(A, x_true, b) / nb
    diverged, stalled = final_verdict(
        rel, divergence_threshold, diverged, stalled, all_done(),
        injector is not None or elastic_on,
    )
    membership: Dict[str, int] = {}
    degraded = False
    if elastic_on:
        membership = mm.census()
        # Degraded = the run finished below its commissioned strength:
        # fewer ranks physically alive (even if detection lagged), fewer
        # believed alive, or grids that contributed under-quota because
        # they spent time parked.
        degraded = bool(
            not diverged
            and not stalled
            and (
                membership["physically_alive"] < mm.nranks0
                or mm.believed_ranks() < mm.nranks0
                or bool(np.any(counts < tmax))
            )
        )
    return ctx.result(
        x_true,
        float(rel),
        counts,
        t_end=wall,
        wall_time=wall,
        messages=messages,
        strategy=strategy,
        dropped=dropped,
        diverged=diverged,
        stalled=stalled,
        degraded=degraded,
        nranks=nranks_val if elastic_on else 0,
        membership=membership,
        flops_total=flops_total,
        residual_samples=samples,
        activity_trace=activity,
    )
