"""Tests for elastic membership, recovery, and the event-loop refactor.

Covers the :mod:`repro.distributed.elastic` membership protocol, the
:mod:`repro.distributed.events` queue/dedup structures, the
bit-identity contract of churn-free elastic runs, degradation
semantics under churn, and the resync/restart interaction property.
"""

import heapq

import numpy as np
import pytest

from repro.core.perfmodel import MachineParams
from repro.distributed import (
    ChurnEvent,
    ChurnPlan,
    DedupIndex,
    ElasticityPolicy,
    IndexedEventQueue,
    MembershipManager,
    parse_churn_spec,
    simulate_distributed,
)
from repro.distributed.elastic import ACTIVE, DEAD, JOINING, LEFT, SUSPECT
from repro.observe import Metrics
from repro.observe.events import EVENT_KINDS, MEMBER, RETRY
from repro.resilience import CrashFault, FaultPlan, GuardPolicy
from repro.solvers import Multadd


@pytest.fixture(scope="module")
def multadd(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


#: compute-bound machine so replicas stay fresh and runs converge fast
_MACHINE = MachineParams(flop_rate=2e8, jitter=0.1)


def _run(solver, b, **kw):
    kw.setdefault("machine", _MACHINE)
    kw.setdefault("nthreads_total", 4)
    kw.setdefault("tmax", 15)
    kw.setdefault("seed", 3)
    kw.setdefault("max_events", 120_000)
    return simulate_distributed(solver, b, **kw)


# ----------------------------------------------------------------------
# Event queue / dedup index
# ----------------------------------------------------------------------
class TestIndexedEventQueue:
    def test_pop_order_matches_tuple_heap(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 1, size=200)
        q = IndexedEventQueue()
        ref = []
        for i, t in enumerate(times):
            q.push(float(t), "e", i)
            heapq.heappush(ref, (float(t), i))
        got = [q.pop()[2] for _ in range(len(times))]
        expect = [heapq.heappop(ref)[1] for _ in range(len(times))]
        assert got == expect

    def test_equal_times_pop_in_push_order(self):
        q = IndexedEventQueue()
        for i in range(5):
            q.push(1.0, "e", i)
        assert [q.pop()[2] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_cancel_skips_event(self):
        q = IndexedEventQueue()
        q.push(1.0, "a", 0)
        h = q.push(0.5, "b", 1)
        assert q.cancel(h)
        assert len(q) == 1
        t, kind, proc, _ = q.pop()
        assert (kind, proc) == ("a", 0)

    def test_cancel_is_idempotent_and_o1(self):
        q = IndexedEventQueue()
        h = q.push(1.0, "a", 0)
        assert q.cancel(h)
        assert not q.cancel(h)
        assert q.cancel(None) is False
        assert len(q) == 0
        assert not q

    def test_pending_by_kind(self):
        q = IndexedEventQueue()
        q.push(1.0, "done", 0)
        q.push(2.0, "hb", -1)
        h = q.push(3.0, "done", 1)
        assert q.pending("done") == 2
        assert q.pending("hb") == 1
        assert q.pending() == 3
        q.cancel(h)
        assert q.pending("done") == 1
        q.pop()
        assert q.pending("done") == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedEventQueue().pop()


class TestDedupIndex:
    def test_first_delivery_once(self):
        d = DedupIndex(2)
        assert d.first_delivery(0, 7)
        assert not d.first_delivery(0, 7)
        assert d.first_delivery(1, 7)  # per destination

    def test_clear_rank_forgets(self):
        d = DedupIndex(2)
        d.first_delivery(0, 7)
        d.clear_rank(0)
        assert d.first_delivery(0, 7)


# ----------------------------------------------------------------------
# Churn plans and policy
# ----------------------------------------------------------------------
class TestChurnPlan:
    def test_random_is_deterministic(self):
        a = ChurnPlan.random(40, 0.25, 2.0, seed=5)
        b = ChurnPlan.random(40, 0.25, 2.0, seed=5)
        assert a == b
        assert len(a.events) == 10
        assert all(e.kind == "crash" for e in a.events)
        assert len({e.rank for e in a.events}) == 10  # distinct targets

    def test_random_other_seed_differs(self):
        a = ChurnPlan.random(40, 0.25, 2.0, seed=5)
        b = ChurnPlan.random(40, 0.25, 2.0, seed=6)
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, "crash", 0)
        with pytest.raises(ValueError):
            ChurnEvent(0.0, "flood", 0)
        with pytest.raises(ValueError):
            ChurnEvent(0.0, "stall", 0, duration=0.0)
        with pytest.raises(ValueError):
            ChurnEvent(0.0, "crash", -1)
        with pytest.raises(ValueError):
            ChurnPlan.random(10, 1.5, 1.0)

    def test_parse_spec(self):
        plan = parse_churn_spec(
            "crash:3@0.5; stall:1@0.2,duration=0.3; join:@1.0; leave:2@0.8"
        )
        kinds = [e.kind for e in plan.events]
        assert kinds == ["stall", "crash", "leave", "join"]  # sorted by time
        assert plan.events[0].duration == pytest.approx(0.3)
        assert plan.events[3].rank == -1

    def test_parse_random_clause(self):
        plan = parse_churn_spec("random:0.2@1.0,nranks=20,seed=3")
        assert len(plan.events) == 4
        assert plan == parse_churn_spec("random:0.2@1.0,nranks=20,seed=3")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_churn_spec("crash:3")  # missing @time
        with pytest.raises(ValueError):
            parse_churn_spec("meteor:1@0.5")
        with pytest.raises(ValueError):
            parse_churn_spec("random:0.2@1.0")  # missing nranks
        with pytest.raises(ValueError, match=r"^cannot parse churn clause 'crash:3@0.5,1@0.6'$"):
            parse_churn_spec(" crash:3@0.5,1@0.6 ")


class TestElasticityPolicy:
    def test_derived_timeouts(self):
        pol = ElasticityPolicy(heartbeat_interval=2e-3)
        assert pol.suspect_timeout == pytest.approx(6e-3)
        assert pol.evict_timeout == pytest.approx(1.2e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticityPolicy(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            ElasticityPolicy(heartbeat_interval=-1e-3)


# ----------------------------------------------------------------------
# MembershipManager protocol
# ----------------------------------------------------------------------
def _mm(nranks=4, ngrids=4):
    return MembershipManager(
        ngrids,
        nranks=nranks,
        work=np.array([10.0, 40.0, 30.0, 20.0])[:ngrids],
        policy=ElasticityPolicy(heartbeat_interval=1.0),
    )


class TestMembershipManager:
    def test_initial_assignment_covers_all_grids(self):
        mm = _mm(nranks=8)
        assert np.all(mm.staffed())
        assert sum(mm.capacity(g, 0.0) for g in range(mm.ngrids)) == 8
        assert mm.believed_ranks() == 8

    def test_crash_is_silent_until_scanned(self):
        mm = _mm()
        g = int(mm.rank_grid[1])
        mm.apply_churn(ChurnEvent(0.5, "crash", 1), 0.5)
        assert not mm.alive[1]
        assert mm.rank_state[1] == ACTIVE  # belief unchanged: no omniscience
        assert mm.capacity(g, 0.5) == 0  # but capacity drops instantly

    def test_suspect_then_evict_timeline(self):
        mm = _mm()
        mm.scan(1.0)
        mm.apply_churn(ChurnEvent(1.5, "crash", 2), 1.5)
        assert not mm.scan(2.0)  # silent for 1.0 < suspect_timeout (3.0)
        assert mm.rank_state[2] == ACTIVE
        assert not mm.scan(4.5)  # silent 3.5 > suspect, < evict (6.0)
        assert mm.rank_state[2] == SUSPECT
        assert mm.scan(7.5)  # silent 6.5 > evict → membership change
        assert mm.rank_state[2] == DEAD
        assert mm.rank_grid[2] == -1

    def test_stall_then_recover(self):
        mm = _mm()
        mm.scan(1.0)
        g = int(mm.rank_grid[0])
        mm.apply_churn(ChurnEvent(1.5, "stall", 0, duration=4.0), 1.5)
        assert mm.capacity(g, 2.0) == 0  # stalled rank contributes nothing
        assert mm.next_stall_end(g, 2.0) == pytest.approx(5.5)
        mm.scan(4.5)
        assert mm.rank_state[0] == SUSPECT
        assert not mm.scan(6.0)  # beats again after the stall: recovery
        assert mm.rank_state[0] == ACTIVE
        assert mm.rank_grid[0] == g  # assignment kept across recovery

    def test_join_lifecycle(self):
        mm = _mm()
        mm.apply_churn(ChurnEvent(0.5, "join", -1), 0.5)
        assert mm.rank_state[4] == JOINING
        assert mm.believed_ranks() == 4  # not yet admitted
        assert mm.scan(1.0)
        assert mm.rank_state[4] == ACTIVE
        assert mm.believed_ranks() == 5

    def test_leave_is_announced(self):
        mm = _mm()
        changed = mm.apply_churn(ChurnEvent(0.5, "leave", 3), 0.5)
        assert changed
        assert mm.rank_state[3] == LEFT
        assert mm.believed_ranks() == 3

    def test_repartition_parks_and_hands_off(self):
        mm = _mm()  # one rank per grid
        mm.scan(1.0)
        mm.apply_churn(ChurnEvent(1.5, "crash", 1), 1.5)
        for t in (4.5, 7.5):
            mm.scan(t)
        teams, handoffs = mm.repartition(7.5)
        assert teams.sum() == 3
        assert teams[0] == 0  # smallest-work grid parked
        # grid 1 (largest work) is re-staffed by grid 0's old rank and
        # needs a checkpoint handoff; no survivor of its old team.
        assert teams[1] == 1
        assert handoffs == [1]
        assert not mm.staffed()[0]

    def test_repartition_moves_minimally(self):
        mm = _mm(nranks=8)
        before = mm.rank_grid.copy()
        teams, handoffs = mm.repartition(1.0)
        assert np.array_equal(mm.rank_grid, before)  # nothing changed
        assert handoffs == []

    def test_census(self):
        mm = _mm()
        mm.apply_churn(ChurnEvent(0.5, "leave", 3), 0.5)
        cen = mm.census()
        assert cen["initial_ranks"] == 4
        assert cen["active"] == 3
        assert cen["left"] == 1
        assert cen["physically_alive"] == 3

    def test_grid_down_routing(self):
        mm = _mm(nranks=0)
        mm.mark_grid_down(2)
        assert mm.grid_down[2]
        mm.mark_grid_up(2)
        assert not mm.grid_down[2]

    def test_no_ranks_left_once_every_rank_is_evicted(self):
        mm = _mm()
        mm.scan(1.0)
        for r in range(4):
            mm.apply_churn(ChurnEvent(1.5, "crash", r), 1.5)
        mm.scan(4.5)
        assert not mm.no_ranks_left  # suspects are still believed usable
        mm.scan(7.5)
        assert mm.believed_ranks() == 0 and mm.no_ranks_left


# ----------------------------------------------------------------------
# Bit-identity of churn-free elastic runs
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("strategy", ["global", "local"])
    def test_churn_free_elastic_equals_plain(self, multadd, b_7pt, strategy):
        plain = _run(multadd, b_7pt, strategy=strategy)
        el = _run(multadd, b_7pt, strategy=strategy, elastic=ElasticityPolicy())
        assert np.array_equal(plain.x, el.x)  # bitwise
        assert plain.wall_time == el.wall_time
        assert plain.messages == el.messages
        assert np.array_equal(plain.counts, el.counts)
        assert plain.rel_residual == el.rel_residual
        assert not el.degraded

    def test_identity_holds_under_guarded_message_faults(self, multadd, b_7pt):
        kw = dict(
            faults=FaultPlan(drop_probability=0.05, seed=11),
            guard=GuardPolicy(retransmit_timeout=1e-5, watchdog_timeout=1e-4),
        )
        plain = _run(multadd, b_7pt, **kw)
        el = _run(multadd, b_7pt, elastic=ElasticityPolicy(), **kw)
        assert np.array_equal(plain.x, el.x)
        assert plain.wall_time == el.wall_time
        assert plain.dropped == el.dropped
        assert plain.telemetry.retransmissions == el.telemetry.retransmissions


# ----------------------------------------------------------------------
# Degradation under churn
# ----------------------------------------------------------------------
class TestDegradation:
    GUARD = GuardPolicy(watchdog_timeout=1e-4, retransmit_timeout=1e-5)
    POLICY = ElasticityPolicy(heartbeat_interval=2e-4)

    def test_rank_crash_degrades_but_converges(self, multadd, b_7pt):
        ng = multadd.ngrids
        churn = ChurnPlan(events=(ChurnEvent(1e-3, "crash", 1),))
        res = _run(
            multadd,
            b_7pt,
            criterion="criterion2",
            nthreads_total=ng,
            nranks=ng,
            elastic=self.POLICY,
            churn=churn,
            guard=self.GUARD,
        )
        assert not res.diverged and not res.stalled
        assert res.degraded
        assert res.rel_residual < 1e-3
        assert res.membership["dead"] == 1
        assert res.membership["parked_grids"] == 1
        tel = res.telemetry
        assert tel.rank_crashes == 1
        assert tel.member_suspects >= 1
        assert tel.member_evictions == 1
        assert tel.repartitions >= 1
        assert tel.handoffs >= 1

    def test_unguarded_static_run_stalls_instead(self, multadd, b_7pt):
        res = _run(
            multadd,
            b_7pt,
            criterion="criterion2",
            faults=FaultPlan(crashes=(CrashFault(1, 3),)),
        )
        assert res.stalled and not res.degraded

    def test_stall_then_return_recovers_full_strength(self, multadd, b_7pt):
        ng = multadd.ngrids
        churn = ChurnPlan(events=(ChurnEvent(5e-4, "stall", 0, duration=2e-3),))
        res = _run(
            multadd,
            b_7pt,
            criterion="criterion2",
            nthreads_total=ng,
            nranks=ng,
            elastic=self.POLICY,
            churn=churn,
        )
        assert not res.diverged and not res.stalled
        assert res.rel_residual < 1e-3
        assert res.telemetry.rank_stalls == 1
        assert res.membership["physically_alive"] == ng
        assert np.all(res.counts >= 15)  # everyone finished after the pause

    def test_join_adds_capacity(self, multadd, b_7pt):
        ng = multadd.ngrids
        churn = ChurnPlan(events=(ChurnEvent(5e-4, "join", -1),))
        res = _run(
            multadd,
            b_7pt,
            nthreads_total=ng,
            nranks=ng,
            elastic=self.POLICY,
            churn=churn,
        )
        assert not res.diverged and not res.stalled
        assert res.telemetry.member_joins == 1
        assert res.membership["active"] == ng + 1

    def test_thousand_rank_run_completes(self, multadd, b_7pt):
        res = _run(
            multadd,
            b_7pt,
            tmax=10,
            nthreads_total=1024,
            nranks=1024,
            elastic=ElasticityPolicy(),
        )
        assert not res.diverged and not res.stalled and not res.degraded
        assert np.all(res.counts == 10)
        assert res.nranks == 1024


# ----------------------------------------------------------------------
# resync_replica × Guard.try_restart interaction
# ----------------------------------------------------------------------
class TestRestartResync:
    """A restarted process must re-enter from a consistent checkpoint.

    The property (over seeds): every replica read a grid performs —
    including the first one after a watchdog restart — observes a commit
    epoch that is exactly the number of corrections committed before the
    read.  A torn iterate would surface as an impossible epoch.
    """

    GUARD = GuardPolicy(watchdog_timeout=1e-4, retransmit_timeout=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_restart_reads_consistent_epoch(self, multadd, b_7pt, seed):
        from repro.observe import Tracer

        tracer = Tracer(clock="sim")
        res = _run(
            multadd,
            b_7pt,
            seed=seed,
            criterion="criterion2",
            faults=FaultPlan(crashes=(CrashFault(1, 3),), seed=seed),
            guard=self.GUARD,
            tracer=tracer,
        )
        assert res.telemetry.restarts >= 1
        assert not res.diverged and not res.stalled
        assert res.rel_residual < 1e-3
        events = tracer.events()
        restarts = [e for e in events if e.kind == "guard" and e.tag == "restart"]
        assert restarts
        commits = sorted(e.t for e in events if e.kind == "correct_end")
        reads = [e for e in events if e.kind == "read"]
        t_restart = restarts[0].t
        post = [e for e in reads if e.t >= t_restart]
        assert post, "restarted grid never read again"
        for e in reads:
            lo = sum(1 for tc in commits if tc < e.t)
            hi = sum(1 for tc in commits if tc <= e.t)
            assert lo <= e.a <= hi, (
                f"read at t={e.t} observed epoch {e.a}, but only "
                f"[{lo}, {hi}] commits had happened — torn state"
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_restart_budget_respected(self, multadd, b_7pt, seed):
        guard = GuardPolicy(
            watchdog_timeout=1e-4, retransmit_timeout=1e-5, max_restarts=1
        )
        res = _run(
            multadd,
            b_7pt,
            seed=seed,
            faults=FaultPlan(crashes=(CrashFault(0, 2), CrashFault(1, 4))),
            guard=guard,
        )
        assert res.telemetry.restarts <= 1


# ----------------------------------------------------------------------
# Telemetry and observability surface
# ----------------------------------------------------------------------
class TestTelemetryAccounting:
    def test_message_accounting_identity(self, multadd, b_7pt):
        res = _run(
            multadd,
            b_7pt,
            faults=FaultPlan(drop_probability=0.1, seed=2),
            guard=GuardPolicy(retransmit_timeout=1e-5, watchdog_timeout=1e-4),
        )
        tel = res.telemetry
        assert tel.messages_sent == tel.messages_delivered + tel.messages_dropped
        assert tel.messages_delivered == res.messages
        assert tel.messages_dropped == res.dropped
        assert sum(tel.delivery_attempts.values()) == tel.messages_delivered
        # retries happened and some messages needed more than one attempt
        assert tel.retransmissions > 0
        assert any(k > 1 for k in tel.delivery_attempts)

    def test_delivery_histogram_flattened_for_metrics(self, multadd, b_7pt):
        res = _run(
            multadd,
            b_7pt,
            faults=FaultPlan(drop_probability=0.1, seed=2),
            guard=GuardPolicy(retransmit_timeout=1e-5, watchdog_timeout=1e-4),
        )
        metrics = Metrics()
        metrics.register_provider("resilience", res.telemetry.as_dict)
        collected = metrics.collect()["providers"]["resilience"]
        assert collected["messages_sent"] == res.telemetry.messages_sent
        assert collected["delivery_attempts[1]"] > 0
        assert "delivery_attempts[2]" in collected

    def test_merge_folds_histograms(self):
        from repro.resilience import FaultTelemetry

        a, b = FaultTelemetry(), FaultTelemetry()
        a.record_delivery(1)
        a.record_delivery(2)
        b.record_delivery(2)
        b.bump("member_joins")
        a.merge(b)
        assert a.delivery_attempts == {1: 1, 2: 2}
        assert a.member_joins == 1
        with pytest.raises(ValueError):
            a.record_delivery(0)

    def test_member_retry_event_kinds_registered(self):
        assert MEMBER in EVENT_KINDS and RETRY in EVENT_KINDS

    def test_member_events_traced_and_exported(self, multadd, b_7pt):
        from repro.observe import Tracer, to_chrome_trace

        ng = multadd.ngrids
        tracer = Tracer(clock="sim")
        churn = ChurnPlan(events=(ChurnEvent(1e-3, "crash", 1),))
        res = _run(
            multadd,
            b_7pt,
            criterion="criterion2",
            nthreads_total=ng,
            nranks=ng,
            elastic=ElasticityPolicy(heartbeat_interval=2e-4),
            churn=churn,
            guard=GuardPolicy(watchdog_timeout=1e-4, retransmit_timeout=1e-5),
            tracer=tracer,
        )
        assert res.degraded
        events = tracer.events()
        tags = {e.tag for e in events if e.kind == MEMBER}
        assert {"crash", "suspect", "evict", "repartition", "handoff"} <= tags
        chrome = to_chrome_trace(events, clock="sim")
        names = {ev.get("name", "") for ev in chrome["traceEvents"]}
        assert any(name.startswith("member:") for name in names)
