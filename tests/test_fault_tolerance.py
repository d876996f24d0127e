"""Fault injection against the three executors, plus the acceptance run.

The headline property (ISSUE acceptance): on 27-point Poisson under
simultaneous faults — one crashed grid, 1% corrupted corrections, and
(distributed) 5% message drop — a guarded run of every backend still
reaches ``rel_residual < 1e-6``, while the identical unguarded run
diverges or stalls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import run_async_engine
from repro.core.perfmodel import MachineParams
from repro.core.threaded import run_threaded
from repro.distributed import NetworkModel, simulate_distributed
from repro.problems import laplacian_27pt, random_rhs
from repro.resilience import (
    CHECKPOINT_ROUNDS,
    MAX_RETRANSMITS,
    CrashFault,
    FaultPlan,
    GuardPolicy,
    StallFault,
)
from repro.solvers import Multadd

TOL = 1e-6

# The acceptance fault cocktail: grid 1 dies after 5 corrections and
# 1% of corrections are NaN-poisoned; distributed runs add 5% drop.
CRASH_PLAN = FaultPlan(crashes=(CrashFault(1, 5),), seed=0)
COCKTAIL = FaultPlan(
    crashes=(CrashFault(1, 5),),
    corruption_probability=0.01,
    corruption_mode="nan",
    seed=0,
)
COCKTAIL_DROP = FaultPlan(
    crashes=(CrashFault(1, 5),),
    corruption_probability=0.01,
    corruption_mode="nan",
    drop_probability=0.05,
    seed=0,
)


@pytest.fixture(scope="module")
def multadd27():
    # aggressive_levels=0 keeps >= 3 grids on the small problem, so one
    # crashed grid still leaves a multilevel method behind.
    A = laplacian_27pt(8)
    h = setup_hierarchy(A, SetupOptions(aggressive_levels=0, max_coarse=20))
    solver = Multadd(h, smoother="jacobi", weight=0.9)
    assert solver.ngrids >= 3
    return solver


@pytest.fixture(scope="module")
def b27():
    return random_rhs(512, seed=7)


def _engine(solver, b, **kw):
    kw.setdefault("tmax", 40)
    kw.setdefault("criterion", "criterion2")
    kw.setdefault("alpha", 0.5)
    kw.setdefault("seed", 0)
    return run_async_engine(solver, b, **kw)


class TestEngineFaults:
    def test_crash_guarded_recovers(self, multadd27, b27):
        res = _engine(
            multadd27,
            b27,
            faults=CRASH_PLAN,
            guard=GuardPolicy(watchdog_microsteps=2000),
        )
        assert not res.diverged and not res.stalled
        assert res.rel_residual < TOL
        assert res.telemetry.injected_crashes == 1
        assert res.telemetry.watchdog_detections >= 1
        assert res.telemetry.restarts == 1

    def test_crash_unguarded_stalls(self, multadd27, b27):
        # Criterion2 needs every grid to reach tmax; a dead grid makes
        # that impossible, and without guards nobody restarts it.
        res = _engine(multadd27, b27, faults=CRASH_PLAN)
        assert res.stalled and not res.diverged
        assert res.telemetry.injected_crashes == 1
        assert res.telemetry.restarts == 0

    def test_corruption_unguarded_diverges(self, multadd27, b27):
        res = _engine(
            multadd27, b27, faults=FaultPlan(corruption_probability=0.05, seed=0)
        )
        assert res.diverged and not res.stalled

    def test_corruption_guarded_converges(self, multadd27, b27):
        res = _engine(
            multadd27,
            b27,
            faults=FaultPlan(corruption_probability=0.05, seed=0),
            guard=GuardPolicy(),
        )
        assert not res.diverged and res.rel_residual < TOL
        assert res.telemetry.injected_corruptions > 0
        assert res.telemetry.corrections_rejected == res.telemetry.injected_corruptions

    def test_scale_corruption_contained_by_guards(self, multadd27, b27):
        # Exponent-bit-flip corruption that slips under the magnitude
        # screen cannot be fully repaired, but guards must *contain*
        # it: the unguarded run diverges, the guarded one never does.
        plan = FaultPlan(corruption_probability=0.05, corruption_mode="scale", seed=0)
        off = _engine(multadd27, b27, faults=plan)
        assert off.diverged
        on = _engine(
            multadd27, b27, faults=plan, guard=GuardPolicy(on_magnitude="clamp")
        )
        assert not on.diverged
        assert on.telemetry.corrections_clamped > 0
        assert on.telemetry.rollbacks > 0

    def test_stall_is_transient(self, multadd27, b27):
        res = _engine(
            multadd27,
            b27,
            faults=FaultPlan(stalls=(StallFault(1, 3, 500.0),), seed=0),
        )
        # A straggler delays but never prevents convergence (the
        # paper's no-deadlock property) — even without guards.
        assert not res.diverged and not res.stalled
        assert res.rel_residual < TOL
        assert res.telemetry.injected_stalls == 1

    def test_deterministic_under_faults(self, multadd27, b27):
        kw = dict(faults=COCKTAIL, guard=GuardPolicy(watchdog_microsteps=2000))
        r1 = _engine(multadd27, b27, **kw)
        r2 = _engine(multadd27, b27, **kw)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.telemetry.as_dict() == r2.telemetry.as_dict()

    def test_guard_is_noop_without_faults(self, multadd27, b27):
        plain = _engine(multadd27, b27)
        guarded = _engine(multadd27, b27, guard=GuardPolicy())
        np.testing.assert_array_equal(plain.x, guarded.x)
        assert guarded.telemetry.corrections_rejected == 0
        assert guarded.telemetry.rollbacks == 0
        rounds = int(guarded.counts.sum()) // (CHECKPOINT_ROUNDS * multadd27.ngrids)
        assert guarded.telemetry.checkpoints == rounds > 0

    def test_divergence_threshold_flags_diverged(self, multadd27, b27):
        # Satellite: an over-relaxed smoother blows up; the engine must
        # report diverged=True (never stalled) instead of running on.
        bad = Multadd(multadd27.hierarchy, smoother="jacobi", weight=1.99)
        res = _engine(bad, b27, tmax=100, divergence_threshold=1e3)
        assert res.diverged
        assert not res.stalled


class TestThreadedFaults:
    GUARD = GuardPolicy(watchdog_timeout=0.1, checkpoint_period_s=0.02)
    # Real threads stop at the instant the *slowest* grid meets its
    # quota, so the exit-time residual is scheduling-dependent; a
    # generous tmax keeps the worst case far below TOL.
    TMAX = 150

    def test_crash_guarded_recovers(self, multadd27, b27):
        res = run_threaded(
            multadd27,
            b27,
            tmax=self.TMAX,
            criterion="criterion2",
            faults=CRASH_PLAN,
            guard=self.GUARD,
            timeout=120.0,
        )
        assert not res.diverged and not res.stalled
        assert res.rel_residual < TOL
        assert res.telemetry.injected_crashes == 1
        assert res.telemetry.restarts == 1
        # The restarted worker finished its quota.
        assert int(res.counts[1]) >= self.TMAX

    def test_crash_unguarded_stalls(self, multadd27, b27):
        res = run_threaded(
            multadd27,
            b27,
            tmax=40,
            criterion="criterion2",
            faults=CRASH_PLAN,
            timeout=120.0,
        )
        # The supervisor notices the dead worker quickly and stops the
        # survivors instead of spinning until the timeout.
        assert res.stalled and not res.diverged
        assert res.telemetry.restarts == 0

    def test_corruption_unguarded_diverges(self, multadd27, b27):
        res = run_threaded(
            multadd27,
            b27,
            tmax=40,
            criterion="criterion2",
            faults=FaultPlan(corruption_probability=0.2, seed=0),
            timeout=120.0,
        )
        assert res.diverged

    def test_corruption_guarded_converges(self, multadd27, b27):
        res = run_threaded(
            multadd27,
            b27,
            tmax=self.TMAX,
            criterion="criterion2",
            faults=FaultPlan(corruption_probability=0.05, seed=0),
            guard=self.GUARD,
            timeout=120.0,
        )
        assert not res.diverged and not res.stalled
        assert res.rel_residual < TOL
        assert res.telemetry.corrections_rejected > 0


class TestDistributedFaults:
    GUARD = GuardPolicy(watchdog_timeout=1e-4, retransmit_timeout=1e-5)

    def _run(self, solver, b, **kw):
        kw.setdefault("tmax", 40)
        kw.setdefault("criterion", "criterion2")
        kw.setdefault("network", NetworkModel(seed=0))
        # Compute-bound regime: replicas stay fresh, so the residual at
        # exit reflects the faults, not network staleness.
        kw.setdefault("machine", MachineParams(flop_rate=2e8, jitter=0.1))
        kw.setdefault("nthreads_total", 4)
        kw.setdefault("seed", 0)
        kw.setdefault("max_events", 120_000)
        return simulate_distributed(solver, b, **kw)

    def test_crash_guarded_recovers(self, multadd27, b27):
        res = self._run(multadd27, b27, faults=CRASH_PLAN, guard=self.GUARD)
        assert not res.diverged and not res.stalled
        assert res.rel_residual < TOL
        assert res.telemetry.injected_crashes == 1
        assert res.telemetry.restarts == 1

    def test_crash_unguarded_stalls(self, multadd27, b27):
        res = self._run(multadd27, b27, faults=CRASH_PLAN)
        assert res.stalled and not res.diverged

    def test_drop_with_retransmission(self, multadd27, b27):
        res = self._run(
            multadd27,
            b27,
            faults=FaultPlan(drop_probability=0.1, seed=0),
            guard=self.GUARD,
        )
        assert not res.diverged and not res.stalled
        assert res.rel_residual < TOL
        tel = res.telemetry
        assert tel.retransmissions > 0
        assert res.dropped > 0
        # Every drop is either re-sent or given up on, and no message
        # is sent more than 1 + MAX_RETRANSMITS times.
        assert tel.messages_dropped == tel.retransmissions + tel.messages_lost
        assert max(tel.delivery_attempts) <= 1 + MAX_RETRANSMITS

    def test_retransmit_budget_bounds_attempts(self, multadd27, b27):
        # At 50% loss some messages use up the whole budget: the last
        # attempt that can deliver is attempt 1 + MAX_RETRANSMITS.
        res = self._run(
            multadd27,
            b27,
            tmax=10,
            criterion="criterion1",
            faults=FaultPlan(drop_probability=0.5, seed=0),
            guard=self.GUARD,
        )
        tel = res.telemetry
        assert tel.messages_lost > 0
        assert tel.messages_dropped == tel.retransmissions + tel.messages_lost
        assert max(tel.delivery_attempts) == 1 + MAX_RETRANSMITS

    def test_guard_checkpoint_cadence(self, multadd27, b27):
        res = self._run(multadd27, b27, guard=self.GUARD)
        assert not res.diverged and not res.stalled
        rounds = int(res.counts.sum()) // (CHECKPOINT_ROUNDS * multadd27.ngrids)
        assert res.telemetry.checkpoints == rounds > 0
        assert res.telemetry.rollbacks == 0

    def test_duplicates_are_deduplicated(self, multadd27, b27):
        res = self._run(
            multadd27,
            b27,
            faults=FaultPlan(duplicate_probability=0.2, seed=0),
            guard=self.GUARD,
        )
        assert not res.diverged
        assert res.telemetry.messages_duplicated > 0
        assert res.telemetry.duplicates_discarded > 0
        assert res.rel_residual < TOL

    def test_delays_counted(self, multadd27, b27):
        res = self._run(
            multadd27,
            b27,
            faults=FaultPlan(delay_probability=0.2, delay_factor=20.0, seed=0),
        )
        assert res.telemetry.messages_delayed > 0
        assert not res.diverged

    def test_deterministic_under_faults(self, multadd27, b27):
        out = []
        for _ in range(2):
            res = self._run(
                multadd27,
                b27,
                network=NetworkModel(seed=0),  # fresh stateful RNGs per run
                faults=COCKTAIL_DROP,
                guard=self.GUARD,
            )
            out.append(res)
        np.testing.assert_array_equal(out[0].x, out[1].x)
        assert out[0].telemetry.as_dict() == out[1].telemetry.as_dict()
        assert out[0].messages == out[1].messages

    # -- satellites ----------------------------------------------------
    def test_max_events_budget_raises_without_faults(self, multadd27, b27):
        with pytest.raises(RuntimeError, match="event budget"):
            self._run(multadd27, b27, max_events=50)

    def test_network_drops_counted_without_plan(self, multadd27, b27):
        res = self._run(
            multadd27,
            b27,
            tmax=10,
            criterion="criterion1",
            network=NetworkModel(drop_probability=0.2, seed=0),
        )
        assert res.dropped > 0
        # Lossy transport without retransmission: sent + lost accounts
        # for every transmission attempt.
        total = int(res.counts.sum()) * (multadd27.ngrids - 1)
        assert res.messages + res.dropped == total


class TestAcceptance:
    """ISSUE acceptance: guarded runs of all three backends survive the
    simultaneous-fault cocktail; unguarded runs diverge or stall."""

    def test_engine(self, multadd27, b27):
        on = _engine(
            multadd27,
            b27,
            faults=COCKTAIL,
            guard=GuardPolicy(watchdog_microsteps=2000),
        )
        off = _engine(multadd27, b27, faults=COCKTAIL)
        assert on.rel_residual < TOL and not on.diverged and not on.stalled
        assert off.diverged or off.stalled

    def test_threaded(self, multadd27, b27):
        on = run_threaded(
            multadd27,
            b27,
            tmax=TestThreadedFaults.TMAX,
            criterion="criterion2",
            faults=COCKTAIL,
            guard=TestThreadedFaults.GUARD,
            timeout=120.0,
        )
        off = run_threaded(
            multadd27,
            b27,
            tmax=40,
            criterion="criterion2",
            faults=COCKTAIL,
            timeout=120.0,
        )
        assert on.rel_residual < TOL and not on.diverged and not on.stalled
        assert off.diverged or off.stalled

    def test_distributed(self, multadd27, b27):
        run = TestDistributedFaults()
        on = run._run(
            multadd27, b27, faults=COCKTAIL_DROP, guard=TestDistributedFaults.GUARD
        )
        off = run._run(multadd27, b27, faults=COCKTAIL_DROP)
        assert on.rel_residual < TOL and not on.diverged and not on.stalled
        assert off.diverged or off.stalled
