"""Unit tests for the resilience layer: plans, parsing, injector, guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultTelemetry,
    Guard,
    GuardPolicy,
    StallFault,
    parse_fault_spec,
)


class TestFaultPlanValidation:
    def test_default_plan_is_inactive(self):
        plan = FaultPlan()
        assert not plan.active
        assert not plan

    def test_any_fault_activates(self):
        assert FaultPlan(crashes=(CrashFault(0, 1),)).active
        assert FaultPlan(stalls=(StallFault(0, 1, 2.0),)).active
        assert FaultPlan(corruption_probability=0.1).active
        assert FaultPlan(drop_probability=0.1).active
        assert FaultPlan(duplicate_probability=0.1).active
        assert FaultPlan(delay_probability=0.1).active

    @pytest.mark.parametrize(
        "kw",
        [
            {"corruption_probability": 1.0},
            {"corruption_probability": -0.1},
            {"drop_probability": 1.5},
            {"duplicate_probability": -1e-9},
            {"delay_probability": 2.0},
            {"corruption_mode": "flip"},
            {"corruption_scale": 0.0},
            {"delay_factor": -1.0},
        ],
    )
    def test_bad_parameters_raise(self, kw):
        with pytest.raises(ValueError):
            FaultPlan(**kw)

    def test_bad_fault_coordinates_raise(self):
        with pytest.raises(ValueError):
            CrashFault(-1, 0)
        with pytest.raises(ValueError):
            StallFault(0, -2, 1.0)
        with pytest.raises(ValueError):
            StallFault(0, 0, 0.0)

    def test_lists_are_normalised_to_tuples(self):
        plan = FaultPlan(crashes=[CrashFault(1, 5)], stalls=[StallFault(0, 1, 3.0)])
        assert isinstance(plan.crashes, tuple)
        assert isinstance(plan.stalls, tuple)


class TestParseFaultSpec:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "crash:1@5; stall:2@3,duration=200; corrupt:p=0.01,mode=scale,scale=1e6;"
            "drop:p=0.05; dup:p=0.02; delay:p=0.1,factor=5",
            seed=42,
        )
        assert plan.crashes == (CrashFault(1, 5),)
        assert plan.stalls == (StallFault(2, 3, 200.0),)
        assert plan.corruption_probability == 0.01
        assert plan.corruption_mode == "scale"
        assert plan.corruption_scale == 1e6
        assert plan.drop_probability == 0.05
        assert plan.duplicate_probability == 0.02
        assert plan.delay_probability == 0.1
        assert plan.delay_factor == 5.0
        assert plan.seed == 42

    def test_keyword_form_equals_shorthand(self):
        assert (
            parse_fault_spec("crash:grid=1,after=5").crashes
            == parse_fault_spec("crash:1@5").crashes
        )

    def test_repeated_clauses_accumulate(self):
        plan = parse_fault_spec("crash:0@1;crash:2@4")
        assert plan.crashes == (CrashFault(0, 1), CrashFault(2, 4))

    def test_empty_spec_is_inactive(self):
        assert not parse_fault_spec("").active
        assert not parse_fault_spec(" ; ; ").active

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("explode:p=0.5")

    def test_missing_option_raises(self):
        with pytest.raises(ValueError, match="missing option"):
            parse_fault_spec("corrupt:mode=nan")
        with pytest.raises(ValueError, match="missing option"):
            parse_fault_spec("crash:after=3")

    def test_garbage_clause_raises(self):
        with pytest.raises(ValueError):
            parse_fault_spec("crash:1@5,2@6,3@7")
        with pytest.raises(ValueError, match=r"^cannot parse fault clause 'crash:1@5,2@6'$"):
            parse_fault_spec("crash:1@5,2@6")


class TestFaultInjector:
    def test_out_of_range_grid_raises(self):
        plan = FaultPlan(crashes=(CrashFault(5, 1),))
        with pytest.raises(ValueError, match="out of range"):
            FaultInjector(plan, ngrids=3)

    def test_crash_is_one_shot(self):
        inj = FaultInjector(FaultPlan(crashes=(CrashFault(1, 3),)), ngrids=2)
        assert not inj.crash_due(1, 2)
        assert inj.crash_due(1, 3)
        # The sentence is consumed: a restarted replacement survives.
        assert not inj.crash_due(1, 3)
        assert not inj.crash_due(1, 100)
        assert not inj.crash_due(0, 100)

    def test_earliest_crash_wins(self):
        plan = FaultPlan(crashes=(CrashFault(0, 9), CrashFault(0, 4)))
        inj = FaultInjector(plan, ngrids=1)
        assert inj.crash_due(0, 4)

    def test_stall_lookup(self):
        inj = FaultInjector(FaultPlan(stalls=(StallFault(2, 7, 50.0),)), ngrids=3)
        assert inj.stall_due(2, 7) == 50.0
        assert inj.stall_due(2, 6) is None
        assert inj.stall_due(1, 7) is None

    @pytest.mark.parametrize(
        "mode,check",
        [
            ("nan", lambda v: np.isnan(v).any()),
            ("inf", lambda v: np.isinf(v).any()),
            ("scale", lambda v: np.abs(v).max() > 1e6),
        ],
    )
    def test_corruption_modes(self, mode, check):
        plan = FaultPlan(
            corruption_probability=0.999, corruption_mode=mode, corruption_scale=1e8
        )
        inj = FaultInjector(plan, ngrids=1)
        e = np.ones(16)
        tele = FaultTelemetry()
        out = inj.corrupt(e, tele)
        assert check(out)
        # Only one entry is perturbed and the input is untouched.
        assert np.all(e == 1.0)
        assert np.sum(out != 1.0) == 1
        assert tele.injected_corruptions == 1

    def test_corrupt_noop_at_zero_probability(self):
        inj = FaultInjector(FaultPlan(), ngrids=1)
        e = np.ones(8)
        assert inj.corrupt(e) is e

    def test_corruption_stream_independent_of_message_faults(self):
        # Enabling drop/dup/delay must not perturb the corruption
        # sequence for a fixed seed (independent spawned streams).
        base = FaultPlan(corruption_probability=0.5, corruption_mode="scale", seed=3)
        noisy = FaultPlan(
            corruption_probability=0.5,
            corruption_mode="scale",
            drop_probability=0.3,
            duplicate_probability=0.3,
            delay_probability=0.3,
            seed=3,
        )
        a, bnj = FaultInjector(base, 2), FaultInjector(noisy, 2)
        for _ in range(50):
            # Interleave message sampling on one side only.
            bnj.message_dropped(), bnj.message_duplicated(), bnj.message_delay_factor()
            ea = a.corrupt(np.ones(32))
            eb = bnj.corrupt(np.ones(32))
            np.testing.assert_array_equal(ea, eb)

    def test_message_fault_rates(self):
        plan = FaultPlan(
            drop_probability=0.3, duplicate_probability=0.1, delay_probability=0.2
        )
        inj = FaultInjector(plan, ngrids=1)
        n = 4000
        drops = sum(inj.message_dropped() for _ in range(n)) / n
        dups = sum(inj.message_duplicated() for _ in range(n)) / n
        delays = sum(inj.message_delay_factor() is not None for _ in range(n)) / n
        assert abs(drops - 0.3) < 0.05
        assert abs(dups - 0.1) < 0.05
        assert abs(delays - 0.2) < 0.05
        assert inj.message_delay_factor() in (None, plan.delay_factor)


class TestGuardPolicy:
    @pytest.mark.parametrize(
        "kw",
        [
            {"on_magnitude": "ignore"},
            {"magnitude_bound": 0.0},
            {"spike_factor": 1.0},
            {"checkpoint_period_s": 0.0},
            {"max_rollbacks": -1},
            {"max_restarts": -2},
            {"watchdog_timeout": 0.0},
            {"retransmit_timeout": -1e-3},
        ],
    )
    def test_bad_policy_raises(self, kw):
        with pytest.raises(ValueError):
            GuardPolicy(**kw)


class TestGuardScreen:
    def test_finite_correction_passes_through(self):
        g = Guard(GuardPolicy(), ref_norm=1.0)
        e = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(g.screen(e), e)
        assert g.telemetry.corrections_rejected == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        g = Guard(GuardPolicy(), ref_norm=1.0)
        assert g.screen(np.array([1.0, bad])) is None
        assert g.telemetry.corrections_rejected == 1

    def test_magnitude_reject(self):
        g = Guard(GuardPolicy(magnitude_bound=10.0), ref_norm=2.0)
        assert g.screen(np.array([0.0, 21.0])) is None  # 21 > 10 * 2
        np.testing.assert_array_equal(
            g.screen(np.array([0.0, 19.0])), np.array([0.0, 19.0])
        )

    def test_magnitude_clamp(self):
        g = Guard(
            GuardPolicy(magnitude_bound=10.0, on_magnitude="clamp"), ref_norm=1.0
        )
        out = g.screen(np.array([0.0, 40.0]))
        np.testing.assert_allclose(out, np.array([0.0, 10.0]))
        assert g.telemetry.corrections_clamped == 1
        assert g.telemetry.corrections_rejected == 0

    def test_empty_vector_passes(self):
        g = Guard(GuardPolicy(), ref_norm=1.0)
        assert g.screen(np.zeros(0)).size == 0


class TestGuardCheckpointRollback:
    def test_checkpoint_then_rollback_on_spike(self):
        g = Guard(GuardPolicy(spike_factor=10.0), ref_norm=1.0)
        x1 = np.array([1.0, 2.0])
        action, restore = g.checkpoint_or_rollback(x1, 0.1)
        assert action == "checkpoint" and restore is None
        action, restore = g.checkpoint_or_rollback(np.array([9.0, 9.0]), 5.0)
        assert action == "rollback"
        np.testing.assert_array_equal(restore, x1)
        assert g.telemetry.rollbacks == 1

    def test_nonfinite_residual_triggers_rollback(self):
        g = Guard(GuardPolicy(), ref_norm=1.0)
        g.checkpoint_or_rollback(np.zeros(2), 0.5)
        action, restore = g.checkpoint_or_rollback(np.ones(2), np.nan)
        assert action == "rollback" and restore is not None

    def test_restore_is_a_copy(self):
        g = Guard(GuardPolicy(), ref_norm=1.0)
        x = np.array([1.0])
        g.checkpoint_or_rollback(x, 0.5)
        x[0] = 99.0  # mutating the offered iterate must not taint the snapshot
        _, restore = g.checkpoint_or_rollback(x, np.inf)
        assert restore[0] == 1.0

    def test_budget_exhaustion(self):
        g = Guard(GuardPolicy(max_rollbacks=1), ref_norm=1.0)
        g.checkpoint_or_rollback(np.zeros(1), 0.5)
        assert g.checkpoint_or_rollback(np.ones(1), np.inf)[0] == "rollback"
        assert g.checkpoint_or_rollback(np.ones(1), np.inf)[0] == "none"

    def test_spike_without_checkpoint_is_none(self):
        g = Guard(GuardPolicy(), ref_norm=1.0)
        action, restore = g.checkpoint_or_rollback(np.ones(1), np.nan)
        assert action == "none" and restore is None


class TestGuardRestart:
    def test_budget(self):
        g = Guard(GuardPolicy(max_restarts=2), ref_norm=1.0)
        assert g.try_restart() and g.try_restart()
        assert not g.try_restart()
        assert g.telemetry.restarts == 2

    def test_disabled(self):
        g = Guard(GuardPolicy(max_restarts=0), ref_norm=1.0)
        assert not g.try_restart()
        assert g.telemetry.restarts == 0


class TestTelemetry:
    def test_bump_and_as_dict(self):
        t = FaultTelemetry()
        t.bump("injected_crashes")
        t.bump("retransmissions", 3)
        d = t.as_dict()
        assert d["injected_crashes"] == 1
        assert d["retransmissions"] == 3
        assert "_lock" not in d

    def test_negative_bump_raises(self):
        with pytest.raises(ValueError):
            FaultTelemetry().bump("rollbacks", -1)

    def test_merge(self):
        a, b = FaultTelemetry(), FaultTelemetry()
        a.bump("rollbacks")
        b.bump("rollbacks", 2)
        b.bump("injected_crashes")
        assert a.merge(b) is a
        assert a.rollbacks == 3 and a.injected_crashes == 1

    def test_summary(self):
        t = FaultTelemetry()
        assert "no faults" in t.summary()
        t.bump("injected_crashes")
        assert "injected_crashes=1" in t.summary()
