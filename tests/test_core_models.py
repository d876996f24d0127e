"""Unit tests for the asynchronous models (Section III)."""

import numpy as np
import pytest

from repro.core import (
    ScheduleParams,
    simulate_full_async_residual,
    simulate_full_async_solution,
    simulate_semi_async,
)
from repro.solvers import AFACx, Multadd


@pytest.fixture(scope="module")
def multadd(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


@pytest.fixture(scope="module")
def afacx(hier_7pt_agg):
    return AFACx(hier_7pt_agg, smoother="jacobi", weight=0.9)


class TestSemiAsync:
    def test_alpha_one_delta_zero_equals_synchronous(self, multadd, b_7pt):
        # Psi(t) = all grids, reads current: the model must reproduce
        # the synchronous additive solve exactly.
        sim = simulate_semi_async(
            multadd, b_7pt, ScheduleParams(alpha=1.0, delta=0, updates_per_grid=10)
        )
        sync = multadd.solve(b_7pt, tmax=10)
        assert sim.rel_residual == pytest.approx(sync.final_relres, rel=1e-10)
        assert np.allclose(sim.x, sync.x)

    def test_converges_small_alpha(self, multadd, b_7pt):
        sim = simulate_semi_async(
            multadd, b_7pt, ScheduleParams(alpha=0.1, delta=0, seed=1)
        )
        assert sim.rel_residual < 1e-2

    def test_all_grids_complete_budget(self, multadd, b_7pt):
        params = ScheduleParams(alpha=0.3, updates_per_grid=7, seed=2)
        sim = simulate_semi_async(multadd, b_7pt, params)
        assert np.all(sim.counts == 7)

    def test_smaller_alpha_slower(self, multadd, b_7pt):
        rels = []
        for alpha in (1.0, 0.1):
            vals = [
                simulate_semi_async(
                    multadd, b_7pt, ScheduleParams(alpha=alpha, seed=s)
                ).rel_residual
                for s in range(3)
            ]
            rels.append(np.mean(vals))
        assert rels[0] < rels[1]

    def test_instants_grow_as_alpha_shrinks(self, multadd, b_7pt):
        s1 = simulate_semi_async(multadd, b_7pt, ScheduleParams(alpha=1.0, seed=0))
        s2 = simulate_semi_async(multadd, b_7pt, ScheduleParams(alpha=0.2, seed=0))
        assert s2.micro_steps > s1.micro_steps

    def test_trace_tracking(self, multadd, b_7pt):
        sim = simulate_semi_async(
            multadd,
            b_7pt,
            ScheduleParams(alpha=1.0, updates_per_grid=5),
            track_trace=True,
        )
        assert len(sim.residual_samples) == sim.micro_steps


class TestFullAsync:
    def test_delta_zero_matches_semi(self, multadd, b_7pt):
        # With delta=0 every component read is current: full-async
        # degenerates to semi-async for the same schedule seed.
        p = ScheduleParams(alpha=0.4, delta=0, seed=5)
        semi = simulate_semi_async(multadd, b_7pt, p)
        full = simulate_full_async_solution(multadd, b_7pt, p)
        assert full.rel_residual == pytest.approx(semi.rel_residual, rel=1e-10)

    def test_solution_and_residual_differ_for_large_delta(self, multadd, b_7pt):
        p = ScheduleParams(alpha=0.1, delta=8, seed=3)
        sol = simulate_full_async_solution(multadd, b_7pt, p)
        res = simulate_full_async_residual(multadd, b_7pt, p)
        assert sol.rel_residual != pytest.approx(res.rel_residual, rel=1e-12)

    def test_larger_delta_slower(self, multadd, b_7pt):
        rels = []
        for delta in (0, 12):
            vals = [
                simulate_full_async_solution(
                    multadd, b_7pt, ScheduleParams(alpha=0.1, delta=delta, seed=s)
                ).rel_residual
                for s in range(3)
            ]
            rels.append(np.mean(vals))
        assert rels[0] < rels[1]

    def test_still_converges_with_delay(self, multadd, b_7pt):
        # Large delays slow convergence a lot (Fig. 2) but must not
        # diverge: 20 updates per grid should make clear progress.
        sim = simulate_full_async_solution(
            multadd, b_7pt, ScheduleParams(alpha=0.1, delta=6, seed=2)
        )
        assert sim.rel_residual < 0.9

    def test_residual_model_converges(self, multadd, b_7pt):
        sim = simulate_full_async_residual(
            multadd, b_7pt, ScheduleParams(alpha=0.1, delta=6, seed=2)
        )
        assert sim.rel_residual < 0.9

    def test_afacx_models_converge(self, afacx, b_7pt):
        sim = simulate_semi_async(
            afacx, b_7pt, ScheduleParams(alpha=0.3, seed=1, updates_per_grid=20)
        )
        assert sim.rel_residual < 0.3

    def test_residual_identity_maintained(self, multadd, b_7pt):
        # The maintained r must equal b - A x exactly at the end (the
        # models apply the same corrections to both).
        sim = simulate_full_async_residual(
            multadd, b_7pt, ScheduleParams(alpha=0.2, delta=4, seed=7)
        )
        # rel_residual in the result is computed from x, so just check
        # convergence consistency by recomputing.
        r = b_7pt - multadd.A @ sim.x
        assert np.linalg.norm(r) / np.linalg.norm(b_7pt) == pytest.approx(
            sim.rel_residual, rel=1e-12
        )

    def test_x0_respected(self, multadd, b_7pt):
        import scipy.sparse.linalg as spla

        x_star = spla.spsolve(multadd.A.tocsc(), b_7pt)
        sim = simulate_semi_async(
            multadd,
            b_7pt,
            ScheduleParams(alpha=1.0, updates_per_grid=2),
            x0=x_star,
        )
        assert sim.rel_residual < 1e-10
