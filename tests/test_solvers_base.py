"""Unit tests for solver-base machinery (SolveResult, coarse solver, etc.)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import CoarseSolver, Multadd
from repro.solvers.base import SolveResult, build_level_smoothers


class TestCoarseSolver:
    def test_exact(self, A_1d):
        cs = CoarseSolver(A_1d)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(A_1d.shape[0])
        b = A_1d @ x
        assert np.allclose(cs(b), x)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            CoarseSolver(sp.csr_matrix(np.ones((2, 3))))

    def test_flops_positive(self, A_1d):
        assert CoarseSolver(A_1d).flops() > 0


class TestSolveResult:
    def test_final_relres_empty(self):
        r = SolveResult(x=np.zeros(3))
        assert r.final_relres == np.inf

    def test_final_relres_last(self):
        r = SolveResult(x=np.zeros(3), residual_history=[0.5, 0.1])
        assert r.final_relres == 0.1


class TestBuildLevelSmoothers:
    def test_one_per_fine_level(self, hier_7pt):
        sms = build_level_smoothers(hier_7pt, "jacobi", weight=0.9)
        assert len(sms) == hier_7pt.nlevels - 1

    def test_bound_to_level_matrices(self, hier_7pt):
        sms = build_level_smoothers(hier_7pt, "jacobi", weight=0.9)
        for sm, lv in zip(sms, hier_7pt.levels):
            assert sm.A.shape == lv.A.shape


class TestAdditiveBase:
    def test_solve_divergence_flag(self, hier_7pt, b_7pt):
        # Force divergence with an absurd over-correction scale.
        from repro.solvers import BPX

        s = BPX(hier_7pt, smoother="jacobi", weight=0.9, scale=50.0)
        res = s.solve(b_7pt, tmax=30)
        assert res.diverged
        # The loop must have stopped early rather than looping on inf.
        assert res.cycles < 30

    @pytest.mark.parametrize("name", ["Multadd", "AFACx", "BPX"])
    def test_solve_rejects_tmax_below_one(self, hier_7pt_agg, b_7pt, name):
        import repro.solvers

        s = getattr(repro.solvers, name)(hier_7pt_agg)
        with pytest.raises(ValueError, match="tmax must be >= 1"):
            s.solve(b_7pt, tmax=0)

    def test_callback_invoked(self, hier_7pt_agg, b_7pt):
        s = Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)
        seen = []
        s.solve(b_7pt, tmax=5, callback=lambda t, rel: seen.append((t, rel)))
        assert [t for t, _ in seen] == [1, 2, 3, 4, 5]

    def test_residual_flops(self, hier_7pt_agg):
        s = Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)
        assert s.residual_flops() == 2.0 * s.A.nnz + s.n

    def test_x0_used(self, hier_7pt_agg, b_7pt):
        import scipy.sparse.linalg as spla

        s = Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)
        x_star = spla.spsolve(s.A.tocsc(), b_7pt)
        res = s.solve(b_7pt, tmax=1, x0=x_star)
        assert res.final_relres < 1e-10


class TestHierarchyMisc:
    def test_grid_complexity(self, hier_7pt):
        gc = hier_7pt.grid_complexity()
        assert 1.0 < gc < 3.0

    def test_coarsest_index(self, hier_7pt):
        assert hier_7pt.coarsest == hier_7pt.nlevels - 1
