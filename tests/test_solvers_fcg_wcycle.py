"""Unit tests for W/F-cycles (extensions)."""

import numpy as np
import pytest

from repro.solvers import MultiplicativeMultigrid


class TestWFCycles:
    def test_w_cycle_at_least_as_good(self, hier_7pt, b_7pt):
        v = MultiplicativeMultigrid(hier_7pt, smoother="jacobi", weight=0.9)
        w = MultiplicativeMultigrid(hier_7pt, smoother="jacobi", weight=0.9, gamma=2)
        rv = v.solve(b_7pt, tmax=8).final_relres
        rw = w.solve(b_7pt, tmax=8).final_relres
        assert rw <= rv * 1.05

    def test_f_cycle_between_v_and_w(self, hier_7pt, b_7pt):
        f = MultiplicativeMultigrid(
            hier_7pt, smoother="jacobi", weight=0.9, gamma=2, f_cycle=True
        )
        res = f.solve(b_7pt, tmax=8)
        assert res.final_relres < 1e-3

    def test_gamma_one_unchanged(self, hier_7pt, b_7pt):
        # Explicit gamma=1 must equal the default V-cycle exactly.
        a = MultiplicativeMultigrid(hier_7pt, smoother="jacobi", weight=0.9)
        b_ = MultiplicativeMultigrid(hier_7pt, smoother="jacobi", weight=0.9, gamma=1)
        x0 = np.zeros(a.n)
        assert np.allclose(a.cycle(x0, b_7pt), b_.cycle(x0, b_7pt))

    def test_invalid_gamma(self, hier_7pt):
        with pytest.raises(ValueError):
            MultiplicativeMultigrid(hier_7pt, gamma=0)
