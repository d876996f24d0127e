"""Parity tests: every executor must be an implementation of the
*same* Algorithm 5.

Exact trajectories differ (that is the point of asynchrony), but the
semantic contracts must agree: same correction counting under both
criteria, same convergence class per (rescomp, write) cell on every
backend, the same solution from every backend, and the global-res
staleness pathology in both shared-memory executors.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import RunResult, run_async_engine, run_procs, run_threaded
from repro.distributed import simulate_distributed
from repro.problems import laplacian_7pt, random_rhs
from repro.solvers import Multadd

#: One runner per backend: ``(solver, b, rescomp, **kw) -> RunResult``.
#: The distributed simulator maps ``rescomp`` to its message strategy
#: as the CLI does (local -> local, rupdate -> global).
BACKENDS = {
    "engine": lambda s, b, rescomp, **kw: run_async_engine(
        s, b, rescomp=rescomp, seed=0, alpha=0.5, **kw
    ),
    "threaded": lambda s, b, rescomp, **kw: run_threaded(s, b, rescomp=rescomp, **kw),
    "procs1": lambda s, b, rescomp, **kw: run_procs(
        s, b, rescomp=rescomp, workers=1, seed=0, **kw
    ),
    "procs2": lambda s, b, rescomp, **kw: run_procs(
        s, b, rescomp=rescomp, workers=2, seed=0, **kw
    ),
    "distributed": lambda s, b, rescomp, **kw: simulate_distributed(
        s, b, strategy="local" if rescomp == "local" else "global", seed=0, **kw
    ),
}


def run_backend(backend, solver, b, rescomp="local", **kw):
    res = BACKENDS[backend](solver, b, rescomp, **kw)
    assert isinstance(res, RunResult)
    assert not res.diverged and not res.stalled
    return res


@pytest.fixture(scope="module")
def multadd(hier_27pt):
    return Multadd(hier_27pt, smoother="jacobi", weight=0.9)


@pytest.fixture(scope="module")
def b_27(A_27pt):
    return random_rhs(A_27pt.shape[0], seed=11)


class TestCountingParity:
    @pytest.mark.parametrize("tmax", [3, 8])
    def test_criterion1_counts_identical(self, multadd, b_27, tmax):
        eng = run_async_engine(
            multadd, b_27, tmax=tmax, criterion="criterion1", seed=0
        )
        thr = run_threaded(multadd, b_27, tmax=tmax, criterion="criterion1")
        assert np.array_equal(eng.counts, thr.counts)

    def test_criterion2_minimum_identical(self, multadd, b_27):
        eng = run_async_engine(
            multadd, b_27, tmax=6, criterion="criterion2", seed=0
        )
        thr = run_threaded(multadd, b_27, tmax=6, criterion="criterion2")
        assert eng.counts.min() >= 6
        assert thr.counts.min() >= 6


class TestConvergenceClassParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("rescomp", ["local", "rupdate"])
    def test_robust_modes_converge_in_both(self, multadd, b_27, rescomp, backend):
        """Same convergence class on every backend at fixed work.

        The bound is loose on purpose: engine, threaded and 1-worker
        procs land near 1e-6 and distributed near 1e-3, while 2-worker
        procs lands near 2e-4 because its workers start one after
        another (the staggered-start defect: no start barrier, so the
        first worker runs alone).  A within-a-decade check of N-worker
        against 1-worker procs belongs with the start-barrier fix.
        """
        res = run_backend(backend, multadd, b_27, rescomp, tmax=20)
        assert res.rel_residual < 1e-2

    def test_global_res_degraded_in_both(self, multadd, b_27):
        # Both backends must show global-res lagging local-res.
        eng_l = run_async_engine(
            multadd, b_27, tmax=20, rescomp="local", seed=0, alpha=0.3
        ).rel_residual
        eng_g = run_async_engine(
            multadd, b_27, tmax=20, rescomp="global", seed=0, alpha=0.3
        ).rel_residual
        thr_l = run_threaded(multadd, b_27, tmax=20, rescomp="local").rel_residual
        thr_g = run_threaded(multadd, b_27, tmax=20, rescomp="global").rel_residual
        assert eng_l < eng_g
        assert thr_l < thr_g

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_final_iterate_solves_same_system(self, multadd, b_27, A_27pt, backend):
        # Every backend converges to the same solution (not merely the
        # same residual norm).
        x_star = spla.spsolve(A_27pt.tocsc(), b_27)
        res = run_backend(backend, multadd, b_27, tmax=40, criterion="criterion2")
        assert np.abs(res.x - x_star).max() < 1e-3 * np.abs(x_star).max()


class TestWarmStart:
    @pytest.fixture(scope="class")
    def system(self):
        A = laplacian_7pt(10)
        b = random_rhs(A.shape[0], seed=3)
        solver = Multadd(
            setup_hierarchy(A, SetupOptions(aggressive_levels=0, max_coarse=20)),
            smoother="jacobi",
            weight=0.9,
        )
        return solver, b, spla.spsolve(A.tocsc(), b)

    @pytest.mark.parametrize("backend", ["engine", "threaded", "procs1"])
    @pytest.mark.parametrize("rescomp", ["local", "global", "rupdate"])
    def test_x0_seeds_every_grid(self, system, rescomp, backend):
        # Started at the solution, every grid's first residual is
        # b - A x0 ~ 0, so a short run must stay there instead of
        # correcting from r = b as if x0 were zero.
        solver, b, x_star = system
        res = BACKENDS[backend](solver, b, rescomp, tmax=2, x0=x_star)
        assert res.rel_residual <= 1e-12
