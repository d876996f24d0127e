"""Solvers on operators harder than the paper's test sets.

The anisotropic and convection-diffusion generators live here, not in
``repro.problems``: no command, benchmark or example uses them, and
they serve only to probe where (asynchronous) multigrid inherits
classical multigrid's sensitivities.
"""

import numpy as np
import scipy.sparse as sp

from repro.amg import SetupOptions, setup_hierarchy
from repro.linalg import abs_iteration_matrix_rho, as_csr
from repro.problems import laplacian_7pt, random_rhs
from repro.problems.stencils import laplacian_1d
from repro.solvers import Multadd, MultiplicativeMultigrid


def _kron3(Kx, Ky, Kz):
    """``Kx ⊗ I ⊗ I + I ⊗ Ky ⊗ I + I ⊗ I ⊗ Kz`` on the ``n^3`` grid."""
    eye = sp.identity(Kx.shape[0], format="csr")
    return as_csr(
        sp.kron(sp.kron(Kx, eye), eye)
        + sp.kron(sp.kron(eye, Ky), eye)
        + sp.kron(sp.kron(eye, eye), Kz)
    )


def anisotropic_laplacian_3d(n, eps_z):
    """7-point ``-u_xx - u_yy - eps_z u_zz`` on the ``n^3`` Dirichlet grid."""
    K = laplacian_1d(n)
    return _kron3(K, K, eps_z * K)


def convection_diffusion_3d(n, peclet, velocity=(1.0, 0.5, 0.25)):
    """First-order upwind ``-lap u + peclet (v . grad u)``: nonsymmetric,
    but still an M-matrix, so classical coarsening stays well defined."""

    def upwind(v):
        if v >= 0:
            D = sp.diags([np.full(n - 1, -1.0), np.full(n, 1.0)], offsets=[-1, 0])
        else:
            D = sp.diags([np.full(n, -1.0), np.full(n - 1, 1.0)], offsets=[0, 1])
        return (abs(v) * D).tocsr()

    K = laplacian_1d(n)
    return as_csr(_kron3(K, K, K) + peclet * _kron3(*(upwind(v) for v in velocity)))


class TestAnisotropic:
    def test_multigrid_converges_semicoarsened(self):
        A = anisotropic_laplacian_3d(8, 1e-2)
        h = setup_hierarchy(A, SetupOptions(aggressive_levels=0))
        s = MultiplicativeMultigrid(h, smoother="jacobi", weight=0.9)
        res = s.solve(random_rhs(A.shape[0], 0), tmax=30)
        assert res.final_relres < 1e-3


class TestConvectionDiffusion:
    def test_async_multadd_runs_nonsymmetric(self):
        # The asynchronous machinery never requires symmetry; Multadd
        # with the plain (minv) Lambda still converges at modest Peclet.
        from repro.core import run_async_engine

        A = convection_diffusion_3d(8, peclet=2.0)
        assert abs(A - A.T).max() > 0.1
        h = setup_hierarchy(A, SetupOptions(aggressive_levels=0))
        ma = Multadd(h, smoother="jacobi", weight=0.9, lambda_mode="minv")
        res = run_async_engine(ma, random_rhs(A.shape[0], 1), tmax=25, seed=0)
        assert res.rel_residual < 1e-2


class TestShifted:
    def test_shift_weakens_async_guarantee(self):
        # rho(|G|) grows with a shift A - sigma I: the Chazan-Miranker
        # margin of weighted Jacobi shrinks (and eventually vanishes).
        A0 = laplacian_7pt(6)
        A1 = as_csr(A0 - 0.2 * sp.identity(A0.shape[0]))
        assert abs_iteration_matrix_rho(A1, 0.9) > abs_iteration_matrix_rho(A0, 0.9)
