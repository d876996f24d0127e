"""Named test sets mirroring the paper (Section V).

Benchmarks refer to problems by the paper's names (``7pt``, ``27pt``,
``mfem_laplace``, ``mfem_elasticity``) and a size parameter.  The
registry also records the smoother weight each set uses in Table I
(omega = .9 for the stencil sets, .5 for the FEM sets) so benchmark
code does not hard-code paper constants in multiple places.  The 2-D
``5pt`` set is not in the paper's Table I; it is the benchmark
suite's workhorse (its cold and warm solves run it at grid length
96).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np
import scipy.sparse as sp

from .fem import elasticity_cantilever, laplace_on_ball
from .rhs import random_rhs
from .stencils import laplacian_5pt, laplacian_7pt, laplacian_27pt

__all__ = ["TestProblem", "TEST_SETS", "build_problem", "table1_sizes"]


@dataclass(frozen=True)
class TestProblem:
    """A built test problem: matrix, RHS, and paper metadata."""

    name: str
    A: sp.csr_matrix
    b: np.ndarray
    size_param: int
    jacobi_weight: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.A.nnz)


def _build_5pt(n: int) -> sp.csr_matrix:
    return laplacian_5pt(n)


def _build_7pt(n: int) -> sp.csr_matrix:
    return laplacian_7pt(n)


def _build_27pt(n: int) -> sp.csr_matrix:
    return laplacian_27pt(n)


def _build_mfem_laplace(n: int) -> sp.csr_matrix:
    return laplace_on_ball(n)


def _build_mfem_elasticity(n: int) -> sp.csr_matrix:
    # A 2:1 cantilever (length 2, unit section).  Slender beams (the
    # 8:1 default of :func:`elasticity_cantilever`) produce bending
    # near-kernels that classical AMG interpolation cannot represent
    # at any scale — rates degrade to ~0.999 — so the registry's
    # benchmark matrix uses the stockier geometry, which preserves the
    # paper's qualitative ordering (elasticity slowest of the four
    # sets) while remaining solvable by classical-AMG-based multigrid.
    return elasticity_cantilever(n, n, n, length=2.0)


_BUILDERS: Dict[str, Callable[[int], sp.csr_matrix]] = {
    "5pt": _build_5pt,
    "7pt": _build_7pt,
    "27pt": _build_27pt,
    "mfem_laplace": _build_mfem_laplace,
    "mfem_elasticity": _build_mfem_elasticity,
}

# Jacobi weights per set: Table I values for the paper's four sets;
# the 2-D ``5pt`` benchmark set uses the stencil-set weight.
_WEIGHTS: Dict[str, float] = {
    "5pt": 0.9,
    "7pt": 0.9,
    "27pt": 0.9,
    "mfem_laplace": 0.5,
    "mfem_elasticity": 0.5,
}

TEST_SETS = tuple(_BUILDERS)


def build_problem(name: str, size: int, rhs_seed: int = 0) -> TestProblem:
    """Build a named test problem at the given size parameter.

    ``size`` is the grid length for the stencil sets, the background
    resolution for the ball, and the beam length in cells for
    elasticity.
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown test set {name!r}; choose from {TEST_SETS}")
    A = _BUILDERS[name](size)
    b = random_rhs(A.shape[0], seed=rhs_seed)
    return TestProblem(name, A, b, size, _WEIGHTS[name])


def table1_sizes(scale: float = 1.0) -> Dict[str, int]:
    """Size parameters approximating Table I's four matrices.

    ``scale = 1.0`` reproduces the paper's row counts (27k–37k rows);
    smaller scales shrink every set proportionally for quick runs.
    """
    base = {"7pt": 30, "27pt": 30, "mfem_laplace": 38, "mfem_elasticity": 23}
    return {k: max(4, int(round(v * scale))) for k, v in base.items()}
