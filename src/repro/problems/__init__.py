"""Test-problem generators.

The paper evaluates on four matrix sets (Section V):

1. ``7pt``  — 3-D Laplacian on a cube, 7-point centred differences.
2. ``27pt`` — 3-D Laplacian on a cube, 27-point stencil.
3. ``MFEM Laplace``    — Laplace on a sphere, H1 nodal finite elements.
4. ``MFEM Elasticity`` — multi-material cantilever beam, linear
   elasticity, tetrahedral H1 elements.

We generate (1) and (2) directly (:mod:`repro.problems.stencils`) and
substitute MFEM with our own P1 tetrahedral finite-element assembly on
structured tet meshes (:mod:`repro.problems.fem`): a ball for the
Laplace set and a multi-material beam for the elasticity set.  The
:mod:`repro.problems.registry` exposes the four sets under the paper's
names so benchmarks read like the paper's tables.
"""

from .stencils import laplacian_5pt, laplacian_7pt, laplacian_27pt
from .rhs import random_rhs
from .registry import TEST_SETS, TestProblem, build_problem

__all__ = [
    "laplacian_5pt",
    "laplacian_7pt",
    "laplacian_27pt",
    "random_rhs",
    "TEST_SETS",
    "TestProblem",
    "build_problem",
]
