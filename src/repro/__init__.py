"""repro — Asynchronous Multigrid Methods, reproduced in Python.

A from-scratch reproduction of Wolfson-Pou & Chow, "Asynchronous
Multigrid Methods" (2019): asynchronous additive multigrid (Multadd and
AFACx) with the paper's asynchronous-execution models, shared-memory
algorithms (global-res / local-res, lock-write / atomic-write), AMG
setup (HMIS coarsening, aggressive levels, classical modified
interpolation), smoothers (omega-Jacobi, l1-Jacobi, hybrid JGS,
asynchronous GS), the four test-matrix families, and a machine model
that regenerates the paper's timing tables and figures.

Quickstart
----------
>>> from repro import build_problem, setup_hierarchy, SetupOptions, Multadd
>>> from repro.core import run_async_engine
>>> p = build_problem("7pt", 12)
>>> h = setup_hierarchy(p.A, SetupOptions(aggressive_levels=1))
>>> solver = Multadd(h, smoother="jacobi", weight=0.9)
>>> result = run_async_engine(solver, p.b, tmax=20)
>>> result.rel_residual < 1e-3
True
"""

from .amg import Hierarchy, SetupOptions, setup_hierarchy
from .problems import (
    TEST_SETS,
    build_problem,
    laplacian_7pt,
    laplacian_27pt,
    random_rhs,
)
from .smoothers import make_smoother
from .solvers import AFACx, BPX, Multadd, MultiplicativeMultigrid, PCG
from .experiments import MethodSpec, TABLE1_METHODS

__version__ = "1.0.0"

__all__ = [
    "Hierarchy",
    "SetupOptions",
    "setup_hierarchy",
    "TEST_SETS",
    "build_problem",
    "laplacian_7pt",
    "laplacian_27pt",
    "random_rhs",
    "make_smoother",
    "AFACx",
    "BPX",
    "Multadd",
    "MultiplicativeMultigrid",
    "PCG",
    "MethodSpec",
    "TABLE1_METHODS",
    "__version__",
]
