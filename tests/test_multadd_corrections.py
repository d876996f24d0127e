"""Multadd's corrections equal their plain scipy forms byte for byte.

``Multadd`` restricts through scipy's ``csc_matvec`` over each smoothed
interpolant's own CSR arrays, prolongs through ``repro.kernels``, and
the diagonal smoothers take Lambda's ``A @ y`` from the kernel layer.
Under the ``numpy`` backend every grid's correction must still be the
bytes of the reference chains below; under ``numba`` it must agree to
1e-14.
"""

import functools
import itertools

import numpy as np
import pytest

from repro import kernels
from repro.amg import SetupOptions, setup_hierarchy
from repro.problems import build_problem, random_rhs
from repro.solvers import Multadd

HAS_NUMBA = "numba" in kernels.available_backends()

PROBLEMS = [("5pt", 20), ("7pt", 8), ("27pt", 8)]
SETUPS = {"default": SetupOptions(), "aggressive0": SetupOptions(aggressive_levels=0)}
#: (smoother, lambda_mode); None is the smoother's default mode
#: (symmetrized for the Jacobi smoothers, minv for hybrid_jgs).
VARIANTS = [
    (smoother, mode)
    for mode in (None, "sweep")
    for smoother in ("jacobi", "l1_jacobi", "hybrid_jgs")
]


@functools.lru_cache(maxsize=None)
def hierarchy(problem, setup):
    name, size = problem
    return setup_hierarchy(build_problem(name, size).A, SETUPS[setup])


@pytest.fixture(autouse=True)
def _numpy_backend():
    prev = kernels.current_backend()
    kernels.use("numpy")
    yield
    kernels.use(prev)


def reference_lambda(solver, k, c):
    sm = solver.smoothers[k]
    if solver.lambda_mode == "symmetrized":
        d = sm.smoothing_diagonal
        dinv = 1.0 / d
        y = dinv * c
        return dinv * (2.0 * d * y - sm.A @ y)
    if solver.lambda_mode == "minv":
        return sm.minv(c)
    return sm.sweep(np.zeros_like(c), c, nsweeps=1)


def reference_correction(solver, k, r):
    c = r
    for j in range(k):
        c = solver.P_bar[j].T @ c
    if k == solver.hierarchy.coarsest:
        d = solver.coarse(c)
    else:
        d = reference_lambda(solver, k, c)
    for j in range(k - 1, -1, -1):
        d = solver.P_bar[j] @ d
    return d


@pytest.mark.parametrize("smoother,lambda_mode", VARIANTS)
@pytest.mark.parametrize("setup", list(SETUPS))
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p[0])
def test_corrections_are_reference_bytes(problem, setup, smoother, lambda_mode):
    solver = Multadd(hierarchy(problem, setup), smoother=smoother, lambda_mode=lambda_mode)
    r = random_rhs(solver.n, seed=1)
    other = random_rhs(solver.n, seed=2)
    acc = random_rhs(solver.n, seed=3)
    for k in range(solver.ngrids):
        ref = reference_correction(solver, k, r)
        got = solver.correction(k, r)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), f"grid {k}"

        out = acc.copy()
        expect = acc.copy()
        expect += ref
        assert solver.correction_into(k, r, out) is out
        assert out.tobytes() == expect.tobytes(), f"grid {k} (into)"

        # A correction is the caller's array: the engine commits it in
        # chunks while other corrections run.
        solver.correction(k, other)
        assert got.tobytes() == ref.tobytes(), f"grid {k} overwritten"


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_numba_corrections_match_numpy_to_1e14():
    for problem, setup, (smoother, lambda_mode) in itertools.product(PROBLEMS, SETUPS, VARIANTS):
        kernels.use("numpy")
        solver = Multadd(hierarchy(problem, setup), smoother=smoother, lambda_mode=lambda_mode)
        r = random_rhs(solver.n, seed=1)
        acc = random_rhs(solver.n, seed=3)
        ref = [solver.correction(k, r) for k in range(solver.ngrids)]
        kernels.use("numba")
        for k, want in enumerate(ref):
            where = f"{problem[0]} {setup} {smoother} {lambda_mode} grid {k}"
            tol = {"rtol": 1e-14, "atol": 1e-14 * float(np.abs(want).max())}
            np.testing.assert_allclose(solver.correction(k, r), want, err_msg=where, **tol)
            out = acc.copy()
            solver.correction_into(k, r, out)
            np.testing.assert_allclose(out, acc + want, err_msg=where, **tol)
