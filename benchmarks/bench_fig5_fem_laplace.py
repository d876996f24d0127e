"""Figure 5 — relative residual vs #rows, MFEM Laplace set.

Paper: same protocol as Fig. 4 but on the FEM Laplace (sphere) set with
*no aggressive coarsening*.  Expected shape: Multadd local-res
lock-write stays grid-size independent; AFACx and Multadd global-res
lose grid-size independence on this set (their curves rise with n).
"""

from __future__ import annotations

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import run_async_engine
from repro.problems import build_problem
from repro.solvers import AFACx, Multadd, MultiplicativeMultigrid
from repro.utils import format_table, scaled_sizes, spawn_seeds, stable_seed

from _common import emit

# Ball-mesh resolutions giving row counts in the paper's 8k-60k ballpark
# at scale 1; scaled down by default like everything else.
PAPER_SIZES = (24, 32, 40, 48)
ALPHA = 0.5

METHODS = (
    ("sync Mult", "mult", None, None),
    ("sync Multadd", "multadd", None, None),
    ("sync AFACx", "afacx", None, None),
    ("AFACx async", "afacx", "local", "lock"),
    ("Multadd global-res", "multadd", "global", "lock"),
    ("Multadd local-res", "multadd", "local", "lock"),
)


def _run(smoother, runs):
    sizes = scaled_sizes(PAPER_SIZES, minimum=8)
    rows = []
    for size in sizes:
        p = build_problem("mfem_laplace", size, rhs_seed=0)
        # Fig 5: no aggressive coarsening.
        h = setup_hierarchy(
            p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=0)
        )
        row = [size, p.n]
        for label, kind, rescomp, write in METHODS:
            if smoother == "jacobi":
                kw = {"weight": 0.5}  # the paper's FEM weight
            else:
                kw = {"nblocks": 4, "lambda_mode": "sweep"}
            kw2 = dict(kw)
            if kind != "multadd":
                kw2.pop("lambda_mode", None)  # Multadd-only option
            if kind == "mult":
                solver = MultiplicativeMultigrid(h, smoother=smoother, **kw2)
            elif kind == "multadd":
                solver = Multadd(h, smoother=smoother, **kw2)
            else:
                solver = AFACx(h, smoother=smoother, **kw2)
            if rescomp is None:
                res = solver.solve(p.b, tmax=20)
                row.append(float("nan") if res.diverged else res.final_relres)
            else:
                vals = []
                diverged = False
                for s in spawn_seeds(stable_seed((size, label)), runs):
                    r = run_async_engine(
                        solver,
                        p.b,
                        tmax=20,
                        rescomp=rescomp,
                        write=write,
                        criterion="criterion1",
                        alpha=ALPHA,
                        seed=s,
                    )
                    if r.diverged:
                        diverged = True
                        break
                    vals.append(r.rel_residual)
                row.append(float("nan") if diverged else float(np.mean(vals)))
        rows.append(row)
    headers = ["mesh n", "rows"] + [m[0] for m in METHODS]
    return headers, rows


def test_fig5_fem_laplace_jacobi(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run("jacobi", runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig5_jacobi",
        format_table(
            headers, rows, title="Fig 5 (MFEM Laplace, omega-Jacobi): relres after 20 cycles"
        ),
    )
    # Multadd local-res must converge on every size.
    assert all(np.isfinite(r[-1]) and r[-1] < 1.0 for r in rows)


def test_fig5_fem_laplace_async_gs(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run("async_gs", runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig5_async_gs",
        format_table(
            headers, rows, title="Fig 5 (MFEM Laplace, async GS): relres after 20 cycles"
        ),
    )
    assert all(np.isfinite(r[-1]) for r in rows)
