"""Figure 4 — relative residual vs #rows for all methods, 7pt & 27pt.

Paper: ||r||/||b|| after 20 V(1,1)-cycles versus number of rows, 68
threads, Criterion 1, for two smoothers (omega-Jacobi and async GS) and
the method ladder (sync Mult, sync Multadd, sync AFACx, async AFACx,
async Multadd global-res/local-res).  Expected shape: all asynchronous
methods are ~flat in problem size; global-res converges more slowly
than local-res.
"""

from __future__ import annotations

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import run_async_engine
from repro.problems import build_problem
from repro.solvers import AFACx, Multadd, MultiplicativeMultigrid
from repro.utils import format_table, scaled_sizes, spawn_seeds, stable_seed

from _common import emit, emit_series

PAPER_SIZES = (30, 40, 50, 60)
ALPHA = 0.5  # modest thread imbalance, as on a real shared-memory node

METHODS = (
    ("sync Mult", "mult", None, None),
    ("sync Multadd", "multadd", None, None),
    ("sync AFACx", "afacx", None, None),
    ("AFACx async", "afacx", "local", "lock"),
    ("Multadd global-res", "multadd", "global", "lock"),
    ("Multadd local-res", "multadd", "local", "lock"),
)


def _solver(kind, h, smoother, **kw):
    if kind == "multadd":
        return Multadd(h, smoother=smoother, **kw)
    kw.pop("lambda_mode", None)  # Multadd-only option
    if kind == "mult":
        return MultiplicativeMultigrid(h, smoother=smoother, **kw)
    return AFACx(h, smoother=smoother, **kw)


def _smoother_kwargs(smoother):
    if smoother == "jacobi":
        return {"weight": 0.9}
    return {"nblocks": 4, "lambda_mode": "sweep"}


def _run(test_set, smoother, runs):
    sizes = scaled_sizes(PAPER_SIZES)
    rows = []
    for size in sizes:
        p = build_problem(test_set, size, rhs_seed=0)
        h = setup_hierarchy(
            p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1)
        )
        row = [size, p.n]
        for label, kind, rescomp, write in METHODS:
            kw = _smoother_kwargs(smoother)
            solver = _solver(kind, h, smoother, **kw)
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
    headers = ["grid len", "rows"] + [m[0] for m in METHODS]
    return headers, rows


def test_fig4_residual_series(results_dir):
    """Persist a representative async-engine residual-vs-time series
    (Multadd local-res, largest Fig-4 grid) in the shared observe CSV
    format."""
    size = scaled_sizes(PAPER_SIZES)[-1]
    p = build_problem("7pt", size, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1))
    solver = Multadd(h, smoother="jacobi", weight=0.9)
    res = run_async_engine(
        solver,
        p.b,
        tmax=20,
        rescomp="local",
        write="lock",
        criterion="criterion1",
        alpha=ALPHA,
        seed=0,
        track_trace=True,
    )
    path = emit_series(results_dir, "fig4_multadd_local", res)
    assert path.exists() and len(path.read_text().splitlines()) > 1


def test_fig4_7pt_jacobi(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run("7pt", "jacobi", runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig4_7pt_jacobi",
        format_table(headers, rows, title="Fig 4 (7pt, omega-Jacobi): relres after 20 cycles"),
    )
    # local-res at least as good as global-res on the largest grid.
    assert rows[-1][-1] <= rows[-1][-2] * 2 or np.isnan(rows[-1][-2])


def test_fig4_7pt_async_gs(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run("7pt", "async_gs", runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig4_7pt_async_gs",
        format_table(headers, rows, title="Fig 4 (7pt, async GS): relres after 20 cycles"),
    )
    assert np.isfinite(rows[-1][-1])


def test_fig4_27pt_jacobi(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run("27pt", "jacobi", runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig4_27pt_jacobi",
        format_table(headers, rows, title="Fig 4 (27pt, omega-Jacobi): relres after 20 cycles"),
    )
    # Grid-size independence of async local-res: last size within ~10x
    # of the first.
    col = [r[-1] for r in rows]
    assert col[-1] <= col[0] * 10 or col[-1] < 1e-4


def test_fig4_27pt_async_gs(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run("27pt", "async_gs", runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig4_27pt_async_gs",
        format_table(headers, rows, title="Fig 4 (27pt, async GS): relres after 20 cycles"),
    )
    assert np.isfinite(rows[-1][-1])
