"""Figure 1 — semi-async convergence vs grid length, alpha sweep.

Paper: final relative residual 2-norm after 20 V-cycles versus grid
length for the semi-asynchronous model (Eq. 6), delta = 0, on the 27pt
set, for five minimum update probabilities, with synchronous multigrid
as reference.  Expected shape: curves are flat in grid length (grid-
size independent convergence) and rise as alpha falls.
"""

from __future__ import annotations

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import ScheduleParams, simulate_semi_async
from repro.problems import build_problem
from repro.solvers import AFACx, Multadd
from repro.utils import format_table, scaled_sizes, spawn_seeds, stable_seed

from _common import emit, emit_series

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
PAPER_SIZES = (40, 50, 60, 70, 80)


def _run(solver_cls, runs, **solver_kw):
    sizes = scaled_sizes(PAPER_SIZES)
    rows = []
    series = {}
    for size in sizes:
        p = build_problem("27pt", size, rhs_seed=0)
        h = setup_hierarchy(
            p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1)
        )
        solver = solver_cls(h, smoother="jacobi", weight=0.9, **solver_kw)
        sync = solver.solve(p.b, tmax=20).final_relres
        row = [size, p.n, sync]
        for alpha in ALPHAS:
            vals = []
            for s in spawn_seeds(stable_seed((size, alpha)), runs):
                sim = simulate_semi_async(
                    solver,
                    p.b,
                    ScheduleParams(alpha=alpha, delta=0, updates_per_grid=20, seed=s),
                )
                vals.append(sim.rel_residual)
            row.append(float(np.mean(vals)))
        rows.append(row)
        series[size] = row[2:]
    headers = ["grid len", "rows", "sync"] + [f"a={a}" for a in ALPHAS]
    return headers, rows


def _assert_alpha_ladder(rows):
    """EXPERIMENTS.md's Fig-1 claim: the alpha=0.1 column has the
    largest mean over sizes (the worst end of the ladder)."""
    means = np.mean([r[3:] for r in rows], axis=0)
    assert int(np.argmax(means)) == ALPHAS.index(0.1), dict(zip(ALPHAS, means))


def test_fig1_semi_async_multadd(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run(Multadd, runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig1_multadd",
        format_table(
            headers, rows, title="Fig 1 (Multadd): semi-async relres after 20 V-cycles"
        ),
    )
    _assert_alpha_ladder(rows)


def test_fig1_residual_series(results_dir):
    """Persist a representative semi-async residual-vs-time series in
    the shared observe CSV format (same file ``repro trace export
    --residuals`` writes)."""
    size = scaled_sizes(PAPER_SIZES)[-1]
    p = build_problem("27pt", size, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1))
    solver = Multadd(h, smoother="jacobi", weight=0.9)
    sim = simulate_semi_async(
        solver,
        p.b,
        ScheduleParams(alpha=0.5, delta=0, updates_per_grid=20, seed=0),
        track_trace=True,
    )
    path = emit_series(results_dir, "fig1_multadd", sim)
    assert path.exists() and len(path.read_text().splitlines()) > 1


def test_fig1_semi_async_afacx(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run(AFACx, runs), iterations=1, rounds=1
    )
    emit(
        results_dir,
        "fig1_afacx",
        format_table(
            headers, rows, title="Fig 1 (AFACx): semi-async relres after 20 V-cycles"
        ),
    )
    assert all(np.isfinite(r[3]) for r in rows)
    _assert_alpha_ladder(rows)
