"""Figure 2 — full-async convergence vs grid length, delta sweep.

Paper: final relative residual after 20 V-cycles versus grid length for
the fully-asynchronous model, alpha = 0.1, five maximum delays, both
the solution-based (Eq. 7) and residual-based (Eq. 10) versions, on the
27pt set.  Expected shape: flat in grid length; larger delta slower;
residual-based faster than solution-based at large delta.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import (
    ScheduleParams,
    simulate_full_async_residual,
    simulate_full_async_solution,
)
from repro.problems import build_problem
from repro.solvers import AFACx, Multadd
from repro.utils import format_table, scaled_sizes, spawn_seeds, stable_seed

from _common import emit, emit_series

DELTAS = (0, 1, 2, 4, 8)
PAPER_SIZES = (40, 50, 60, 70, 80)
ALPHA = 0.1


@lru_cache(maxsize=None)  # the residual-vs-solution check reuses the rows
def _run(solver_cls, simulate, runs):
    sizes = scaled_sizes(PAPER_SIZES)
    rows = []
    for size in sizes:
        p = build_problem("27pt", size, rhs_seed=0)
        h = setup_hierarchy(
            p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1)
        )
        solver = solver_cls(h, smoother="jacobi", weight=0.9)
        sync = solver.solve(p.b, tmax=20).final_relres
        row = [size, p.n, sync]
        for delta in DELTAS:
            vals = []
            for s in spawn_seeds(stable_seed((size, delta)), runs):
                sim = simulate(
                    solver,
                    p.b,
                    ScheduleParams(
                        alpha=ALPHA, delta=delta, updates_per_grid=20, seed=s
                    ),
                )
                vals.append(sim.rel_residual)
            row.append(float(np.mean(vals)))
        rows.append(row)
    headers = ["grid len", "rows", "sync"] + [f"d={d}" for d in DELTAS]
    return headers, rows


def _assert_delta_ends(rows):
    """EXPERIMENTS.md: the delta ladder is ordered at its ends,
    delta=0 below delta=8 in every row."""
    assert all(r[3] < r[-1] for r in rows), [(r[0], r[3], r[-1]) for r in rows]


def _assert_residual_beats_solution(sol_rows, res_rows):
    """EXPERIMENTS.md: residual-based is below solution-based at
    delta=8 in every row."""
    pairs = [(s[0], s[-1], r[-1]) for s, r in zip(sol_rows, res_rows)]
    assert all(res < sol for _, sol, res in pairs), pairs


def test_fig2_full_async_solution_multadd(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run(Multadd, simulate_full_async_solution, runs),
        iterations=1,
        rounds=1,
    )
    emit(
        results_dir,
        "fig2_multadd_solution",
        format_table(
            headers,
            rows,
            title="Fig 2 (Multadd, solution-based): full-async relres after 20 V-cycles",
        ),
    )
    _assert_delta_ends(rows)


def test_fig2_full_async_residual_multadd(benchmark, results_dir, runs):
    headers, rows = benchmark.pedantic(
        lambda: _run(Multadd, simulate_full_async_residual, runs),
        iterations=1,
        rounds=1,
    )
    emit(
        results_dir,
        "fig2_multadd_residual",
        format_table(
            headers,
            rows,
            title="Fig 2 (Multadd, residual-based): full-async relres after 20 V-cycles",
        ),
    )
    assert all(np.isfinite(r[-1]) for r in rows)
    _assert_delta_ends(rows)
    _, sol_rows = _run(Multadd, simulate_full_async_solution, runs)
    _assert_residual_beats_solution(sol_rows, rows)


def test_fig2_residual_series(results_dir):
    """Persist representative full-async residual-vs-time series
    (solution- and residual-based) in the shared observe CSV format."""
    size = scaled_sizes(PAPER_SIZES)[-1]
    p = build_problem("27pt", size, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1))
    solver = Multadd(h, smoother="jacobi", weight=0.9)
    params = ScheduleParams(alpha=ALPHA, delta=4, updates_per_grid=20, seed=0)
    for name, simulate in (
        ("fig2_multadd_solution", simulate_full_async_solution),
        ("fig2_multadd_residual", simulate_full_async_residual),
    ):
        sim = simulate(solver, p.b, params, track_trace=True)
        path = emit_series(results_dir, name, sim)
        assert path.exists() and len(path.read_text().splitlines()) > 1


def test_fig2_full_async_afacx(benchmark, results_dir, runs):
    def both():
        return (
            _run(AFACx, simulate_full_async_solution, runs),
            _run(AFACx, simulate_full_async_residual, runs),
        )

    (h1, r1), (h2, r2) = benchmark.pedantic(both, iterations=1, rounds=1)
    emit(
        results_dir,
        "fig2_afacx",
        format_table(
            h1, r1, title="Fig 2 (AFACx, solution-based): full-async relres"
        )
        + "\n\n"
        + format_table(
            h2, r2, title="Fig 2 (AFACx, residual-based): full-async relres"
        ),
    )
    assert all(np.isfinite(r[-1]) for r in r1 + r2)
    _assert_delta_ends(r1)
    _assert_delta_ends(r2)
    _assert_residual_beats_solution(r1, r2)
