"""Setup ablation: geometric vs algebraic hierarchies (beyond the paper).

The paper's asynchronous story is told entirely on BoomerAMG
hierarchies.  Is anything specific to AMG?  This bench runs the same
methods (sync Mult, sync Multadd, async Multadd local-res) on a
geometric hierarchy of the same operator and checks that the paper's
orderings are setup-agnostic — which they should be, since the
asynchronous machinery only sees `correction(k, r)`.
"""

from __future__ import annotations

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import run_async_engine
from repro.gmg import geometric_hierarchy
from repro.problems import build_problem
from repro.solvers import Multadd, MultiplicativeMultigrid
from repro.utils import format_table, spawn_seeds, stable_seed

from _common import emit


def test_gmg_vs_amg(benchmark, results_dir, runs):
    def run():
        n = 15  # odd grid length: geometric coarsening stays aligned
        p = build_problem("7pt", n, rhs_seed=0)
        h_amg = setup_hierarchy(p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1))
        h_gmg = geometric_hierarchy(p.A, n)
        rows = []
        for label, h in [("AMG (HMIS+agg)", h_amg), ("GMG (trilinear)", h_gmg)]:
            mult = MultiplicativeMultigrid(h, smoother="jacobi", weight=0.9)
            madd = Multadd(h, smoother="jacobi", weight=0.9)
            r_mult = mult.solve(p.b, tmax=20).final_relres
            r_madd = madd.solve(p.b, tmax=20).final_relres
            vals = [
                run_async_engine(
                    madd, p.b, tmax=20, seed=s, alpha=0.5
                ).rel_residual
                for s in spawn_seeds(stable_seed(label), runs)
            ]
            rows.append(
                [
                    label,
                    h.nlevels,
                    round(h.operator_complexity(), 2),
                    r_mult,
                    r_madd,
                    float(np.mean(vals)),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit(
        results_dir,
        "gmg_vs_amg",
        format_table(
            ["setup", "levels", "op cx", "sync Mult", "sync Multadd", "async Multadd"],
            rows,
            title="Setup ablation: the async story is hierarchy-agnostic (7pt, 15^3)",
        ),
    )
    # Both setups: all three methods converge, async close to sync.
    for row in rows:
        assert all(np.isfinite(v) and v < 1e-2 for v in row[3:])
        assert row[5] < row[3] * 1e3  # async within 3 orders of sync Mult
