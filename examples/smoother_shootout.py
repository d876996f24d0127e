"""Smoother shootout — the paper's four smoothers plus one extension.

Compares omega-Jacobi, l1-Jacobi, hybrid Jacobi-Gauss-Seidel,
asynchronous Gauss-Seidel, and (our extension) a Chebyshev polynomial
smoother, each inside Multadd run both synchronously and asynchronously.
The paper's finding to look for: async GS needs the fewest V-cycles,
even at one sweep; l1-Jacobi is the most damped/slowest.

Run:  python examples/smoother_shootout.py [grid_length]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Multadd, SetupOptions, build_problem, setup_hierarchy
from repro.core import run_async_engine
from repro.utils import format_table, spawn_seeds, stable_seed

SMOOTHERS = (
    ("omega-Jacobi (.9)", "jacobi", {"weight": 0.9}),
    ("l1-Jacobi", "l1_jacobi", {}),
    ("hybrid JGS", "hybrid_jgs", {"nblocks": 8}),
    ("async GS", "async_gs", {"nblocks": 8, "lambda_mode": "sweep"}),
    ("Chebyshev(3) [ext]", "chebyshev", {"degree": 3, "lambda_mode": "minv"}),
)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 14
    runs = 3
    tmax = 20
    p = build_problem("27pt", n, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1))
    print(f"27pt grid length {n}: {p.n} rows, {h.nlevels} levels\n")

    rows = []
    for label, name, kw in SMOOTHERS:
        solver = Multadd(h, smoother=name, **kw)
        sync = solver.solve(p.b, tmax=tmax)
        async_vals = []
        diverged = False
        for s in spawn_seeds(stable_seed(label), runs):
            res = run_async_engine(
                solver,
                p.b,
                tmax=tmax,
                rescomp="local",
                write="lock",
                criterion="criterion2",
                alpha=0.5,
                seed=s,
            )
            if res.diverged:
                diverged = True
                break
            async_vals.append(res.rel_residual)
        rows.append(
            [
                label,
                None if sync.diverged else sync.final_relres,
                None if diverged else float(np.mean(async_vals)),
            ]
        )

    print(
        format_table(
            ["smoother", f"sync relres({tmax})", f"async relres({tmax})"],
            rows,
            title="Multadd smoother shootout (one sweep each)",
        )
    )
    print(
        "\nPaper's Table-I finding: async GS gives the fastest convergence\n"
        "per cycle of the four paper smoothers; l1-Jacobi is the slowest\n"
        "(and the + dagger marks a divergent combination)."
    )


if __name__ == "__main__":
    main()
