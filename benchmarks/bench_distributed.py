"""Distributed-memory study (beyond the paper's tables).

The paper's conclusion conjectures that global-res is the natural
distributed formulation.  This bench quantifies the trade on the
message-passing simulator:

- **flops**: global-res ships residual increments, so no process ever
  recomputes a full fine-grid residual — it must not cost more flops
  than local-res.
- **staleness**: sweep the network latency and compare the two
  strategies' final residuals at a fixed correction budget — in the
  network-bound regime both degrade; the question is who degrades
  more gracefully.
"""

from __future__ import annotations

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core.perfmodel import MachineParams
from repro.distributed import NetworkModel, simulate_distributed
from repro.problems import build_problem
from repro.solvers import Multadd
from repro.utils import format_table, spawn_seeds, stable_seed

from _common import emit

LATENCIES = (1e-7, 1e-6, 1e-5, 1e-4)


def _solver():
    p = build_problem("27pt", 10, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(coarsen_type="hmis", aggressive_levels=1))
    return Multadd(h, smoother="jacobi", weight=0.9), p.b


def test_distributed_latency_sweep(benchmark, results_dir, runs):
    def run():
        solver, b = _solver()
        mach = MachineParams(flop_rate=2e8, jitter=0.1)
        rows = []
        for lat in LATENCIES:
            per_strategy = {}
            for strategy in ("global", "local"):
                vals = []
                for s in spawn_seeds(stable_seed((lat, strategy)), runs):
                    res = simulate_distributed(
                        solver,
                        b,
                        tmax=20,
                        strategy=strategy,
                        network=NetworkModel(latency=lat, jitter=0.1, seed=s),
                        machine=mach,
                        nthreads_total=8,
                        seed=s,
                    )
                    vals.append(res.rel_residual)
                per_strategy[strategy] = float(np.mean(vals))
            rows.append([lat, per_strategy["global"], per_strategy["local"]])
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit(
        results_dir,
        "distributed_latency",
        format_table(
            ["latency (s)", "global-res relres", "local-res relres"],
            rows,
            title="Distributed study: relres after 20 corrections/grid vs network latency",
        ),
    )
    # Both strategies converge at low latency.
    assert rows[0][1] < 1e-2 and rows[0][2] < 1e-2


def test_distributed_flops_accounting(benchmark, results_dir):
    def run():
        solver, b = _solver()
        mach = MachineParams(flop_rate=2e8, jitter=0.0)
        out = []
        for strategy in ("global", "local"):
            res = simulate_distributed(
                solver,
                b,
                tmax=20,
                strategy=strategy,
                machine=mach,
                nthreads_total=8,
                seed=0,
            )
            out.append(
                [strategy, res.flops_total, res.messages, res.wall_time, res.rel_residual]
            )
        return out

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit(
        results_dir,
        "distributed_flops",
        format_table(
            ["strategy", "total flops", "messages", "sim wall (s)", "relres"],
            rows,
            title="Distributed study: global-res vs local-res cost accounting",
        ),
    )
    # The paper's conjecture, cost side: global-res never needs more flops.
    assert rows[0][1] <= rows[1][1] * 1.01


def test_distributed_message_loss(benchmark, results_dir, runs):
    """Loss tolerance: asynchronous methods never deadlock on drops.

    A lost message permanently stales the receivers' replicas; the cost
    is accuracy per correction budget.  Any loss costs both strategies
    accuracy, and local-res loses more as the loss rate rises;
    global-res's cost is not monotone in the rate at this budget.  The
    iteration keeps making progress either way (nothing ever waits).
    """

    def run():
        solver, b = _solver()
        mach = MachineParams(flop_rate=2e8, jitter=0.1)
        rows = []
        for drop in (0.0, 0.05, 0.15, 0.3):
            per_strategy = {}
            for strategy in ("global", "local"):
                vals, lost = [], 0
                for s in spawn_seeds(stable_seed((drop, strategy)), runs):
                    res = simulate_distributed(
                        solver,
                        b,
                        tmax=20,
                        strategy=strategy,
                        network=NetworkModel(drop_probability=drop, seed=s),
                        machine=mach,
                        nthreads_total=8,
                        seed=s,
                    )
                    vals.append(res.rel_residual)
                    lost = res.dropped
                per_strategy[strategy] = (float(np.mean(vals)), lost)
            rows.append(
                [
                    drop,
                    per_strategy["global"][0],
                    per_strategy["local"][0],
                    per_strategy["global"][1],
                ]
            )
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    emit(
        results_dir,
        "distributed_loss",
        format_table(
            ["drop prob", "global-res relres", "local-res relres", "msgs lost"],
            rows,
            title="Distributed study: message loss vs relres after 20 corrections/grid",
        ),
    )
    # Every lossy row is worse than the lossless one for both
    # strategies; only local-res degrades monotonically.  No blow-up.
    lossless, lossy = rows[0], rows[1:]
    assert all(r[1] > lossless[1] and r[2] > lossless[2] for r in lossy)
    assert all(a[2] <= b[2] for a, b in zip(rows, rows[1:]))
    assert all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in rows)
