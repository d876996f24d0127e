"""Solve-server serving benchmarks — regenerates
``results/BENCH_serve.json``.

Four measurements over one small operator (5pt, scaled size):

- **cold vs warm** — latency of the very first job (pays the AMG
  setup) against the warm median (setup-cache hit): the shared-cache
  claim in one number.
- **unbatched vs batched throughput** — one 40-job burst drained with
  coalescing off (``batch_max=1``) and on (``batch_max=8``): wall
  time, jobs/s, and per-job p50/p99 latency for both.
- **fault isolation** — a paced steady tenant's p99 latency alone
  (fault-free baseline) vs the same tenant riding alongside a
  crash-fault tenant and a deadline-busting tenant.  The acceptance
  claim recorded here: healthy-tenant p99 within **2x** of the
  fault-free baseline.

Both fault arms run ``ROUNDS`` times alternately and keep the minimum
p99 (same drift-cancelling idiom as the other benches); the 2x check
applies a small absolute floor so micro-second baselines on a quiet
box don't turn scheduler jitter into flakes.

Runnable standalone (``python benchmarks/bench_serve.py``) or through
pytest like every other bench module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.kernels.setupcache import clear_setup_cache
from repro.problems import build_problem
from repro.resilience import parse_fault_spec
from repro.serve import ServeConfig, SolveServer
from repro.utils import env_int, format_table

SIZE = env_int("REPRO_SERVE_SIZE", 12)
BURST = env_int("REPRO_SERVE_BURST", 40)
STEADY_JOBS = env_int("REPRO_SERVE_STEADY", 30)
#: steady-tenant pacing: keeps arrival rate well below a single
#: core's service capacity so the p99 measures per-job isolation,
#: not queueing at saturation.
STEADY_PACE_S = 0.02
ROUNDS = 2
WORKERS = 2
#: absolute floor for the p99 ratio check: below this, scheduler
#: jitter — not the server — dominates the percentile.
P99_FLOOR_S = 0.005

SCHEMA = "repro.bench.serve/v1"


def _rhs(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _percentiles(latencies_s):
    arr = np.asarray(latencies_s, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
    }


def _start_server(problem, **config_kw):
    config_kw.setdefault("workers", WORKERS)
    server = SolveServer(ServeConfig(**config_kw)).start()
    server.register_operator(
        "good", problem.A, solver_kwargs={"weight": problem.jacobi_weight}
    )
    return server


def bench_cold_vs_warm(problem):
    clear_setup_cache()
    server = _start_server(problem)
    try:
        t0 = time.perf_counter()
        first = server.submit_named(
            "bench", "good", _rhs(problem.n, 0), deadline_s=120.0
        ).result(timeout=300.0)
        cold_s = time.perf_counter() - t0
        assert first is not None and first.status == "ok"
        warm = []
        for i in range(1, 11):
            res = server.submit_named(
                "bench", "good", _rhs(problem.n, i), deadline_s=120.0
            ).result(timeout=300.0)
            assert res is not None and res.status == "ok"
            warm.append(res.latency_s)
        warm_median_s = float(np.median(warm))
    finally:
        server.stop()
    return {
        "cold_first_latency_ms": cold_s * 1e3,
        "warm_median_latency_ms": warm_median_s * 1e3,
        "cold_over_warm": cold_s / max(warm_median_s, 1e-9),
    }


def bench_burst(problem, batch_max):
    server = _start_server(problem, batch_max=batch_max, max_depth=2 * BURST)
    try:
        t0 = time.perf_counter()
        tickets = [
            server.submit_named(
                "burst", "good", _rhs(problem.n, 100 + i), deadline_s=120.0
            )
            for i in range(BURST)
        ]
        results = [t.result(timeout=300.0) for t in tickets]
        wall_s = time.perf_counter() - t0
        assert all(r is not None and r.status == "ok" for r in results)
        coalesced = max(r.batched for r in results)
    finally:
        server.stop()
    row = {
        "jobs": BURST,
        "wall_s": wall_s,
        "jobs_per_s": BURST / wall_s,
        "max_batch": int(coalesced),
        "batched_jobs": int(
            server.metrics.flatten().get("serve.batched_jobs", 0)
        ),
    }
    row.update(_percentiles([r.latency_s for r in results]))
    return row


def _steady_p99(problem, with_faults):
    fault_plans = {}
    if with_faults:
        fault_plans["crashy"] = parse_fault_spec("crash:0@1", seed=11)
    server = _start_server(
        problem, batch_max=8, max_depth=64, fault_plans=fault_plans, seed=13
    )
    if with_faults:
        slow = build_problem("5pt", SIZE + 2)
        server.register_operator(
            "slow", slow.A, solver_kwargs={"weight": slow.jacobi_weight}
        )
    crashes = respawns = 0
    try:
        # Fault tenants are interleaved across the steady run (not
        # front-loaded) so the comparison measures isolation, not a
        # self-inflicted burst at t=0.
        steady, extras = [], []
        for i in range(STEADY_JOBS):
            steady.append(
                server.submit_named(
                    "steady", "good", _rhs(problem.n, 700 + i), deadline_s=120.0
                )
            )
            if with_faults and i % 6 == 3:
                extras.append(
                    server.submit_named(
                        "crashy", "good", _rhs(problem.n, 500 + i),
                        deadline_s=120.0, retries=1,
                    )
                )
            if with_faults and i % 4 == 1:
                extras.append(
                    server.submit_named(
                        "hasty", "slow", _rhs(slow.n, 600 + i), deadline_s=1e-4
                    )
                )
            time.sleep(STEADY_PACE_S)
        results = [t.result(timeout=300.0) for t in steady]
        for t in extras:
            assert t.result(timeout=300.0) is not None
        assert all(r is not None and r.status == "ok" for r in results)
        flat = server.metrics.flatten()
        crashes = int(flat.get("serve.worker_crashes", 0))
        respawns = int(flat.get("serve.workers_respawned", 0))
    finally:
        server.stop()
    p99 = _percentiles([r.latency_s for r in results])["p99_ms"]
    return p99, crashes, respawns


def bench_fault_isolation(problem):
    baseline_p99 = faulty_p99 = float("inf")
    crashes = respawns = 0
    for _ in range(ROUNDS):  # alternate the arms so drift cancels
        b, _, _ = _steady_p99(problem, with_faults=False)
        f, c, r = _steady_p99(problem, with_faults=True)
        baseline_p99 = min(baseline_p99, b)
        faulty_p99 = min(faulty_p99, f)
        crashes, respawns = max(crashes, c), max(respawns, r)
    floor_ms = P99_FLOOR_S * 1e3
    return {
        "steady_jobs": STEADY_JOBS,
        "rounds": ROUNDS,
        "baseline_p99_ms": baseline_p99,
        "faulty_p99_ms": faulty_p99,
        "p99_ratio": faulty_p99 / max(baseline_p99, 1e-9),
        "p99_floor_ms": floor_ms,
        "worker_crashes": crashes,
        "workers_respawned": respawns,
    }


def run_bench():
    from _common import identity_block

    problem = build_problem("5pt", SIZE, rhs_seed=0)
    payload = {
        "schema": SCHEMA,
        "problem": {"set": "5pt", "size": SIZE, "n": problem.n},
        "config": {"workers": WORKERS, "burst": BURST},
        "identity": identity_block("serve", measured=True),
        "cold_vs_warm": bench_cold_vs_warm(problem),
        "throughput": {
            "unbatched": bench_burst(problem, batch_max=1),
            "batched": bench_burst(problem, batch_max=8),
        },
        "fault_isolation": bench_fault_isolation(problem),
    }
    return payload


def check(payload):
    cold = payload["cold_vs_warm"]
    assert cold["cold_over_warm"] > 1.0, (
        "first job must pay the AMG setup the warm path skips"
    )
    batched = payload["throughput"]["batched"]
    assert batched["batched_jobs"] > 0, "burst never coalesced a batch"
    iso = payload["fault_isolation"]
    bound_ms = 2.0 * max(iso["baseline_p99_ms"], iso["p99_floor_ms"])
    assert iso["faulty_p99_ms"] <= bound_ms, (
        f"healthy-tenant p99 {iso['faulty_p99_ms']:.2f} ms under faults "
        f"exceeds 2x the fault-free baseline "
        f"({iso['baseline_p99_ms']:.2f} ms, floor "
        f"{iso['p99_floor_ms']:.1f} ms)"
    )
    assert iso["worker_crashes"] >= 1, "the crash tenant never crashed a worker"


def digest(payload):
    t = payload["throughput"]
    rows = [
        [
            arm,
            t[arm]["jobs_per_s"],
            t[arm]["p50_ms"],
            t[arm]["p99_ms"],
            t[arm]["max_batch"],
        ]
        for arm in ("unbatched", "batched")
    ]
    iso = payload["fault_isolation"]
    cold = payload["cold_vs_warm"]
    return format_table(
        ["arm", "jobs/s", "p50 ms", "p99 ms", "max batch"],
        rows,
        title=(
            f"Solve server ({BURST}-job burst, 5pt size {SIZE}, "
            f"{WORKERS} workers) — cold/warm "
            f"{cold['cold_first_latency_ms']:.1f}/"
            f"{cold['warm_median_latency_ms']:.1f} ms, healthy-p99 "
            f"ratio under faults {iso['p99_ratio']:.2f}x"
        ),
    )


def test_serve_benchmark(benchmark, results_dir):
    from _common import emit

    payload = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    check(payload)
    (results_dir / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(results_dir, "serve", digest(payload))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_serve.json",
        metavar="PATH",
    )
    args = ap.parse_args(argv)
    payload = run_bench()
    check(payload)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(digest(payload))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
