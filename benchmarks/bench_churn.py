"""Elastic-membership churn bench — regenerates ``results/BENCH_churn.json``.

Three claims about :mod:`repro.distributed.elastic`, measured and
persisted as one schema-versioned payload:

- **degradation** — with ≥10% of the rank pool crashing mid-solve, an
  elastic + guarded run still converges (``degraded``, not failed,
  with detection/eviction/repartition/handoff visible in telemetry),
  while the same physical failures on the static simulator stall it;
- **scale** — a churn-free 1024-rank simulation completes in seconds,
  the event-loop refactor's headline (indexed heap, O(1) dedup,
  vectorized membership scans);
- **identity** — a churn-free elastic run is bit-identical to the
  plain simulator under fixed seeds, so elasticity is free until used.

Runnable standalone (``python benchmarks/bench_churn.py [--full]``)
or through pytest like every other bench module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.amg import SetupOptions, setup_hierarchy
from repro.core.perfmodel import MachineParams
from repro.distributed import ChurnPlan, ElasticityPolicy, simulate_distributed
from repro.problems import build_problem
from repro.resilience import CrashFault, FaultPlan, GuardPolicy
from repro.solvers import Multadd
from repro.utils import format_table

from _common import commit_hash, emit

SCHEMA = "repro.bench_churn/1"
TOL = 1e-4
TMAX = 25
MAX_EVENTS = 150_000

#: compute-bound machine: per-correction compute well above network
#: latency, so convergence is limited by capacity — the regime where
#: losing ranks must show up as degradation, not noise.
_MACHINE = MachineParams(flop_rate=2e8, jitter=0.1)
_GUARD = GuardPolicy(watchdog_timeout=1e-4, retransmit_timeout=1e-5)
_POLICY = ElasticityPolicy(heartbeat_interval=2e-4)


def _solver(full: bool):
    name, size = ("27pt", 10) if full else ("7pt", 8)
    p = build_problem(name, size, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(aggressive_levels=0, max_coarse=20))
    return Multadd(h, smoother="jacobi", weight=0.9), p.b, {
        "set": name,
        "size": size,
        "n": int(p.A.shape[0]),
    }


def _outcome(res) -> str:
    if res.diverged:
        return "diverged"
    if res.stalled:
        return "stalled"
    return "ok" if res.rel_residual < TOL else "plateau"


def _row(res) -> dict:
    tel = res.telemetry
    return {
        "outcome": _outcome(res),
        "degraded": bool(res.degraded),
        "rel_residual": float(res.rel_residual),
        "corrects": float(res.corrects),
        "rank_crashes": tel.rank_crashes,
        "member_suspects": tel.member_suspects,
        "member_evictions": tel.member_evictions,
        "repartitions": tel.repartitions,
        "handoffs": tel.handoffs,
        "retransmissions": tel.retransmissions,
        "membership": dict(res.membership),
    }


def churn_sweep(solver, b) -> list:
    """Elastic+guarded vs static under the same physical crash load."""
    ng = solver.ngrids
    nranks = 2 * ng
    rows = []
    for frac in (0.0, 0.1, 0.25):
        ncrash = int(round(frac * nranks))
        churn = ChurnPlan.random(nranks, frac, 2e-3, seed=1) if ncrash else None
        res = simulate_distributed(
            solver,
            b,
            tmax=TMAX,
            criterion="criterion2",
            machine=_MACHINE,
            nthreads_total=nranks,
            nranks=nranks,
            elastic=_POLICY,
            churn=churn,
            guard=_GUARD,
            seed=3,
            max_events=MAX_EVENTS,
        )
        rows.append({"churn_fraction": frac, "mode": "elastic+guard", **_row(res)})
        # Static comparator: the same fraction of compute lost, but as
        # unrecoverable grid-process crashes on the non-elastic path.
        ncrash_grids = min(max(ncrash // 2, 1), ng - 1) if ncrash else 0
        static = simulate_distributed(
            solver,
            b,
            tmax=TMAX,
            criterion="criterion2",
            machine=_MACHINE,
            nthreads_total=nranks,
            seed=3,
            max_events=MAX_EVENTS,
            faults=FaultPlan(
                crashes=tuple(CrashFault(1 + i, 3) for i in range(ncrash_grids))
            )
            if ncrash_grids
            else None,
        )
        rows.append({"churn_fraction": frac, "mode": "static", **_row(static)})
    # Thin pool (one rank per grid): any crash leaves its grid with no
    # survivor, so recovery must go through a checkpoint handoff.
    from repro.distributed import ChurnEvent

    thin = simulate_distributed(
        solver,
        b,
        tmax=TMAX,
        criterion="criterion2",
        machine=_MACHINE,
        nthreads_total=ng,
        nranks=ng,
        elastic=_POLICY,
        churn=ChurnPlan(events=(ChurnEvent(1e-3, "crash", 1),)),
        guard=_GUARD,
        seed=3,
        max_events=MAX_EVENTS,
    )
    rows.append({"churn_fraction": 1.0 / ng, "mode": "thin+handoff", **_row(thin)})
    return rows


def scale_run(solver, b, nranks: int = 1024) -> dict:
    """Churn-free pool of ``nranks`` ranks: the event-loop stress test."""
    t0 = time.perf_counter()
    res = simulate_distributed(
        solver,
        b,
        tmax=10,
        machine=_MACHINE,
        nthreads_total=nranks,
        nranks=nranks,
        elastic=ElasticityPolicy(),
        seed=3,
        max_events=MAX_EVENTS,
    )
    elapsed = time.perf_counter() - t0
    return {
        "nranks": nranks,
        "bench_seconds": elapsed,
        "completed": bool(np.all(res.counts == 10)),
        "outcome": _outcome(res),
        "degraded": bool(res.degraded),
        "messages": int(res.messages),
        "corrections": int(res.counts.sum()),
    }


def identity_check(solver, b) -> dict:
    """Churn-free elastic vs plain: bitwise-equal iterates, same clock."""
    kw = dict(
        tmax=15,
        machine=_MACHINE,
        nthreads_total=4,
        seed=3,
        max_events=MAX_EVENTS,
    )
    plain = simulate_distributed(solver, b, **kw)
    el = simulate_distributed(solver, b, elastic=ElasticityPolicy(), **kw)
    return {
        "x_bitwise_equal": bool(np.array_equal(plain.x, el.x)),
        "wall_time_equal": bool(plain.wall_time == el.wall_time),
        "messages_equal": bool(plain.messages == el.messages),
        "counts_equal": bool(np.array_equal(plain.counts, el.counts)),
    }


def run_bench(full: bool = False) -> dict:
    solver, b, problem = _solver(full)
    return {
        "schema": SCHEMA,
        "commit": commit_hash(),
        "quick": not full,
        "seed": 3,
        "problem": problem,
        "policy": {
            "heartbeat_interval": _POLICY.heartbeat_interval,
            "suspect_timeout": _POLICY.suspect_timeout,
            "evict_timeout": _POLICY.evict_timeout,
        },
        "churn_sweep": churn_sweep(solver, b),
        "scale": scale_run(solver, b),
        "identity": identity_check(solver, b),
    }


def check(payload: dict) -> None:
    """The acceptance assertions; shared by pytest and standalone runs."""
    sweep = {(r["churn_fraction"], r["mode"]): r for r in payload["churn_sweep"]}
    # (a) elastic + guarded converges at >= 10% rank churn, degraded —
    # with the full detection/recovery chain visible in telemetry...
    for frac in (0.1, 0.25):
        el = sweep[(frac, "elastic+guard")]
        assert el["outcome"] == "ok", el
        assert el["degraded"], el
        assert el["rank_crashes"] >= 1
        assert el["member_evictions"] >= 1
        assert el["repartitions"] >= 1
    # ...while the static simulator stalls or diverges under the same
    # physical failure load.
    assert sweep[(0.1, "static")]["outcome"] in ("stalled", "diverged")
    # Churn-free elastic matches churn-free static: no degradation.
    assert not sweep[(0.0, "elastic+guard")]["degraded"]
    # The thin-pool row exercises the checkpoint handoff path.
    thin = next(r for r in payload["churn_sweep"] if r["mode"] == "thin+handoff")
    assert thin["outcome"] == "ok" and thin["degraded"] and thin["handoffs"] >= 1
    # (b) the 1024-rank churn-free simulation completes, fast.
    assert payload["scale"]["completed"]
    assert payload["scale"]["bench_seconds"] < 120.0
    # (c) churn-free elastic is bit-identical to the plain simulator.
    assert all(payload["identity"].values()), payload["identity"]


def digest(payload: dict) -> str:
    rows = [
        [
            f"{r['churn_fraction']:.0%}",
            r["mode"],
            r["outcome"],
            "yes" if r["degraded"] else "no",
            f"{r['rel_residual']:.2e}",
            r["member_evictions"],
            r["repartitions"],
            r["handoffs"],
        ]
        for r in payload["churn_sweep"]
    ]
    table = format_table(
        ["churn", "mode", "outcome", "degraded", "relres", "evict", "repart", "handoff"],
        rows,
        title=(
            f"Elastic churn sweep ({payload['problem']['set']}, criterion2, "
            f"tmax {TMAX}): elastic degrades, static stalls"
        ),
    )
    sc = payload["scale"]
    ident = "bit-identical" if all(payload["identity"].values()) else "DIVERGED"
    return (
        f"{table}\n\n"
        f"scale: {sc['nranks']} ranks churn-free in {sc['bench_seconds']:.2f}s "
        f"({sc['corrections']} corrections, {sc['messages']} messages)\n"
        f"identity: churn-free elastic vs plain — {ident}\n"
    )


def test_bench_churn(benchmark, results_dir):
    from repro.utils import env_float, env_int

    full = env_float("REPRO_SCALE", 0.25) >= 1.0 or env_int("REPRO_BENCH_FULL", 0) == 1
    payload = benchmark.pedantic(lambda: run_bench(full=full), iterations=1, rounds=1)
    check(payload)
    (results_dir / "BENCH_churn.json").write_text(json.dumps(payload, indent=2) + "\n")
    emit(results_dir, "bench_churn", digest(payload))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="27pt problem (slower)")
    ap.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_churn.json",
        metavar="PATH",
    )
    args = ap.parse_args(argv)
    payload = run_bench(full=args.full)
    check(payload)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(digest(payload))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
