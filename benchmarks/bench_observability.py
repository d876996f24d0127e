"""Tracing + live-telemetry overhead — solve wall time with the
observability layers on vs off; regenerates ``results/BENCH_observe.json``.

Measures the cost of the ``repro.observe`` instrumentation on the two
backends where it sits on a hot path: the sequential engine (events on
every chunked read/write micro-step) and the threaded executor (a
``TracedPolicy`` observing each write policy's stripe sweep — acquire
timing, the policy's commit epoch and one event per read or commit —
plus per-correction events).  Four arms per backend, timed
*alternately* (so machine drift hits all equally) and compared on
best-of-``BEST_OF`` wall time:

- **plain** — no tracer;
- **traced** — tracer on (the run-end trace satellite);
- **tracked** — tracer + the residual series the live detectors need
  (``track_trace`` on the engine — one extra residual norm per
  correction — and a ``monitor_interval`` sampling thread on the
  threaded executor).  This is everything ``--live`` *implies* except
  the collector itself;
- **live** — tracked + the :mod:`repro.observe.live` snapshot
  collector at the default 100 ms cadence (detectors on, no
  endpoint/profiler), i.e. what ``repro solve --live`` costs.

Two overheads are asserted: ``traced/plain`` (tracing is near-free)
and ``live/tracked`` (the collector's tail reads + detectors are
near-free on top of the residual series).  ``tracked/plain`` is
*reported but not bounded* — on the engine it is the price of a
residual norm per correction, an algorithm-measurement cost that
exists with or without the live layer (``repro trace run`` pays it
too).  Documented bound: <= 5% best-of for the two asserted ratios on
a quiet box (see docs/OBSERVABILITY.md for the design that makes this
hold — per-worker append-only ring buffers, no cross-thread locking
on the record path, cursor-based tail reads from the collector
thread).  The threaded arms' wall time additionally depends on GIL
interleaving, which any observer perturbs, so the assertions below
use loose guards (25% engine, 50% threaded) to keep a noisy shared
CI box from flaking;
``results/observability.txt`` and the JSON payload record what this
machine actually measured.

Runnable standalone (``python benchmarks/bench_observability.py``)
or through pytest like every other bench module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.amg import SetupOptions, setup_hierarchy
from repro.core import run_async_engine, run_threaded
from repro.observe import LiveConfig, Tracer
from repro.problems import build_problem
from repro.solvers import Multadd
from repro.utils import format_table

BEST_OF = 7
TMAX = 10
SIZE = 16  # 4096 rows — big enough that numerical work dominates
CADENCE_S = 0.1  # the documented default --live snapshot interval

SCHEMA = "repro.bench.observe/v1"


def _best_of_arms(arms):
    """Alternate the arms so drift cancels; best-of wall per arm."""
    best = [float("inf")] * len(arms)
    for _ in range(BEST_OF):
        for i, arm in enumerate(arms):
            t0 = time.perf_counter()
            arm()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def run_bench():
    p = build_problem("7pt", SIZE, rhs_seed=0)
    h = setup_hierarchy(p.A, SetupOptions(aggressive_levels=1, max_coarse=20))
    solver = Multadd(h, smoother="jacobi", weight=0.9)

    def run_engine(tracer=None, live=None, tracked=False):
        return run_async_engine(
            solver, p.b, tmax=TMAX, seed=3, tracer=tracer, live=live,
            track_trace=tracked,
        )

    def run_thr(tracer=None, live=None, tracked=False):
        return run_threaded(
            solver, p.b, tmax=TMAX, write="lock", tracer=tracer, live=live,
            monitor_interval=CADENCE_S if tracked else None,
        )

    backends = {}
    for name, run in (("engine", run_engine), ("threaded", run_thr)):
        clock = "steps" if name == "engine" else "s"
        plain, traced, tracked, live = _best_of_arms(
            [
                run,
                lambda run=run, clock=clock: run(Tracer(clock=clock)),
                lambda run=run, clock=clock: run(
                    Tracer(clock=clock), tracked=True
                ),
                lambda run=run, clock=clock: run(
                    Tracer(clock=clock), LiveConfig(interval_s=CADENCE_S)
                ),
            ]
        )
        backends[name] = {
            "plain_ms": plain * 1e3,
            "traced_ms": traced * 1e3,
            "tracked_ms": tracked * 1e3,
            "live_ms": live * 1e3,
            "traced_overhead": traced / plain - 1.0,
            "tracked_overhead": tracked / plain - 1.0,
            "live_overhead": live / tracked - 1.0,
        }

    # Sanity: the observed arms actually observed something.
    traced_res = run_engine(Tracer(clock="steps"))
    live_res = run_engine(Tracer(clock="steps"), LiveConfig(interval_s=CADENCE_S))
    from _common import identity_block

    return {
        "schema": SCHEMA,
        "identity": identity_block("engine+threaded", measured=True),
        "problem": {"set": "7pt", "size": SIZE, "tmax": TMAX},
        "best_of": BEST_OF,
        "cadence_s": CADENCE_S,
        "backends": backends,
        "sanity": {
            "traced_events": traced_res.trace_summary.events,
            "live_snapshots": len(live_res.live_summary.snapshots),
        },
    }


def check(payload):
    assert payload["sanity"]["traced_events"] > 0
    assert payload["sanity"]["live_snapshots"] >= 1
    for name, row in payload["backends"].items():
        # Loose CI guards; the documented quiet-box bound is 5%.  The
        # threaded arms get an extra margin: their wall time depends on
        # GIL interleaving, which any observer perturbs by 1-30% run to
        # run on a loaded box.
        guard = 0.5 if name == "threaded" else 0.25
        assert row["traced_overhead"] < guard, (
            f"{name} tracing overhead {row['traced_overhead']:.1%}"
            f" >= {guard:.0%}"
        )
        assert row["live_overhead"] < guard, (
            f"{name} live-collector overhead {row['live_overhead']:.1%}"
            f" >= {guard:.0%}"
        )


def digest(payload):
    rows = [
        [
            name,
            row["plain_ms"],
            row["traced_ms"],
            row["tracked_ms"],
            row["live_ms"],
            100.0 * row["traced_overhead"],
            100.0 * row["live_overhead"],
        ]
        for name, row in payload["backends"].items()
    ]
    return format_table(
        ["backend", "plain ms", "traced ms", "tracked ms", "live ms",
         "trace %", "live %"],
        rows,
        title=(
            f"Observability overhead (best of {payload['best_of']}, 7pt size "
            f"{payload['problem']['size']}, tmax={payload['problem']['tmax']}, "
            f"live cadence {payload['cadence_s'] * 1e3:.0f} ms)"
        ),
    )


def test_observability_overhead(benchmark, results_dir):
    from _common import emit

    payload = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    check(payload)
    (results_dir / "BENCH_observe.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(results_dir, "observability", digest(payload))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_observe.json",
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
