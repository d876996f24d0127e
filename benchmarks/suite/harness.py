"""The repo benchmark: one command, four workloads, every metric.

``run.py`` is the command and calls :func:`main`:

    python3 benchmarks/suite/run.py --workload warm_solve --seed 1 --seconds 25 --trace 0
    python3 benchmarks/suite/run.py --seed 1            # every workload, one subprocess each

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans and reports the per-layer metrics, and
writes a Chrome trace next to the results file.  Metric names, units
and bounds come from ``BENCHMARK.json`` at the repository root.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file with
provenance, exact counts and every check goes to ``--out`` (default
``benchmarks/suite/out/``).  The exit code is non-zero when any check
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import platform
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import bootstrap
import numpy as np
import scipy
import workloads
from benchmarks._common import identity_block
from reference import REF_NOMINAL_S
from spans import chrome_trace

from repro import kernels

SUITE = Path(__file__).resolve().parent
OUT = SUITE / "out"
SPEC_PATH = bootstrap.ROOT / "BENCHMARK.json"
SCHEMA = "repro.bench.suite/1"


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def provenance(seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Which code ran where: commit (when the checkout is a git work
    tree), a digest of ``src/`` that holds either way, hardware and
    library versions, and the run settings."""
    commit = "unknown"
    if (bootstrap.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(bootstrap.SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_digest": digest.hexdigest(),
        "identity": identity_block("suite", measured=True),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.current_backend(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def calibrate(metrics: Dict[str, Dict[str, Any]], units: Dict[str, str],
              reference_s: List[float]) -> float:
    """Scale every time (and rate) not yet scaled to the reference speed,
    in place, by ``REF_NOMINAL_S / median(reference_s)``; returns it.

    Each scaled metric keeps its measured value as ``raw``.
    """
    if not reference_s:
        return 1.0
    factor = REF_NOMINAL_S / float(np.median(reference_s))
    for name, m in metrics.items():
        unit = units.get(name, m.get("unit", ""))
        scale = factor if unit in ("s", "ms") else 1.0 / factor if unit.endswith("/s") else None
        if scale is None or m.get("calibrated"):
            continue
        m["calibrated"] = True
        m["raw"] = m["value"]
        m["value"] *= scale
        for key in ("ci", "samples"):
            if key in m:
                m[key] = [v * scale for v in m[key]]
    return factor


def run_workload(
    name: str, seed: int, seconds: float, trace: int, out_dir: Path = OUT, **sizes: Any
) -> Dict[str, Any]:
    """Run one workload in this process and return its result record.

    ``sizes`` override the workload's problem sizes and rates (the
    tests use tiny ones).  The result's ``line`` is the summary printed
    last: exactly the metrics ``BENCHMARK.json`` lists for this mode,
    per-layer ones a workload does not exercise reading 0.
    """
    spec = load_spec()
    run = workloads.Run(seed, seconds, bool(trace))
    t0 = perf_counter()
    workloads.WORKLOADS[name](run, **sizes)
    run.peak_rss()
    wall = perf_counter() - t0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # The end-to-end times are scaled one operation at a time by the
    # workload; this scales only the per-layer times of a traced closed
    # loop (serve_mixed times no reference loop here).
    factor = calibrate(run.metrics, units, run.reference_s)
    listed = spec["per_layer" if trace else "end_to_end"]
    for m in spec["end_to_end"]:
        run.check(f"emitted.{m['name']}", m["name"] in run.metrics, "workload did not measure it")
    unlisted = sorted(set(run.metrics) - set(units))
    run.check("metrics_listed", not unlisted, f"not in BENCHMARK.json: {unlisted}")
    metrics = {k: {**v, "unit": units.get(k, "")} for k, v in sorted(run.metrics.items())}
    line_metrics = {
        m["name"]: {"value": run.metrics.get(m["name"], {"value": 0.0})["value"], "unit": m["unit"]}
        for m in listed
    }
    failed_checks = sorted(k for k, v in run.checks.items() if v["failed"])
    correct = not failed_checks and run.failed == 0 and run.attempted > 0
    record: Dict[str, Any] = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "wall_s": wall,
        "calibration": {"reference_median_s": float(np.median(run.reference_s)),
                        "nominal_s": REF_NOMINAL_S, "factor": factor,
                        "samples": len(run.reference_s)} if run.reference_s else None,
        "metrics": metrics,
        "extra": run.extra,
        "counts": run.counts,
        "checks": run.checks,
        "failed_checks": failed_checks,
        "line": {"correct": correct, "attempted": run.attempted, "failed": run.failed,
                 "metrics": line_metrics},
    }
    if run.tracer is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps(chrome_trace(run.tracer.spans, run.t_origin)))
        record["trace"] = {**run.trace_info, "chrome_trace": str(path), "spans": len(run.tracer.spans)}
    return record


def report(name: str, rec: Dict[str, Any]) -> None:
    print(f"== {name}: {'correct' if rec['correct'] else 'INCORRECT'}, "
          f"{rec['attempted']} attempted, {rec['failed']} failed, {rec['wall_s']:.1f} s")
    for metric, m in [*rec["metrics"].items(), *rec["extra"].items()]:
        note = f"  n={m['n']}"
        if "ci" in m:
            note += f"  {m['stat']}, 95% CI [{m['ci'][0]:.6g}, {m['ci'][1]:.6g}]"
        if metric in rec["extra"]:
            note += "  (report only)"
        print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']:6s}{note}")
    for check in rec["failed_checks"]:
        print(f"  CHECK FAILED {check}: {rec['checks'][check]['detail']}")


def write_results(path: Path, prov: Dict[str, Any], records: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": SCHEMA, "provenance": prov, "workloads": records}
    path.write_text(json.dumps(payload, indent=1, default=float) + "\n")


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload in its own fresh subprocess, one after another."""
    out = args.out or OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    records: Dict[str, Any] = {}
    for name in names:
        part = out.with_name(f"{out.stem}.{name}.json")
        cmd = [sys.executable, str(SUITE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(part)]
        subprocess.run(cmd, timeout=900, check=False)
        if part.exists():
            records[name] = json.loads(part.read_text())["workloads"][name]
            part.unlink()
        else:
            records[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                             "counts": {}, "line": {"metrics": {}}, "failed_checks": ["no result"]}
    write_results(out, provenance(args.seed, args.seconds, args.trace), records)
    print(f"results: {out}")
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{n}.{k}": v for n, r in records.items() for k, v in r["line"]["metrics"].items()},
    }))
    return 0 if correct else 1


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    ``run_procs`` reaps its workers, though with a join that gives up
    after a second.  The ``multiprocessing`` resource tracker it starts
    for the shared-memory segment and the locks lives until it reads
    end-of-file from this process, so it would otherwise outlive the
    benchmark.
    """
    for p in multiprocessing.active_children():
        p.terminate()
        p.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, help="one workload (default: all, one subprocess each)")
    p.add_argument("--seed", type=int, default=0, help="drives every RHS, schedule and arrival time")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--out", type=Path, help="results JSON path")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None:
        return run_all(args, names)
    out = args.out or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec = run_workload(args.workload, args.seed, args.seconds, args.trace, out.parent)
    write_results(out, provenance(args.seed, args.seconds, args.trace), {args.workload: rec})
    report(args.workload, rec)
    print(f"results: {out}")
    print(json.dumps(rec["line"]))
    return 0 if rec["correct"] else 1
