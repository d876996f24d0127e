"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from multiprocessing import resource_tracker

import bootstrap
import compare
import harness as suite
import pytest

SPEC = suite.load_spec()

#: Tiny problem sizes and rates: every workload path, in seconds.
#: cold_solve's first problem and serve_mixed's cold operator need three
#: levels, so that every AMG stage wrapper fires.
TINY = {
    "cold_solve": {"problems": (("5pt", 20), ("27pt", 6))},
    "warm_solve": {"problem": ("5pt", 12)},
    "procs_solve": {"problem": ("27pt", 6)},
    "serve_mixed": {"operators": (("5pt", 8), ("27pt", 4)), "cold_operator": ("5pt", 20),
                    "rate": 150.0, "cold_every": 7},
}
SECONDS = {"cold_solve": 0.3, "warm_solve": 0.3, "procs_solve": 0.1, "serve_mixed": 0.8}


def test_benchmark_json_covers_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_is_correct_and_emits_every_metric(name, trace, tmp_path):
    rec = suite.run_workload(name, seed=3, seconds=SECONDS[name], trace=trace,
                             out_dir=tmp_path, **TINY[name])
    assert rec["correct"], {k: rec["checks"][k] for k in rec["failed_checks"]}
    assert rec["attempted"] >= 1 and rec["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(rec["line"]["metrics"]) == [m["name"] for m in listed]
    assert set(rec["line"]) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        # End-to-end metrics are measured, never filled in, and never 0.
        for m in listed:
            assert rec["metrics"][m["name"]]["value"] > 0, m["name"]
        return
    assert abs(rec["trace"]["layer_sum_ratio"] - 1.0) <= 0.05
    assert rec["checks"]["trace.every_wrapper_fired"]["failed"] == 0
    with open(rec["trace"]["chrome_trace"]) as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_same_seed_repeats_the_exact_counts(tmp_path):
    a = suite.run_workload("warm_solve", 5, 0.2, 0, tmp_path, **TINY["warm_solve"])
    b = suite.run_workload("warm_solve", 5, 0.2, 0, tmp_path, **TINY["warm_solve"])
    shared = set(a["counts"]) & set(b["counts"])
    assert shared and all(a["counts"][k] == b["counts"][k] for k in shared)


@pytest.mark.parametrize(
    "b, expected",
    [
        ({"value": 100.0, "ci": [98.0, 102.0]}, "unchanged"),
        ({"value": 130.0, "ci": [128.0, 132.0]}, "regressed"),
        ({"value": 70.0, "ci": [68.0, 72.0]}, "improved"),
        ({"value": 100.0, "ci": [60.0, 140.0]}, "unresolved"),
        ({"value": 40.0, "ci": [10.0, 70.0]}, "improved"),
        ({"value": 160.0, "ci": [130.0, 190.0]}, "regressed"),
    ],
)
def test_compare_classifies_against_the_bound(b, expected):
    a = {"value": 100.0, "ci": [97.0, 103.0]}
    assert compare.classify(a, b, 0.1, "lower") == expected


def test_compare_flags_differing_counts(capsys):
    def payload(c_star):
        record = {
            "correct": True,
            "metrics": {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]},
            "counts": {"rhs0.c_star": c_star},
        }
        return {
            "provenance": {"seed": 1, "seconds": 1.0},
            "workloads": {w["name"]: record for w in SPEC["workloads"]},
        }

    assert compare.compare(payload(30), payload(30), SPEC) == 0
    assert compare.compare(payload(30), payload(31), SPEC) == 1
    assert "counts differ: rhs0.c_star" in capsys.readouterr().out
    partial = payload(30)
    del partial["workloads"]["warm_solve"]
    assert compare.compare(payload(30), partial, SPEC) == 1
    assert "warm_solve   missing from B" in capsys.readouterr().out
    partial["workloads"].clear()
    assert compare.compare(partial, payload(30), SPEC) == 1


def test_stop_children_leaves_no_process_behind(tmp_path):
    """A procs run leaves the resource tracker multiprocessing started for
    its shared memory; the command stops and reaps it before exiting."""
    suite.run_workload("procs_solve", 3, SECONDS["procs_solve"], 0, tmp_path, **TINY["procs_solve"])
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    suite.stop_children()
    assert not multiprocessing.active_children()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result."""
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    suite_dir = tmp_path / "benchmarks" / "suite"
    shutil.copytree(bootstrap.ROOT / "benchmarks" / "suite", suite_dir,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, str(suite_dir / "run.py"), "--workload", "warm_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
