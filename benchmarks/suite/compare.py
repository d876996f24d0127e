"""Compare two benchmark results files, one row per workload.

    python3 benchmarks/suite/compare.py A.json B.json

``A`` is the reference (the parent commit), ``B`` the candidate.  Each
end-to-end metric is marked with the bound ``BENCHMARK.json`` gives it:

- ``unresolved``: either side's 95% interval is wider than the bound
  (half-width over value), unless the two intervals do not overlap, in
  which case B is ``improved`` or ``regressed`` by which side it lies on;
- ``regressed``: B is worse than A by more than the bound;
- ``improved``: B is better than A by more than the bound;
- ``unchanged``: otherwise.

Exact counts (hierarchy shapes, ``c*``, micro-steps, bundle bytes, job
counts) must match exactly when both runs used the same seed and
length.  The exit code is 1 if any metric regressed or is unresolved,
any count differs, or a workload of ``BENCHMARK.json`` is missing from
either file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(m: Dict[str, Any]) -> float:
    """Half-width of the 95% interval relative to the value."""
    lo, hi = m.get("ci", (m["value"], m["value"]))
    return (hi - lo) / (2.0 * abs(m["value"])) if m["value"] else 0.0


def classify(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if max(spread(a), spread(b)) > bound:
        a_lo, a_hi = a.get("ci", (a["value"],) * 2)
        b_lo, b_hi = b.get("ci", (b["value"],) * 2)
        if (b_hi < a_lo) if better == "lower" else (b_lo > a_hi):
            return "improved"
        if (b_lo > a_hi) if better == "lower" else (b_hi < a_lo):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def count_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    keys = sorted(set(a) | set(b))
    return [k for k in keys if a.get(k) != b.get(k)]


def compare(pa: Dict[str, Any], pb: Dict[str, Any], spec: Dict[str, Any]) -> int:
    same_inputs = all(
        pa["provenance"][k] == pb["provenance"][k] for k in ("seed", "seconds")
    )
    bad = 0
    for w in [w["name"] for w in spec["workloads"]]:
        ra: Optional[Dict[str, Any]] = pa["workloads"].get(w)
        rb: Optional[Dict[str, Any]] = pb["workloads"].get(w)
        if ra is None or rb is None:
            print(f"{w:12s} missing from {'A' if ra is None else 'B'}")
            bad += 1
            continue
        cells = []
        for m in spec["end_to_end"]:
            a, b = ra["metrics"].get(m["name"]), rb["metrics"].get(m["name"])
            if a is None or b is None:
                cells.append(f"{m['name']} missing")
                bad += 1
                continue
            status = classify(a, b, m["bound"], m["better"])
            bad += status in ("regressed", "unresolved")
            delta = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
            cells.append(f"{m['name']} {status} ({delta:+.1%})")
        if same_inputs:
            diff = count_mismatches(ra["counts"], rb["counts"])
            bad += bool(diff)
            cells.append(f"counts {'differ: ' + ', '.join(diff) if diff else 'identical'}")
        for side, r in (("A", ra), ("B", rb)):
            if not r["correct"]:
                bad += 1
                cells.append(f"{side} incorrect")
        print(f"{w:12s} " + "; ".join(cells))
    if not same_inputs:
        print("counts not compared: the runs used different seeds or lengths")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="reference results JSON")
    p.add_argument("b", type=Path, help="candidate results JSON")
    args = p.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    return compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec)


if __name__ == "__main__":
    sys.exit(main())
