"""Checked-in benchmark artifacts are what the tree regenerates.

A changelog or doc claim about a ``BENCH_*.json`` artifact must match
the tree: each name mentioned in ``README.md``, ``docs/`` or
``CHANGES.md`` exists under ``benchmarks/results/``.  The paper-figure
benches must draw the same schedules in every process, or their result
files cannot be regenerated.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "CHANGES.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_every_named_bench_payload_exists():
    named = set()
    for doc in DOCS:
        named.update(re.findall(r"BENCH_[A-Za-z0-9_]+\.json", doc.read_text(encoding="utf-8")))
    assert named, "no BENCH_*.json named in the docs"
    missing = sorted(n for n in named if not (ROOT / "benchmarks" / "results" / n).is_file())
    assert not missing, f"named in the docs but not checked in: {missing}"


def test_fig4_rows_do_not_depend_on_the_hash_salt():
    """The Fig. 4 bench draws its schedules from seeds keyed by
    ``(size, label)``; two processes with different string-hash salts
    must draw the same schedules and so print the same rows."""
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import bench_fig4_gridsize as bench\n"
        "print(repr(bench._run('7pt', 'jacobi', 2)[1]))\n"
    )
    outputs = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt, REPRO_SCALE="0.1")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "benchmarks")],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
