"""Every benchmark payload the docs name is checked in.

A changelog or doc claim about a ``BENCH_*.json`` artifact must match
the tree: each name mentioned in ``README.md``, ``docs/`` or
``CHANGES.md`` exists under ``benchmarks/results/``.
"""

import re
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
