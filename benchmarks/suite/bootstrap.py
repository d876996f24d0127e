"""Make ``import repro`` resolve to this checkout's ``src/``.

Imported first by every suite module.  The benchmark builds nothing and
installs nothing: it runs the package from source, and refuses to run
against a ``repro`` found anywhere else (an installed copy would
silently measure the wrong code).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

for _p in (str(ROOT), str(SRC)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import repro  # noqa: E402

if SRC.resolve() not in Path(repro.__file__).resolve().parents:
    raise ImportError(f"repro imported from {repro.__file__}, expected under {SRC}")
