"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

__all__ = ["commit_hash", "emit", "emit_payload", "emit_series", "identity_block"]


def commit_hash() -> str:
    """Current git commit, or ``"unknown"`` outside a checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                cwd=Path(__file__).parent,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def identity_block(backend: str, measured: bool, **extra) -> dict:
    """Provenance stamp for a benchmark payload (or payload row).

    Records which executor produced the numbers and on what hardware,
    so modeled rows (``backend="perfmodel"``, ``measured=False``) and
    measured wall-clock rows are never conflated when payloads are
    compared across machines.  ``cpu_affinity`` is the scheduler mask
    actually granted to this process (CI runners routinely pin fewer
    cores than ``cpu_count`` advertises).
    """
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux fallback
        affinity = None
    block = {
        "backend": backend,
        "measured": bool(measured),
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": affinity,
        "usable_cpus": len(affinity) if affinity is not None else (os.cpu_count() or 1),
    }
    block.update(extra)
    return block


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


def emit_payload(results_dir: Path, name: str, payload: dict) -> Path:
    """Persist a schema-versioned JSON payload under results/.

    Every payload must carry an ``identity`` block (see
    :func:`identity_block`) — refuse to write one that doesn't, so the
    modeled-vs-measured provenance can't silently go missing.
    """
    if "identity" not in payload:
        raise ValueError(f"payload {name!r} has no identity block")
    path = results_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def emit_series(results_dir: Path, name: str, result) -> Path:
    """Persist a result's residual-vs-time series as ``name.residuals.csv``.

    Accepts any :class:`~repro.core.run.RunResult` (see
    :func:`repro.observe.series_from_result`), an executor's or a
    Section-III model's, so the figure benches share one plotting
    format with ``repro trace export --residuals``.
    """
    from repro.observe import series_from_result, write_residual_series

    path = results_dir / f"{name}.residuals.csv"
    write_residual_series(series_from_result(result), path)
    return path
