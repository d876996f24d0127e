"""Trace exporters: JSONL, Chrome trace-event format, residual series.

Three consumers, three formats:

- **JSONL** — one :class:`~repro.observe.events.Event` dict per line,
  preceded by a ``{"type": "meta", ...}`` header line.  The archival
  format: ``repro trace report`` / ``repro trace export`` re-read it,
  and a diff of two runs' JSONL is a diff of their behaviour.
- **Chrome trace-event JSON** — correction spans become complete
  (``"X"``) slices on one track per grid, residual snapshots become a
  counter track, guard/fault events become instants.  Open in
  Perfetto (ui.perfetto.dev) or ``chrome://tracing`` for the grids ×
  time picture behind the paper's Fig. 3.
- **Residual series** — ``(t, relres)`` rows as CSV, the common input
  of the residual-vs-time benchmarks (Figs. 1/2/4), replacing each
  benchmark's private bookkeeping.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.run import RunResult
from .events import (
    ALERT,
    CORRECT_BEGIN,
    CORRECT_END,
    FAULT,
    GUARD,
    MEMBER,
    RESIDUAL,
    RETRY,
    Event,
)

__all__ = [
    "write_events_jsonl",
    "read_events_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "residual_series",
    "series_from_result",
    "write_residual_series",
    "read_residual_series",
]

PathLike = Union[str, Path]


def _open_for_write(path: PathLike) -> IO[str]:
    """Open ``path`` for writing, creating parent directories so CLI
    ``--out some/new/dir/run.jsonl`` just works."""
    p = Path(path)
    if p.parent != Path("."):
        p.parent.mkdir(parents=True, exist_ok=True)
    return open(p, "w", encoding="utf-8")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_events_jsonl(
    events: Sequence[Event], path: PathLike, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Write a meta header line plus one event per line."""
    head: Dict[str, Any] = {"type": "meta", "schema": 1}
    if meta:
        head.update(meta)
    with _open_for_write(path) as fh:
        fh.write(json.dumps(head) + "\n")
        for ev in events:
            fh.write(json.dumps(ev.to_dict()) + "\n")


def read_events_jsonl(path: PathLike) -> Tuple[Dict[str, Any], List[Event]]:
    """Read back ``(meta, events)`` from :func:`write_events_jsonl`
    output (a missing meta line degrades to an empty dict)."""
    meta: Dict[str, Any] = {}
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if d.get("type") == "meta":
                meta = d
            else:
                events.append(Event.from_dict(d))
    return meta, events


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def _ts_scale(clock: str) -> float:
    """Event-time → microseconds.  Wall/simulated seconds scale by
    1e6; the engine's logical micro-steps map to 1 µs per step."""
    return 1e6 if clock in ("s", "sim") else 1.0


def to_chrome_trace(
    events: Sequence[Event], clock: str = "s", process_name: str = "repro"
) -> Dict[str, Any]:
    """Convert a merged event stream to a Chrome trace-event dict."""
    scale = _ts_scale(clock)
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    grids = sorted({ev.grid for ev in events if ev.grid >= 0})
    for g in grids:
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": g,
                "args": {"name": f"grid {g}"},
            }
        )
    open_spans: Dict[int, List[float]] = {}
    for ev in sorted(events, key=lambda e: e.sort_key):
        ts = ev.t * scale
        if ev.kind == CORRECT_BEGIN:
            open_spans.setdefault(ev.grid, []).append(ts)
        elif ev.kind == CORRECT_END:
            stack = open_spans.get(ev.grid)
            t0 = stack.pop() if stack else ts
            out.append(
                {
                    "name": "correction",
                    "cat": "correct",
                    "ph": "X",
                    "ts": t0,
                    "dur": max(ev.t * scale - t0, 0.0),
                    "pid": 0,
                    "tid": ev.grid,
                    "args": {"count": ev.a, "staleness": ev.b},
                }
            )
        elif ev.kind == RESIDUAL:
            if ev.a > 0:
                out.append(
                    {
                        "name": "rel_residual",
                        "ph": "C",
                        "ts": ts,
                        "pid": 0,
                        "tid": 0,
                        "args": {"relres": ev.a},
                    }
                )
        elif ev.kind in (GUARD, FAULT, MEMBER, RETRY, ALERT):
            out.append(
                {
                    "name": f"{ev.kind}:{ev.tag}",
                    "cat": ev.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 0,
                    "tid": max(ev.grid, 0),
                }
            )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Sequence[Event], path: PathLike, clock: str = "s"
) -> None:
    with _open_for_write(path) as fh:
        json.dump(to_chrome_trace(events, clock=clock), fh)


# ----------------------------------------------------------------------
# Residual-vs-time series
# ----------------------------------------------------------------------
def residual_series(
    events: Sequence[Event], tag: Optional[str] = None
) -> List[Tuple[float, float]]:
    """Extract the ``(t, relres)`` series from an event stream.

    ``tag`` restricts to one residual source (``"global"`` — the true
    residual — or ``"local"`` — worker replica views); None takes
    every residual snapshot.
    """
    return [
        (ev.t, ev.a)
        for ev in sorted(events, key=lambda e: e.sort_key)
        if ev.kind == RESIDUAL and (tag is None or ev.tag == tag)
    ]


def series_from_result(result: Any) -> List[Tuple[float, float]]:
    """Residual-vs-time series of a run or a model simulation.

    A :class:`~repro.core.run.RunResult` carries its
    ``residual_samples`` as ``(t, relres)`` already; the Section-III
    model simulators record bare ``residual_trace`` floats, numbered
    here by time instant.
    """
    if isinstance(result, RunResult):
        return [(float(t), float(v)) for t, v in result.residual_samples]
    return [(float(i), float(v)) for i, v in enumerate(result.residual_trace)]


def write_residual_series(
    series: Sequence[Tuple[float, float]], path: PathLike, header: str = "t,relres"
) -> None:
    """Persist a residual series as two-column CSV."""
    with _open_for_write(path) as fh:
        fh.write(header + "\n")
        for t, v in series:
            fh.write(f"{t:.9g},{v:.9g}\n")


def read_residual_series(path: PathLike) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0].isalpha():
                continue
            t_s, v_s = line.split(",")[:2]
            out.append((float(t_s), float(v_s)))
    return out
