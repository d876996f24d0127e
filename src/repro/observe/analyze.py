"""Recover the paper's Section-III model quantities from a recorded run.

The models describe an asynchronous run by three random objects: the
update sets Ψ(t) (which grids commit at instant t), the read instants
``z_k(t)`` with their maximum delay δ, and the per-grid update
probabilities ``p_k``.  A trace records the dual, *empirical* view —
correction spans, read epochs, commit staleness — and
:class:`TraceAnalyzer` folds it back into the model's vocabulary:

- ``psi_sizes()`` — the empirical |Ψ(t)| distribution (corrections in
  flight at each commit instant);
- ``staleness()`` / ``delay_violations(delta)`` — observed read delays
  against a claimed bound δ;
- ``monotone_violations()`` — readers observing an older epoch than
  they already saw (the models assume monotone reads);
- ``per_grid_counts()`` / ``fairness()`` — the measured analogue of
  ``p_k ~ U[alpha, 1]``;
- ``conformance()`` — the same quantities packaged as the existing
  :class:`repro.analysis.racecheck.ModelConformanceReport`, built by
  the one constructor CheckedWrite-instrumented runs use too, so both
  are judged by one contract.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .events import (
    CORRECT_BEGIN,
    CORRECT_END,
    FAULT,
    GUARD,
    READ,
    WRITE,
    Event,
)
from .exporters import read_events_jsonl, residual_series
from .metrics import LOCK_WAIT_BUCKETS_S, STALENESS_BUCKETS, Histogram

__all__ = ["TraceAnalyzer"]


class TraceAnalyzer:
    """Query layer over one merged, time-ordered event stream."""

    def __init__(
        self, events: Sequence[Event], meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.events = sorted(events, key=lambda e: e.sort_key)
        self.meta = dict(meta) if meta else {}
        self.clock = str(self.meta.get("clock", "s"))

    @classmethod
    def from_file(cls, path: Any) -> "TraceAnalyzer":
        meta, events = read_events_jsonl(path)
        return cls(events, meta)

    # -- basic streams -------------------------------------------------
    def _of(self, kind: str) -> List[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def residual_series(self, tag: Optional[str] = None) -> List[Tuple[float, float]]:
        return residual_series(self.events, tag=tag)

    def span(self) -> float:
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].t - self.events[0].t

    # -- update counts / fairness (the empirical p_k) ------------------
    def per_grid_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for ev in self._of(CORRECT_END):
            counts[ev.grid] = counts.get(ev.grid, 0) + 1
        return dict(sorted(counts.items()))

    def fairness(self) -> Dict[str, float]:
        """min/mean update share and the Jain fairness index of the
        per-grid correction counts (1.0 = perfectly even)."""
        counts = list(self.per_grid_counts().values())
        if not counts:
            return {"min_share": 0.0, "mean": 0.0, "jain": 0.0}
        arr = np.asarray(counts, dtype=np.float64)
        jain = float(arr.sum() ** 2 / (arr.size * (arr**2).sum())) if arr.any() else 0.0
        return {
            "min_share": float(arr.min() / arr.max()) if arr.max() else 0.0,
            "mean": float(arr.mean()),
            "jain": jain,
        }

    # -- staleness (the empirical read delay vs delta) ------------------
    def staleness(self) -> List[float]:
        return [ev.b for ev in self._of(CORRECT_END) if ev.b >= 0]

    def max_staleness(self) -> float:
        stal = self.staleness()
        return max(stal) if stal else 0.0

    def delay_violations(self, delta: float) -> int:
        """Commits whose observed read delay exceeded the claimed
        bound δ (Section III's bounded-delay assumption)."""
        return sum(1 for s in self.staleness() if s > delta)

    # -- monotone reads -------------------------------------------------
    def monotone_violations(self) -> int:
        """Readers that observed an older commit epoch than an earlier
        read of the same vector (``z_k`` must be non-decreasing)."""
        last: Dict[Tuple[Any, str], float] = {}
        bad = 0
        for ev in self._of(READ):
            key = (ev.worker, ev.tag)
            prev = last.get(key)
            if prev is not None and ev.a < prev:
                bad += 1
            last[key] = ev.a
        return bad

    # -- concurrency: the empirical |Ψ(t)| ------------------------------
    def psi_sizes(self) -> List[int]:
        """Corrections in flight at each commit instant — the
        empirical size of the paper's random update set Ψ(t)."""
        active = 0
        sizes: List[int] = []
        for ev in self.events:
            if ev.kind == CORRECT_BEGIN:
                active += 1
            elif ev.kind == CORRECT_END:
                sizes.append(max(active, 1))
                active = max(active - 1, 0)
        return sizes

    # -- lock contention -------------------------------------------------
    def lock_waits(self) -> List[float]:
        return [ev.a for ev in self._of(WRITE)]

    # -- guard / fault tallies -------------------------------------------
    def guard_actions(self) -> Dict[str, int]:
        return dict(sorted(_TallyCounter(ev.tag for ev in self._of(GUARD)).items()))

    def fault_events(self) -> Dict[str, int]:
        return dict(sorted(_TallyCounter(ev.tag for ev in self._of(FAULT)).items()))

    # -- conformance bridge ----------------------------------------------
    def conformance(
        self,
        staleness_bound: Optional[float] = None,
        n: int = 0,
        rel_residual: Optional[float] = None,
        diverged: bool = False,
        stalled: bool = False,
    ) -> Any:
        """Package the trace's model quantities as a
        :class:`~repro.analysis.racecheck.ModelConformanceReport`.

        Torn reads and lock-order violations are not observable from a
        trace (they need the seqlock instrumentation of
        ``CheckedWrite``) and report as zero; everything else is
        measured.  ``staleness_bound`` defaults to the observed
        maximum (trivially conformant) when not given.
        """
        from ..analysis.racecheck import ModelConformanceReport

        series = self.residual_series()
        if rel_residual is None:
            rel_residual = series[-1][1] if series else float("inf")
        bound = self.max_staleness() if staleness_bound is None else staleness_bound
        return ModelConformanceReport.measured(
            self.staleness(),
            self.per_grid_counts().values(),
            policy=f"trace[{self.clock}]",
            n=int(n or self.meta.get("n", 0)),
            nstripes=0,
            total_commits=len(self._of(WRITE)) or len(self._of(CORRECT_END)),
            total_reads=len(self._of(READ)),
            total_assigns=sum(
                1 for ev in self._of(WRITE) if ev.tag.endswith(":assign")
            ),
            torn_reads=0,
            lock_order_violations=0,
            monotone_violations=self.monotone_violations(),
            staleness_bound=int(bound),
            rel_residual=float(rel_residual),
            diverged=diverged,
            stalled=stalled,
        )

    # -- human-readable report --------------------------------------------
    def oneline(self, dropped: int) -> str:
        """The one-line digest ``repro solve --trace`` prints; ring
        drops are the tracer's, not the stream's.  A worker is one that
        recorded a correction, so neither the run-end ``kernel`` events
        nor the live collector's alerts count as one."""
        stal = self.staleness()
        waits = self.lock_waits()
        corrections = self._of(CORRECT_END)
        workers = len({e.worker for e in corrections})
        return (
            f"trace: {len(self.events)} events ({dropped} dropped) from "
            f"{workers} worker(s), {len(corrections)} corrections over "
            f"{self.span():g} {self.clock}; staleness max/mean = "
            f"{max(stal, default=0.0):g}/{float(np.mean(stal)) if stal else 0.0:.2f}; "
            f"lock-wait total/max = {sum(waits):.3g}/{max(waits, default=0.0):.3g} s"
        )

    def _histogram_lines(
        self, values: Sequence[float], bounds: Sequence[float], unit: str
    ) -> List[str]:
        if not values:
            return ["  (no samples)"]
        hist = Histogram("h", bounds)
        for v in values:
            hist.observe(v)
        peak = max(hist.counts) or 1
        lines = []
        labels = [f"<= {b:g}" for b in bounds] + [f"> {bounds[-1]:g}"]
        for label, count in zip(labels, hist.counts):
            if count == 0:
                continue
            bar = "#" * max(1, round(40 * count / peak))
            lines.append(f"  {label:>10} {unit:<6} {count:>7}  {bar}")
        return lines

    def report(self, delta: Optional[float] = None) -> str:
        """Multi-section text report: the paper's Figs. 1–6 shapes
        recovered from one recorded run."""
        from ..utils import ascii_semilogy

        lines: List[str] = []
        counts = self.per_grid_counts()
        fair = self.fairness()
        stal = self.staleness()
        waits = self.lock_waits()
        psi = self.psi_sizes()
        lines.append(
            f"Trace report — {len(self.events)} events, clock={self.clock}, "
            f"span={self.span():g} {self.clock}"
        )
        if self.meta:
            ctx = {
                k: v
                for k, v in self.meta.items()
                if k not in ("type", "schema", "clock")
            }
            if ctx:
                lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in ctx.items()))
        lines.append("")
        lines.append(
            f"corrections: {sum(counts.values())} total; per grid: "
            + (
                ", ".join(f"g{g}={c}" for g, c in counts.items())
                if counts
                else "(none)"
            )
        )
        lines.append(
            f"update fairness: min share {fair['min_share']:.2f}, "
            f"Jain index {fair['jain']:.3f}"
        )
        if psi:
            lines.append(
                f"|Ψ(t)| (corrections in flight at commit): mean "
                f"{float(np.mean(psi)):.2f}, max {max(psi)}"
            )
        lines.append("")
        lines.append(
            f"read staleness (commit epochs): {len(stal)} samples, "
            f"max {self.max_staleness():g}, mean "
            f"{float(np.mean(stal)) if stal else 0.0:.2f}"
        )
        if delta is not None:
            viol = self.delay_violations(delta)
            lines.append(
                f"bounded-delay check vs δ={delta:g}: "
                + ("OK (0 violations)" if viol == 0 else f"VIOLATED ({viol} commits)")
            )
        lines.extend(self._histogram_lines(stal, STALENESS_BUCKETS, "epochs"))
        lines.append("")
        mono = self.monotone_violations()
        lines.append(
            "monotone reads: " + ("ok" if mono == 0 else f"VIOLATED ({mono} reads)")
        )
        if waits:
            lines.append(
                f"lock wait: {len(waits)} commits, total "
                f"{sum(waits):.3g} s, max {max(waits):.3g} s"
            )
            lines.extend(self._histogram_lines(waits, LOCK_WAIT_BUCKETS_S, "s"))
        guards = self.guard_actions()
        faults = self.fault_events()
        if guards:
            lines.append(
                "guard actions: " + ", ".join(f"{k}={v}" for k, v in guards.items())
            )
        if faults:
            lines.append(
                "fault events: " + ", ".join(f"{k}={v}" for k, v in faults.items())
            )
        series = self.residual_series(tag="global") or self.residual_series()
        if len(series) >= 2:
            vals = [v for _, v in series]
            if any(np.isfinite(v) and v > 0 for v in vals):
                lines.append("")
                lines.append(
                    ascii_semilogy(
                        {"relres": vals},
                        title=f"residual vs time ({self.clock})",
                    )
                )
        return "\n".join(lines)
