"""Online anomaly detection over live snapshots.

The post-hoc :class:`~repro.observe.analyze.TraceAnalyzer` can tell
you *after* a run that it stagnated, oscillated, or blew through the
paper's delay bound δ; this module makes the first two judgements
*while the solve runs* (δ stays with ``repro trace report --delta``),
from the :class:`~repro.observe.live.LiveSnapshot` stream.  Each
:class:`Detector` is a small piece of sliding-window state updated
once per snapshot (on the collector's thread, never on a solve
thread); when it trips it returns an :class:`Alert`, which
the collector records into the trace as a typed ``alert`` event and,
optionally, feeds to the executor's stop hook so the existing guard
machinery (rollback budgets, watchdog accounting) takes over.

The detector contract is the hot-path contract of the whole observe
layer, enforced statically by linter rule RPR011: ``update`` must not
sleep, touch sockets or files, or acquire locks — it looks at the
snapshot it was handed, updates its own windows, and returns.

Detectors
---------
- :class:`StagnationDetector` — the windowed residual stopped
  improving (Criterion-style progress, evaluated online).
- :class:`DivergenceDetector` — the residual grew by a factor over
  its windowed minimum (the live version of the executors'
  ``divergence_threshold``, tripping long before 1e6).
- :class:`OscillationDetector` — the residual alternates up/down with
  significant amplitude: the signature of an unstable async
  configuration that additive damping (Murray & Weinzierl,
  arXiv:1903.10367) is designed to rescue.
- :class:`HeartbeatGapDetector` — one worker's event stream went
  quiet while its peers kept progressing (a stall/crash seen from the
  outside, before the supervisor's watchdog window closes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .live import LiveSnapshot

__all__ = [
    "Alert",
    "Detector",
    "StagnationDetector",
    "DivergenceDetector",
    "OscillationDetector",
    "HeartbeatGapDetector",
]

#: alert kinds, as they appear in ``alert`` event tags
ALERT_KINDS: Tuple[str, ...] = (
    "stagnation",
    "divergence",
    "oscillation",
    "heartbeat_gap",
)


@dataclass(frozen=True)
class Alert:
    """One structured anomaly finding, raised mid-run.

    ``value``/``threshold`` carry the measurement that tripped the
    detector (what grew, and past what); ``grid`` is −1 for run-wide
    conditions.  Alerts become ``alert`` events in the trace: ``a`` =
    value, ``b`` = threshold, ``tag`` = kind.
    """

    kind: str
    t_wall: float
    t_event: float
    value: float
    threshold: float
    message: str
    grid: int = -1
    worker: Union[int, str] = -1
    severity: str = "warn"

    def oneline(self) -> str:
        where = f" grid {self.grid}" if self.grid >= 0 else ""
        return (
            f"[{self.severity}] {self.kind}{where}: {self.message} "
            f"(value {self.value:.3g}, threshold {self.threshold:.3g})"
        )


class Detector:
    """Base class: sliding-window state + a per-snapshot ``update``.

    ``COOLDOWN`` suppresses re-firing for that many subsequent
    snapshots after a hit, so a persistent condition produces a
    heartbeat of alerts rather than one per 100 ms tick.
    """

    kind: str = "abstract"
    COOLDOWN = 10

    def __init__(self) -> None:
        self._quiet = 0

    def update(self, snap: "LiveSnapshot") -> List[Alert]:
        """Consume one snapshot; return the alerts it triggers."""
        if self._quiet > 0:
            self._quiet -= 1
            self._check(snap)  # keeps the window current; verdict discarded
            return []
        alerts = self._check(snap)
        if alerts:
            self._quiet = self.COOLDOWN
        return alerts

    # -- subclass hook -------------------------------------------------
    def _check(self, snap: "LiveSnapshot") -> List[Alert]:
        raise NotImplementedError


class _ResidualWindow(Detector):
    """Shared plumbing: a deque of the last ``WINDOW`` ``(t_event,
    residual)`` samples, appended only when a snapshot carries a *new*
    residual reading."""

    WINDOW = 8

    def __init__(self) -> None:
        super().__init__()
        self._series: Deque[Tuple[float, float]] = deque(maxlen=self.WINDOW)

    def _push(self, snap: "LiveSnapshot") -> bool:
        """Append the snapshot's residual if it is a fresh sample;
        True when the window is full and ready to judge."""
        res = snap.residual
        if res != res or res <= 0.0:  # NaN or unset
            return False
        if self._series and self._series[-1] == (snap.t_event, res):
            return False  # no new reading since the last snapshot
        self._series.append((snap.t_event, res))
        return len(self._series) == self.WINDOW


class StagnationDetector(_ResidualWindow):
    """Residual improvement over the window fell below a floor.

    Fires when the newest residual is no better than ``(1 -
    MIN_IMPROVEMENT)`` times the oldest — i.e. the solve is burning
    corrections without converging (the online analogue of a
    Criterion-2 run that will never meet its tolerance).
    """

    kind = "stagnation"
    MIN_IMPROVEMENT = 0.01

    def _check(self, snap: "LiveSnapshot") -> List[Alert]:
        if not self._push(snap):
            return []
        first = self._series[0][1]
        last = self._series[-1][1]
        threshold = first * (1.0 - self.MIN_IMPROVEMENT)
        if last >= threshold:
            return [
                Alert(
                    kind=self.kind,
                    t_wall=snap.t_wall,
                    t_event=snap.t_event,
                    value=last,
                    threshold=threshold,
                    message=(
                        f"residual improved <{self.MIN_IMPROVEMENT:.1%} over the "
                        f"last {self.WINDOW} samples ({first:.3g} -> {last:.3g})"
                    ),
                )
            ]
        return []


class DivergenceDetector(_ResidualWindow):
    """Residual grew by ``GROWTH_FACTOR`` over its windowed minimum."""

    kind = "divergence"
    WINDOW = 6
    GROWTH_FACTOR = 10.0
    COOLDOWN = 5

    def _check(self, snap: "LiveSnapshot") -> List[Alert]:
        if not self._push(snap):
            return []
        lo = min(v for _, v in self._series)
        last = self._series[-1][1]
        threshold = lo * self.GROWTH_FACTOR
        if lo > 0.0 and last > threshold:
            return [
                Alert(
                    kind=self.kind,
                    t_wall=snap.t_wall,
                    t_event=snap.t_event,
                    value=last,
                    threshold=threshold,
                    message=(
                        f"residual grew {last / lo:.1f}x over its windowed "
                        f"minimum {lo:.3g}"
                    ),
                    severity="critical",
                )
            ]
        return []


class OscillationDetector(_ResidualWindow):
    """Residual alternates direction with significant amplitude.

    ``MIN_FLIPS`` direction changes within the window, each leg moving
    by at least ``MIN_AMPLITUDE`` relatively, reads as instability —
    the precursor of divergence under too-aggressive asynchrony.
    """

    kind = "oscillation"
    MIN_FLIPS = 4
    MIN_AMPLITUDE = 0.05

    def _check(self, snap: "LiveSnapshot") -> List[Alert]:
        if not self._push(snap):
            return []
        values = [v for _, v in self._series]
        flips = 0
        prev_dir = 0
        for a, b in zip(values, values[1:]):
            if a <= 0.0:
                continue
            rel = (b - a) / a
            if abs(rel) < self.MIN_AMPLITUDE:
                continue
            direction = 1 if rel > 0 else -1
            if prev_dir and direction != prev_dir:
                flips += 1
            prev_dir = direction
        if flips >= self.MIN_FLIPS:
            return [
                Alert(
                    kind=self.kind,
                    t_wall=snap.t_wall,
                    t_event=snap.t_event,
                    value=float(flips),
                    threshold=float(self.MIN_FLIPS),
                    message=(
                        f"residual direction flipped {flips}x (>= "
                        f"{self.MIN_AMPLITUDE:.0%} legs) within {self.WINDOW} samples"
                    ),
                )
            ]
        return []


class HeartbeatGapDetector(Detector):
    """One worker's buffer went quiet while its peers kept moving.

    Judged on the collector's wall clock from ``heartbeat_age`` (time
    since each worker's last recorded event): an outlier is a worker
    whose age exceeds ``FACTOR`` times the median peer age and the
    absolute floor ``MIN_GAP_S``.  Fires once per quiet spell per
    worker; a worker that resumes recording re-arms its alarm.
    """

    kind = "heartbeat_gap"
    FACTOR = 5.0
    MIN_GAP_S = 0.5
    COOLDOWN = 0

    def __init__(self) -> None:
        super().__init__()
        self._flagged: Dict[Union[int, str], bool] = {}

    def _check(self, snap: "LiveSnapshot") -> List[Alert]:
        ages = snap.heartbeat_age
        if len(ages) < 2:
            return []
        ordered = sorted(ages.values())
        median = ordered[len(ordered) // 2]
        threshold = max(self.MIN_GAP_S, self.FACTOR * median)
        alerts: List[Alert] = []
        for worker, age in ages.items():
            if age > threshold:
                if not self._flagged.get(worker, False):
                    self._flagged[worker] = True
                    alerts.append(
                        Alert(
                            kind=self.kind,
                            t_wall=snap.t_wall,
                            t_event=snap.t_event,
                            value=age,
                            threshold=threshold,
                            message=(
                                f"worker {worker!r} silent for {age:.2f}s "
                                f"(median peer age {median:.3f}s)"
                            ),
                            grid=snap.worker_grids.get(worker, -1),
                            worker=worker,
                        )
                    )
            else:
                self._flagged[worker] = False
        return alerts
