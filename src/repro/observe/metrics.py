"""The metrics registry: counters, gauges, fixed-bucket histograms.

One registry exists at run time: the solve server's
(:class:`repro.serve.SolveServer`), behind its ``GET /metrics``
OpenMetrics endpoint: job counters and latency histograms, plus the
setup cache, the breaker and the worker pool as providers.  A run's
live counts (alerts included) travel on
:class:`~repro.observe.live.LiveSnapshot`, not in a registry.

Design constraints:

- **No locking inside.**  A :class:`Counter` increment is a plain
  attribute add; a registry with several writers (the server's)
  serializes them itself.
- **Fixed buckets.**  :class:`Histogram` uses pre-declared bucket
  bounds (staleness in commit epochs, lock-wait or latency in
  seconds), so ``observe`` is one bisect.
- **Providers.**  External counter owners register a zero-argument
  callable; :meth:`Metrics.collect` pulls their current values so one
  ``collect()`` snapshot covers everything without the owners
  changing their own APIs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "STALENESS_BUCKETS",
    "LOCK_WAIT_BUCKETS_S",
]

#: staleness histogram bounds, in commit epochs (paper's delay δ units)
STALENESS_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)
#: lock-wait histogram bounds, in seconds
LOCK_WAIT_BUCKETS_S: Tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError("counters only go up")
        self.value += by


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` tallies observations
    ``<= bounds[i]``, with one overflow bucket at the end."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        b = tuple(float(v) for v in bounds)
        if list(b) != sorted(b) or len(set(b)) != len(b):
            raise ValueError("histogram bounds must be strictly increasing")
        if not b:
            raise ValueError("histogram needs at least one bound")
        self.name = name
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value - 1e-12)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class Metrics:
    """A named registry of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create, so
    instrumentation sites never coordinate on declaration order.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._providers: Dict[str, Callable[[], Dict[str, float]]] = {}

    # -- registration --------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else STALENESS_BUCKETS
            )
        elif bounds is not None and tuple(float(v) for v in bounds) != h.bounds:
            raise ValueError(f"histogram {name!r} re-registered with different bounds")
        return h

    def register_provider(
        self, name: str, provider: Callable[[], Dict[str, float]]
    ) -> None:
        """Register an external counter owner; ``collect()`` pulls its
        ``{counter: value}`` dict under ``providers[name]``."""
        self._providers[name] = provider

    # -- snapshots -----------------------------------------------------
    def collect(self) -> Dict[str, object]:
        """One snapshot of everything registered, providers included.

        A provider raising mid-collect does not abort the snapshot:
        the failing provider is skipped for this collection and the
        ``collect_errors`` counter is bumped, so one broken external
        owner cannot black out every other metric (live scrapes run
        ``collect()`` while the providers' owners are still mutating).
        """
        providers: Dict[str, Dict[str, float]] = {}
        for name, p in sorted(self._providers.items()):
            try:
                providers[name] = dict(p())
            except Exception:
                # Skip-and-count: the counter is read below, so the
                # failure is visible in the very snapshot it degraded.
                self.counter("collect_errors").inc()
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: g.value
                for n, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
            "providers": providers,
        }

    def flatten(self) -> Dict[str, float]:
        """Counters, gauges and provider values as one flat
        ``{name: value}`` dict (provider entries as ``provider.name``)
        — the shape the server's stats and its bench payload read."""
        snap = self.collect()
        flat: Dict[str, float] = {}
        counters: Dict[str, float] = snap["counters"]  # type: ignore[assignment]
        gauges: Dict[str, float] = snap["gauges"]  # type: ignore[assignment]
        providers: Dict[str, Dict[str, float]] = snap["providers"]  # type: ignore[assignment]
        flat.update(counters)
        flat.update(gauges)
        for pname, values in providers.items():
            for name, value in values.items():
                flat[f"{pname}.{name}"] = float(value)
        return flat
