"""Unified tracing & metrics for the asynchronous backends.

The paper's whole experimental section is built on *observing*
asynchronous runs — residual histories against wall-clock, per-grid
update counts under the random update sets Ψ(t), read staleness
``z_k(t)`` — and this package is that measurement layer, shared by
the sequential engine, the threaded executor and the distributed
simulator:

- :mod:`repro.observe.tracer`    — :class:`Tracer` (per-worker
  append-only ring buffers, merged at run end), :class:`TracedPolicy`
  (the write-policy observer of the threaded executor) and the
  compact :class:`TraceSummary` attached to result objects.
- :mod:`repro.observe.events`    — the typed event vocabulary.
- :mod:`repro.observe.metrics`   — :class:`Metrics`: counters, gauges
  and fixed-bucket histograms, the registry behind the solve server's
  ``/metrics`` and the live collector's alert counters.
- :mod:`repro.observe.exporters` — JSONL, Chrome trace-event
  (Perfetto-viewable) and residual-vs-time series writers.
- :mod:`repro.observe.analyze`   — :class:`TraceAnalyzer`: recovers
  the Section-III model quantities (empirical |Ψ(t)|, max observed
  delay vs δ, monotone reads, update fairness) from a recorded run
  and can feed the existing ``ModelConformanceReport``.
- :mod:`repro.observe.live`      — the *in-flight* view:
  :class:`SnapshotCollector` tails the ring buffers on a cadence into
  typed :class:`LiveSnapshot` objects, served over OpenMetrics
  (``--metrics-port``), streamed as JSONL, and watched by the online
  anomaly detectors in :mod:`repro.observe.alerts`.
- :mod:`repro.observe.profiler`  — low-rate sampling profiler
  attributing wall time to kernel × grid × worker.

CLI: ``repro trace run | report | export``, ``repro solve
--trace out.jsonl`` and ``repro solve --live`` / ``repro top``.
"""

from .alerts import Alert, Detector, default_detectors
from .analyze import TraceAnalyzer
from .events import Event
from .exporters import (
    read_events_jsonl,
    read_residual_series,
    residual_series,
    series_from_result,
    to_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_residual_series,
)
from .live import (
    LiveConfig,
    LiveSession,
    LiveSnapshot,
    LiveSummary,
    MetricsServer,
    SnapshotCollector,
    SnapshotWriter,
    parse_openmetrics,
    read_snapshots_jsonl,
    render_top,
    start_live,
    to_openmetrics,
)
from .metrics import Counter, Gauge, Histogram, Metrics, diff_snapshots
from .profiler import ProfileReport, SamplingProfiler
from .tracer import TraceBuffer, TracedPolicy, Tracer, TraceSummary

__all__ = [
    "Event",
    "TraceBuffer",
    "Tracer",
    "TracedPolicy",
    "TraceSummary",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "TraceAnalyzer",
    "Alert",
    "Detector",
    "default_detectors",
    "LiveConfig",
    "LiveSession",
    "LiveSnapshot",
    "LiveSummary",
    "MetricsServer",
    "SnapshotCollector",
    "SnapshotWriter",
    "ProfileReport",
    "SamplingProfiler",
    "diff_snapshots",
    "parse_openmetrics",
    "read_snapshots_jsonl",
    "render_top",
    "start_live",
    "to_openmetrics",
    "read_events_jsonl",
    "read_residual_series",
    "residual_series",
    "series_from_result",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_residual_series",
]
