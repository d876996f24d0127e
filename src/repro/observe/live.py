"""Live telemetry: streaming snapshots of a solve *while it runs*.

PR 3's observe layer is strictly post-hoc — per-worker ring buffers
merge only at run end.  This module adds the in-flight view the
solver-as-a-service north star needs, without changing the hot-path
contract at all: solve threads still append to their own buffers with
no locks; the new :class:`SnapshotCollector` runs on its *own* daemon
thread and **samples** those buffers through the cursor-based
:meth:`~repro.observe.tracer.TraceBuffer.tail` API (racy-but-monotone
reads, never a full-buffer copy, never an acquire on anything a solve
thread touches).

The pieces, bottom-up:

- :class:`LiveSnapshot` — one typed observation: residual, per-grid
  correction progress, read staleness, lock-wait, queue depth and
  membership census (distributed), guard/fault/alert head-counts,
  flattened metrics and per-second rates, per-worker heartbeat ages.
- :class:`SnapshotCollector` — tails every buffer on a monotonic
  cadence, folds the new records into running aggregates, feeds the
  anomaly detectors (:mod:`repro.observe.alerts`) and records their
  :class:`~repro.observe.alerts.Alert` findings as ``alert`` events
  under the collector's own worker key ``"live"``.
- :func:`to_openmetrics` / :func:`parse_openmetrics` — the
  OpenMetrics text exposition of a snapshot and a minimal line-format
  checker used by tests and CI smoke.
- :class:`MetricsServer` — a stdlib ``http.server`` scrape endpoint
  (``repro solve --metrics-port``).
- :class:`SnapshotWriter` / :func:`read_snapshots_jsonl` — the JSONL
  snapshot stream for headless runs, replayable into ``repro top``.
- :class:`LiveConfig` / :func:`start_live` / :class:`LiveSession` —
  what the three executors actually wire in, behind an off-by-default
  flag.
"""

from __future__ import annotations

import json
import re
import threading
import time as _time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    IO,
    List,
    Optional,
    Tuple,
    Union,
)

from .alerts import Alert, Detector, default_detectors
from .events import (
    ALERT,
    CORRECT_END,
    FAULT,
    GUARD,
    MEMBER,
    RESIDUAL,
    WRITE,
)
from .metrics import diff_snapshots
from .profiler import ProfileReport, SamplingProfiler
from .tracer import Tracer

__all__ = [
    "LIVE_WORKER",
    "LiveSnapshot",
    "SnapshotCollector",
    "LiveConfig",
    "LiveSession",
    "LiveSummary",
    "start_live",
    "to_openmetrics",
    "parse_openmetrics",
    "MetricsServer",
    "reply_scrape",
    "SnapshotWriter",
    "read_snapshots_jsonl",
    "render_top",
]

WorkerKey = Union[int, str]

#: the snapshot collector's own trace-buffer key (single writer: the
#: collector thread records alerts here, never a solve thread)
LIVE_WORKER = "live"

SNAPSHOT_SCHEMA = "repro.live.snapshot/v1"


@dataclass
class LiveSnapshot:
    """One typed observation of a running (or replayed) solve."""

    seq: int = 0
    t_wall: float = 0.0  # seconds since collector start (monotonic)
    t_event: float = 0.0  # newest event time seen, in backend clock units
    clock: str = "s"
    backend: str = ""
    residual: float = float("nan")
    residual_tag: str = ""  # "global" (true) or "local" (replica view)
    corrections: Dict[int, float] = field(default_factory=dict)  # grid -> count
    corrections_total: float = 0.0
    staleness_last: float = -1.0
    staleness_max: float = 0.0
    lock_wait_total: float = 0.0
    events_seen: int = 0
    events_dropped: int = 0
    workers: int = 0
    guard_counts: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    alert_counts: Dict[str, int] = field(default_factory=dict)
    last_alert: str = ""
    queue_depth: float = float("nan")  # distributed event queue (NaN = n/a)
    membership: Dict[str, int] = field(default_factory=dict)  # census by state
    counters: Dict[str, float] = field(default_factory=dict)  # Metrics.flatten()
    rates: Dict[str, float] = field(default_factory=dict)  # per-second deltas
    heartbeat_age: Dict[WorkerKey, float] = field(default_factory=dict)
    worker_grids: Dict[WorkerKey, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "seq": self.seq,
            "t_wall": self.t_wall,
            "t_event": self.t_event,
            "clock": self.clock,
            "backend": self.backend,
            "residual": None if self.residual != self.residual else self.residual,
            "residual_tag": self.residual_tag,
            "corrections": {str(k): v for k, v in self.corrections.items()},
            "corrections_total": self.corrections_total,
            "staleness_last": self.staleness_last,
            "staleness_max": self.staleness_max,
            "lock_wait_total": self.lock_wait_total,
            "events_seen": self.events_seen,
            "events_dropped": self.events_dropped,
            "workers": self.workers,
            "guard_counts": dict(self.guard_counts),
            "fault_counts": dict(self.fault_counts),
            "alert_counts": dict(self.alert_counts),
            "last_alert": self.last_alert,
            "queue_depth": (
                None if self.queue_depth != self.queue_depth else self.queue_depth
            ),
            "membership": dict(self.membership),
            "counters": dict(self.counters),
            "rates": dict(self.rates),
            "heartbeat_age": {str(k): v for k, v in self.heartbeat_age.items()},
            "worker_grids": {str(k): v for k, v in self.worker_grids.items()},
        }
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LiveSnapshot":
        res = d.get("residual")
        qd = d.get("queue_depth")
        return cls(
            seq=int(d.get("seq", 0)),
            t_wall=float(d.get("t_wall", 0.0)),
            t_event=float(d.get("t_event", 0.0)),
            clock=str(d.get("clock", "s")),
            backend=str(d.get("backend", "")),
            residual=float("nan") if res is None else float(res),
            residual_tag=str(d.get("residual_tag", "")),
            corrections={int(k): float(v) for k, v in d.get("corrections", {}).items()},
            corrections_total=float(d.get("corrections_total", 0.0)),
            staleness_last=float(d.get("staleness_last", -1.0)),
            staleness_max=float(d.get("staleness_max", 0.0)),
            lock_wait_total=float(d.get("lock_wait_total", 0.0)),
            events_seen=int(d.get("events_seen", 0)),
            events_dropped=int(d.get("events_dropped", 0)),
            workers=int(d.get("workers", 0)),
            guard_counts={str(k): int(v) for k, v in d.get("guard_counts", {}).items()},
            fault_counts={str(k): int(v) for k, v in d.get("fault_counts", {}).items()},
            alert_counts={str(k): int(v) for k, v in d.get("alert_counts", {}).items()},
            last_alert=str(d.get("last_alert", "")),
            queue_depth=float("nan") if qd is None else float(qd),
            membership={str(k): int(v) for k, v in d.get("membership", {}).items()},
            counters={str(k): float(v) for k, v in d.get("counters", {}).items()},
            rates={str(k): float(v) for k, v in d.get("rates", {}).items()},
            heartbeat_age={
                str(k): float(v) for k, v in d.get("heartbeat_age", {}).items()
            },
            worker_grids={
                str(k): int(v) for k, v in d.get("worker_grids", {}).items()
            },
        )


class SnapshotCollector:
    """Periodically tails every worker buffer into :class:`LiveSnapshot`s.

    One collector per run.  All mutation happens on the collector's
    own thread (or the scrape-server thread, serialized by an internal
    lock that **no solve thread ever touches** — the hot-path contract
    is enforced by linter rule RPR011 on the detector callbacks, and
    by construction here: the collector only *reads* solve-owned
    state, via GIL-atomic list/dict operations).
    """

    def __init__(
        self,
        tracer: Tracer,
        interval_s: float = 0.1,
        history: int = 512,
        detectors: Optional[List[Detector]] = None,
        backend: str = "",
        on_snapshot: Optional[Callable[[LiveSnapshot], None]] = None,
        on_alert: Optional[Callable[[Alert], None]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.tracer = tracer
        self.interval_s = float(interval_s)
        self.backend = backend
        self.detectors: List[Detector] = (
            detectors if detectors is not None else default_detectors()
        )
        self.on_snapshot = on_snapshot
        self.on_alert = on_alert
        self.history: List[LiveSnapshot] = []
        self.history_limit = int(history)
        self.alerts: List[Alert] = []
        # Running aggregates, folded forward across collections.
        self._cursors: Dict[WorkerKey, int] = {}
        self._corrections: Dict[int, float] = {}
        self._residual = float("nan")
        self._residual_tag = ""
        self._residual_t = -float("inf")
        self._stal_last = -1.0
        self._stal_max = 0.0
        self._lock_wait = 0.0
        self._events_seen = 0
        self._t_event = 0.0
        self._guards: Dict[str, int] = {}
        self._faults: Dict[str, int] = {}
        self._alert_counts: Dict[str, int] = {}
        self._last_alert = ""
        self._members: Dict[str, int] = {}
        self._heartbeat: Dict[WorkerKey, float] = {}
        self._prev_flat: Dict[str, float] = {}
        self._prev_wall = 0.0
        self._seq = 0
        self._t0 = _time.monotonic()
        # Serializes collect_once between the cadence thread and the
        # scrape server; solve threads never enter here.
        self._collect_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Queue-depth probe, registered by the distributed simulator.
        self.queue_depth_fn: Optional[Callable[[], float]] = None
        self.membership_fn: Optional[Callable[[], Dict[str, int]]] = None

    # -- ingestion -----------------------------------------------------
    def _ingest(self, worker: WorkerKey, rec: Tuple[Any, ...], wall: float) -> None:
        t, kind, grid, a, b, tag = (
            float(rec[0]),
            str(rec[1]),
            int(rec[2]),
            float(rec[3]),
            float(rec[4]),
            str(rec[5]),
        )
        if t > self._t_event:
            self._t_event = t
        self._heartbeat[worker] = wall
        if kind == CORRECT_END:
            # `a` is the worker's completed-correction count: take the
            # max so a racy duplicate read can never double-count.
            if a > self._corrections.get(grid, 0.0):
                self._corrections[grid] = a
            if b >= 0.0:
                self._stal_last = b
                if b > self._stal_max:
                    self._stal_max = b
        elif kind == RESIDUAL:
            # Prefer the true (global) residual over replica views: a
            # local reading never displaces a global one.
            if tag == "global" or self._residual_tag != "global":
                self._residual = a
                self._residual_tag = tag or "local"
                self._residual_t = t
        elif kind == WRITE:
            self._lock_wait += a
        elif kind == GUARD:
            key = tag or "guard"
            self._guards[key] = self._guards.get(key, 0) + 1
        elif kind == FAULT:
            key = tag or "fault"
            self._faults[key] = self._faults.get(key, 0) + 1
        elif kind == MEMBER:
            key = tag or "member"
            self._members[key] = self._members.get(key, 0) + 1

    def collect_once(self) -> LiveSnapshot:
        """Tail all buffers, fold aggregates, run detectors, emit one
        snapshot.  Called from the cadence thread, the scrape server,
        and once more at shutdown."""
        with self._collect_lock:
            return self._collect_locked()

    def _collect_locked(self) -> LiveSnapshot:
        wall = _time.monotonic() - self._t0
        tracer = self.tracer
        worker_grids: Dict[WorkerKey, int] = {}
        for _ident, (wkey, grid) in tracer.worker_threads().items():
            worker_grids[wkey] = grid
        dropped = 0
        nworkers = 0
        for wkey in list(tracer.buffers()):
            buf = tracer.buffers().get(wkey)
            if buf is None or wkey == LIVE_WORKER:
                continue
            nworkers += 1
            dropped += buf.dropped
            cursor, new = buf.tail(self._cursors.get(wkey, 0))
            self._cursors[wkey] = cursor
            self._events_seen += len(new)
            for rec in new:
                self._ingest(wkey, rec, wall)
        flat = tracer.metrics.flatten()
        dt = wall - self._prev_wall
        rates = diff_snapshots(self._prev_flat, flat, dt if dt > 0 else None)
        self._prev_flat = flat
        self._prev_wall = wall

        snap = LiveSnapshot(
            seq=self._seq,
            t_wall=wall,
            t_event=self._t_event,
            clock=tracer.clock,
            backend=self.backend,
            residual=self._residual,
            residual_tag=self._residual_tag,
            corrections=dict(self._corrections),
            corrections_total=float(sum(self._corrections.values())),
            staleness_last=self._stal_last,
            staleness_max=self._stal_max,
            lock_wait_total=self._lock_wait,
            events_seen=self._events_seen,
            events_dropped=dropped,
            workers=nworkers,
            guard_counts=dict(self._guards),
            fault_counts=dict(self._faults),
            alert_counts=dict(self._alert_counts),
            last_alert=self._last_alert,
            queue_depth=(
                float(self.queue_depth_fn()) if self.queue_depth_fn else float("nan")
            ),
            membership=(
                dict(self.membership_fn()) if self.membership_fn else dict(self._members)
            ),
            counters=flat,
            rates=rates,
            heartbeat_age={w: wall - t for w, t in self._heartbeat.items()},
            worker_grids=worker_grids,
        )
        self._seq += 1

        for det in self.detectors:
            for alert in det.update(snap):
                self._raise_alert(alert)
        # Re-stamp the counts the detectors just changed.
        snap.alert_counts = dict(self._alert_counts)
        snap.last_alert = self._last_alert

        self.history.append(snap)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]
        if self.on_snapshot is not None:
            self.on_snapshot(snap)
        return snap

    def _raise_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        self._alert_counts[alert.kind] = self._alert_counts.get(alert.kind, 0) + 1
        self._last_alert = alert.oneline()
        # Into the trace, under the collector's own single-writer key.
        self.tracer.record(
            ALERT,
            alert.grid,
            alert.t_event,
            a=alert.value,
            b=alert.threshold,
            tag=alert.kind,
            worker=LIVE_WORKER,
        )
        self.tracer.metrics.counter(f"alerts.{alert.kind}").inc()
        if self.on_alert is not None:
            self.on_alert(alert)

    # -- lifecycle -----------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.collect_once()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-live-collector", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the cadence thread and take one final collection, so
        even a run shorter than the interval yields >= 1 snapshot."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
            self._thread = None
        self.collect_once()


# ---------------------------------------------------------------------------
# OpenMetrics text exposition
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+(?P<ts>[^\s]+))?$"
)
_LABEL_RE = re.compile(r'^(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>[^"\\]*)"$')


def _esc(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def to_openmetrics(snap: LiveSnapshot) -> str:
    """Render one snapshot in OpenMetrics text format (ends ``# EOF``)."""
    lines: List[str] = []

    def fam(name: str, mtype: str, help_: str) -> None:
        lines.append(f"# TYPE {name} {mtype}")
        lines.append(f"# HELP {name} {help_}")

    def num(v: float) -> str:
        if v != v:
            return "NaN"
        return repr(float(v))

    fam("repro_snapshot_seq", "gauge", "Live snapshot sequence number.")
    lines.append(f"repro_snapshot_seq {snap.seq}")
    fam("repro_residual", "gauge", "Latest relative residual norm.")
    lines.append(
        f'repro_residual{{view="{_esc(snap.residual_tag or "none")}"}} '
        f"{num(snap.residual)}"
    )
    fam("repro_corrections", "counter", "Completed corrections per grid.")
    for grid in sorted(snap.corrections):
        lines.append(
            f'repro_corrections_total{{grid="{grid}"}} {num(snap.corrections[grid])}'
        )
    fam("repro_events", "counter", "Trace events observed by the collector.")
    lines.append(f"repro_events_total {snap.events_seen}")
    fam("repro_events_dropped", "counter", "Ring-buffer records overwritten.")
    lines.append(f"repro_events_dropped_total {snap.events_dropped}")
    fam("repro_workers", "gauge", "Worker buffers registered.")
    lines.append(f"repro_workers {snap.workers}")
    fam("repro_staleness_max", "gauge", "Max observed read staleness (epochs).")
    lines.append(f"repro_staleness_max {num(snap.staleness_max)}")
    fam("repro_staleness_last", "gauge", "Most recent read staleness (epochs).")
    lines.append(f"repro_staleness_last {num(snap.staleness_last)}")
    fam("repro_lock_wait_seconds", "counter", "Cumulative lock-wait seconds.")
    lines.append(f"repro_lock_wait_seconds_total {num(snap.lock_wait_total)}")
    if snap.queue_depth == snap.queue_depth:
        fam("repro_queue_depth", "gauge", "Distributed simulator event-queue depth.")
        lines.append(f"repro_queue_depth {num(snap.queue_depth)}")
    if snap.membership:
        fam("repro_membership", "gauge", "Membership census by state.")
        for state in sorted(snap.membership):
            lines.append(
                f'repro_membership{{state="{_esc(state)}"}} {snap.membership[state]}'
            )
    fam("repro_guard_actions", "counter", "Guard actions by kind.")
    for tag in sorted(snap.guard_counts):
        lines.append(
            f'repro_guard_actions_total{{action="{_esc(tag)}"}} '
            f"{snap.guard_counts[tag]}"
        )
    fam("repro_faults", "counter", "Injected faults landed, by kind.")
    for tag in sorted(snap.fault_counts):
        lines.append(f'repro_faults_total{{kind="{_esc(tag)}"}} {snap.fault_counts[tag]}')
    fam("repro_alerts", "counter", "Online anomaly alerts raised, by kind.")
    for kind in sorted(snap.alert_counts):
        lines.append(f'repro_alerts_total{{kind="{_esc(kind)}"}} {snap.alert_counts[kind]}')
    collect_errors = snap.counters.get("collect_errors")
    if collect_errors is not None:
        fam("repro_collect_errors", "counter", "Metrics providers that raised.")
        lines.append(f"repro_collect_errors_total {num(collect_errors)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Minimal OpenMetrics line-format checker / parser.

    Validates structure — ``# TYPE``/``# HELP``/``# EOF`` comment
    lines, ``name[{labels}] value [timestamp]`` samples, ``# EOF`` as
    the final line — and returns ``{(name, labels): value}``.  Raises
    :class:`ValueError` on any malformed line.  Not a full OpenMetrics
    parser; enough to keep the exporter honest in tests and CI.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty exposition")
    if lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    for i, line in enumerate(lines):
        if line == "# EOF":
            if i != len(lines) - 1:
                raise ValueError(f"line {i + 1}: '# EOF' before end of exposition")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise ValueError(f"line {i + 1}: malformed comment {line!r}")
            if not _METRIC_NAME_RE.match(parts[2]):
                raise ValueError(f"line {i + 1}: bad metric name {parts[2]!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {i + 1}: malformed sample {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = m.group("labels")
        if raw:
            for part in raw.split(","):
                lm = _LABEL_RE.match(part)
                if lm is None:
                    raise ValueError(f"line {i + 1}: malformed label {part!r}")
                labels.append((lm.group("k"), lm.group("v")))
        try:
            value = float(m.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {i + 1}: non-numeric value {m.group('value')!r}"
            ) from exc
        out[(m.group("name"), tuple(labels))] = value
    return out


# ---------------------------------------------------------------------------
# Scrape endpoint
# ---------------------------------------------------------------------------

OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


def reply_scrape(
    handler: BaseHTTPRequestHandler, render: Callable[[], str], timeout_s: float
) -> None:
    """Answer one ``GET /metrics`` with the OpenMetrics text ``render()``
    returns — the one bounded scrape path of every metrics endpoint.

    The collection runs on a helper thread joined with ``timeout_s``: a
    stalled ``collect()`` provider (one that blocks instead of raising;
    raising providers are already skipped by :meth:`Metrics.collect`)
    yields a prompt **503** with ``Retry-After: 1`` instead of a scrape
    that hangs until the monitoring system gives up.  The helpers are
    daemons, so a permanently wedged provider can never prevent
    interpreter shutdown.
    """
    box: List[bytes] = []

    def _collect() -> None:
        box.append(render().encode("utf-8"))

    helper = threading.Thread(target=_collect, name="repro-metrics-collect", daemon=True)
    helper.start()
    helper.join(timeout=timeout_s)
    if box:
        handler.send_response(200)
        handler.send_header("Content-Type", OPENMETRICS_CONTENT_TYPE)
        body = box[0]
    else:
        handler.send_response(503)
        handler.send_header("Content-Type", "text/plain; charset=utf-8")
        handler.send_header("Retry-After", "1")
        body = b"metrics collection stalled\n"
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


class MetricsServer:
    """Tiny stdlib scrape endpoint: ``GET /metrics`` returns the
    OpenMetrics exposition of a *fresh* collection (so consecutive
    scrapes observe progress, not the last cadence tick).

    A scrape is bounded two ways: the handler's socket ``timeout``
    caps how long a wedged *client* can pin a handler thread, and the
    collection itself goes through :func:`reply_scrape`, which answers
    a stalled ``collect()`` with a prompt **503**.  While the stalled
    collection holds the collector's internal lock, follow-up scrapes
    also 503 promptly (their helpers queue on the lock).
    """

    def __init__(
        self,
        collector: SnapshotCollector,
        port: int,
        host: str = "127.0.0.1",
        collect_timeout_s: float = 2.0,
    ) -> None:
        collector_ref = collector
        if collect_timeout_s <= 0:
            raise ValueError("collect_timeout_s must be positive")
        timeout_s = float(collect_timeout_s)

        class _Handler(BaseHTTPRequestHandler):
            timeout = timeout_s  # socket read timeout (slow/wedged client)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_response(404)
                    self.end_headers()
                    return
                reply_scrape(
                    self, lambda: to_openmetrics(collector_ref.collect_once()), timeout_s
                )

            def log_message(self, format: str, *args: Any) -> None:
                pass  # scrape logs stay out of solver stdout

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with port 0 → ephemeral)."""
        return int(self._server.server_address[1])

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=2.0)
        self._thread = None
        self._server.server_close()


# ---------------------------------------------------------------------------
# JSONL snapshot stream
# ---------------------------------------------------------------------------


class SnapshotWriter:
    """Append-only JSONL sink for headless runs: a meta header line
    then one snapshot object per line, flushed per line so a tailing
    ``repro top`` sees them promptly."""

    def __init__(self, path: str, backend: str = "", clock: str = "s") -> None:
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._fh.write(
            json.dumps({"schema": SNAPSHOT_SCHEMA, "backend": backend, "clock": clock})
            + "\n"
        )
        self._fh.flush()
        self._lock = threading.Lock()

    def write(self, snap: LiveSnapshot) -> None:
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(json.dumps(snap.to_dict()) + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def read_snapshots_jsonl(path: str) -> Tuple[Dict[str, Any], List[LiveSnapshot]]:
    """Read a snapshot stream back; tolerates a torn final line (the
    writer may have been killed mid-write)."""
    meta: Dict[str, Any] = {}
    snaps: List[LiveSnapshot] = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail
            if i == 0 and "schema" in obj:
                meta = obj
                continue
            snaps.append(LiveSnapshot.from_dict(obj))
    return meta, snaps


# ---------------------------------------------------------------------------
# Terminal rendering (repro top)
# ---------------------------------------------------------------------------


def _bar(frac: float, width: int = 24) -> str:
    frac = min(max(frac, 0.0), 1.0)
    n = int(round(frac * width))
    return "#" * n + "." * (width - n)


def render_top(meta: Dict[str, Any], snaps: List[LiveSnapshot]) -> str:
    """Render the latest snapshot (plus a residual trend from the
    window) as a fixed-width terminal panel."""
    if not snaps:
        return "repro top: no snapshots yet"
    s = snaps[-1]
    backend = s.backend or str(meta.get("backend", "?"))
    lines: List[str] = []
    lines.append(
        f"repro top · backend={backend} clock={s.clock} snapshot #{s.seq} "
        f"t={s.t_event:g} {s.clock} (wall {s.t_wall:.1f}s)"
    )
    res = "n/a" if s.residual != s.residual else f"{s.residual:.3e} ({s.residual_tag})"
    trend = ""
    window = [x.residual for x in snaps[-8:] if x.residual == x.residual]
    if len(window) >= 2:
        if window[-1] < window[0]:
            trend = " v converging"
        elif window[-1] > window[0]:
            trend = " ^ growing"
        else:
            trend = " = flat"
    lines.append(f"residual   {res}{trend}")
    lines.append(
        f"events     {s.events_seen} seen / {s.events_dropped} dropped "
        f"from {s.workers} worker(s)"
    )
    lines.append(
        f"staleness  last {s.staleness_last:g} / max {s.staleness_max:g} epochs"
        f"   lock-wait {s.lock_wait_total:.3g}s"
    )
    if s.queue_depth == s.queue_depth:
        lines.append(f"queue      {s.queue_depth:g} pending event(s)")
    if s.membership:
        census = "  ".join(f"{k}={v}" for k, v in sorted(s.membership.items()))
        lines.append(f"members    {census}")
    if s.corrections:
        top_count = max(s.corrections.values())
        for grid in sorted(s.corrections):
            c = s.corrections[grid]
            lines.append(
                f"grid {grid:<3} {_bar(c / top_count if top_count else 0.0)} "
                f"{c:g} corrections"
            )
    if s.guard_counts:
        lines.append(
            "guards     "
            + "  ".join(f"{k}={v}" for k, v in sorted(s.guard_counts.items()))
        )
    if s.fault_counts:
        lines.append(
            "faults     "
            + "  ".join(f"{k}={v}" for k, v in sorted(s.fault_counts.items()))
        )
    if s.alert_counts:
        lines.append(
            "alerts     "
            + "  ".join(f"{k}={v}" for k, v in sorted(s.alert_counts.items()))
        )
        if s.last_alert:
            lines.append(f"  last     {s.last_alert}")
    stale_workers = [
        f"{w}({age:.1f}s)" for w, age in sorted(
            s.heartbeat_age.items(), key=lambda kv: -kv[1]
        ) if age > 1.0
    ]
    if stale_workers:
        lines.append("quiet      " + "  ".join(stale_workers[:6]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Executor-facing session plumbing
# ---------------------------------------------------------------------------


@dataclass
class LiveConfig:
    """Everything the ``--live`` flag family configures.  Off by
    default everywhere; constructing one and passing it to an executor
    is the opt-in."""

    interval_s: float = 0.1
    history: int = 512
    metrics_port: Optional[int] = None  # None = no endpoint; 0 = ephemeral
    snapshot_path: Optional[str] = None  # JSONL stream for headless runs
    detectors: Optional[List[Detector]] = None  # None → default_detectors(delta)
    delta: Optional[float] = None  # staleness bound for the spike detector
    alert_stop: FrozenSet[str] = frozenset()  # alert kinds that abort the run
    profile: bool = False
    profile_interval_s: float = 0.005


@dataclass
class LiveSummary:
    """What a live-enabled run attaches to its result object."""

    snapshots: List[LiveSnapshot] = field(default_factory=list)
    alerts: List[Alert] = field(default_factory=list)
    profile: Optional[ProfileReport] = None
    aborted_by: Optional[str] = None
    metrics_port: Optional[int] = None

    def oneline(self) -> str:
        parts = [f"live: {len(self.snapshots)} snapshot(s)"]
        if self.alerts:
            parts.append(f"{len(self.alerts)} alert(s)")
        if self.aborted_by:
            parts.append(f"aborted by {self.aborted_by}")
        if self.profile is not None:
            parts.append(f"{self.profile.samples} profile sample(s)")
        return ", ".join(parts)


class LiveSession:
    """Owns the collector + optional server/profiler/writer for one
    run.  Executors create it via :func:`start_live` right after their
    clock starts and call :meth:`finish` before building the result."""

    def __init__(
        self,
        config: LiveConfig,
        collector: SnapshotCollector,
        server: Optional[MetricsServer],
        profiler: Optional[SamplingProfiler],
        writer: Optional[SnapshotWriter],
    ) -> None:
        self.config = config
        self.collector = collector
        self.server = server
        self.profiler = profiler
        self.writer = writer
        self.stop_requested = False
        self.aborted_by: Optional[str] = None

    def finish(self) -> LiveSummary:
        """Tear down (final collection included) and summarize."""
        self.collector.stop()
        if self.server is not None:
            self.server.stop()
        profile: Optional[ProfileReport] = None
        if self.profiler is not None:
            profile = self.profiler.stop()
        if self.writer is not None:
            self.writer.close()
        return LiveSummary(
            snapshots=list(self.collector.history),
            alerts=list(self.collector.alerts),
            profile=profile,
            aborted_by=self.aborted_by,
            metrics_port=self.server.port if self.server is not None else None,
        )


def start_live(
    config: LiveConfig,
    tracer: Tracer,
    backend: str,
    stop_callback: Optional[Callable[[], None]] = None,
) -> LiveSession:
    """Build and start a :class:`LiveSession` for one run.

    ``stop_callback`` is the executor's abort hook: when an alert of a
    kind in ``config.alert_stop`` fires, the session flips
    ``stop_requested`` and invokes the callback (e.g. the threaded
    executor's ``stop_event.set``) so the existing guard/termination
    machinery winds the run down.
    """
    detectors = (
        config.detectors
        if config.detectors is not None
        else default_detectors(config.delta)
    )
    session_box: List[LiveSession] = []

    def on_alert(alert: Alert) -> None:
        if alert.kind in config.alert_stop and session_box:
            sess = session_box[0]
            if not sess.stop_requested:
                sess.stop_requested = True
                sess.aborted_by = alert.kind
                if stop_callback is not None:
                    stop_callback()

    writer = (
        SnapshotWriter(config.snapshot_path, backend=backend, clock=tracer.clock)
        if config.snapshot_path
        else None
    )
    collector = SnapshotCollector(
        tracer,
        interval_s=config.interval_s,
        history=config.history,
        detectors=detectors,
        backend=backend,
        on_snapshot=writer.write if writer is not None else None,
        on_alert=on_alert,
    )
    # Claim the collector's trace buffer up front: single writer.
    tracer.buffer(LIVE_WORKER)
    server = (
        MetricsServer(collector, config.metrics_port)
        if config.metrics_port is not None
        else None
    )
    profiler = (
        SamplingProfiler(tracer, interval_s=config.profile_interval_s)
        if config.profile
        else None
    )
    session = LiveSession(config, collector, server, profiler, writer)
    session_box.append(session)
    collector.start()
    if server is not None:
        server.start()
    if profiler is not None:
        profiler.start()
    return session
