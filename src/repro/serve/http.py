"""HTTP front-end for :class:`repro.serve.SolveServer`.

Endpoints (stdlib ``ThreadingHTTPServer``, loopback by default):

- ``GET /metrics`` — OpenMetrics exposition of the server's
  :class:`~repro.observe.Metrics` registry (counters/gauges as gauges,
  histograms with ``_bucket``/``_sum``/``_count`` samples), served
  through the same bounded scrape path as
  :class:`repro.observe.MetricsServer` (:func:`repro.observe.live.reply_scrape`):
  a stalled provider yields **503** with ``Retry-After: 1`` promptly.
- ``GET /healthz`` — liveness + queue depth as JSON.
- ``GET /stats`` — the full :meth:`SolveServer.stats` snapshot.
- ``POST /submit`` — one solve job as JSON; blocks until the job's
  terminal result (bounded by the job deadline plus a grace window)
  and returns :meth:`JobResult.to_dict`.  The RHS is either an
  explicit ``"b"`` list or a seeded ``"rhs_seed"`` (server-side
  standard-normal draw — deterministic, per RPR003).

Metric names are sanitized for the exposition (``serve.jobs.ok.acme``
→ ``serve_jobs_ok_acme``); labels are deliberately not synthesized —
the flat dotted names are the repo-wide metrics vocabulary and the
docs (docs/SERVING.md) list the serving families.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

import numpy as np

from ..observe import Metrics
from ..observe.live import reply_scrape
from .server import SolveServer

__all__ = ["metrics_to_openmetrics", "ServeHTTPServer"]

_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    out = _NAME_SANITIZE_RE.sub("_", name)
    if not out or not (out[0].isalpha() or out[0] in "_:"):
        out = "_" + out
    return out


def metrics_to_openmetrics(metrics: Metrics) -> str:
    """Render one ``Metrics.collect()`` snapshot as OpenMetrics text."""
    snap = metrics.collect()
    lines: List[str] = []

    def sample(name: str, value: float) -> None:
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {float(value)!r}")

    counters: Dict[str, float] = snap["counters"]  # type: ignore[assignment]
    gauges: Dict[str, float] = snap["gauges"]  # type: ignore[assignment]
    providers: Dict[str, Dict[str, float]] = snap["providers"]  # type: ignore[assignment]
    histograms: Dict[str, Dict[str, Any]] = snap["histograms"]  # type: ignore[assignment]
    for name, value in counters.items():
        sample(_sanitize(name), value)
    for name, value in gauges.items():
        sample(_sanitize(name), value)
    for pname, values in providers.items():
        for name, value in values.items():
            sample(_sanitize(f"{pname}.{name}"), value)
    for name, h in histograms.items():
        base = _sanitize(name)
        lines.append(f"# TYPE {base} histogram")
        cumulative = 0
        for bound, count in zip(h["bounds"], h["counts"]):
            cumulative += count
            lines.append(f'{base}_bucket{{le="{float(bound)!r}"}} {cumulative}')
        lines.append(f'{base}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{base}_sum {float(h['sum'])!r}")
        lines.append(f"{base}_count {h['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class ServeHTTPServer:
    """Bounded HTTP front-end over one :class:`SolveServer`."""

    def __init__(
        self,
        server: SolveServer,
        port: int = 0,
        host: str = "127.0.0.1",
        collect_timeout_s: float = 2.0,
        submit_grace_s: float = 30.0,
    ) -> None:
        if collect_timeout_s <= 0 or submit_grace_s <= 0:
            raise ValueError("timeouts must be positive")
        solve_server = server
        timeout_s = float(collect_timeout_s)
        grace_s = float(submit_grace_s)

        class _Handler(BaseHTTPRequestHandler):
            timeout = max(timeout_s, grace_s)  # socket read bound

            def _reply_json(self, code: int, obj: Dict[str, Any]) -> None:
                body = json.dumps(obj).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    reply_scrape(
                        self, lambda: metrics_to_openmetrics(solve_server.metrics), timeout_s
                    )
                elif path == "/healthz":
                    self._reply_json(
                        200,
                        {
                            "status": "ok",
                            "queue_depth": solve_server.admission.depth(),
                            "workers_alive": len(solve_server.alive_threads()),
                        },
                    )
                elif path == "/stats":
                    self._reply_json(200, _jsonable(solve_server.stats()))
                else:
                    self._reply_json(404, {"error": f"unknown path {path}"})

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path != "/submit":
                    self._reply_json(404, {"error": f"unknown path {path}"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    tenant = str(payload["tenant"])
                    operator = str(payload["operator"])
                    ref = solve_server.operator(operator)
                    if "b" in payload:
                        b = np.asarray(payload["b"], dtype=np.float64)
                    else:
                        rng = np.random.default_rng(int(payload.get("rhs_seed", 0)))
                        b = rng.standard_normal(ref.n)
                    spec_kwargs: Dict[str, Any] = {}
                    for key in (
                        "tol",
                        "deadline_s",
                        "divergence_threshold",
                    ):
                        if key in payload:
                            spec_kwargs[key] = float(payload[key])
                    for key in ("tmax", "retries"):
                        if key in payload:
                            spec_kwargs[key] = int(payload[key])
                except (KeyError, TypeError, ValueError) as exc:
                    self._reply_json(400, {"error": f"bad request: {exc}"})
                    return
                ticket = solve_server.submit_named(
                    tenant, operator, b, **spec_kwargs
                )
                deadline_s = float(spec_kwargs.get("deadline_s", 5.0))
                result = ticket.result(timeout=deadline_s + grace_s)
                if result is None:  # pragma: no cover - server bug guard
                    self._reply_json(500, {"error": "job did not terminate"})
                    return
                self._reply_json(200, _jsonable(result.to_dict()))

            def log_message(self, format: str, *args: Any) -> None:
                pass  # keep scrape/submit logs out of server stdout

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def start(self) -> "ServeHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="serve-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=2.0)
        self._thread = None
        self._httpd.server_close()


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of stats payloads to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and obj != obj:
        return None
    return obj
