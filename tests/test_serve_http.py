"""Tests for the serve HTTP front-end: /metrics, /healthz, /stats,
/submit, the OpenMetrics rendering, and the stalled-collect 503."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.observe import Metrics, parse_openmetrics
from repro.observe import live as live_mod
from repro.problems import build_problem
from repro.serve import ServeConfig, ServeHTTPServer, SolveServer, metrics_to_openmetrics


def get(port, path, timeout=10.0):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as resp:
        return resp.status, resp.read().decode("utf-8")


def post(port, path, payload, timeout=60.0):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture()
def served():
    server = SolveServer(ServeConfig(workers=2)).start()
    p = build_problem("5pt", 10)
    server.register_operator(
        "poisson", p.A, solver_kwargs={"weight": p.jacobi_weight}
    )
    http = ServeHTTPServer(server, port=0).start()
    try:
        yield server, http
    finally:
        http.stop()
        server.stop()


class TestOpenMetricsRendering:
    def test_snapshot_parses_and_round_trips(self):
        m = Metrics()
        m.counter("serve.jobs.ok").inc(3)
        m.gauge("serve.queue_depth").set(2.0)
        m.histogram("serve.latency_s.t", (0.1, 1.0)).observe(0.05)
        m.histogram("serve.latency_s.t", (0.1, 1.0)).observe(0.5)
        text = metrics_to_openmetrics(m)
        assert text.endswith("# EOF\n")
        parsed = parse_openmetrics(text)
        assert parsed[("serve_jobs_ok", ())] == 3.0
        assert parsed[("serve_queue_depth", ())] == 2.0
        assert parsed[("serve_latency_s_t_count", ())] == 2.0
        assert parsed[("serve_latency_s_t_bucket", (("le", "0.1"),))] == 1.0
        assert parsed[("serve_latency_s_t_bucket", (("le", "+Inf"),))] == 2.0

    def test_provider_values_included(self):
        m = Metrics()
        m.register_provider("pool", lambda: {"alive": 4.0})
        parsed = parse_openmetrics(metrics_to_openmetrics(m))
        assert parsed[("pool_alive", ())] == 4.0


class TestEndpoints:
    def test_healthz(self, served):
        _, http = served
        status, body = get(http.port, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers_alive"] == 2

    def test_submit_then_metrics_and_stats(self, served):
        server, http = served
        status, result = post(
            http.port,
            "/submit",
            {"tenant": "acme", "operator": "poisson", "rhs_seed": 1},
        )
        assert status == 200
        assert result["status"] == "ok"
        assert result["rel_residual"] <= 1e-8
        assert result["deadline_met"] is True

        status, body = get(http.port, "/metrics")
        assert status == 200
        parsed = parse_openmetrics(body)
        assert parsed[("serve_jobs_ok_acme", ())] == 1.0
        assert ("setupcache_hits", ()) in parsed
        assert ("breaker_closed", ()) in parsed

        status, body = get(http.port, "/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["metrics"]["serve.jobs.ok"] == 1

    def test_submit_explicit_rhs_and_unknown_operator(self, served):
        server, http = served
        n = server.operator("poisson").n
        status, result = post(
            http.port,
            "/submit",
            {"tenant": "acme", "operator": "poisson", "b": [1.0] * n},
        )
        assert status == 200 and result["status"] == "ok"
        with pytest.raises(urllib.error.HTTPError) as err:
            post(http.port, "/submit", {"tenant": "acme", "operator": "nope"})
        assert err.value.code == 400

    def test_missing_fields_is_400_not_500(self, served):
        _, http = served
        with pytest.raises(urllib.error.HTTPError) as err:
            post(http.port, "/submit", {"operator": "poisson"})
        assert err.value.code == 400

    def test_unknown_path_404(self, served):
        _, http = served
        with pytest.raises(urllib.error.HTTPError) as err:
            get(http.port, "/nope")
        assert err.value.code == 404


class TestStalledCollect:
    def test_stalled_provider_yields_503_not_hang(self, monkeypatch):
        monkeypatch.setattr(live_mod, "SCRAPE_TIMEOUT_S", 0.2)
        server = SolveServer(ServeConfig(workers=1))
        release = threading.Event()

        def wedged():
            release.wait(timeout=30.0)
            return {"late": 1.0}

        server.metrics.register_provider("wedged", wedged)
        http = ServeHTTPServer(server, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(http.port, "/metrics")
            assert err.value.code == 503
            assert b"stalled" in err.value.read()
            assert err.value.headers["Retry-After"] == "1"
            # Unwedge: the next scrape serves normally.
            release.set()
            status, body = get(http.port, "/metrics")
            assert status == 200
            assert ("wedged_late", ()) in parse_openmetrics(body)
        finally:
            http.stop()
