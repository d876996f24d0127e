"""Tests for the live telemetry layer (repro.observe.live /
alerts / profiler): ring-buffer tail reads, the snapshot collector,
anomaly detectors, OpenMetrics round-trips, the JSONL snapshot stream
and `repro top`, the sampling profiler, and backend integration
(engine bit-identity, threaded mid-run scraping, distributed queue
depth)."""

import dataclasses
import json
import math
import os
import socket
import threading
import time
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core.engine import run_async_engine
from repro.core.threaded import run_threaded
from repro.distributed import simulate_distributed
from repro.observe import Metrics, TraceAnalyzer, Tracer, to_chrome_trace
from repro.observe import live as live_mod
from repro.observe.alerts import (
    ALERT_KINDS,
    Alert,
    DivergenceDetector,
    HeartbeatGapDetector,
    OscillationDetector,
    StagnationDetector,
)
from repro.observe.events import (
    ALERT,
    CORRECT_END,
    FAULT,
    GUARD,
    RESIDUAL,
    WRITE,
)
from repro.observe.live import (
    LIVE_WORKER,
    LiveConfig,
    LiveSnapshot,
    MetricsServer,
    SnapshotCollector,
    SnapshotWriter,
    parse_openmetrics,
    read_snapshots_jsonl,
    render_top,
    start_live,
    to_openmetrics,
)
from repro.observe.profiler import KERNELS_PATH_FRAGMENT, SamplingProfiler
from repro.observe.tracer import TraceBuffer
from repro.resilience import FaultPlan, StallFault
from repro.solvers import Multadd


@pytest.fixture(scope="module")
def solver(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _scrape(port: int, timeout: float = 2.0) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=timeout
    ) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"].startswith("application/openmetrics-text")
        return resp.read().decode("utf-8")


class TestTailAPI:
    def test_position_and_tail_in_order(self):
        buf = TraceBuffer("w", capacity=8)
        for i in range(3):
            buf.record(float(i), CORRECT_END, 0, a=float(i))
        pos, recs = buf.tail(0)
        assert pos == 3
        assert [r[0] for r in recs] == [0.0, 1.0, 2.0]
        pos2, recs2 = buf.tail(pos)
        assert pos2 == pos and recs2 == []

    def test_tail_wraparound_returns_newest(self):
        buf = TraceBuffer("w", capacity=4)
        for i in range(10):
            buf.record(float(i), CORRECT_END, 0)
        assert buf.position() == 10
        pos, recs = buf.tail(0)
        # Only the 4 newest survive the ring; they come back in order.
        assert pos == 10
        assert [r[0] for r in recs] == [6.0, 7.0, 8.0, 9.0]

    def test_tail_incremental_across_wrap(self):
        buf = TraceBuffer("w", capacity=4)
        for i in range(3):
            buf.record(float(i), CORRECT_END, 0)
        cursor, recs = buf.tail(0)
        assert [r[0] for r in recs] == [0.0, 1.0, 2.0]
        for i in range(3, 6):
            buf.record(float(i), CORRECT_END, 0)
        cursor, recs = buf.tail(cursor)
        assert [r[0] for r in recs] == [3.0, 4.0, 5.0]
        assert cursor == 6


def make_collector(**kw):
    tracer = Tracer(clock="steps")
    kw.setdefault("detectors", [])
    kw.setdefault("interval_s", 0.05)
    coll = SnapshotCollector(tracer, backend="engine", **kw)
    return tracer, coll


class TestSnapshotCollector:
    def test_ingests_core_event_kinds(self):
        tracer, coll = make_collector()
        tracer.record(CORRECT_END, 0, 1.0, a=5.0, b=1.0, worker=0)
        tracer.record(CORRECT_END, 1, 2.0, a=3.0, b=2.0, worker=1)
        tracer.record(RESIDUAL, -1, 2.0, a=0.125, tag="global", worker=0)
        tracer.record(WRITE, 0, 2.0, a=0.25, worker=0)
        tracer.record(GUARD, 0, 2.0, tag="restart", worker=0)
        tracer.record(FAULT, 1, 2.0, tag="crash", worker=1)
        snap = coll.collect_once()
        assert snap.residual == 0.125 and snap.residual_tag == "global"
        assert snap.corrections == {0: 5.0, 1: 3.0}
        assert snap.corrections_total == 8.0
        assert snap.staleness_max == 2.0
        assert snap.lock_wait_total == 0.25
        assert snap.guard_counts == {"restart": 1}
        assert snap.fault_counts == {"crash": 1}
        assert snap.workers == 2
        assert snap.events_seen == 6
        assert snap.t_event == 2.0

    def test_local_residual_never_displaces_global(self):
        tracer, coll = make_collector()
        tracer.record(RESIDUAL, -1, 1.0, a=0.5, tag="global", worker=0)
        tracer.record(RESIDUAL, 0, 2.0, a=9.9, tag="local", worker=1)
        snap = coll.collect_once()
        assert snap.residual == 0.5 and snap.residual_tag == "global"

    def test_live_worker_buffer_excluded(self):
        tracer, coll = make_collector()
        tracer.record(RESIDUAL, -1, 1.0, a=0.5, tag="global", worker=LIVE_WORKER)
        snap = coll.collect_once()
        assert snap.events_seen == 0
        assert math.isnan(snap.residual)

    def test_corrections_fold_forward_across_collects(self):
        tracer, coll = make_collector()
        tracer.record(CORRECT_END, 0, 1.0, a=1.0, worker=0)
        s1 = coll.collect_once()
        tracer.record(CORRECT_END, 0, 2.0, a=2.0, worker=0)
        s2 = coll.collect_once()
        assert s1.corrections == {0: 1.0}
        assert s2.corrections == {0: 2.0}
        assert s2.seq == s1.seq + 1
        assert s2.events_seen == 2

    def test_alert_recorded_as_trace_event_and_counter(self):
        class AlwaysFire(StagnationDetector):
            def update(self, snap):
                return [
                    Alert(
                        kind="stagnation",
                        t_wall=snap.t_wall,
                        t_event=snap.t_event,
                        value=1.0,
                        threshold=0.5,
                        message="synthetic",
                    )
                ]

        seen = []
        tracer, coll = make_collector(
            detectors=[AlwaysFire()], on_alert=seen.append
        )
        tracer.record(RESIDUAL, -1, 1.0, a=1.0, tag="global", worker=0)
        snap = coll.collect_once()
        assert snap.alert_counts == {"stagnation": 1}
        assert "stagnation" in snap.last_alert
        assert len(seen) == 1 and seen[0].kind == "stagnation"
        events = [e for e in tracer.events() if e.kind == ALERT]
        assert len(events) == 1
        assert events[0].worker == LIVE_WORKER and events[0].tag == "stagnation"

    def test_queue_depth_and_membership_hooks(self):
        tracer, coll = make_collector()
        coll.queue_depth_fn = lambda: 7.0
        coll.membership_fn = lambda: {"up": 3, "down": 1}
        snap = coll.collect_once()
        assert snap.queue_depth == 7.0
        assert snap.membership == {"up": 3, "down": 1}

    def test_background_thread_collects_on_cadence(self):
        tracer, coll = make_collector(interval_s=0.01)
        tracer.record(RESIDUAL, -1, 1.0, a=0.5, tag="global", worker=0)
        coll.start()
        deadline = time.perf_counter() + 3.0
        while not coll.history and time.perf_counter() < deadline:
            time.sleep(0.01)
        coll.stop()
        assert coll.history
        assert coll.history[-1].residual == 0.5


def _snap(res, t=0.0, **kw):
    return LiveSnapshot(residual=res, t_event=t, residual_tag="global", **kw)


class TestDetectors:
    def test_stagnation_fires_on_flat_series_only(self):
        det = StagnationDetector()
        fired = []
        for i in range(StagnationDetector.WINDOW):
            fired += det.update(_snap(1.0, t=float(i)))
        assert fired and fired[0].kind == "stagnation"

        det = StagnationDetector()
        fired = []
        for i in range(StagnationDetector.WINDOW + 2):
            fired += det.update(_snap(1.0 * 0.5**i, t=float(i)))
        assert not fired

    def test_divergence_fires_on_growth(self):
        det = DivergenceDetector()
        fired = []
        series = [1.0] * (DivergenceDetector.WINDOW - 3) + [2.0, 5.0, 20.0]
        for i, r in enumerate(series):
            fired += det.update(_snap(r, t=float(i)))
        assert fired and fired[0].kind == "divergence"
        assert fired[0].severity == "critical"

    def test_oscillation_fires_on_alternation(self):
        det = OscillationDetector()
        series = [1.0, 2.0] * (OscillationDetector.WINDOW // 2)
        fired = []
        for i, r in enumerate(series):
            fired += det.update(_snap(r, t=float(i)))
        assert fired and fired[0].kind == "oscillation"

    def test_stale_snapshot_is_not_a_fresh_sample(self):
        # The same (t_event, residual) reading repeated (solver quiet,
        # collector still ticking) must not fill the window.
        det = StagnationDetector()
        fired = []
        for _ in range(2 * StagnationDetector.WINDOW):
            fired += det.update(_snap(1.0, t=1.0))
        assert not fired

    def test_cooldown_suppresses_refiring(self):
        # The first alert fills the window; the cooldown's snapshots
        # stay quiet, and the next one fires again.
        det = StagnationDetector()
        fired = []
        quiet = StagnationDetector.WINDOW + StagnationDetector.COOLDOWN
        for i in range(quiet):
            fired += det.update(_snap(1.0, t=float(i)))
        assert len(fired) == 1
        assert det.update(_snap(1.0, t=float(quiet)))

    def test_heartbeat_gap_flags_quiet_worker_once(self):
        det = HeartbeatGapDetector()
        snap = LiveSnapshot(
            heartbeat_age={0: 5.0, 1: 0.01, 2: 0.02},
            worker_grids={0: 0, 1: 1, 2: 2},
            workers=3,
        )
        fired = det.update(snap)
        assert len(fired) == 1 and fired[0].kind == "heartbeat_gap"
        assert not det.update(snap)  # same quiet spell: no re-fire
        # Worker resumes, then goes quiet again: the alarm re-arms.
        det.update(
            LiveSnapshot(
                heartbeat_age={0: 0.01, 1: 0.01, 2: 0.02},
                worker_grids={0: 0, 1: 1, 2: 2},
                workers=3,
            )
        )
        assert det.update(snap)

    def test_default_panel_and_census(self):
        # A collector given no detectors runs one of each alert kind.
        coll = SnapshotCollector(Tracer(clock="steps"))
        kinds = [d.kind for d in coll.detectors]
        assert sorted(kinds) == sorted(ALERT_KINDS)


class TestOpenMetrics:
    def _snapshot(self):
        tracer, coll = make_collector()
        tracer.record(RESIDUAL, -1, 3.0, a=0.25, tag="global", worker=0)
        tracer.record(CORRECT_END, 0, 1.0, a=4.0, worker=0)
        tracer.record(CORRECT_END, 1, 2.0, a=2.0, b=1.5, worker=1)
        tracer.record(GUARD, 0, 2.5, tag="restart", worker=0)
        return coll.collect_once()

    def test_round_trip(self):
        text = to_openmetrics(self._snapshot())
        assert text.rstrip().endswith("# EOF")
        parsed = parse_openmetrics(text)
        assert parsed[("repro_residual", (("view", "global"),))] == 0.25
        assert parsed[("repro_corrections_total", (("grid", "0"),))] == 4.0
        assert parsed[("repro_corrections_total", (("grid", "1"),))] == 2.0
        assert parsed[("repro_events_total", ())] == 4.0
        assert parsed[("repro_workers", ())] == 2.0
        assert parsed[("repro_staleness_max", ())] == 1.5
        assert parsed[("repro_guard_actions_total", (("action", "restart"),))] == 1.0

    def test_rejects_missing_eof(self):
        text = to_openmetrics(self._snapshot())
        body = text[: text.rindex("# EOF")]
        with pytest.raises(ValueError):
            parse_openmetrics(body)

    def test_rejects_samples_after_eof(self):
        text = to_openmetrics(self._snapshot())
        with pytest.raises(ValueError):
            parse_openmetrics(text + "\nrepro_workers 3\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_openmetrics("not a metric line at all!\n# EOF\n")

    def test_queue_depth_omitted_when_nan(self):
        snap = self._snapshot()
        text = to_openmetrics(snap)
        assert "repro_queue_depth" not in text
        snap.queue_depth = 12.0
        text = to_openmetrics(snap)
        assert parse_openmetrics(text)[("repro_queue_depth", ())] == 12.0

    def test_server_serves_fresh_collect_per_scrape(self):
        tracer, coll = make_collector()
        tracer.record(RESIDUAL, -1, 1.0, a=0.5, tag="global", worker=0)
        server = MetricsServer(coll, port=0)
        server.start()
        try:
            first = parse_openmetrics(_scrape(server.port))
            assert first[("repro_residual", (("view", "global"),))] == 0.5
            # Progress lands between scrapes; the next GET must see it.
            tracer.record(RESIDUAL, -1, 2.0, a=0.05, tag="global", worker=0)
            second = parse_openmetrics(_scrape(server.port))
            assert second[("repro_residual", (("view", "global"),))] == 0.05
            assert second[("repro_snapshot_seq", ())] > first[
                ("repro_snapshot_seq", ())
            ]
        finally:
            server.stop()

    def test_stalled_collect_returns_503_promptly(self, monkeypatch):
        monkeypatch.setattr(live_mod, "SCRAPE_TIMEOUT_S", 0.2)
        tracer, coll = make_collector()
        release = threading.Event()
        real_collect = coll.collect_once

        def wedged_collect():
            release.wait(timeout=30.0)
            return real_collect()

        coll.collect_once = wedged_collect
        server = MetricsServer(coll, port=0)
        server.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(server.port, timeout=10.0)
            elapsed = time.perf_counter() - t0
            # A wedged provider must 503 promptly — never a scrape
            # that hangs until the monitoring system gives up.
            assert err.value.code == 503
            assert b"stalled" in err.value.read()
            assert err.value.headers["Retry-After"] == "1"
            assert elapsed < 5.0
            # Unwedge: the very next scrape serves a real exposition.
            release.set()
            coll.collect_once = real_collect
            body = _scrape(server.port)
            assert ("repro_snapshot_seq", ()) in parse_openmetrics(body)
        finally:
            server.stop()


class TestSnapshotStream:
    def test_dict_round_trip_covers_every_field(self):
        snap = LiveSnapshot(
            seq=4,
            t_wall=0.5,
            t_event=12.0,
            clock="steps",
            backend="engine",
            residual=0.25,
            residual_tag="global",
            corrections={0: 3.0, 1: 2.0},
            corrections_total=5.0,
            staleness_last=1.0,
            staleness_max=2.0,
            lock_wait_total=0.125,
            events_seen=9,
            events_dropped=1,
            workers=2,
            guard_counts={"restart": 1},
            fault_counts={"crash": 2},
            alert_counts={"stagnation": 1},
            last_alert="stagnation: flat",
            queue_depth=3.0,
            membership={"active": 4},
            heartbeat_age={"0": 0.5, "live": 0.1},
            worker_grids={"0": 1},
        )
        default = LiveSnapshot()
        for f in dataclasses.fields(LiveSnapshot):
            assert getattr(snap, f.name) != getattr(default, f.name), f.name
        d = snap.to_dict()
        assert list(d) == [
            "seq", "t_wall", "t_event", "clock", "backend", "residual",
            "residual_tag", "corrections", "corrections_total",
            "staleness_last", "staleness_max", "lock_wait_total",
            "events_seen", "events_dropped", "workers", "guard_counts",
            "fault_counts", "alert_counts", "last_alert", "queue_depth",
            "membership", "heartbeat_age", "worker_grids",
        ]
        assert d["corrections"] == {"0": 3.0, "1": 2.0}
        back = LiveSnapshot.from_dict(json.loads(json.dumps(d)))
        assert back == snap
        assert type(back.seq) is int and type(back.corrections_total) is float
        # NaN travels as null, and a missing key keeps its default.
        d.update(residual=None, queue_depth=None)
        del d["membership"]
        back = LiveSnapshot.from_dict(json.loads(json.dumps(d)))
        assert math.isnan(back.residual) and math.isnan(back.queue_depth)
        assert back.membership == {}

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        writer = SnapshotWriter(path, backend="engine", clock="steps")
        writer.write(LiveSnapshot(seq=0, residual=0.5, corrections={0: 2.0}))
        writer.write(LiveSnapshot(seq=1, residual=float("nan"), queue_depth=3.0))
        writer.close()
        meta, snaps = read_snapshots_jsonl(path)
        assert meta["backend"] == "engine" and meta["clock"] == "steps"
        assert len(snaps) == 2
        assert snaps[0].residual == 0.5 and snaps[0].corrections == {0: 2.0}
        assert math.isnan(snaps[1].residual) and snaps[1].queue_depth == 3.0

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        writer = SnapshotWriter(path, backend="engine", clock="steps")
        writer.write(LiveSnapshot(seq=0, residual=0.5))
        writer.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 1, "residual"')  # interrupted write
        meta, snaps = read_snapshots_jsonl(path)
        assert len(snaps) == 1 and snaps[0].seq == 0

    def test_render_top_panel(self):
        meta = {"backend": "threaded", "clock": "s"}
        snaps = [
            LiveSnapshot(seq=0, residual=1.0, residual_tag="global"),
            LiveSnapshot(
                seq=1,
                t_wall=0.2,
                residual=0.01,
                residual_tag="global",
                corrections={0: 10.0, 1: 4.0},
                workers=2,
                alert_counts={"stagnation": 1},
                last_alert="stagnation: flat",
                membership={"up": 3},
            ),
        ]
        panel = render_top(meta, snaps)
        assert "repro top" in panel and "backend=threaded" in panel
        assert "1.000e-02" in panel
        assert "grid 0" in panel and "grid 1" in panel
        assert "stagnation" in panel
        assert "up" in panel


class TestMetricsSatellite:
    def test_collect_tolerates_raising_provider(self):
        m = Metrics()
        m.counter("good").inc(2)
        m.register_provider("boom", lambda: (_ for _ in ()).throw(RuntimeError()))
        m.register_provider("fine", lambda: {"v": 1.0})
        flat = m.flatten()  # one collect() under the hood
        assert flat["good"] == 2.0
        assert flat["fine.v"] == 1.0
        assert flat["collect_errors"] == 1.0
        snap = m.collect()
        assert "boom" not in snap["providers"]
        assert "fine" in snap["providers"]


class TestProfiler:
    def _kernel_frame_fn(self, event):
        # Compile a spin loop whose co_filename lives under
        # repro/kernels/ so attribution is deterministic.
        fake = os.sep + KERNELS_PATH_FRAGMENT + "fake_kernel.py"
        src = (
            "def _fake_relax(event):\n"
            "    while not event.is_set():\n"
            "        pass\n"
        )
        ns = {}
        exec(compile(src, fake, "exec"), ns)
        return ns["_fake_relax"]

    def test_attributes_registered_thread_to_kernel(self):
        tracer = Tracer(clock="s")
        done = threading.Event()
        fn = self._kernel_frame_fn(done)

        def worker():
            tracer.register_worker(grid=2, worker=7)
            fn(done)

        t = threading.Thread(target=worker, daemon=True)
        t.start()
        prof = SamplingProfiler(tracer)
        try:
            deadline = time.perf_counter() + 3.0
            hit = False
            while time.perf_counter() < deadline and not hit:
                prof.sample_once()
                hit = ("fake_relax", 2, 7) in prof.report.counts
                time.sleep(0.002)
        finally:
            done.set()
            t.join(timeout=2.0)
        assert hit
        report = prof.stop()
        rows = report.rows()
        assert rows[0]["kernel"] == "fake_relax"
        assert rows[0]["grid"] == 2 and rows[0]["worker"] == 7
        assert 0.0 < float(rows[0]["share"]) <= 1.0
        assert "fake_relax" in report.table()
        counters = report.chrome_counter_events()
        assert counters and counters[0]["ph"] == "C"
        assert report.to_dict()["samples"] == report.samples

    def test_unregistered_threads_fall_back_to_main(self):
        # With an empty worker registry (the engine case) the sampler
        # attributes the main thread as worker "main".
        tracer = Tracer(clock="s")
        prof = SamplingProfiler(tracer)
        prof.start()
        deadline = time.perf_counter() + 3.0
        while not prof.report.counts and time.perf_counter() < deadline:
            time.sleep(0.005)
        report = prof.stop()
        assert report.counts
        assert all(k[2] == "main" for k in report.counts)

    def test_empty_report_renders(self):
        tracer = Tracer(clock="s")
        prof = SamplingProfiler(tracer)
        assert prof.stop().table() == "(no profile samples)"


class TestChromeTraceAlerts:
    def test_alert_becomes_instant_event(self):
        tracer = Tracer(clock="s")
        tracer.record(RESIDUAL, -1, 0.1, a=1.0, tag="global", worker=0)
        tracer.record(
            ALERT, -1, 0.2, a=1.0, b=0.5, tag="stagnation", worker=LIVE_WORKER
        )
        doc = to_chrome_trace(tracer.events(), clock="s")
        blob = json.dumps(doc)
        reimported = json.loads(blob)
        instants = [
            e for e in reimported["traceEvents"]
            if e.get("ph") == "i" and "alert" in e.get("name", "")
        ]
        assert instants
        an = TraceAnalyzer(tracer.events(), {"clock": tracer.clock})
        assert [e.tag for e in an.events if e.kind == ALERT] == ["stagnation"]


class TestEngineLive:
    def test_live_summary_attached_and_bit_identical(self, solver, b_7pt):
        base = run_async_engine(solver, b_7pt, tmax=6, seed=3)
        cfg = LiveConfig(interval_s=0.01)
        live = run_async_engine(solver, b_7pt, tmax=6, seed=3, live=cfg)
        assert base.live_summary is None
        assert live.live_summary is not None
        assert len(live.live_summary.snapshots) >= 1
        assert (live.x == base.x).all()
        assert live.rel_residual == base.rel_residual

    def test_snapshot_stream_written(self, solver, b_7pt, tmp_path):
        path = str(tmp_path / "engine.jsonl")
        cfg = LiveConfig(interval_s=0.01, snapshot_path=path)
        run_async_engine(solver, b_7pt, tmax=6, seed=3, live=cfg)
        meta, snaps = read_snapshots_jsonl(path)
        assert meta["backend"] == "engine" and meta["clock"] == "steps"
        assert snaps and snaps[-1].corrections_total > 0


class TestThreadedLive:
    def test_mid_run_scrapes_show_decreasing_residual(self, solver, b_7pt):
        # Hold every grid for 0.3 s before its first correction, so the
        # first scrape sees the starting residual however long the
        # endpoint takes to answer it, then stall the finest grid so
        # the run lasts long enough to scrape while the other grids
        # keep correcting.
        port = _free_port()
        hold = tuple(
            StallFault(grid=g, after=0, duration=0.3) for g in range(solver.ngrids)
        )
        faults = FaultPlan(stalls=hold + (StallFault(grid=0, after=1, duration=1.0),))
        cfg = LiveConfig(interval_s=0.05, metrics_port=port)
        box = {}

        def run():
            box["res"] = run_threaded(solver, b_7pt, tmax=8, faults=faults, live=cfg)

        t = threading.Thread(target=run)
        t.start()
        readings = []
        deadline = time.perf_counter() + 30.0
        try:
            while t.is_alive() and time.perf_counter() < deadline:
                try:
                    parsed = parse_openmetrics(_scrape(port, timeout=0.5))
                except (OSError, ValueError):
                    time.sleep(0.02)
                    continue
                val = parsed.get(("repro_residual", (("view", "global"),)))
                if val is not None:
                    readings.append(val)
                time.sleep(0.05)
        finally:
            t.join(timeout=60.0)
        assert not t.is_alive()
        res = box["res"]
        assert res.live_summary is not None
        assert res.live_summary.metrics_port == port
        assert len(res.live_summary.snapshots) >= 2
        # At least two successful scrapes, and the residual went down.
        assert len(readings) >= 2
        assert min(readings[1:]) < readings[0]

    def test_alert_stop_aborts_as_stalled(self, hier_7pt_agg, b_7pt):
        # A near-zero Jacobi weight makes no progress: the residual
        # sits flat forever, so the stock stagnation detector must
        # catch it live and abort the run through the stop callback —
        # long before the 100k-corrections budget is spent.
        bad = Multadd(hier_7pt_agg, smoother="jacobi", weight=1e-9)
        cfg = LiveConfig(
            interval_s=0.02,
            alert_stop=frozenset({"stagnation", "divergence"}),
        )
        res = run_threaded(
            bad, b_7pt, tmax=100_000, live=cfg, timeout=60.0,
            divergence_threshold=1e300,
        )
        assert res.live_summary is not None
        assert res.live_summary.aborted_by == "stagnation"
        assert any(a.kind == "stagnation" for a in res.live_summary.alerts)
        assert res.stalled and not res.diverged
        assert res.telemetry.alert_stops >= 1


class TestDistributedLive:
    def test_queue_depth_and_summary(self, solver, b_7pt):
        cfg = LiveConfig(interval_s=0.01)
        res = simulate_distributed(
            solver, b_7pt, tmax=6, seed=3, nthreads_total=8, live=cfg
        )
        assert res.live_summary is not None
        snaps = res.live_summary.snapshots
        assert len(snaps) >= 1
        # The queue-depth hook reports a real (non-NaN) number, and the
        # snapshots carry the simulator's virtual clock.
        assert not math.isnan(snaps[-1].queue_depth)
        assert snaps[-1].clock == "sim"


class TestCliLive:
    def test_solve_live_writes_snapshots_and_top_replays(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        rc = cli_main(
            [
                "solve", "--set", "7pt", "--size", "16", "--run-async",
                "--backend", "threaded", "--tmax", "10",
                "--live", "--snapshots", path, "--snapshot-interval", "0.02",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "live:" in out and "snapshot" in out
        meta, snaps = read_snapshots_jsonl(path)
        assert snaps

        rc = cli_main(["top", path, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro top" in out and "backend=threaded" in out

    def test_live_requires_run_async(self, capsys):
        rc = cli_main(["solve", "--set", "7pt", "--size", "8", "--live"])
        assert rc == 2
        assert "--run-async" in capsys.readouterr().err

    def test_top_missing_file_errors(self, tmp_path, capsys):
        rc = cli_main(["top", str(tmp_path / "nope.jsonl"), "--once"])
        assert rc == 2


def test_start_live_claims_live_buffer_and_summarizes():
    tracer = Tracer(clock="s")
    cfg = LiveConfig(interval_s=0.05)
    session = start_live(cfg, tracer, backend="threaded")
    assert LIVE_WORKER in tracer.buffers()
    summary = session.finish()
    assert len(summary.snapshots) >= 1  # stop() takes a final collect
    assert summary.oneline().startswith("live:")
