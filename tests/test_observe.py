"""Unit tests for the repro.observe layer (tracer, metrics, exporters,
analyzer) — no solver runs; backend integration lives in
tests/test_observe_integration.py."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.core.run import RunResult
from repro.core.writes import AtomicWrite, LockWrite, UnsafeWrite
from repro.observe import (
    Counter,
    Event,
    Histogram,
    Metrics,
    TraceAnalyzer,
    TraceBuffer,
    TracedPolicy,
    Tracer,
    read_events_jsonl,
    read_residual_series,
    residual_series,
    series_from_result,
    to_chrome_trace,
    write_events_jsonl,
    write_residual_series,
)
from repro.resilience import FaultTelemetry


class TestTraceBuffer:
    def test_append_and_order(self):
        buf = TraceBuffer("w", capacity=8)
        for i in range(5):
            buf.record(float(i), "read", 0, a=float(i))
        assert len(buf) == 5
        assert buf.dropped == 0
        assert [r[0] for r in buf.in_order()] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_ring_wraps_and_counts_drops(self):
        buf = TraceBuffer("w", capacity=4)
        for i in range(10):
            buf.record(float(i), "read", 0)
        assert len(buf) == 4
        assert buf.dropped == 6
        # Oldest records fell off; the suffix window survives in order.
        assert [r[0] for r in buf.in_order()] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceBuffer("w", capacity=0)


class TestEvent:
    def test_roundtrip_dict(self):
        ev = Event(t=1.5, kind="write", grid=2, a=0.25, b=3.0, tag="x", worker=2, seq=7)
        assert Event.from_dict(ev.to_dict()) == ev

    def test_sort_key_orders_by_time_then_worker_then_seq(self):
        evs = [
            Event(t=2.0, kind="read", grid=0, worker=0, seq=0),
            Event(t=1.0, kind="read", grid=1, worker=1, seq=3),
            Event(t=1.0, kind="read", grid=1, worker=1, seq=1),
        ]
        ordered = sorted(evs, key=lambda e: e.sort_key)
        assert [(e.t, e.seq) for e in ordered] == [(1.0, 1), (1.0, 3), (2.0, 0)]


class TestMetrics:
    def test_counter_and_gauge(self):
        m = Metrics()
        m.counter("c").inc()
        m.counter("c").inc(2)
        m.gauge("g").set(0.5)
        snap = m.collect()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 0.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("h", (1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # bounds are inclusive upper edges; last bucket is overflow
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert math.isclose(h.mean, (0.5 + 1.0 + 1.5 + 3.0 + 100.0) / 5)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_provider_collected_lazily(self):
        m = Metrics()
        tel = FaultTelemetry()
        m.register_provider("resilience", tel.as_dict)
        tel.bump("rollbacks", 2)  # after registration: provider is live
        snap = m.collect()
        assert snap["providers"]["resilience"]["rollbacks"] == 2


class TestTelemetryShards:
    def test_bump_has_no_lock_overhead_field(self):
        tel = FaultTelemetry()
        tel.bump("injected_crashes")
        d = tel.as_dict()
        assert d["injected_crashes"] == 1
        assert "_lock" not in d

    def test_shard_merge(self):
        main = FaultTelemetry()
        shards = [FaultTelemetry() for _ in range(3)]
        for i, sh in enumerate(shards):
            sh.bump("corrections_rejected", i + 1)
        for sh in shards:
            main.merge(sh)
        assert main.corrections_rejected == 6


class TestTracer:
    def test_record_merges_sorted(self):
        tr = Tracer(clock="steps")
        tr.record("read", 1, 5.0, a=2.0, tag="x")
        tr.record("read", 0, 3.0, a=1.0, tag="x")
        evs = tr.events()
        assert [e.t for e in evs] == [3.0, 5.0]
        assert evs[0].worker == 0 and evs[1].worker == 1

    def test_record_here_uses_thread_registry(self):
        tr = Tracer()
        out = []

        def work(grid):
            tr.register_worker(grid)
            tr.record_here("correct_begin", a=1.0)
            out.append(grid)

        ths = [threading.Thread(target=work, args=(g,)) for g in range(3)]
        for th in ths:
            th.start()
        for th in ths:
            th.join()
        evs = tr.events()
        assert sorted(e.grid for e in evs) == [0, 1, 2]
        assert sorted(e.worker for e in evs) == [0, 1, 2]

    def test_unregistered_thread_gets_thread_buffer(self):
        tr = Tracer()
        tr.record_here("guard", tag="checkpoint")
        (ev,) = tr.events()
        assert ev.grid == -1
        assert str(ev.worker).startswith("thread-")

    def test_dropped_events_total(self, monkeypatch):
        monkeypatch.setattr(Tracer, "CAPACITY", 2)
        tr = Tracer()
        for i in range(5):
            tr.record("read", 0, float(i))
        assert tr.dropped_events == 3
        an = TraceAnalyzer(tr.events(), {"clock": tr.clock})
        assert len(an.events) == 2
        assert "(3 dropped)" in an.oneline(tr.dropped_events)

    def test_summary_digest(self):
        tr = Tracer(clock="steps")
        tr.record("correct_begin", 0, 0.0, a=1.0)
        tr.record("correct_end", 0, 4.0, a=1.0, b=2.0)
        tr.record("residual", 0, 4.0, a=0.5, tag="global")
        tr.record("residual", 0, 9.0, a=0.125, tag="global")
        an = TraceAnalyzer(tr.events(), {"clock": tr.clock})
        assert an.per_grid_counts() == {0: 1}
        assert an.max_staleness() == 2.0
        assert [v for _, v in an.residual_series()] == [0.5, 0.125]
        line = an.oneline(tr.dropped_events)
        assert "1 corrections over 9 steps" in line
        assert "staleness max/mean = 2/2.00" in line


class TestTracedPolicy:
    def _run(self, pol):
        tr = Tracer()
        tr.register_worker(0)
        pol.observer = traced = TracedPolicy(tr, "x")
        x = np.zeros(6)
        pol.add(x, np.ones(6))
        got = pol.read(x)
        pol.add(x, np.ones(6))
        pol.assign_slice(x, 2, 4, np.full(2, 7.0))
        return tr, traced, x, got

    @pytest.mark.parametrize(
        "make", [lambda: LockWrite(6), lambda: AtomicWrite(6, stripe=2), lambda: UnsafeWrite(6)]
    )
    def test_data_movement_matches_inner(self, make):
        tr, traced, x, got = self._run(make())
        np.testing.assert_array_equal(got, np.ones(6))
        expect = np.full(6, 2.0)
        expect[2:4] = 7.0
        np.testing.assert_array_equal(x, expect)

    def test_epochs_and_staleness(self):
        tr, traced, x, got = self._run(LockWrite(6))
        evs = tr.events()
        writes = [e for e in evs if e.kind == "write" and not e.tag.endswith(":assign")]
        reads = [e for e in evs if e.kind == "read"]
        assert [w.b for w in writes] == [-1.0, 0.0]  # pre-read, then fresh
        assert reads[0].a == 1.0  # read observed epoch 1
        assert traced.last_staleness() == 0.0
        assigns = [e for e in evs if e.tag == "x:assign"]
        assert len(assigns) == 1

    @pytest.mark.parametrize(
        "make", [lambda: LockWrite(64), lambda: AtomicWrite(64, stripe=16)], ids=["lock", "atomic"]
    )
    def test_read_epochs_monotone_under_contention(self, make):
        # Threads interleave read and add at a 1 µs switch interval.  The
        # epochs come from the policy's epoch lock, so each thread's read
        # epochs never decrease and never pass the final commit count,
        # whatever the schedule.
        nthreads, reps = 4, 1000
        tr = Tracer()
        pol = make()
        pol.observer = TracedPolicy(tr, "x")
        x, one = np.zeros(64), np.ones(64)

        def work(k):
            tr.register_worker(k)
            for _ in range(reps):
                pol.read(x)
                pol.add(x, one)

        threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert pol.commits == nthreads * reps
        reads = [e for e in tr.events() if e.kind == "read"]
        assert len(reads) == nthreads * reps
        assert TraceAnalyzer(tr.events()).monotone_violations() == 0
        assert max(e.a for e in reads) <= pol.commits


class TestExporters:
    def _events(self):
        return [
            Event(t=0.0, kind="correct_begin", grid=0, a=1.0, worker=0, seq=0),
            Event(t=1.0, kind="correct_end", grid=0, a=1.0, b=1.0, worker=0, seq=1),
            Event(t=1.0, kind="residual", grid=0, a=0.5, tag="global", worker=0, seq=2),
            Event(t=2.0, kind="guard", grid=0, tag="rollback", worker=0, seq=3),
            Event(t=2.5, kind="fault", grid=1, tag="crash", worker=1, seq=0),
            Event(t=3.0, kind="residual", grid=0, a=0.25, tag="global", worker=0, seq=4),
        ]

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_events_jsonl(self._events(), path, meta={"clock": "s", "n": 64})
        meta, evs = read_events_jsonl(path)
        assert meta["clock"] == "s" and meta["n"] == 64 and meta["schema"] == 1
        assert evs == self._events()

    def test_jsonl_header_is_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_events_jsonl(self._events(), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"

    def test_chrome_trace_structure(self):
        doc = to_chrome_trace(self._events(), clock="s")
        evs = doc["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert {"M", "X", "C", "i"} <= phases
        (slice_ev,) = [e for e in evs if e["ph"] == "X"]
        assert slice_ev["ts"] == 0.0 and slice_ev["dur"] == 1.0 * 1e6
        assert slice_ev["args"]["staleness"] == 1.0
        counters = [e for e in evs if e["ph"] == "C"]
        assert [c["args"]["relres"] for c in counters] == [0.5, 0.25]
        instants = {e["name"] for e in evs if e["ph"] == "i"}
        assert instants == {"guard:rollback", "fault:crash"}

    def test_chrome_steps_clock_not_scaled(self):
        doc = to_chrome_trace(self._events(), clock="steps")
        (slice_ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slice_ev["dur"] == 1.0

    def test_residual_series_and_csv(self, tmp_path):
        series = residual_series(self._events(), tag="global")
        assert series == [(1.0, 0.5), (3.0, 0.25)]
        path = tmp_path / "r.csv"
        write_residual_series(series, path)
        assert read_residual_series(path) == series

    def test_series_from_result_shapes(self, hier_7pt_agg, b_7pt):
        from repro.core import ScheduleParams, simulate_semi_async
        from repro.solvers import Multadd

        run = RunResult(
            x=np.zeros(1),
            rel_residual=0.5,
            counts=np.ones(1),
            residual_samples=[(0.1, 1.0), (0.2, 0.5)],
        )
        assert series_from_result(run) == [(0.1, 1.0), (0.2, 0.5)]
        # A model simulation numbers its samples by time instant from 0.
        model = simulate_semi_async(
            Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9),
            b_7pt,
            ScheduleParams(alpha=0.5, updates_per_grid=3),
            track_trace=True,
        )
        series = series_from_result(model)
        assert [t for t, _ in series] == [float(i) for i in range(model.micro_steps)]
        assert series[-1][1] == model.rel_residual


class TestTraceAnalyzer:
    def _analyzer(self):
        evs = []
        seq = 0
        # grid 0: three corrections with staleness 0,1,2; grid 1: one.
        for i, stal in enumerate((0.0, 1.0, 2.0)):
            evs.append(Event(t=2.0 * i, kind="correct_begin", grid=0, a=i + 1.0, worker=0, seq=seq)); seq += 1
            evs.append(Event(t=2.0 * i + 1, kind="correct_end", grid=0, a=i + 1.0, b=stal, worker=0, seq=seq)); seq += 1
            evs.append(Event(t=2.0 * i + 1, kind="residual", grid=0, a=2.0 ** -i, tag="global", worker=0, seq=seq)); seq += 1
        evs.append(Event(t=0.5, kind="correct_begin", grid=1, a=1.0, worker=1, seq=0))
        evs.append(Event(t=4.5, kind="correct_end", grid=1, a=1.0, b=3.0, worker=1, seq=1))
        evs.append(Event(t=0.2, kind="read", grid=0, a=5.0, tag="x", worker=0, seq=90))
        evs.append(Event(t=0.3, kind="read", grid=0, a=4.0, tag="x", worker=0, seq=91))
        return TraceAnalyzer(evs, {"clock": "steps", "n": 128})

    def test_per_grid_counts_and_fairness(self):
        an = self._analyzer()
        assert an.per_grid_counts() == {0: 3, 1: 1}
        fair = an.fairness()
        assert fair["min_share"] == pytest.approx(1 / 3)
        assert 0.0 < fair["jain"] <= 1.0

    def test_staleness_and_delay_violations(self):
        an = self._analyzer()
        assert an.max_staleness() == 3.0
        assert an.delay_violations(2.0) == 1
        assert an.delay_violations(3.0) == 0

    def test_monotone_violation_detected(self):
        an = self._analyzer()
        assert an.monotone_violations() == 1  # epoch 5 then 4 on (0, "x")

    def test_psi_sizes_count_overlap(self):
        an = self._analyzer()
        # grid 1's correction spans all of grid 0's → |Ψ| at grid-0
        # commits is 2; the last commit (grid 1) sees only itself left.
        assert an.psi_sizes() == [2, 2, 2, 1]

    def test_conformance_report_bridges(self):
        an = self._analyzer()
        rep = an.conformance(staleness_bound=4, n=128)
        assert rep.monotone_violations == 1
        assert rep.max_staleness == 3
        assert rep.staleness_samples == 4
        assert rep.n == 128
        assert rep.policy == "trace[steps]"
        assert rep.torn_reads == 0

    def test_report_sections(self):
        text = self._analyzer().report(delta=3.0)
        assert "corrections: 4 total" in text
        assert "monotone reads: VIOLATED" in text
        assert "OK (0 violations)" in text
        assert "residual vs time" in text
