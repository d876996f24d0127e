"""Backend integration tests for repro.observe.

Covers the trace-determinism satellite (engine fixed-seed streams,
threaded merge consistency), the analyzer's model-conformance bridge,
the trace digest of all three backends, and CLI smokes of ``repro
trace run/report/export`` and ``repro solve --trace``.
"""

import json
import re

import pytest

from repro.core.engine import run_async_engine
from repro.core.threaded import run_threaded
from repro.distributed import simulate_distributed
from repro.observe import TraceAnalyzer, Tracer, read_events_jsonl
from repro.solvers import Multadd


@pytest.fixture(scope="module")
def solver(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


def engine_events(solver, b, **kw):
    tracer = Tracer(clock="steps")
    res = run_async_engine(solver, b, tmax=6, seed=3, tracer=tracer, **kw)
    return res, tracer


class TestEngineTracing:
    def test_fixed_seed_streams_identical(self, solver, b_7pt):
        _, t1 = engine_events(solver, b_7pt)
        _, t2 = engine_events(solver, b_7pt)
        e1, e2 = t1.events(), t2.events()
        # The algorithmic stream is bit-identical; per-kernel timing
        # events carry measured wall seconds (field `a`), so they are
        # compared modulo the measured duration.
        algo1 = [e for e in e1 if e.kind != "kernel"]
        algo2 = [e for e in e2 if e.kind != "kernel"]
        assert algo1 == algo2
        assert len(algo1) > 0
        k1 = [(e.t, e.grid, e.b, e.tag) for e in e1 if e.kind == "kernel"]
        k2 = [(e.t, e.grid, e.b, e.tag) for e in e2 if e.kind == "kernel"]
        assert k1 == k2
        assert len(k1) > 0

    def test_counts_match_result(self, solver, b_7pt):
        res, tracer = engine_events(solver, b_7pt)
        ends = {}
        for e in tracer.events():
            if e.kind == "correct_end":
                ends[e.grid] = ends.get(e.grid, 0) + 1
        assert ends == {k: c for k, c in enumerate(res.counts) if c}

    def test_residual_events_match_trace(self, solver, b_7pt):
        tracer = Tracer(clock="steps")
        res = run_async_engine(
            solver, b_7pt, tmax=6, seed=3, track_trace=True, tracer=tracer
        )
        rel = [e.a for e in tracer.events() if e.kind == "residual"]
        assert rel == [v for _, v in res.residual_samples]

    def test_summary_attached_and_optional(self, solver, b_7pt):
        res, tracer = engine_events(solver, b_7pt)
        an = TraceAnalyzer(tracer.events(), {"clock": tracer.clock})
        assert an.clock == "steps"
        assert sum(an.per_grid_counts().values()) == sum(res.counts)
        # Tracing is optional: the same run without a tracer lands on
        # the same iterate.
        bare = run_async_engine(solver, b_7pt, tmax=6, seed=3)
        assert (bare.x == res.x).all() and (bare.counts == res.counts).all()

    def test_staleness_is_bounded_by_epochs(self, solver, b_7pt):
        res, tracer = engine_events(solver, b_7pt)
        total = sum(res.counts)
        for e in tracer.events():
            if e.kind == "correct_end":
                assert -1.0 <= e.b <= total


class TestThreadedTracing:
    @pytest.fixture(scope="class")
    def run(self, solver, b_7pt):
        tracer = Tracer(clock="s")
        res = run_threaded(solver, b_7pt, tmax=10, write="lock", tracer=tracer)
        return res, tracer

    def test_summary_attached(self, run):
        res, tracer = run
        an = TraceAnalyzer(tracer.events(), {"clock": tracer.clock})
        assert an.clock == "s"
        assert sum(an.per_grid_counts().values()) == sum(res.counts)

    def test_merged_stream_happens_before(self, run):
        """Per grid, the merged stream alternates begin/end and carries
        monotone non-decreasing timestamps — the per-worker buffers
        merge into a consistent happens-before order."""
        res, tracer = run
        open_correction = {}
        last_t = {}
        ends = {}
        for e in tracer.events():
            if e.kind not in ("correct_begin", "correct_end"):
                continue
            assert e.t >= last_t.get(e.grid, 0.0)
            last_t[e.grid] = e.t
            if e.kind == "correct_begin":
                assert not open_correction.get(e.grid, False)
                open_correction[e.grid] = True
            else:
                assert open_correction.get(e.grid, False)
                open_correction[e.grid] = False
                ends[e.grid] = ends.get(e.grid, 0) + 1
        assert not any(open_correction.values())
        assert ends == {k: c for k, c in enumerate(res.counts) if c}

    def test_no_monotone_read_violations(self, run):
        _, tracer = run
        an = TraceAnalyzer(tracer.events(), {"clock": "s"})
        assert an.monotone_violations() == 0

    def test_lock_waits_recorded(self, run):
        _, tracer = run
        writes = [e for e in tracer.events() if e.kind == "write"]
        assert writes
        assert all(e.a >= 0.0 for e in writes)

    def test_global_residual_from_monitor(self, solver, b_7pt):
        tracer = Tracer(clock="s")
        run_threaded(
            solver, b_7pt, tmax=10, monitor_interval=0.02, tracer=tracer
        )
        globals_ = [
            e for e in tracer.events() if e.kind == "residual" and e.tag == "global"
        ]
        assert globals_
        assert all(e.worker == "monitor" for e in globals_)


class TestDistributedTracing:
    @pytest.fixture(scope="class")
    def run(self, solver, b_7pt):
        tracer = Tracer(clock="sim")
        res = simulate_distributed(solver, b_7pt, tmax=6, seed=11, tracer=tracer)
        return res, tracer

    def test_summary_attached(self, run):
        res, tracer = run
        an = TraceAnalyzer(tracer.events(), {"clock": tracer.clock})
        assert an.clock == "sim"
        assert sum(an.per_grid_counts().values()) == sum(res.counts)

    def test_fixed_seed_streams_identical(self, solver, b_7pt):
        t1, t2 = Tracer(clock="sim"), Tracer(clock="sim")
        simulate_distributed(solver, b_7pt, tmax=5, seed=11, tracer=t1)
        simulate_distributed(solver, b_7pt, tmax=5, seed=11, tracer=t2)
        # Algorithmic stream is deterministic; `kernel` timing events
        # carry measured wall seconds (field `a`), compared without it.
        algo1 = [e for e in t1.events() if e.kind != "kernel"]
        algo2 = [e for e in t2.events() if e.kind != "kernel"]
        assert algo1 == algo2
        k1 = [(e.t, e.grid, e.b, e.tag) for e in t1.events() if e.kind == "kernel"]
        k2 = [(e.t, e.grid, e.b, e.tag) for e in t2.events() if e.kind == "kernel"]
        assert k1 == k2

    def test_message_events_present(self, run):
        _, tracer = run
        tags = {e.tag for e in tracer.events() if e.kind == "msg"}
        assert "send" in tags and "recv" in tags

    def test_conformance_report_passes(self, run):
        res, tracer = run
        an = TraceAnalyzer(tracer.events(), {"clock": "sim", "n": 512})
        rep = an.conformance(staleness_bound=max(4.0, an.max_staleness()))
        assert rep.passed, rep.summary()
        assert rep.staleness_samples == sum(res.counts)


class TestAnalyzerOnRealTrace:
    def test_psi_and_fairness_from_engine(self, solver, b_7pt):
        _, tracer = engine_events(solver, b_7pt, track_trace=True)
        an = TraceAnalyzer(tracer.events(), {"clock": "steps"})
        psi = an.psi_sizes()
        assert psi and all(s >= 1 for s in psi)
        fair = an.fairness()
        assert 0.0 < fair["jain"] <= 1.0
        assert "residual vs time" in an.report()


class TestCliTrace:
    def test_run_report_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        argv = [
            "trace", "run", "--set", "7pt", "--size", "8",
            "--backend", "threaded", "--tmax", "6", "--out", str(out),
        ]
        assert main(argv) == 0
        meta, evs = read_events_jsonl(out)
        assert meta["backend"] == "threaded" and meta["clock"] == "s"
        assert evs
        capsys.readouterr()

        assert main(["trace", "report", str(out)]) == 0
        rep = capsys.readouterr().out
        assert "corrections:" in rep and "residual vs time" in rep

        chrome = tmp_path / "run.chrome.json"
        csv = tmp_path / "run.csv"
        assert (
            main([
                "trace", "export", str(out),
                "--chrome", str(chrome), "--residuals", str(csv),
            ])
            == 0
        )
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert csv.read_text().startswith("t,relres")

    def test_solve_trace_digest_matches_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "solve.jsonl"
        argv = [
            "solve", "--set", "7pt", "--size", "6", "--run-async",
            "--backend", "engine", "--tmax", "6", "--trace", str(out),
        ]
        assert main(argv) == 0
        (line,) = [
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("trace: wrote")
        ]
        m = re.search(r"trace: (\d+) events .* (\d+) corrections over", line)
        _, evs = read_events_jsonl(out)
        an = TraceAnalyzer.from_file(out)
        assert int(m.group(1)) == len(evs) == len(an.events) > 0
        ends = sum(1 for e in evs if e.kind == "correct_end")
        assert int(m.group(2)) == ends == sum(an.per_grid_counts().values()) > 0

    @pytest.mark.parametrize("live", [[], ["--live"]], ids=["plain", "live"])
    @pytest.mark.parametrize("backend", ["engine", "threaded"])
    def test_solve_trace_digest_counts_correcting_workers(
        self, tmp_path, capsys, backend, live
    ):
        # 7pt 8³ has two grids; the run-end kernel events and the live
        # collector's alerts are filed under buffers of their own.
        from repro.cli import main

        argv = [
            "solve", "--set", "7pt", "--size", "8", "--run-async",
            "--backend", backend, "--tmax", "6",
            "--trace", str(tmp_path / "solve.jsonl"), *live,
        ]
        assert main(argv) == 0
        assert "from 2 worker(s)" in capsys.readouterr().out

    def test_solve_trace_requires_async(self, capsys):
        from repro.cli import main

        rc = main([
            "solve", "--set", "7pt", "--size", "8", "--trace", "/tmp/x.jsonl",
        ])
        assert rc != 0
