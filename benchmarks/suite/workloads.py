"""The four benchmark workloads.

Every workload drives repro's public API with inputs generated from the
run's seed, times the calls from outside, recomputes ``||b - A x|| /
||b||`` from every returned iterate, and records its samples on a
:class:`Run`.  Each solve runs at the ``repro solve`` defaults (Multadd,
omega-Jacobi 0.9, criterion 2, local-res, lock-write, alpha 0.5, HMIS
with one aggressive level) to a fixed accuracy of 1e-8.

Fixed-accuracy protocol for the engine: ``run_async_engine`` restarts
every grid from ``r = b`` whatever ``x0`` it is given, so a solve cannot
be continued in rounds.  Instead an untimed probe runs criterion 2 with
checkpoints at every V-cycle and finds ``c*``, the first V-cycle count
whose relative residual is at most the tolerance; the timed run then
uses ``tmax=c*`` (see :func:`solve_to_tol`).

A closed-loop workload runs one operation after another until its
``seconds`` are spent.  In a traced run each input runs twice, traced
and untraced in alternating order, so the same run also measures the
tracing overhead; end-to-end samples always come from untraced
operations.
"""

from __future__ import annotations

import math
import pickle
import resource
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import bootstrap  # noqa: F401  (puts this checkout's src/ on sys.path)
import numpy as np
from reference import REF_NOMINAL_S, Reference
from spans import Tracer, self_times

from repro import kernels
from repro.amg import SetupOptions
from repro.amg import hierarchy as amg_hierarchy
from repro.core import engine, parallel
from repro.kernels import setupcache
from repro.problems import build_problem, random_rhs
from repro.serve import JobSpec, ServeConfig, SolveServer
from repro.serve import batch as serve_batch
from repro.serve import jobs as serve_jobs
from repro.serve import server as serve_server
from repro.solvers import Multadd

__all__ = ["WORKLOADS", "Run", "LAYERS", "TOL"]

TOL = 1e-8
SETUP = SetupOptions()
SOLVER_KW: Dict[str, Any] = {"smoother": "jacobi", "weight": 0.9}
ENGINE_KW: Dict[str, Any] = {
    "rescomp": "local",
    "write": "lock",
    "criterion": "criterion2",
    "alpha": 0.5,
}
PROBE_VCYCLES = 60
#: Closed loops time the reference loop after the first operation that
#: ends this long after the last timing.
CALIBRATE_EVERY_S = 0.25
#: Right-hand sides per cold_solve problem, probed before measuring.
COLD_RHS_POOL = 4
#: Set-ups per procs_solve operation; their median is its ``setup_s``.
PROCS_SETUP_REPS = 3
#: procs_solve's time to tolerance slows with about the square root of
#: the reference loop's slowdown: most of it is two worker processes
#: starting and importing, which the loop does not gauge.  Regressing
#: log time on log loop time gave exponents of 0.16 to 0.54 over 40 to
#: 130 operations; scaled fully, the run medians read higher on a fast
#: host than on a slow one.
PROCS_SENSITIVITY = 0.5
#: serve_mixed times the reference loop between segments this long.
SERVE_SEGMENT_S = 1.0

#: Layers whose self times partition a traced operation's wall time.
LAYERS = (
    "bench.self_s",
    "amg.strength_s",
    "amg.coarsen_s",
    "amg.coarsen_aggressive_s",
    "amg.interp_s",
    "amg.interp_multipass_s",
    "amg.galerkin_s",
    "amg.self_s",
    "setupcache.fingerprint_s",
    "solvers.build_s",
    "solvers.correction_self_s",
    "kernels.self_s",
    "engine.self_s",
    "procs.self_s",
    "procs.bundle_s",
    "serve.queue_s",
    "serve.admit_s",
    "serve.service_self_s",
    "serve.solve_batch_self_s",
)

#: (owner, attribute its caller looks up, layer) for one wrapper
Point = Tuple[Any, str, str]


# ----------------------------------------------------------------------
# Sample statistics and checks
# ----------------------------------------------------------------------
def summarize(samples: Sequence[float], q: float = 0.5) -> Dict[str, Any]:
    """The ``q`` quantile of ``samples`` (default the median), the sample
    count, and a distribution-free 95% interval from order statistics
    (``ci``)."""
    xs = sorted(float(v) for v in samples)
    n = len(xs)
    half = 1.96 * math.sqrt(n * q * (1.0 - q))
    lo = min(n - 1, max(0, math.floor(n * q - half)))
    hi = min(n - 1, max(0, math.ceil(n * q + half) - 1))
    return {"value": float(np.quantile(xs, q)), "n": n, "ci": [xs[lo], xs[hi]],
            "stat": f"p{round(q * 100)}", "samples": xs}


def rel_residual(A: Any, x: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


def residual_bytes(A: Any) -> int:
    """Bytes one full-range residual ``b - A x`` moves, computed from
    the CSR arrays plus x, b and the output each touched once."""
    return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 3 * 8 * A.shape[0])


def hierarchy_shape(h: Any) -> Dict[str, Any]:
    return {
        "levels": h.nlevels,
        "rows": [lv.n for lv in h.levels],
        "nnz": [lv.nnz for lv in h.levels],
        "operator_complexity": round(h.operator_complexity(), 12),
    }


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Run:
    """Seed, time budget, tracer, and everything a workload records."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = trace
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.counts: Dict[str, Any] = {}
        self.checks: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.t_origin = perf_counter()
        # Traced operations: root spans, kernel stats, per-op counters.
        self.roots: List[int] = []
        self.kernel_delta: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.per_op: Dict[str, List[float]] = defaultdict(list)
        self.expected_spans: set = set()
        self.trace_info: Dict[str, Any] = {}
        self._in_traced_op = False
        self._reference = Reference()
        self.reference_s: List[float] = []
        #: report-only summaries (no bound), with their units
        self.extra: Dict[str, Dict[str, Any]] = {}
        self._peak_since = "process start"

    def reference_time(self, passes: int = 1) -> float:
        """Seconds of one reference pass, now (see :class:`Reference`)."""
        return self._reference(passes)

    def calibrate(self, passes: int = 1) -> float:
        """:meth:`reference_time`, also kept for the run's median, which
        scales the times a workload did not scale one by one."""
        t = self.reference_time(passes)
        self.reference_s.append(t)
        return t

    def derive(self, *key: int) -> int:
        """A 32-bit seed derived from the run seed and ``key``."""
        return int(np.random.SeedSequence([self.seed, *key]).generate_state(1)[0])

    # -- correctness ----------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "detail": ""})
        entry["passed" if ok else "failed"] += 1
        if not ok and not entry["detail"]:
            entry["detail"] = detail
        return ok

    def solved(self, name: str, A: Any, x: np.ndarray, b: np.ndarray) -> None:
        """Count one attempted solve; it fails unless the relative
        residual recomputed from ``x`` meets the tolerance."""
        rel = rel_residual(A, x, b)
        self.attempted += 1
        if not self.check(f"{name}.residual", bool(rel <= TOL), f"rel residual {rel:.3e}"):
            self.failed += 1

    def exact(self, name: str, value: Any) -> None:
        """Record an exact count; recording a different value fails."""
        if name in self.counts:
            self.check(f"exact.{name}", self.counts[name] == value,
                       f"{self.counts[name]!r} != {value!r}")
        else:
            self.counts[name] = value

    # -- metrics --------------------------------------------------------
    def metric(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "n": n}

    def timing(self, name: str, samples: Sequence[float], q: float = 0.5,
               raw: Optional[Sequence[float]] = None, unit: Optional[str] = None) -> None:
        """Summarize samples (see :func:`summarize`).  ``raw`` marks
        samples already scaled to reference speed one by one, and gives
        their unscaled values; ``unit`` files the summary as report-only."""
        summary = summarize(samples, q)
        if raw is not None:
            summary["raw"] = summarize(raw, q)["value"]
            summary["calibrated"] = True
        if unit is None:
            self.metrics[name] = summary
        else:
            self.extra[name] = {**summary, "unit": unit}

    def start_measuring(self) -> None:
        """Called where the measured phase starts: resets this process's
        peak resident size (Linux ``clear_refs``), so that the set-up
        before it does not count.  The peak of building the first 27pt
        28^3 hierarchy was 148 or 159 MB from run to run; the peak of the
        procs operations after it, 113-116 MB."""
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
            self._peak_since = "measured phase"
        except OSError:
            pass

    def peak_rss(self) -> None:
        """The larger of this process's peak since :meth:`start_measuring`
        and that of its largest joined child (a procs worker); a traced
        run also reports the children's peak on its own."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self._peak_since == "measured phase":
            with open("/proc/self/status") as fh:
                own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.metrics["peak_rss_mb"] = {"value": max(own, children), "n": 1, "since": self._peak_since}
        if self.traced:
            self.metric("procs.worker_peak_rss_mb", children)

    # -- tracing --------------------------------------------------------
    def span(self, name: str, layer: str) -> Any:
        if self.tracer is None or not self._in_traced_op:
            return nullcontext()
        return self.tracer.span(name, layer)

    def install(self, points: Sequence[Point], tag: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
        assert self.tracer is not None
        for owner, attr, layer in points:
            self.expected_spans.add(self.tracer.install(owner, attr, layer, tag))

    def wrap_correction(self, solver: Any) -> None:
        """Trace ``solver.correction`` (once per solver instance)."""
        if not hasattr(vars(solver).get("correction"), "__wrapped__"):
            self.install([(solver, "correction", "solvers.correction_self_s")])

    @contextmanager
    def op(self, traced: bool, points: Sequence[Point], op_id: int) -> Iterator[None]:
        """One closed-loop operation; a traced one installs ``points``,
        turns kernel stats on and opens the root span."""
        if not traced:
            yield
            return
        tr = self.tracer
        assert tr is not None
        was_on = kernels.enable_stats(True)
        before = kernels.stats()
        self.install(points)
        tr.set_op(op_id)
        self._in_traced_op = True
        try:
            with tr.span("bench.op", "bench.self_s") as root:
                yield
            self.roots.append(root.sid)
        finally:
            self._in_traced_op = False
            tr.set_op(None)
            tr.uninstall()
            for name, (calls, secs) in kernels.stats_delta(before).items():
                self.kernel_delta[name][0] += calls
                self.kernel_delta[name][1] += secs
            kernels.enable_stats(was_on)

    def closed_loop(
        self,
        prepare: Callable[[int], Any],
        operate: Callable[[Any, int, bool], Dict[str, float]],
        min_ops: int = 1,
        sensitivity: Optional[Dict[str, float]] = None,
    ) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
        """Run operations until ``seconds`` are spent (at least ``min_ops``).

        ``operate`` returns its time samples by key, always with
        ``op_s``, the wall time of its root span.  Returns the untraced
        operations' samples scaled to reference speed, and the same
        samples unscaled.  The reference loop is timed about every
        ``CALIBRATE_EVERY_S``, after an operation, and scales the
        operations since the last timing by the mean of the two, raised
        to the key's ``sensitivity`` (default 1).  A traced run also
        records the traced over untraced ``op_s`` of each input.
        """
        exponent = sensitivity or {}
        samples: Dict[str, List[float]] = defaultdict(list)
        raw: Dict[str, List[float]] = defaultdict(list)
        self.start_measuring()
        deadline = perf_counter() + self.seconds
        ref, t_ref = self.calibrate(), perf_counter()
        pending: List[Dict[str, float]] = []

        def flush() -> None:
            nonlocal ref, t_ref
            # About 2% of the time goes to the reference loop.
            ref_next = self.calibrate(min(8, max(1, round(0.02 * (perf_counter() - t_ref) / REF_NOMINAL_S))))
            scale = REF_NOMINAL_S / (0.5 * (ref + ref_next))
            for got in pending:
                for key, v in got.items():
                    samples[key].append(v * scale ** exponent.get(key, 1.0))
                    raw[key].append(v)
            pending.clear()
            ref, t_ref = ref_next, perf_counter()

        i = 0
        while i < min_ops or perf_counter() < deadline:
            inp = prepare(i)
            order = ((False, True) if i % 2 == 0 else (True, False)) if self.traced else (False,)
            got = {traced: operate(inp, i, traced) for traced in order}
            if self.traced:
                self.per_op["trace.overhead_ratio"].append(got[True]["op_s"] / got[False]["op_s"])
            pending.append(got[False])
            if perf_counter() - t_ref >= CALIBRATE_EVERY_S:
                flush()
            i += 1
        if pending:
            flush()
        return samples, raw

    # -- per-layer summaries -------------------------------------------
    def layer_metrics(self, per_op: Optional[List[Tuple[float, Dict[str, float]]]] = None) -> None:
        """Per-operation layer self times, kernel stats and counters of
        the traced operations.

        ``per_op`` holds (wall, layers) pairs assembled by an open-loop
        workload; closed loops derive them from their root spans.
        """
        assert self.tracer is not None
        if per_op is None:
            by_root = self_times(self.tracer.spans)
            dur = {s.sid: s.dur for s in self.tracer.spans}
            per_op = [(dur[r], by_root[r]) for r in self.roots]
        nops = max(1, len(per_op))
        totals: Counter = Counter()
        wall = 0.0
        for w, layers in per_op:
            wall += w
            totals.update(layers)
        for layer in LAYERS:
            self.metric(layer, totals.get(layer, 0.0) / nops, len(per_op))
        self.metric("trace.wall_s", wall / nops, len(per_op))
        unknown = sorted(set(totals) - set(LAYERS))
        self.check("trace.layers_known", not unknown, f"unlisted layers {unknown}")
        lowest = min(totals.values(), default=0.0)
        self.check("trace.self_times_nonnegative", lowest > -1e-4 * nops,
                   f"negative self time {lowest:.3e}")
        ratio = sum(totals.values()) / wall if wall > 0 else 0.0
        self.trace_info["layer_sum_ratio"] = ratio
        self.check("trace.layers_sum_to_wall", abs(ratio - 1.0) <= 0.05, f"ratio {ratio:.4f}")
        fired = {s.name for s in self.tracer.spans}
        missing = sorted(self.expected_spans - fired)
        self.check("trace.every_wrapper_fired", not missing, f"never fired: {missing}")
        for name in kernels.KERNEL_NAMES + kernels.BLOCK_KERNEL_NAMES:
            calls, secs = self.kernel_delta.get(name, (0, 0.0))
            self.metric(f"kernels.{name}.calls", calls / nops, len(per_op))
            self.metric(f"kernels.{name}.s", secs / nops, len(per_op))
        rr_s = self.kernel_delta.get("range_residual", (0, 0.0))[1]
        rr_bytes = sum(self.per_op.pop("range_residual_bytes", []))
        self.metric("kernels.range_residual.gb_per_s", rr_bytes / rr_s / 1e9 if rr_s else 0.0)
        durs = [s.dur for s in self.tracer.spans if s.layer == "solvers.correction_self_s"]
        self.metric("solvers.correction_s", float(np.mean(durs)) if durs else 0.0, len(durs))
        hits = sum(self.per_op.pop("setupcache.hits", []))
        misses = sum(self.per_op.pop("setupcache.misses", []))
        self.metric("setupcache.hits", hits / nops)
        self.metric("setupcache.misses", misses / nops)
        self.metric("setupcache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0)
        for name, values in self.per_op.items():
            stat = np.median if name.endswith("ratio") else np.mean
            self.metric(name, float(stat(values)), len(values))


# ----------------------------------------------------------------------
# Shared pieces of the solve workloads
# ----------------------------------------------------------------------
AMG: List[Point] = [
    (amg_hierarchy, "classical_strength", "amg.strength_s"),
    (amg_hierarchy, "hmis_coarsening", "amg.coarsen_s"),
    (amg_hierarchy, "aggressive_coarsening", "amg.coarsen_aggressive_s"),
    (amg_hierarchy, "classical_interpolation", "amg.interp_s"),
    (amg_hierarchy, "multipass_interpolation", "amg.interp_multipass_s"),
    (amg_hierarchy, "galerkin_product", "amg.galerkin_s"),
    (setupcache, "setup_hierarchy", "amg.self_s"),
]
FINGERPRINT: Point = (setupcache, "problem_fingerprint", "setupcache.fingerprint_s")
ENGINE: List[Point] = [
    (engine, "run_async_engine", "engine.self_s"),
    (kernels, "range_residual", "kernels.self_s"),
    (kernels, "residual_norm", "kernels.self_s"),
]


def probe_cstar(run: Run, solver: Any, b: np.ndarray, seed: int, label: str) -> int:
    """Untimed: the first V-cycle count whose checkpoint residual is at
    most TOL.

    Under criterion 2 a shorter run is a prefix of a longer one, so a
    probe to 40 V-cycles finds the same ``c*`` as one to 60 whenever it
    finds one at all; the longer probe only runs when it does not.
    """
    for tmax in (40, PROBE_VCYCLES):
        res = engine.run_async_engine(
            solver, b, tmax=tmax, seed=seed, checkpoints=list(range(1, tmax + 1)), **ENGINE_KW
        )
        cstar = next((c for c, rel, _ in res.checkpoint_results if rel <= TOL), None)
        if cstar is not None:
            break
    run.check(f"{label}.probe_reaches_tol", cstar is not None,
              f"not at {TOL} within {PROBE_VCYCLES} V-cycles")
    return PROBE_VCYCLES if cstar is None else cstar


def warm_setup(run: Run, A: Any) -> Tuple[Any, float]:
    """Matrix in hand to ready to solve: setup-cache lookup + solver build."""
    t0 = perf_counter()
    hier = setupcache.cached_setup_hierarchy(A, SETUP)
    with run.span("Multadd.__init__", "solvers.build_s"):
        solver = Multadd(hier, **SOLVER_KW)
    return solver, perf_counter() - t0


def solve_to_tol(run: Run, solver: Any, case: Dict[str, Any], traced: bool) -> Tuple[Any, float]:
    """Timed engine solve of ``case`` with ``tmax=c*``; returns the
    result and the solve's seconds.

    The probe's checkpoint is taken when the slowest grid reaches
    ``c*``; a run stopped at ``tmax=c*`` also commits the corrections
    in flight at that moment, which moves the final residual by a few
    percent either way.  When that lands above the tolerance, ``c*`` was
    one V-cycle short: it is raised for good and the solve timed again,
    so only a solve that reached the tolerance counts.
    """
    if traced:
        run.wrap_correction(solver)
    while True:
        t0 = perf_counter()
        res = engine.run_async_engine(solver, case["b"], tmax=case["cstar"], seed=case["sched"],
                                      **ENGINE_KW)
        seconds = perf_counter() - t0
        if traced:
            corrections = float(res.counts.sum())
            run.per_op["engine.micro_steps"].append(res.micro_steps)
            run.per_op["solvers.corrections"].append(corrections)
            # Local-res computes one full residual per correction.
            run.per_op["range_residual_bytes"].append(corrections * residual_bytes(solver.A))
        if case["cstar"] >= PROBE_VCYCLES or rel_residual(case["A"], res.x, case["b"]) <= TOL:
            break
        case["cstar"] += 1
    if traced:
        run.per_op["solvers.vcycles_to_tol"].append(case["cstar"])
    return res, seconds


def count_cache(run: Run, before: Dict[str, int], traced: bool) -> None:
    if traced:
        after = setupcache.setup_cache_info()
        run.per_op["setupcache.hits"].append(after["hits"] - before["hits"])
        run.per_op["setupcache.misses"].append(after["misses"] - before["misses"])


def record_shape(run: Run, label: str, h: Any) -> None:
    shape = hierarchy_shape(h)
    run.exact(f"{label}.hierarchy", shape)
    if "amg.levels" not in run.metrics:  # the workload's first problem
        run.metric("amg.levels", shape["levels"])
        run.metric("amg.operator_complexity", shape["operator_complexity"])
        run.metric("amg.coarse_rows", shape["rows"][-1])


def finish_closed_loop(run: Run, scaled: Tuple[Dict[str, List[float]], Dict[str, List[float]]]) -> None:
    samples, raw = scaled
    run.timing("setup_s", samples["setup_s"], raw=raw["setup_s"])
    run.timing("time_to_tol_ms", samples["time_to_tol_ms"], raw=raw["time_to_tol_ms"])
    run.timing("time_to_tol_ms_p90", samples["time_to_tol_ms"], q=0.9, raw=raw["time_to_tol_ms"],
               unit="ms")
    if run.traced:
        run.layer_metrics()


# ----------------------------------------------------------------------
# cold_solve
# ----------------------------------------------------------------------
def cold_solve(run: Run, problems: Sequence[Tuple[str, int]] = (("5pt", 96), ("27pt", 20))) -> None:
    """Each operation clears the setup cache, then sets up and solves
    every problem to tolerance: the cold ``repro solve`` users pay for.

    Each problem has ``COLD_RHS_POOL`` seeded right-hand sides and
    schedules, probed for ``c*`` before the measured phase; operation
    ``i`` solves the ``i % COLD_RHS_POOL``-th of each.  The probes are
    untimed work: inside the phase they would take about a third of it
    (15 operations per 25 s run instead of 23)."""
    pool: List[List[Dict[str, Any]]] = []
    for k, (name, size) in enumerate(problems):
        A = build_problem(name, size).A
        setupcache.clear_setup_cache()
        base = Multadd(setupcache.cached_setup_hierarchy(A, SETUP), **SOLVER_KW)
        label = f"{name}_{size}"
        record_shape(run, label, base.hierarchy)
        cases = []
        for j in range(COLD_RHS_POOL):
            case = {"label": label, "A": A, "b": random_rhs(A.shape[0], seed=run.derive(0, k, j)),
                    "sched": run.derive(1, k, j)}
            case["cstar"] = probe_cstar(run, base, case["b"], case["sched"], label)
            cases.append(case)
        pool.append(cases)
    points = AMG + [FINGERPRINT] + ENGINE

    def prepare(i: int) -> List[Dict[str, Any]]:
        return [cases[i % COLD_RHS_POOL] for cases in pool]

    def operate(cases: List[Dict[str, Any]], i: int, traced: bool) -> Dict[str, float]:
        setupcache.clear_setup_cache()
        before = setupcache.setup_cache_info()
        results = []
        setup_s = solve_s = 0.0
        with run.op(traced, points, i):
            t0 = perf_counter()
            for case in cases:
                solver, seconds = warm_setup(run, case["A"])
                setup_s += seconds
                res, seconds = solve_to_tol(run, solver, case, traced)
                solve_s += seconds
                results.append((solver, res))
            wall = perf_counter() - t0
        count_cache(run, before, traced)
        for case, (solver, res) in zip(cases, results):
            run.solved("cold_solve", case["A"], res.x, case["b"])
            run.exact(f"{case['label']}.hierarchy", hierarchy_shape(solver.hierarchy))
            run.exact(f"{case['label']}.rhs{i % COLD_RHS_POOL}.c_star", case["cstar"])
            run.exact(f"{case['label']}.rhs{i % COLD_RHS_POOL}.micro_steps", res.micro_steps)
        return {"op_s": wall, "time_to_tol_ms": (setup_s + solve_s) * 1e3, "setup_s": setup_s}

    finish_closed_loop(run, run.closed_loop(prepare, operate))


# ----------------------------------------------------------------------
# warm_solve
# ----------------------------------------------------------------------
def warm_solve(run: Run, problem: Tuple[str, int] = ("5pt", 96)) -> None:
    """Solves against one warm hierarchy, each with a new seeded RHS and
    schedule: the paper's repeated-solve regime."""
    A = build_problem(*problem).A
    setupcache.clear_setup_cache()
    base = Multadd(setupcache.cached_setup_hierarchy(A, SETUP), **SOLVER_KW)
    record_shape(run, f"{problem[0]}_{problem[1]}", base.hierarchy)
    points = [FINGERPRINT] + ENGINE

    def prepare(i: int) -> Dict[str, Any]:
        case = {"A": A, "b": random_rhs(A.shape[0], seed=run.derive(0, i)), "sched": run.derive(1, i)}
        case["cstar"] = probe_cstar(run, base, case["b"], case["sched"], "warm_solve")
        return case

    def operate(case: Dict[str, Any], i: int, traced: bool) -> Dict[str, float]:
        before = setupcache.setup_cache_info()
        with run.op(traced, points, i):
            t0 = perf_counter()
            solver, setup_s = warm_setup(run, A)
            res, solve_s = solve_to_tol(run, solver, case, traced)
            wall = perf_counter() - t0
        count_cache(run, before, traced)
        run.solved("warm_solve", A, res.x, case["b"])
        if i < 5:
            run.exact(f"rhs{i}.c_star", case["cstar"])
            run.exact(f"rhs{i}.micro_steps", res.micro_steps)
        return {"op_s": wall, "time_to_tol_ms": (setup_s + solve_s) * 1e3, "setup_s": setup_s}

    finish_closed_loop(run, run.closed_loop(prepare, operate))


# ----------------------------------------------------------------------
# procs_solve
# ----------------------------------------------------------------------
def procs_solve(
    run: Run,
    problem: Tuple[str, int] = ("27pt", 28),
    workers: Tuple[int, int] = (1, 2),
    tmax: int = 60,
    monitor_s: float = 0.02,
) -> None:
    """``run_procs`` with two workers over a warm hierarchy; a traced run
    alternates one and two workers for the speed-up.

    Each operation sets up ``PROCS_SETUP_REPS`` times and takes the
    median as its ``setup_s``: a single 12 ms set-up right after a procs
    run gave 95% intervals of the run's median up to 10% wide.  Time
    to tolerance is that set-up plus the call to the first monitor
    sample at or below the tolerance.  The monitor's clock starts inside
    the call, once the bundle and the shared segment exist; that lead is
    the call's wall time minus the run's own ``wall_time``, which also
    takes in the few milliseconds of teardown after the workers join.
    """
    A = build_problem(*problem).A
    setupcache.clear_setup_cache()
    base = Multadd(setupcache.cached_setup_hierarchy(A, SETUP), **SOLVER_KW)
    record_shape(run, f"{problem[0]}_{problem[1]}", base.hierarchy)
    bundle = parallel.SetupBundle.from_solver(base)
    run.exact("bundle_bytes", len(pickle.dumps(bundle)))
    points = [
        FINGERPRINT,
        (parallel, "run_procs", "procs.self_s"),
        (parallel.SetupBundle, "from_solver", "procs.bundle_s"),
        (kernels, "residual_norm", "kernels.self_s"),
    ]
    few, many = workers
    # Untimed warm-up: the first call in a process also starts the
    # resource tracker multiprocessing keeps for shared memory, a spawn
    # of its own that no later call pays.  A child's ru_maxrss starts at
    # its parent's peak when it forks, so the peak of building the
    # hierarchy is reset first, as the measured phase will do.
    run.start_measuring()
    parallel.run_procs(base, random_rhs(A.shape[0], seed=run.derive(2)), tmax=tmax, workers=many,
                       seed=run.derive(3), monitor_interval=monitor_s, **ENGINE_KW)

    def prepare(i: int) -> Tuple[np.ndarray, int, int]:
        b = random_rhs(A.shape[0], seed=run.derive(0, i))
        return b, run.derive(1, i), workers[i % 2] if run.traced else many

    def operate(inp: Tuple[np.ndarray, int, int], i: int, traced: bool) -> Dict[str, float]:
        b, sched, nworkers = inp
        before = setupcache.setup_cache_info()
        with run.op(traced, points, i):
            t0 = perf_counter()
            setups = [warm_setup(run, A) for _ in range(PROCS_SETUP_REPS)]
            solver = setups[-1][0]
            setup_s = float(np.median([s for _, s in setups]))
            t1 = perf_counter()
            res = parallel.run_procs(
                solver, b, tmax=tmax, workers=nworkers, seed=sched,
                monitor_interval=monitor_s, **ENGINE_KW,
            )
            t2 = perf_counter()
        count_cache(run, before, traced)
        run.check("procs.clean_run", not (res.errors or res.diverged or res.stalled),
                  f"errors={res.errors} diverged={res.diverged} stalled={res.stalled}")
        run.solved("procs_solve", A, res.x, b)
        call = t2 - t1
        lead = call - res.wall_time
        to_tol = lead + next((t for t, rel in res.residual_samples if rel <= TOL), res.wall_time)
        out = {"op_s": t2 - t0, "setup_s": setup_s, f"to_tol_{nworkers}w_s": to_tol}
        if nworkers == many:
            out["time_to_tol_ms"] = (setup_s + to_tol) * 1e3
        if traced:
            progress = next((t for t, rel in res.residual_samples if rel < 0.999), res.wall_time)
            run.per_op["procs.first_progress_s"].append(lead + progress)
            run.per_op["procs.tail_s"].append(call - to_tol)
            run.per_op["procs.corrections_ratio"].append(float(res.counts.mean()) / tmax)
            run.per_op["solvers.corrections"].append(float(res.counts.sum()))
        return out

    scaled = run.closed_loop(prepare, operate, min_ops=2,
                             sensitivity={"time_to_tol_ms": PROCS_SENSITIVITY})
    finish_closed_loop(run, scaled)
    if run.traced:
        raw = scaled[1]  # per-layer metrics are scaled per run, by harness.py
        t_few, t_many = raw[f"to_tol_{few}w_s"], raw[f"to_tol_{many}w_s"]
        run.metric("procs.time_to_tol_1w_ms", float(np.median(t_few)) * 1e3, len(t_few))
        run.metric("procs.speedup_2w", float(np.median(t_few) / np.median(t_many)), len(t_many))
        run.metric("procs.bundle_bytes", run.counts["bundle_bytes"])
        pickles = []
        for _ in range(3):
            t0 = perf_counter()
            pickle.dumps(bundle)
            pickles.append(perf_counter() - t0)
        run.metric("procs.bundle_pickle_s", float(np.median(pickles)), len(pickles))


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def serve_mixed(
    run: Run,
    operators: Sequence[Tuple[str, int]] = (("7pt", 4), ("27pt", 5)),
    cold_operator: Tuple[str, int] = ("5pt", 24),
    rate: float = 40.0,
    tenants: int = 4,
    cold_every: int = 50,
) -> None:
    """Open-loop mixed traffic against one ``SolveServer``.

    One generator thread sends jobs at seeded Poisson arrival times from
    four tenants; every ``cold_every``-th job targets a newly registered
    (scaled) operator, so its AMG setup runs cold inside a server worker.
    Latency runs from each job's scheduled send time.  A traced run
    installs its wrappers halfway through the schedule, so the first
    half's latency is the untraced reference for the tracing overhead.

    The schedule runs in segments of ``SERVE_SEGMENT_S``.  After each, the
    generator waits until the segment's jobs are done and times the
    reference loop while no job is in flight; each latency is scaled by
    the loops timed before and after its segment.  A reference loop timed
    during the traffic would compete with the server for the interpreter
    lock (in a helper process it widened the run-to-run spread of the
    median latency from 2% to 9%).

    ``setup_s`` is sampled once before the traffic (the server that then
    serves it) and, untraced, once after each segment on a server of its
    own.  Sampled back to back before the traffic, the set-ups of one run
    all saw the host in the same state: within a run they agreed to a few
    percent, but the run-to-run spread of their median was 11%.

    The two warm operators cost about the same per job (about 1.4 ms at
    reference speed): with one cheaper than the other the latency
    distribution has two modes, and its median jumps between them from
    seed to seed.  Both stay under the interpreter's 5 ms thread switch
    interval even on a host running 2x slower; jobs longer than that are
    preempted by the server's idle threads, which spreads the latency
    over several milliseconds.  With 2.5 ms jobs (5pt 16^2, 27pt 8^3)
    the run-to-run spread of the median latency was 19% on a slowed
    host, against 6-10% with these.  The cold operator
    (a scaled ``cold_operator``) has three levels, so its setup runs
    every AMG stage.
    """
    mats = [build_problem(name, size).A for name, size in operators]
    cold_base = build_problem(*cold_operator).A
    setup_times: List[float] = []
    setup_scaled: List[float] = []

    def set_up(rep: int, reference_s: float) -> Tuple[SolveServer, List[Any]]:
        """One ``setup_s`` sample: server start, registration, and the
        first job of each operator, one after another, scaled by the
        reference loop timed just before it.  Repetition ``rep`` registers
        the operators scaled by ``1 + rep * 2**-20``: each setup misses the
        cache, and the warm operators stay cached."""
        t0 = perf_counter()
        server = SolveServer(ServeConfig()).start()
        refs = [server.register_operator(f"op{k}", A * (1.0 + rep * 2.0**-20))
                for k, A in enumerate(mats)]
        done = []
        for k, ref in enumerate(refs):
            b = random_rhs(ref.n, seed=run.derive(2, rep, k))
            done.append((ref, b, server.submit(JobSpec(tenant="setup", operator=ref, b=b)).result(60.0)))
        setup_times.append(perf_counter() - t0)
        setup_scaled.append(setup_times[-1] * REF_NOMINAL_S / reference_s)
        for ref, b, res in done:
            ok = res is not None and res.status == "ok" and rel_residual(ref.A, res.x, b) <= TOL
            run.check("serve.setup_job_ok", ok, res.oneline() if res else "no result")
        return server, refs

    run.start_measuring()
    setupcache.clear_setup_cache()
    srv, refs = set_up(0, run.reference_time(2))
    for k, ref in enumerate(refs):
        record_shape(run, f"op{k}", setupcache.cached_setup_hierarchy(ref.A, ref.options))

    rng = np.random.default_rng(run.derive(3))
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * run.seconds * 2) + 16))
    arrivals = arrivals[arrivals < run.seconds]
    njobs = len(arrivals)
    # Alternating, not drawn: a drawn operator mix shifts every latency
    # statistic from seed to seed.
    choice = np.arange(njobs) % len(refs)
    cold = {i: cold_base * (1.0 + (i + 1) * 2.0**-20) for i in range(cold_every - 1, njobs, cold_every)}
    rhs = [
        random_rhs(cold_base.shape[0] if i in cold else refs[choice[i]].n, seed=run.derive(4, i))
        for i in range(njobs)
    ]
    run.exact("jobs_scheduled", njobs)
    half = njobs // 2 if run.traced else njobs
    job_of_b = {id(b): i for i, b in enumerate(rhs)}
    # OperatorRef keeps a canonical CSR matrix as given, so its id maps
    # the cold operator's fingerprint and setup spans back to the job.
    job_of_matrix = {id(M): i for i, M in cold.items()}
    sent: List[Tuple[int, float, float, Any, Any]] = []
    scale = np.ones(njobs)
    errors: List[BaseException] = []
    traced_from: Dict[str, Any] = {}

    def on_batch(solver: Any, columns: Sequence[np.ndarray], *_: Any, **__: Any) -> Dict[str, Any]:
        run.wrap_correction(solver)
        return {"jobs": [job_of_b.get(id(b)) for b in columns], "ngrids": solver.ngrids}

    def on_matrix(A: Any, *_: Any, **__: Any) -> Dict[str, Any]:
        return {"job": job_of_matrix.get(id(A))}

    def start_tracing() -> None:
        traced_from["stats_on"] = kernels.enable_stats(True)
        traced_from["stats"] = kernels.stats()
        traced_from["cache"] = setupcache.setup_cache_info()
        run.install([(serve_server, "solve_batch", "serve.solve_batch_self_s")], tag=on_batch)
        run.install([(serve_batch, "range_residual_block", "kernels.self_s")])
        # OperatorRef computes its fingerprint through the name jobs.py imported.
        run.install([(serve_jobs, "problem_fingerprint", "setupcache.fingerprint_s"), FINGERPRINT],
                    tag=on_matrix)
        run.install(AMG, tag=on_matrix)

    def generate() -> None:
        try:
            before = run.reference_time(2)
            starts = np.searchsorted(arrivals, np.arange(0.0, run.seconds, SERVE_SEGMENT_S))
            for k, (lo, hi) in enumerate(zip(starts, [*starts[1:], njobs])):
                t_start = perf_counter() - k * SERVE_SEGMENT_S
                for i in range(lo, hi):
                    if i == half:
                        start_tracing()
                    target = t_start + float(arrivals[i])
                    delay = target - perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    if i in cold:
                        ref = srv.register_operator(f"cold{i}", cold[i])
                    else:
                        ref = refs[choice[i]]
                    t_call = perf_counter()
                    ticket = srv.submit(JobSpec(tenant=f"tenant{i % tenants}", operator=ref, b=rhs[i]))
                    sent.append((i, target, t_call, ticket, ref))
                for entry in sent[lo:hi]:
                    entry[3].result(timeout=60.0)
                after = run.reference_time(2)
                scale[lo:hi] = REF_NOMINAL_S / (0.5 * (before + after))
                if not run.traced:  # its cache misses would count as the jobs'
                    set_up(k + 1, after)[0].stop()
                before = after
        except BaseException as exc:  # handed to the main thread below
            errors.append(exc)

    gen = threading.Thread(target=generate, name="bench-generator", daemon=True)
    gen.start()
    gen.join(timeout=run.seconds + 120.0)
    results = [(i, target, t_call, ticket.result(timeout=60.0), ref)
               for i, target, t_call, ticket, ref in sent]
    flat = srv.metrics.flatten()
    srv.stop()
    if run.tracer is not None:
        run.tracer.uninstall()
        kernels.enable_stats(traced_from["stats_on"])
    run.check("serve.generator_finished", not gen.is_alive() and not errors, f"errors={errors!r}")
    run.check("serve.threads_stopped", not srv.alive_threads(), "server threads still alive")
    run.exact("jobs_sent", len(sent))

    latency: Dict[int, float] = {}
    for i, target, t_call, res, ref in results:
        run.attempted += 1
        ok = res is not None and res.status == "ok" and rel_residual(ref.A, res.x, rhs[i]) <= TOL
        if not run.check("serve.job_ok", ok, f"job {i}: {res.oneline() if res else 'no result'}"):
            run.failed += 1
        if res is not None:
            latency[i] = (t_call - target + res.latency_s) * 1e3
            if i < 5:
                run.exact(f"job{i}.cycles", res.cycles)
    untraced = [i for i in latency if i < half]
    measured = [latency[i] for i in untraced]
    scaled = [latency[i] * scale[i] for i in untraced]
    run.timing("setup_s", setup_scaled, raw=setup_times)
    run.timing("time_to_tol_ms", scaled, raw=measured)
    run.timing("time_to_tol_ms_p90", scaled, q=0.9, raw=measured, unit="ms")
    if not run.traced:
        return

    done_jobs = [r for r in results if r[3] is not None]
    traced_jobs = [r for r in done_jobs if r[0] >= half]
    for name, (calls, secs) in kernels.stats_delta(traced_from["stats"]).items():
        run.kernel_delta[name] = [calls, secs]
    cache = setupcache.setup_cache_info()
    run.per_op["setupcache.hits"] = [cache["hits"] - traced_from["cache"]["hits"]]
    run.per_op["setupcache.misses"] = [cache["misses"] - traced_from["cache"]["misses"]]
    traced_lat = [v * scale[i] for i, v in latency.items() if i >= half]
    run.per_op["trace.overhead_ratio"] = [float(np.median(traced_lat) / np.median(scaled))]
    per_job, corrections = serve_layers(run, traced_jobs)
    run.per_op["solvers.corrections"] = corrections
    run.per_op["solvers.vcycles_to_tol"] = [res.cycles for _, _, _, res, _ in traced_jobs]
    run.layer_metrics(per_job)

    def col(get: Callable[[Any], float]) -> List[float]:
        return [get(res) for _, _, _, res, _ in done_jobs]

    cold_service = [res.service_s * 1e3 for i, _, _, res, _ in done_jobs if i in cold]
    for name, values, q in (
        ("serve.queue_wait_ms_p50", col(lambda r: r.queue_wait_s * 1e3), 0.5),
        ("serve.queue_wait_ms_p99", col(lambda r: r.queue_wait_s * 1e3), 0.99),
        ("serve.service_ms_p50", col(lambda r: r.service_s * 1e3), 0.5),
        ("serve.service_ms_p99", col(lambda r: r.service_s * 1e3), 0.99),
        ("serve.cycles_p50", col(lambda r: r.cycles), 0.5),
        ("serve.cold_service_ms_p50", cold_service or [0.0], 0.5),
    ):
        run.timing(name, values, q=q)
    run.metric("serve.batch_size_mean", float(np.mean(col(lambda r: r.batched))), len(done_jobs))
    run.metric("serve.gen_lag_ms_max", max(t_call - target for _, target, t_call, _, _ in sent) * 1e3,
               len(sent))
    for cause in ("overloaded", "shed", "circuit_open", "shutdown"):
        run.metric(f"serve.rejected.{cause}", flat.get(f"serve.cause.rejected.{cause}", 0.0))
    run.metric("serve.degraded", flat.get("serve.jobs.degraded", 0.0))


def serve_layers(
    run: Run, traced_jobs: List[Tuple[int, float, float, Any, Any]]
) -> Tuple[List[Tuple[float, Dict[str, float]]], List[float]]:
    """Split each traced job's latency (from its scheduled send) into
    layer self times; also return its correction count.

    The server reports each job's queue wait and service time.  The span
    roots on worker threads (the job's blocked solve, the cold setup of
    its operator) lie inside its service window; the register-time
    fingerprint on the generator thread lies inside its send lag.  A
    batch's solve counts in full for every job in it: each waited for
    all of it.
    """
    assert run.tracer is not None
    spans = run.tracer.spans
    by_root = self_times(spans)
    batch_of: Dict[int, Any] = {}
    setup_of: Dict[int, List[Any]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            continue
        for j in s.attrs.get("jobs", ()):
            if j is not None:
                batch_of[j] = s
        if s.attrs.get("job") is not None:
            setup_of[s.attrs["job"]].append(s)
    per_job, corrections = [], []
    for i, target, t_call, res, _ in traced_jobs:
        mine = ([batch_of[i]] if i in batch_of else []) + setup_of.get(i, [])
        layers: Counter = Counter()
        for s in mine:
            layers.update(by_root[s.sid])
        on_generator = sum(s.dur for s in mine if s.t1 <= t_call)
        in_service = sum(s.dur for s in mine if s.t1 > t_call)
        layers["bench.self_s"] += (t_call - target) - on_generator
        layers["serve.queue_s"] += res.queue_wait_s
        layers["serve.admit_s"] += res.latency_s - res.queue_wait_s - res.service_s
        layers["serve.service_self_s"] += res.service_s - in_service
        per_job.append((t_call - target + res.latency_s, dict(layers)))
        ngrids = batch_of[i].attrs["ngrids"] if i in batch_of else 0
        corrections.append(float(res.cycles * ngrids))
    return per_job, corrections


WORKLOADS: Dict[str, Callable[..., None]] = {
    "cold_solve": cold_solve,
    "warm_solve": warm_solve,
    "procs_solve": procs_solve,
    "serve_mixed": serve_mixed,
}
