"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``setup``    Build a hierarchy for a test problem, print its summary.
``solve``    Run one solver (sync or async) on a test problem.
``models``   Run the Section-III asynchronous-model simulators.
``table1``   Produce one matrix's Table-I block.
``analyze``  Static concurrency lint (RPR rules) + optional
             instrumented model-conformance run.
``trace``    Record (``run``), summarize (``report``) and convert
             (``export``) traces from the :mod:`repro.observe` layer.
``top``      Refreshing terminal view of a running or replayed solve,
             fed by the ``--snapshots`` JSONL stream of a live solve
             (see :mod:`repro.observe.live`).

Examples
--------
::

    python -m repro setup --set 27pt --size 12 --aggressive 1
    python -m repro solve --set 7pt --size 12 --method multadd --run-async \\
        --rescomp local --write lock --tmax 20 --alpha 0.5
    python -m repro solve --set 27pt --size 8 --run-async --tmax 40 \\
        --faults "crash:1@5;corrupt:p=0.01" --guards
    python -m repro solve --set 7pt --size 8 --run-async --backend distributed \\
        --faults "drop:p=0.05" --guards --tmax 20
    python -m repro models --set 27pt --size 10 --model full_res --delta 4
    python -m repro table1 --set 7pt --size 10 --smoother jacobi --tol 1e-6
    python -m repro analyze --strict
    python -m repro analyze --conformance --set 27pt --size 8 --tmax 5
    python -m repro trace run --set 7pt --size 8 --backend threaded \\
        --tmax 10 --out run.jsonl
    python -m repro trace report run.jsonl --delta 8
    python -m repro trace export run.jsonl --chrome run.chrome.json
    python -m repro solve --set 5pt --size 64 --run-async --kernels numpy
    python -m repro solve --set 7pt --size 10 --run-async --backend threaded \\
        --tmax 200 --live --metrics-port 9464 --snapshots live.jsonl
    python -m repro top live.jsonl --once
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


from . import kernels
from .amg import SetupOptions
from .kernels.setupcache import cached_setup_hierarchy
from .core import (
    ScheduleParams,
    StalenessSchedule,
    run_async_engine,
    simulate_full_async_residual,
    simulate_full_async_solution,
    simulate_semi_async,
)
from .core import run_procs, run_threaded
from .distributed import (
    ElasticityPolicy,
    NetworkModel,
    parse_churn_spec,
    simulate_distributed,
)
from .experiments import TABLE1_METHODS, paper_hierarchy, table1_entry
from .problems import TEST_SETS, build_problem
from .resilience import GuardPolicy, parse_fault_spec
from .solvers import AFACx, BPX, Multadd, MultiplicativeMultigrid
from .utils import format_table

__all__ = ["main"]

#: Event-time unit per async backend (see repro.observe.Tracer).
_BACKEND_CLOCK = {"engine": "steps", "threaded": "s", "procs": "s", "distributed": "sim"}


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", dest="test_set", choices=TEST_SETS, default="7pt")
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--rhs-seed", type=int, default=0)


def _add_setup_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--aggressive", type=int, default=1, help="aggressive levels")
    p.add_argument("--theta", type=float, default=0.25)
    p.add_argument(
        "--coarsen", choices=("hmis", "pmis", "rs"), default="hmis"
    )


def _build(args) -> tuple:
    problem = build_problem(args.test_set, args.size, rhs_seed=args.rhs_seed)
    if args.test_set == "mfem_elasticity":
        hierarchy = paper_hierarchy("mfem_elasticity", problem.A)
    else:
        # Memoized: repeated CLI invocations in one process (tests,
        # benchmark harnesses driving main()) pay for setup once.
        hierarchy = cached_setup_hierarchy(
            problem.A,
            SetupOptions(
                coarsen_type=getattr(args, "coarsen", "hmis"),
                aggressive_levels=getattr(args, "aggressive", 1),
                theta=getattr(args, "theta", 0.25),
            ),
        )
    return problem, hierarchy


def _cmd_setup(args) -> int:
    problem, hierarchy = _build(args)
    print(f"{args.test_set} size {args.size}: {problem.n} rows, {problem.nnz} nnz")
    print(hierarchy.summary())
    return 0


def _make_solver(args, hierarchy):
    kw = {}
    if args.smoother == "jacobi":
        kw["weight"] = args.weight
    elif args.smoother in ("hybrid_jgs", "async_gs"):
        kw["nblocks"] = args.nblocks
    if args.method == "mult":
        return MultiplicativeMultigrid(hierarchy, smoother=args.smoother, **kw)
    if args.method == "multadd":
        return Multadd(hierarchy, smoother=args.smoother, **kw)
    if args.method == "afacx":
        return AFACx(hierarchy, smoother=args.smoother, **kw)
    return BPX(hierarchy, smoother=args.smoother, **kw)


def _cmd_solve(args) -> int:
    if getattr(args, "kernels", None):
        try:
            kernels.use(args.kernels)
        except ImportError as exc:
            print(
                f"error: kernel backend {args.kernels!r} not available: {exc}",
                file=sys.stderr,
            )
            return 2
    problem, hierarchy = _build(args)
    solver = _make_solver(args, hierarchy)
    faults = None
    if args.faults:
        try:
            faults = parse_fault_spec(args.faults, seed=args.seed)
        except ValueError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return 2
    guard = None
    if args.guards:
        # The simulator reads the guard's timeouts in simulated seconds,
        # where one correction takes microseconds.
        guard = (
            GuardPolicy(watchdog_timeout=1e-4, retransmit_timeout=1e-5)
            if args.backend == "distributed"
            else GuardPolicy()
        )
    if (faults is not None or guard is not None) and not args.run_async:
        print("error: --faults/--guards require --run-async", file=sys.stderr)
        return 2
    if (args.workers is not None or args.deterministic) and not (
        args.run_async and args.backend == "procs"
    ):
        print(
            "error: --workers/--deterministic require --run-async "
            "--backend procs",
            file=sys.stderr,
        )
        return 2
    elastic_requested = bool(
        args.elastic or args.churn is not None or args.ranks is not None
    )
    if elastic_requested and not (args.run_async and args.backend == "distributed"):
        print(
            "error: --elastic/--churn/--ranks require --run-async "
            "--backend distributed",
            file=sys.stderr,
        )
        return 2
    churn = None
    if args.churn is not None:
        try:
            churn = parse_churn_spec(args.churn)
        except ValueError as exc:
            print(f"error: bad --churn spec: {exc}", file=sys.stderr)
            return 2
    trace_path = getattr(args, "trace", None)
    if trace_path and not args.run_async:
        print("error: --trace requires --run-async", file=sys.stderr)
        return 2
    live_requested = bool(
        args.live
        or args.metrics_port is not None
        or args.snapshots
        or args.alert_stop
        or args.live_profile
    )
    if live_requested and not args.run_async:
        print(
            "error: --live/--metrics-port/--snapshots require --run-async",
            file=sys.stderr,
        )
        return 2
    live_cfg = None
    if live_requested:
        from .observe.live import LiveConfig

        alert_stop = frozenset(
            k.strip() for k in (args.alert_stop or "").split(",") if k.strip()
        )
        if args.snapshot_interval <= 0:
            print("error: --snapshot-interval must be positive", file=sys.stderr)
            return 2
        live_cfg = LiveConfig(
            interval_s=args.snapshot_interval,
            metrics_port=args.metrics_port,
            snapshot_path=args.snapshots,
            profile=args.live_profile,
            alert_stop=alert_stop,
        )
    if args.run_async:
        if args.method == "mult":
            print("error: the multiplicative method cannot run asynchronously", file=sys.stderr)
            return 2
        tracer = None
        if trace_path:
            from .observe import Tracer

            tracer = Tracer(clock=_BACKEND_CLOCK[args.backend])
        try:
            res, label = _dispatch_async(
                args,
                solver,
                problem,
                faults,
                guard,
                tracer=tracer,
                churn=churn,
                live=live_cfg,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        deg_txt = f"degraded = {res.degraded}, " if elastic_requested else ""
        print(
            f"{label}: relres = {res.rel_residual:.6e}, "
            f"corrects = {res.corrects:.1f}, diverged = {res.diverged}, "
            f"{deg_txt}stalled = {res.stalled} "
            f"[kernels: {res.kernel_backend}]"
        )
        if faults is not None or guard is not None:
            print(f"faults/guards: {res.telemetry.summary()}")
        live_sum = res.live_summary
        if live_sum is not None:
            print(live_sum.oneline())
            for alert in live_sum.alerts:
                print(f"  alert: {alert.oneline()}")
            if args.snapshots:
                print(f"snapshots: wrote {args.snapshots} (view: repro top {args.snapshots})")
            if live_sum.profile is not None and live_sum.profile.samples:
                print(live_sum.profile.table())
        if elastic_requested and res.membership:
            census = ", ".join(f"{k}={v}" for k, v in res.membership.items() if v)
            print(f"membership: {census}")
        if tracer is not None:
            from .observe import TraceAnalyzer, write_events_jsonl

            events = tracer.events()
            meta = {
                "clock": tracer.clock,
                "backend": args.backend,
                "problem": args.test_set,
                "n": problem.n,
                "ngrids": solver.ngrids,
                "method": args.method,
                "rescomp": args.rescomp,
                "write": args.write,
                "criterion": args.criterion,
                "tmax": args.tmax,
                "seed": args.seed,
            }
            write_events_jsonl(events, trace_path, meta=meta)
            digest = TraceAnalyzer(events, meta).oneline(tracer.dropped_events)
            print(f"trace: wrote {trace_path} — {digest}")
    else:
        try:
            res = solver.solve(problem.b, tmax=args.tmax)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"sync {args.method}: relres after {res.cycles} cycles = "
            f"{res.final_relres:.6e}, diverged = {res.diverged}"
        )
    return 0


def _dispatch_async(
    args, solver, problem, faults, guard, tracer=None, churn=None, live=None
):
    """Run the chosen async backend; returns (result, display label)."""
    common = dict(
        tmax=args.tmax,
        criterion=args.criterion,
        faults=faults,
        guard=guard,
        tracer=tracer,
        live=live,
    )
    if args.backend == "distributed":
        elastic = None
        if args.elastic or churn is not None or args.ranks is not None:
            elastic = ElasticityPolicy()
        res = simulate_distributed(
            solver,
            problem.b,
            strategy="global" if args.rescomp != "local" else "local",
            network=NetworkModel(seed=args.seed),
            seed=args.seed,
            track_trace=tracer is not None,
            elastic=elastic,
            churn=churn,
            nranks=args.ranks,
            **common,
        )
        return res, f"distributed {args.method} ({res.strategy}-res, {args.criterion})"
    common.update(rescomp=args.rescomp, write=args.write)
    modes = f"{args.rescomp}-res, {args.write}-write, {args.criterion}"
    if args.backend == "threaded":
        return run_threaded(solver, problem.b, **common), f"threaded {args.method} ({modes})"
    common.update(alpha=args.alpha, seed=args.seed)
    if args.backend == "engine":
        # Traced runs want the residual-vs-time series; the engine
        # only snapshots residuals it is computing anyway.
        res = run_async_engine(solver, problem.b, track_trace=tracer is not None, **common)
        return res, f"async {args.method} ({modes})"
    res = run_procs(
        solver, problem.b, workers=args.workers, deterministic=args.deterministic, **common
    )
    mode = "deterministic" if args.deterministic else f"{args.write}-write"
    return res, f"procs[{res.workers}] {args.method} ({args.rescomp}-res, {mode}, {args.criterion})"


def _cmd_models(args) -> int:
    problem, hierarchy = _build(args)
    solver = Multadd(hierarchy, smoother="jacobi", weight=problem.jacobi_weight)
    params = ScheduleParams(
        alpha=args.alpha, delta=args.delta, updates_per_grid=args.tmax, seed=args.seed
    )
    sim = {
        "semi": simulate_semi_async,
        "full_sol": simulate_full_async_solution,
        "full_res": simulate_full_async_residual,
    }[args.model]
    res = sim(solver, problem.b, params)
    print(
        f"{args.model} model: relres = {res.rel_residual:.6e} after "
        f"{res.micro_steps} instants; p_k = "
        + ", ".join(f"{v:.2f}" for v in StalenessSchedule(solver.ngrids, params).p)
    )
    return 0


def _cmd_table1(args) -> int:
    problem, hierarchy = _build(args)
    kw = {"weight": problem.jacobi_weight} if args.smoother == "jacobi" else {}
    if args.smoother in ("hybrid_jgs", "async_gs"):
        kw["nblocks"] = args.nblocks
    rows = []
    for spec in TABLE1_METHODS:
        e = table1_entry(
            spec,
            hierarchy,
            problem.b,
            args.smoother,
            nthreads=args.threads,
            tol=args.tol,
            runs=args.runs,
            alpha=args.alpha,
            max_cycles=args.max_cycles,
            **kw,
        )
        t, c, v = e.cells()
        rows.append([spec.label, t, c, v])
    print(
        format_table(
            ["method", "time(s)", "corrects", "V-cycles"],
            rows,
            title=(
                f"Table I block — {args.test_set} ({problem.n} rows), "
                f"smoother {args.smoother}, tol {args.tol:g}"
            ),
        )
    )
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import run_conformance
    from .analysis.__main__ import main as analysis_main

    lint_argv = []
    if args.strict:
        lint_argv.append("--strict")
    if not args.static:
        lint_argv.append("--no-static")
    if args.baseline:
        lint_argv += ["--baseline", args.baseline]
    if args.update_baseline:
        lint_argv.append("--update-baseline")
    if args.sarif:
        lint_argv += ["--sarif", args.sarif]
    ok = analysis_main(lint_argv) == 0
    if args.conformance:
        problem, hierarchy = _build(args)
        solver = Multadd(hierarchy, smoother="jacobi", weight=problem.jacobi_weight)
        for write in ("lock", "atomic"):
            conf = run_conformance(
                solver,
                problem.b,
                write=write,
                tmax=args.tmax,
                delta=args.delta,
            )
            print(conf.summary())
            ok = ok and conf.passed
    return 0 if ok else 1


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    """Solver/async options shared by ``solve`` and ``trace run``."""
    _add_problem_args(p)
    _add_setup_args(p)
    p.add_argument("--method", choices=("mult", "multadd", "afacx", "bpx"), default="multadd")
    p.add_argument("--smoother", default="jacobi")
    p.add_argument("--weight", type=float, default=0.9)
    p.add_argument("--nblocks", type=int, default=8)
    p.add_argument("--tmax", type=int, default=20)
    p.add_argument("--rescomp", choices=("local", "global", "rupdate"), default="local")
    p.add_argument("--write", choices=("lock", "atomic"), default="lock")
    p.add_argument("--criterion", choices=("criterion1", "criterion2"), default="criterion2")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        choices=("engine", "threaded", "procs", "distributed"),
        default="engine",
        help="async executor: deterministic engine, real threads, "
        "true-parallel worker processes over shared memory, or the "
        "distributed discrete-event simulator",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-process count for --backend procs (default: "
        "min(ngrids, cpu count); each worker owns a group of grids)",
    )
    p.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="with --backend procs --workers 1: run the sequential "
        "engine schedule inside the single worker, bit-identical to "
        "--backend engine",
    )
    p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection spec, e.g. "
        "'crash:1@5;corrupt:p=0.01,mode=nan;drop:p=0.05' "
        "(kinds: crash, stall, corrupt, drop, dup, delay)",
    )
    p.add_argument(
        "--guards",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="enable the resilience guard layer (screening, "
        "checkpoint/rollback, watchdog restart, retransmission)",
    )
    p.add_argument(
        "--kernels",
        choices=("auto", "numpy", "numba"),
        default=None,
        metavar="BACKEND",
        help="select the repro.kernels backend for this run "
        "(auto/numpy/numba; default: keep the REPRO_KERNELS "
        "environment selection)",
    )
    p.add_argument(
        "--elastic",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="enable elastic rank membership on the distributed backend "
        "(heartbeat failure detection, incremental repartitioning, "
        "degraded-instead-of-failed completion)",
    )
    p.add_argument(
        "--ranks",
        type=int,
        default=None,
        metavar="N",
        help="simulated rank-pool size for --elastic (default: the "
        "thread total)",
    )
    p.add_argument(
        "--churn",
        default=None,
        metavar="SPEC",
        help="rank-churn spec for --elastic, e.g. "
        "'crash:3@0.5;stall:1@0.2,duration=0.3;join:@1.0' or "
        "'random:0.1@2.0,nranks=40,seed=1' "
        "(kinds: crash, stall, join, leave, random)",
    )
    p.add_argument(
        "--live",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="enable the live telemetry layer (streaming snapshots + "
        "online anomaly detectors); implied by --metrics-port / "
        "--snapshots",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve OpenMetrics scrapes on 127.0.0.1:PORT while the "
        "solve runs (0 = ephemeral port); implies --live",
    )
    p.add_argument(
        "--snapshots",
        default=None,
        metavar="PATH",
        help="stream live snapshots to a JSONL file (replay with "
        "`repro top PATH`); implies --live",
    )
    p.add_argument(
        "--snapshot-interval",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="live snapshot cadence in seconds (default: 0.1)",
    )
    p.add_argument(
        "--live-profile",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="also run the sampling profiler (kernel x grid x worker "
        "wall-time attribution) during a --live run",
    )
    p.add_argument(
        "--alert-stop",
        default=None,
        metavar="KINDS",
        help="comma-separated alert kinds that abort the run early "
        "(e.g. 'divergence,stagnation'); requires --live",
    )


def _cmd_trace_run(args) -> int:
    # A traced async solve: `trace run --out t.jsonl` is
    # `solve --run-async --trace t.jsonl` with the recording implied.
    args.run_async = True
    args.trace = args.out
    return _cmd_solve(args)


def _cmd_trace_report(args) -> int:
    from .observe import TraceAnalyzer

    try:
        analyzer = TraceAnalyzer.from_file(args.trace_file)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if not analyzer.events:
        print(f"error: no events in {args.trace_file}", file=sys.stderr)
        return 2
    print(analyzer.report(delta=args.delta))
    return 0


def _cmd_trace_export(args) -> int:
    from .observe import (
        read_events_jsonl,
        residual_series,
        write_chrome_trace,
        write_residual_series,
    )

    if not args.chrome and not args.residuals:
        print("error: nothing to export (use --chrome and/or --residuals)", file=sys.stderr)
        return 2
    try:
        meta, events = read_events_jsonl(args.trace_file)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: no events in {args.trace_file}", file=sys.stderr)
        return 2
    clock = str(meta.get("clock", "s"))
    if args.chrome:
        write_chrome_trace(events, args.chrome, clock=clock)
        print(f"wrote Chrome trace {args.chrome} (open at ui.perfetto.dev)")
    if args.residuals:
        series = residual_series(events, tag="global") or residual_series(events)
        write_residual_series(series, args.residuals)
        print(f"wrote residual series {args.residuals} ({len(series)} rows)")
    return 0


def _cmd_top(args) -> int:
    from .observe.live import read_snapshots_jsonl, render_top

    def _render() -> int:
        try:
            meta, snaps = read_snapshots_jsonl(args.snapshot_file)
        except OSError as exc:
            print(f"error: cannot read snapshots: {exc}", file=sys.stderr)
            return 2
        if not snaps:
            print(f"error: no snapshots in {args.snapshot_file}", file=sys.stderr)
            return 2
        print(render_top(meta, snaps))
        return 0

    if args.once:
        return _render()
    # Follow mode: re-read and re-render on a cadence until the file
    # stops growing (watch-timeout with no new snapshot) or Ctrl-C.
    import time as _time

    last_seq = -1
    idle_s = 0.0
    try:
        while True:
            try:
                meta, snaps = read_snapshots_jsonl(args.snapshot_file)
            except OSError:
                meta, snaps = {}, []
            if snaps and snaps[-1].seq != last_seq:
                last_seq = snaps[-1].seq
                idle_s = 0.0
                # ANSI clear + home keeps the panel in place on real
                # terminals; harmless noise when redirected.
                print("\x1b[2J\x1b[H", end="")
                print(render_top(meta, snaps))
            else:
                idle_s += args.refresh
                if idle_s >= args.watch_timeout:
                    break
            _time.sleep(args.refresh)
    except KeyboardInterrupt:
        pass
    return 0 if last_seq >= 0 else 2


def _cmd_serve(args) -> int:
    import threading as _threading

    from .serve import ServeConfig, ServeHTTPServer, SolveServer

    fault_plans = {}
    for item in args.tenant_faults or []:
        tenant, _, fspec = item.partition("=")
        if not tenant or not fspec:
            print(
                f"bad --tenant-faults {item!r} (want TENANT=FAULTSPEC)",
                file=sys.stderr,
            )
            return 2
        fault_plans[tenant] = parse_fault_spec(fspec, seed=args.seed)
    config = ServeConfig(
        workers=args.workers,
        max_depth=args.max_depth,
        high_water=args.high_water,
        batch_max=args.batch_max,
        fault_plans=fault_plans,
        seed=args.seed,
    )
    server = SolveServer(config).start()
    for name in (s.strip() for s in args.sets.split(",")):
        if not name:
            continue
        problem = build_problem(name, args.size, rhs_seed=0)
        server.register_operator(
            name, problem.A, solver_kwargs={"weight": problem.jacobi_weight}
        )
        print(f"registered operator {name!r}: n={problem.n}")
    http = ServeHTTPServer(server, port=args.port).start()
    print(
        f"serving on http://127.0.0.1:{http.port} "
        f"(operators: {', '.join(server.operator_names())}; "
        f"workers={config.workers} depth={config.max_depth} "
        f"batch<={config.batch_max})"
    )
    sys.stdout.flush()
    try:
        # Sleep until the duration elapses (or forever until Ctrl-C);
        # all the work happens on the server's own threads.
        _threading.Event().wait(timeout=args.duration)
    except KeyboardInterrupt:
        pass
    http.stop()
    server.stop()
    flat = server.metrics.flatten()
    counts = {
        status: int(flat.get(f"serve.jobs.{status}", 0.0))
        for status in ("ok", "degraded", "rejected", "failed")
    }
    print(
        "served: "
        + "  ".join(f"{k}={v}" for k, v in counts.items())
        + f"  retries={int(flat.get('serve.retries', 0.0))}"
        + f"  worker_crashes={int(flat.get('serve.worker_crashes', 0.0))}"
    )
    return 0


def _cmd_submit(args) -> int:
    import json as _json
    from urllib import error, request

    payload = {
        "tenant": args.tenant,
        "operator": args.operator,
        "rhs_seed": args.rhs_seed,
        "tol": args.tol,
        "deadline_s": args.deadline,
        "tmax": args.tmax,
        "retries": args.retries,
    }
    req = request.Request(
        args.url.rstrip("/") + "/submit",
        data=_json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with request.urlopen(req, timeout=args.deadline + 60.0) as resp:
            out = _json.loads(resp.read())
    except error.URLError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(out, indent=2, sort_keys=True))
    else:
        cause = f" cause={out['cause']}" if out.get("cause") else ""
        relres = out.get("rel_residual")
        relres_s = "n/a" if relres is None else f"{relres:.3e}"
        print(
            f"job {out['job_id']} [{out['tenant']}] {out['status']}{cause}: "
            f"relres={relres_s} cycles={out['cycles']} "
            f"attempts={out['attempts']} batched={out['batched']} "
            f"latency={out['latency_s'] * 1e3:.1f}ms"
        )
    return 0 if out["status"] in ("ok", "degraded") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Asynchronous multigrid reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="build and summarize a hierarchy")
    _add_problem_args(p)
    _add_setup_args(p)
    p.set_defaults(func=_cmd_setup)

    p = sub.add_parser("solve", help="run a solver")
    _add_solve_args(p)
    p.add_argument("--run-async", action="store_true")
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the async run's event trace to a JSONL file "
        "(see `repro trace report` / `repro trace export`)",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("models", help="run a Section-III model simulator")
    _add_problem_args(p)
    _add_setup_args(p)
    p.add_argument("--model", choices=("semi", "full_sol", "full_res"), default="semi")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--tmax", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("table1", help="one Table-I block")
    _add_problem_args(p)
    _add_setup_args(p)
    p.add_argument("--smoother", default="jacobi")
    p.add_argument("--nblocks", type=int, default=4)
    p.add_argument("--threads", type=int, default=272)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--max-cycles", type=int, default=250)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "analyze",
        help="concurrency-correctness analysis: per-file RPR lint, "
        "whole-program lockset analysis (RPR009/RPR010), and an "
        "optional instrumented conformance run",
    )
    _add_problem_args(p)
    _add_setup_args(p)
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on any unsuppressed finding; require justified noqa",
    )
    p.add_argument(
        "--static",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the whole-program passes (RPR009/RPR010); "
        "--no-static keeps only the per-file rules",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="findings ratchet file: pinned findings are reported but "
        "do not fail; new findings do",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline FILE from the current findings",
    )
    p.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="export the findings as a SARIF 2.1.0 log",
    )
    p.add_argument(
        "--conformance",
        action="store_true",
        help="also run a CheckedWrite-instrumented threaded solve "
        "(lock and atomic policies) and report model conformance",
    )
    p.add_argument("--tmax", type=int, default=5)
    p.add_argument(
        "--delta",
        type=int,
        default=None,
        help="staleness bound to verify (default: the sound "
        "criterion-1 bound (ngrids-1)*tmax)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "trace",
        help="record / summarize / convert async run traces "
        "(repro.observe)",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser("run", help="run a traced async solve")
    _add_solve_args(tp)
    tp.add_argument(
        "--out",
        default="trace.jsonl",
        metavar="PATH",
        help="JSONL trace output path (default: trace.jsonl)",
    )
    tp.set_defaults(func=_cmd_trace_run)

    tp = tsub.add_parser(
        "report", help="recover model quantities + residual history from a trace"
    )
    tp.add_argument("trace_file", help="JSONL trace from `trace run` / `solve --trace`")
    tp.add_argument(
        "--delta",
        type=float,
        default=None,
        help="check the observed read staleness against this bound δ",
    )
    tp.set_defaults(func=_cmd_trace_report)

    tp = tsub.add_parser(
        "export", help="convert a trace to Chrome trace-event JSON / residual CSV"
    )
    tp.add_argument("trace_file", help="JSONL trace from `trace run` / `solve --trace`")
    tp.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write Chrome trace-event JSON (Perfetto / chrome://tracing)",
    )
    tp.add_argument(
        "--residuals",
        default=None,
        metavar="PATH",
        help="write the (t, relres) series as CSV",
    )
    tp.set_defaults(func=_cmd_trace_export)

    p = sub.add_parser(
        "top",
        help="refreshing terminal view of a live snapshot stream "
        "(repro solve --live --snapshots FILE)",
    )
    p.add_argument("snapshot_file", help="JSONL snapshot stream from solve --snapshots")
    p.add_argument(
        "--once",
        action="store_true",
        help="render the latest state once and exit (CI / scripting)",
    )
    p.add_argument(
        "--refresh",
        type=float,
        default=0.5,
        help="follow-mode poll interval in seconds (default: 0.5)",
    )
    p.add_argument(
        "--watch-timeout",
        type=float,
        default=10.0,
        help="follow mode exits after this many seconds without a "
        "new snapshot (default: 10)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant solve server with an HTTP front-end "
        "(repro.serve; see docs/SERVING.md)",
    )
    p.add_argument(
        "--sets",
        default="7pt",
        metavar="LIST",
        help="comma-separated test sets to register as operators",
    )
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--port", type=int, default=8077, help="0 = ephemeral")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--high-water", type=int, default=None)
    p.add_argument("--batch-max", type=int, default=8)
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to serve (default: until Ctrl-C)",
    )
    p.add_argument(
        "--tenant-faults",
        action="append",
        metavar="TENANT=SPEC",
        help="fault plan injected into one tenant's jobs, e.g. "
        "crashy=crash:0@2 (repeatable; spec syntax as --faults)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one solve job to a running `repro serve`"
    )
    p.add_argument("--url", default="http://127.0.0.1:8077")
    p.add_argument("--tenant", default="cli")
    p.add_argument("--operator", default="7pt")
    p.add_argument("--rhs-seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--deadline", type=float, default=5.0)
    p.add_argument("--tmax", type=int, default=60)
    p.add_argument("--retries", type=int, default=1)
    p.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )
    p.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal shell usage,
        # not an error.  Detach stdout so the interpreter's shutdown
        # flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
