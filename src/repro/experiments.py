"""High-level experiment harness used by the benchmarks.

Encodes the paper's measurement protocol (Section V):

- **Method specs** name the twelve Table-I rows (``sync Mult``,
  ``sync Multadd lock/atomic``, ``sync AFACx lock/atomic``, async
  ``AFACx lock/atomic``, async ``Multadd`` in lock/atomic x
  global/local, and ``r-Multadd``).
- **Cycles-to-tolerance**: the paper sweeps 5, 10, ..., 100 V-cycles,
  records ``||r||/||b||`` per count, and reports the first count below
  ``tau = 1e-9``.  We do the same with a single criterion-2 engine run
  per seed using checkpoints.
- **Timing**: wall-clock estimates come from the machine model
  (:mod:`repro.core.perfmodel`) executing the same schedule at the
  measured cycle count — see DESIGN.md's substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .amg import Hierarchy, SetupOptions, setup_hierarchy
from .core.engine import run_async_engine
from .core.perfmodel import MachineParams, PerfModel
from .solvers import AFACx, Multadd, MultiplicativeMultigrid
from .utils import spawn_seeds

__all__ = [
    "MethodSpec",
    "TABLE1_METHODS",
    "build_solver",
    "cycles_to_tolerance",
    "table1_entry",
    "Table1Entry",
]


@dataclass(frozen=True)
class MethodSpec:
    """One method row of Table I.

    ``kind`` is ``"mult"``, ``"multadd"`` or ``"afacx"``; asynchronous
    methods carry the residual-computation mode and write policy.
    """

    label: str
    kind: str
    asynchronous: bool = False
    rescomp: str = "local"  # local | global | rupdate
    write: str = "lock"  # lock | atomic

    def __post_init__(self) -> None:
        if self.kind not in ("mult", "multadd", "afacx"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.rescomp not in ("local", "global", "rupdate"):
            raise ValueError(f"unknown rescomp {self.rescomp!r}")
        if self.write not in ("lock", "atomic"):
            raise ValueError(f"unknown write {self.write!r}")


#: The twelve method rows of Table I, in the paper's order.
TABLE1_METHODS: Tuple[MethodSpec, ...] = (
    MethodSpec("sync Mult", "mult"),
    MethodSpec("sync Multadd, lock-write", "multadd", write="lock"),
    MethodSpec("sync Multadd, atomic-write", "multadd", write="atomic"),
    MethodSpec("sync AFACx, lock-write", "afacx", write="lock"),
    MethodSpec("sync AFACx, atomic-write", "afacx", write="atomic"),
    MethodSpec("AFACx, lock-write", "afacx", asynchronous=True, write="lock"),
    MethodSpec("AFACx, atomic-write", "afacx", asynchronous=True, write="atomic"),
    MethodSpec(
        "Multadd, lock-write, global-res",
        "multadd",
        asynchronous=True,
        rescomp="global",
        write="lock",
    ),
    MethodSpec(
        "Multadd, lock-write, local-res",
        "multadd",
        asynchronous=True,
        rescomp="local",
        write="lock",
    ),
    MethodSpec(
        "Multadd, atomic-write, global-res",
        "multadd",
        asynchronous=True,
        rescomp="global",
        write="atomic",
    ),
    MethodSpec(
        "Multadd, atomic-write, local-res",
        "multadd",
        asynchronous=True,
        rescomp="local",
        write="atomic",
    ),
    MethodSpec(
        "r-Multadd, atomic-write, local-res",
        "multadd",
        asynchronous=True,
        rescomp="rupdate",
        write="atomic",
    ),
)


def build_solver(spec: MethodSpec, hierarchy: Hierarchy, smoother: str, **kw):
    """Instantiate the solver object a spec refers to.

    ``lambda_mode`` only applies to Multadd and is dropped for the
    other kinds so one smoother-kwargs dict can drive all twelve
    methods of a Table-I column.
    """
    if spec.kind == "multadd":
        return Multadd(hierarchy, smoother=smoother, **kw)
    kw = dict(kw)
    kw.pop("lambda_mode", None)
    if spec.kind == "mult":
        return MultiplicativeMultigrid(hierarchy, smoother=smoother, **kw)
    return AFACx(hierarchy, smoother=smoother, **kw)


def cycles_to_tolerance(
    spec: MethodSpec,
    hierarchy: Hierarchy,
    b: np.ndarray,
    smoother: str,
    tol: float = 1e-9,
    step: int = 5,
    max_cycles: int = 400,
    runs: int = 3,
    seed: int = 0,
    alpha: float = 0.1,
    **solver_kw,
) -> Tuple[Optional[int], float]:
    """First V-cycle count (multiple of ``step``) with mean relres < tol.

    Returns ``(vcycles, corrects)``; ``(None, nan)`` when the method
    never crosses the tolerance within ``max_cycles`` (the paper's
    dagger).  ``corrects`` is the mean corrections per grid at that
    cycle count (== vcycles for synchronous methods).
    """
    solver = build_solver(spec, hierarchy, smoother, **solver_kw)
    if not spec.asynchronous:
        res = solver.solve(b, tmax=max_cycles)
        if res.diverged:
            return None, float("nan")
        for t, rel in enumerate(res.residual_history, start=1):
            if rel < tol:
                v = -(-t // step) * step  # round up to the step grid
                return v, float(v)
        return None, float("nan")

    checkpoints = list(range(step, max_cycles + 1, step))
    per_run: List[Dict[int, Tuple[float, float]]] = []
    for s in spawn_seeds(seed, runs):
        res = run_async_engine(
            solver,
            b,
            tmax=max_cycles,
            rescomp=spec.rescomp,
            write=spec.write,
            criterion="criterion2",
            alpha=alpha,
            seed=s,
            checkpoints=checkpoints,
        )
        if res.diverged and not res.checkpoint_results:
            return None, float("nan")
        per_run.append({v: (rel, cor) for v, rel, cor in res.checkpoint_results})
    for v in checkpoints:
        rels = [r[v][0] for r in per_run if v in r]
        if len(rels) < len(per_run):
            break  # some run diverged before reaching this checkpoint
        if float(np.mean(rels)) < tol:
            cors = [r[v][1] for r in per_run]
            return v, float(np.mean(cors))
    return None, float("nan")


@dataclass
class Table1Entry:
    """One cell group of Table I: time / corrects / V-cycles (or dagger)."""

    label: str
    time: Optional[float]
    corrects: Optional[float]
    vcycles: Optional[int]

    @property
    def diverged(self) -> bool:
        return self.vcycles is None

    def cells(self) -> Tuple[object, object, object]:
        if self.diverged:
            return None, None, None
        return self.time, round(self.corrects or 0), self.vcycles


def table1_entry(
    spec: MethodSpec,
    hierarchy: Hierarchy,
    b: np.ndarray,
    smoother: str,
    nthreads: int = 272,
    tol: float = 1e-9,
    machine: Optional[MachineParams] = None,
    runs: int = 3,
    seed: int = 0,
    alpha: float = 0.1,
    max_cycles: int = 400,
    **solver_kw,
) -> Table1Entry:
    """Produce one Table-I entry: modeled time, corrects, V-cycles.

    Convergence (V-cycles, corrects) is measured with the sequential
    asynchronous engine; wall-clock is the machine model's estimate of
    running that many cycles at ``nthreads`` threads.
    """
    vcycles, corrects = cycles_to_tolerance(
        spec,
        hierarchy,
        b,
        smoother,
        tol=tol,
        runs=runs,
        seed=seed,
        alpha=alpha,
        max_cycles=max_cycles,
        **solver_kw,
    )
    if vcycles is None:
        return Table1Entry(spec.label, None, None, None)
    solver = build_solver(spec, hierarchy, smoother, **solver_kw)
    pm = PerfModel(machine or MachineParams())
    if spec.kind == "mult":
        time = pm.time_mult(solver, nthreads, vcycles)
    elif not spec.asynchronous:
        time = pm.time_sync_additive(solver, nthreads, vcycles, write=spec.write)
    else:
        time, model_counts = pm.time_async(
            solver,
            nthreads,
            vcycles,
            rescomp=spec.rescomp,
            write=spec.write,
            criterion="criterion2",
        )
        # Blend: convergence engine supplies corrects when available,
        # else the machine model's count estimate.
        if np.isnan(corrects):
            corrects = float(model_counts.mean())
    return Table1Entry(spec.label, time, corrects, vcycles)


def default_hierarchy(
    A,
    aggressive_levels: int = 2,
    strength_norm: str = "min",
    seed: int = 0,
    num_functions: int = 1,
) -> Hierarchy:
    """The paper's Table-I setup: HMIS + aggressive levels, classical interp."""
    return setup_hierarchy(
        A,
        SetupOptions(
            coarsen_type="hmis",
            aggressive_levels=aggressive_levels,
            interp_type="classical",
            strength_norm=strength_norm,
            seed=seed,
            num_functions=num_functions,
        ),
    )


def paper_hierarchy(name: str, A, aggressive_levels: int = 2, seed: int = 0) -> Hierarchy:
    """Per-test-set setup matching the paper's BoomerAMG configuration.

    Elasticity uses the absolute-value strength norm and unknown-based
    systems AMG (``num_functions=3``, BoomerAMG's systems option) with
    no aggressive coarsening — our scalar multipass interpolation does
    not survive aggressive coarsening on a vector problem (see
    EXPERIMENTS.md).  The scalar sets use the classical min-based norm.
    """
    if name == "mfem_elasticity":
        return default_hierarchy(
            A,
            aggressive_levels=0,
            strength_norm="abs",
            seed=seed,
            num_functions=3,
        )
    return default_hierarchy(A, aggressive_levels=aggressive_levels, seed=seed)
