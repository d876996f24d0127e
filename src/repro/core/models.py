"""The asynchronous multigrid models of Section III, as simulators.

Three sequential simulators, each driving an additive solver
(:class:`~repro.solvers.base.AdditiveMultigrid`) through a random
staleness schedule:

- :func:`simulate_semi_async` — Eq. 6: every active grid reads a
  *consistent* snapshot ``x^{(z_k(t))}`` (all components from one past
  instant).  With consistent reads the solution-based and
  residual-based formulations coincide (the paper notes this), so
  there is a single semi-async simulator.
- :func:`simulate_full_async_solution` — Eq. 7: each *component* is
  read from its own instant ``z_ki(t)``; the correction is computed
  from ``b - A x_mixed``.
- :func:`simulate_full_async_residual` — Eq. 10: the same component
  mixing applied to a maintained residual history; corrections are
  computed directly from ``r_mixed``.

The three differ only in what a correcting grid reads, so they share
one loop: it takes the read (one instant for the whole vector, or one
per component) and the shared state (the iterate, or the residual),
stops each grid under Criterion 1 after ``updates_per_grid``
corrections and returns a :class:`~repro.core.run.RunResult` whose
``micro_steps`` counts the instants simulated.

In every model the iterate and residual are *updated* exactly
(``x += sum of corrections``, ``r -= A (sum of corrections)``), so
``r^{(t)} = b - A x^{(t)}`` holds identically; asynchrony enters only
through what each grid *reads* — precisely the models' semantics.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from .. import kernels
from ..linalg import two_norm
from .history import VectorHistory
from .run import Criterion, RunResult
from .schedule import ScheduleParams, StalenessSchedule

__all__ = [
    "simulate_semi_async",
    "simulate_full_async_solution",
    "simulate_full_async_residual",
]


def _simulate(
    solver: Any,
    b: np.ndarray,
    params: ScheduleParams,
    x0: Optional[np.ndarray],
    track_trace: bool,
    p_override: Optional[np.ndarray],
    delta_by_grid: Optional[np.ndarray],
    mixed: bool,
    residual: bool,
) -> RunResult:
    """The one loop of the three models: ``mixed`` reads ``z_ki(t)``, one
    instant per component, instead of ``z_k(t)``; ``residual`` makes the
    residual, not the iterate, the state grids read and correct from."""
    A, n = solver.A, solver.n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    sched = StalenessSchedule(
        solver.ngrids, params, p_override=p_override, delta_by_grid=delta_by_grid
    )
    crit = Criterion("criterion1", params.updates_per_grid, solver.ngrids)
    state = b - A @ x if residual else x
    hist = VectorHistory(state, depth=sched.max_delta + 2)
    nb = two_norm(b) or 1.0
    samples: List[Tuple[float, float]] = []
    # Worst case: the slowest grid fires with its (possibly overridden)
    # minimum probability; generous safety factor before declaring the
    # schedule stuck.
    limit = int(200 + 50 * params.updates_per_grid / float(sched.p.min()))
    t = 0
    while not crit.all_done():
        if t >= limit:
            raise RuntimeError("schedule failed to finish; alpha too small?")
        total = np.zeros(n)
        for k in sched.active_set(t, crit.counts).tolist():
            if mixed:
                read = hist.gather(sched.read_instants(k, t, n))
            else:
                read = hist.get(sched.read_instant(k, t))
            total += solver.correction(k, read if residual else b - A @ read)
            crit.record(k)
        x = x + total
        state = state - A @ total if residual else x
        t += 1
        hist.push(state, t)
        if track_trace:
            samples.append((float(t - 1), two_norm(state if residual else b - A @ x) / nb))
    rel = two_norm(b - A @ x) / nb
    return RunResult(
        x=x,
        rel_residual=rel,
        counts=crit.counts,
        diverged=not np.isfinite(rel),
        residual_samples=samples,
        kernel_backend=kernels.current_backend(),
        micro_steps=t,
    )


def simulate_semi_async(
    solver: Any,
    b: np.ndarray,
    params: ScheduleParams,
    x0: Optional[np.ndarray] = None,
    track_trace: bool = False,
    p_override: Optional[np.ndarray] = None,
    delta_by_grid: Optional[np.ndarray] = None,
) -> RunResult:
    """Semi-asynchronous model (Eq. 6).

    ``x^{(t+1)} = x^{(t)} + sum_{k in Psi(t)} B_k(x^{(z_k(t))})`` where
    ``B_k(x) = correction(k, b - A x)``.
    """
    return _simulate(
        solver, b, params, x0, track_trace, p_override, delta_by_grid, mixed=False, residual=False
    )


def simulate_full_async_solution(
    solver: Any,
    b: np.ndarray,
    params: ScheduleParams,
    x0: Optional[np.ndarray] = None,
    track_trace: bool = False,
    p_override: Optional[np.ndarray] = None,
    delta_by_grid: Optional[np.ndarray] = None,
) -> RunResult:
    """Fully asynchronous, solution-based model (Eq. 7).

    Each active grid reads a component-mixed iterate
    ``(x_1^{(z_k1)}, ..., x_n^{(z_kn)})`` and corrects from
    ``b - A x_mixed``.
    """
    return _simulate(
        solver, b, params, x0, track_trace, p_override, delta_by_grid, mixed=True, residual=False
    )


def simulate_full_async_residual(
    solver: Any,
    b: np.ndarray,
    params: ScheduleParams,
    x0: Optional[np.ndarray] = None,
    track_trace: bool = False,
    p_override: Optional[np.ndarray] = None,
    delta_by_grid: Optional[np.ndarray] = None,
) -> RunResult:
    """Fully asynchronous, residual-based model (Eq. 10).

    The residual itself is the shared state: grids read component-mixed
    residuals ``(r_1^{(z_k1)}, ..., r_n^{(z_kn)})`` and the update is
    ``r^{(t+1)} = r^{(t)} - A sum_k C_k(r_mixed)``.  The iterate is
    co-updated with the same corrections so the reported relative
    residual is the true ``||b - A x||/||b||``.
    """
    return _simulate(
        solver, b, params, x0, track_trace, p_override, delta_by_grid, mixed=True, residual=True
    )
