"""Staleness schedules for the asynchronous models (Section III).

The paper's simulation framework:

- Each grid ``k`` has an update probability ``p_k`` drawn once per run
  from ``U[alpha, 1]``; ``k`` is in the active set ``Psi(t)`` at time
  instant ``t`` with probability ``p_k``.  Smaller ``alpha`` means more
  "out of sync" grids.
- When grid ``k`` updates at instant ``t`` it reads from instant
  ``z_k(t)`` (or per-component instants ``z_ki(t)`` for full-async),
  sampled uniformly from the admissible window: no older than the
  maximum read delay ``delta`` (``z >= t - delta``) and no older than
  what the grid has already read (monotone reads, ``z >= z_k(tau_k)``).
  With ``delta = 0`` the window collapses to ``{t}`` — reads are
  current, which is how Fig. 1 isolates the effect of ``alpha``.
- Each grid stops after ``updates_per_grid`` corrections; the run ends
  when every grid is done.  The caller counts corrections (the models
  use :class:`~repro.core.run.Criterion`) and passes the counts to
  :meth:`StalenessSchedule.active_set`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScheduleParams", "StalenessSchedule"]


@dataclass(frozen=True)
class ScheduleParams:
    """Parameters of the asynchronous simulation schedule.

    Attributes
    ----------
    alpha:
        Minimum update probability, ``0 < alpha <= 1``.
    delta:
        Maximum read delay in time instants (``>= 0``).
    updates_per_grid:
        Corrections each grid performs before it stops (paper: 20).
    seed:
        Seed for both ``p_k`` and the read-instant sampling.
    """

    alpha: float = 0.1
    delta: int = 0
    updates_per_grid: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.updates_per_grid < 1:
            raise ValueError("updates_per_grid must be >= 1")


class StalenessSchedule:
    """Samples ``Psi(t)`` and the read instants ``z_k(t)`` / ``z_ki(t)``."""

    def __init__(
        self,
        ngrids: int,
        params: ScheduleParams,
        p_override: np.ndarray | None = None,
        delta_by_grid: np.ndarray | None = None,
    ) -> None:
        """``p_override`` fixes the update probabilities explicitly
        instead of sampling ``U[alpha, 1]`` — used to study the paper's
        conclusion that *unbalanced* correction counts (one grid far
        slower than the rest) destroy grid-size-independent
        convergence.

        ``delta_by_grid`` gives each grid its own maximum read delay
        (overriding ``params.delta``) — the distributed-memory model,
        where a grid's staleness is set by its network distance from
        the data rather than by a shared-memory bound."""
        if ngrids < 1:
            raise ValueError("need at least one grid")
        self.ngrids = ngrids
        self.params = params
        self._rng = np.random.default_rng(params.seed)
        if p_override is not None:
            p = np.asarray(p_override, dtype=np.float64)
            if p.shape != (ngrids,) or np.any(p <= 0) or np.any(p > 1):
                raise ValueError("p_override must be ngrids probabilities in (0, 1]")
            self.p = p
        else:
            # p_k ~ U[alpha, 1], fixed for the whole run (Section III).
            self.p = self._rng.uniform(params.alpha, 1.0, size=ngrids)
        if delta_by_grid is not None:
            d = np.asarray(delta_by_grid, dtype=np.int64)
            if d.shape != (ngrids,) or np.any(d < 0):
                raise ValueError("delta_by_grid must be ngrids non-negative ints")
            self.delta = d
        else:
            self.delta = np.full(ngrids, params.delta, dtype=np.int64)
        # Last instant each grid read from (monotone-read constraint).
        self.last_read = np.zeros(ngrids, dtype=np.int64)

    # ------------------------------------------------------------------
    def active_set(self, t: int, counts: np.ndarray) -> np.ndarray:
        """Grids updating at instant ``t`` (``Psi(t)``), given each
        grid's corrections so far in ``counts``.

        Grids that already completed their update budget never
        reactivate; if every still-running grid fails its coin flip the
        instant is simply empty (the model allows ``Psi(t)`` to be
        empty).
        """
        running = counts < self.params.updates_per_grid
        flips = self._rng.uniform(size=self.ngrids) < self.p
        return np.flatnonzero(running & flips)

    @property
    def max_delta(self) -> int:
        """Largest per-grid delay (sizes the history ring buffer)."""
        return int(self.delta.max())

    def _window(self, k: int, t: int) -> tuple[int, int]:
        lo = max(int(self.last_read[k]), t - int(self.delta[k]), 0)
        return lo, t

    def read_instant(self, k: int, t: int) -> int:
        """Sample the scalar ``z_k(t)`` (semi-async) and advance ``tau_k``."""
        lo, hi = self._window(k, t)
        z = int(self._rng.integers(lo, hi + 1))
        self.last_read[k] = max(self.last_read[k], z)
        return z

    def read_instants(self, k: int, t: int, n: int) -> np.ndarray:
        """Sample per-component ``z_ki(t)`` (full-async).

        The monotone-read bookkeeping uses the *oldest* component read,
        so the window can only shrink over time, mirroring the paper's
        ``tau_k`` convention.
        """
        lo, hi = self._window(k, t)
        z = self._rng.integers(lo, hi + 1, size=n)
        self.last_read[k] = max(int(self.last_read[k]), int(z.min()))
        return z
