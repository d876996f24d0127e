"""Asynchronous execution machinery — the paper's primary contribution.

- :mod:`repro.core.schedule`  — staleness schedules: per-grid update
  probabilities ``p_k ~ U[alpha, 1]``, read instants ``z_k(t)`` with
  monotone reads and maximum delay ``delta`` (Section III).
- :mod:`repro.core.history`   — ring-buffer history of iterates, the
  "memory" asynchronous grids read stale values from.
- :mod:`repro.core.models`    — the four asynchronous models: semi-
  async (Eq. 6), full-async solution-based (Eq. 7) and residual-based
  (Eq. 10) simulators.
- :mod:`repro.core.writes`    — lock-write / atomic-write / unsafe
  write policies for shared vectors (Section IV).
- :mod:`repro.core.run`       — the run harness every executor shares:
  run context (faults, guard, tracing, live telemetry), the
  Criterion 1 / 2 stopping rule (Section V), the one result type and
  the threaded/procs supervisor.
- :mod:`repro.core.engine`    — the sequential micro-step executor of
  Algorithm 5 (global-res and local-res) with deterministic seeding.
- :mod:`repro.core.threaded`  — the real-thread shared-memory executor
  (one worker per grid, Python ``threading``).
- :mod:`repro.core.parallel`  — the true-parallel executor (one worker
  *process* per thread-group over ``SharedMemory`` vectors; the GIL
  escape that makes wall-clock speedups measurable).
- :mod:`repro.core.perfmodel` — the discrete-event machine model that
  regenerates Table I / Fig 6 wall-clock shapes.
"""

from .schedule import StalenessSchedule, ScheduleParams
from .history import VectorHistory
from .models import (
    AsyncModelResult,
    simulate_semi_async,
    simulate_full_async_solution,
    simulate_full_async_residual,
)
from .writes import WritePolicy, LockWrite, AtomicWrite, UnsafeWrite, make_write_policy
from .run import Criterion, RunContext, RunResult
from .engine import run_async_engine
from .threaded import run_threaded
from .parallel import SetupBundle, SharedVectors, run_procs
from .perfmodel import MachineParams, PerfModel

__all__ = [
    "StalenessSchedule",
    "ScheduleParams",
    "VectorHistory",
    "AsyncModelResult",
    "simulate_semi_async",
    "simulate_full_async_solution",
    "simulate_full_async_residual",
    "WritePolicy",
    "LockWrite",
    "AtomicWrite",
    "UnsafeWrite",
    "make_write_policy",
    "Criterion",
    "RunContext",
    "RunResult",
    "run_async_engine",
    "run_threaded",
    "SetupBundle",
    "SharedVectors",
    "run_procs",
    "MachineParams",
    "PerfModel",
]
