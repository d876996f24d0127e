"""Fault injection and resilience for asynchronous multigrid.

The paper's central claim is that asynchronous additive multigrid
tolerates stragglers and stale reads *by construction* — no grid ever
waits, so a slow or silent grid degrades convergence instead of
deadlocking the solve.  This package makes that claim testable (and
extends it to harder faults) across all three execution backends:

- :mod:`repro.resilience.faults` — declarative :class:`FaultPlan`
  (fail-stop crashes, transient stalls, correction corruption, message
  loss/duplication/delay) plus the seeded runtime
  :class:`FaultInjector` with independent per-fault-class RNG streams.
- :mod:`repro.resilience.guards` — :class:`GuardPolicy` /
  :class:`Guard`: non-finite and magnitude screening of corrections,
  residual-spike detection with checkpoint/rollback, staleness
  watchdog with crash restart budgets, message retransmission and
  dedup policies.
- :mod:`repro.resilience.telemetry` — :class:`FaultTelemetry`, the
  injected-vs-recovered counters every backend attaches to its result.

The executors accept ``faults=`` and ``guard=`` uniformly:

>>> from repro.resilience import FaultPlan, CrashFault, GuardPolicy
>>> plan = FaultPlan(crashes=(CrashFault(grid=1, after=5),),
...                  corruption_probability=0.01, seed=0)
>>> # run_async_engine(solver, b, faults=plan, guard=GuardPolicy())
"""

from .faults import CrashFault, FaultInjector, FaultPlan, StallFault, parse_fault_spec
from .guards import CHECKPOINT_ROUNDS, MAX_RETRANSMITS, Guard, GuardPolicy
from .telemetry import FaultTelemetry

__all__ = [
    "CrashFault",
    "StallFault",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_spec",
    "CHECKPOINT_ROUNDS",
    "MAX_RETRANSMITS",
    "Guard",
    "GuardPolicy",
    "FaultTelemetry",
]
