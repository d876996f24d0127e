"""Distributed-memory asynchronous multigrid (simulation).

The paper closes with: "Looking towards distributed memory parallelism,
we believe that the global-res approach is the most natural way to
implement a distributed asynchronous multigrid method since we do not
have to compute multiple fine grid residuals."  This package builds the
simulation machinery to *test* that claim:

- :mod:`repro.distributed.network` — a latency/bandwidth network model
  with per-link delays and a seeded jitter process.
- :mod:`repro.distributed.simulator` — a discrete-event simulator of
  distributed asynchronous additive multigrid: each grid lives on its
  own process; the fine-grid iterate/residual is replicated and
  updated by correction messages that arrive after a network delay.
  Both residual strategies are implemented:

  * ``global-res``: processes exchange *correction* messages; each
    process folds incoming corrections into its replica of the shared
    residual (one SpMV per message against the correction — cheap,
    single fine-grid residual, the paper's recommendation);
  * ``local-res``: processes exchange *iterate* updates and recompute
    their own fine residual before every correction (more computation,
    fresher data).

The simulator returns the same :class:`~repro.core.run.RunResult` as
the shared-memory executors (final relative residual, per-grid
corrections, simulated wall-clock, message counts),
so benchmarks can put the paper's distributed-memory conjecture on the
same axes as its shared-memory results.

Elastic membership (:mod:`repro.distributed.elastic`) removes the
fixed-worker-set assumption: a pool of simulated ranks staffs the grid
processes, churn plans crash/stall/join/leave ranks mid-run, failures
are detected by heartbeat silence, and work is re-partitioned over the
survivors so the solve finishes *degraded* instead of failing.
"""

from .elastic import (
    ChurnEvent,
    ChurnPlan,
    ElasticityPolicy,
    MembershipManager,
    parse_churn_spec,
)
from .events import DedupIndex, IndexedEventQueue
from .network import NetworkModel
from .simulator import simulate_distributed

__all__ = [
    "NetworkModel",
    "simulate_distributed",
    "ChurnEvent",
    "ChurnPlan",
    "ElasticityPolicy",
    "MembershipManager",
    "parse_churn_spec",
    "DedupIndex",
    "IndexedEventQueue",
]
