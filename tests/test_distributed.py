"""Unit tests for the distributed-memory simulator."""

import numpy as np
import pytest

from repro.core.perfmodel import MachineParams
from repro.distributed import NetworkModel, simulate_distributed
from repro.distributed.network import BANDWIDTH
from repro.solvers import Multadd


@pytest.fixture(scope="module")
def multadd(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


class TestNetworkModel:
    def test_transfer_time_components(self):
        net = NetworkModel(latency=1e-6, jitter=0.0)
        t = net.transfer_time(1e6)
        assert t == pytest.approx(1e-6 + 1e6 / BANDWIDTH)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)
        with pytest.raises(ValueError):
            NetworkModel(jitter=-0.1)

    def test_jitter_only_increases(self):
        net = NetworkModel(latency=1e-6, jitter=0.5, seed=1)
        for _ in range(20):
            assert net.transfer_time(0.0) >= 1e-6

    def test_negative_bytes_raise(self):
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.transfer_time(-5)


#: compute-bound configuration: per-correction compute time well above
#: the network latency, so replicas stay fresh (the shared-memory-like
#: regime).  The default (fast) machine is network-bound — realistic,
#: and exactly the regime the latency study exercises.
_COMPUTE_BOUND = dict(machine=MachineParams(flop_rate=2e8, jitter=0.1), nthreads_total=4)


class TestDistributedSimulation:
    def test_converges_global(self, multadd, b_7pt):
        res = simulate_distributed(
            multadd, b_7pt, tmax=20, strategy="global", seed=0, **_COMPUTE_BOUND
        )
        assert res.rel_residual < 1e-2
        assert np.all(res.counts == 20)

    def test_converges_local(self, multadd, b_7pt):
        res = simulate_distributed(
            multadd, b_7pt, tmax=20, strategy="local", seed=0, **_COMPUTE_BOUND
        )
        assert res.rel_residual < 1e-2

    def test_network_bound_regime_is_stale(self, multadd, b_7pt):
        # With compute far cheaper than latency, processes iterate on
        # stale replicas and convergence per correction degrades — the
        # distributed pathology the latency study quantifies.
        fresh = simulate_distributed(
            multadd, b_7pt, tmax=20, seed=0, **_COMPUTE_BOUND
        )
        stale = simulate_distributed(
            multadd,
            b_7pt,
            tmax=20,
            seed=0,
            machine=MachineParams(jitter=0.1),
            nthreads_total=64,
        )
        assert fresh.rel_residual < stale.rel_residual

    def test_wall_time_and_messages(self, multadd, b_7pt):
        res = simulate_distributed(multadd, b_7pt, tmax=5, seed=0)
        assert res.wall_time > 0
        # every correction broadcasts to ngrids-1 peers
        assert res.messages == 5 * multadd.ngrids * (multadd.ngrids - 1)

    def test_criterion2_overshoot(self, multadd, b_7pt):
        res = simulate_distributed(
            multadd,
            b_7pt,
            tmax=8,
            criterion="criterion2",
            machine=MachineParams(jitter=0.5, seed=3),
            seed=3,
        )
        assert np.all(res.counts >= 8)

    def test_invalid_args(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            simulate_distributed(multadd, b_7pt, strategy="psychic")
        with pytest.raises(ValueError):
            simulate_distributed(multadd, b_7pt, criterion="criterion9")

    def test_reproducible(self, multadd, b_7pt):
        r1 = simulate_distributed(multadd, b_7pt, tmax=10, seed=5)
        r2 = simulate_distributed(multadd, b_7pt, tmax=10, seed=5)
        assert r1.rel_residual == r2.rel_residual
        assert r1.wall_time == r2.wall_time

    def test_slow_network_slows_convergence(self, multadd, b_7pt):
        # Same correction budget; staler replicas => worse residual.
        fast = simulate_distributed(
            multadd,
            b_7pt,
            tmax=20,
            network=NetworkModel(latency=1e-7, jitter=0.0),
            machine=MachineParams(flop_rate=2e8, jitter=0.0),
            nthreads_total=4,
            seed=0,
        )
        slow = simulate_distributed(
            multadd,
            b_7pt,
            tmax=20,
            network=NetworkModel(latency=5e-4, jitter=0.0),
            machine=MachineParams(flop_rate=2e8, jitter=0.0),
            nthreads_total=4,
            seed=0,
        )
        assert fast.rel_residual <= slow.rel_residual * 1.5

    def test_global_needs_fewer_flops(self, multadd, b_7pt):
        # The paper's distributed-memory argument: global-res avoids
        # per-correction full-residual recomputation... with one
        # incremental SpMV instead — flops comparable or lower, and
        # never *more* than local-res.
        g = simulate_distributed(multadd, b_7pt, tmax=10, strategy="global", seed=0)
        l = simulate_distributed(multadd, b_7pt, tmax=10, strategy="local", seed=0)
        assert g.flops_total <= l.flops_total * 1.01

    def test_trace_recorded(self, multadd, b_7pt):
        res = simulate_distributed(
            multadd, b_7pt, tmax=5, seed=0, track_trace=True
        )
        assert len(res.residual_samples) == 5 * multadd.ngrids
        times = [t for t, _ in res.residual_samples]
        assert times == sorted(times)


class TestMessageLoss:
    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(drop_probability=1.0)
        with pytest.raises(ValueError):
            NetworkModel(drop_probability=-0.1)

    def test_no_drops_by_default(self, multadd, b_7pt):
        res = simulate_distributed(multadd, b_7pt, tmax=5, seed=0)
        assert res.dropped == 0

    def test_drop_counter(self, multadd, b_7pt):
        res = simulate_distributed(
            multadd,
            b_7pt,
            tmax=10,
            network=NetworkModel(drop_probability=0.5, seed=0),
            **_COMPUTE_BOUND,
        )
        assert res.dropped > 0
        # sent + dropped = corrections * (ngrids - 1)
        total = int(res.counts.sum()) * (multadd.ngrids - 1)
        assert res.messages + res.dropped == total

    def test_loss_degrades_convergence(self, multadd, b_7pt):
        # Asynchronous methods tolerate loss (no deadlock, still
        # converging) but pay in accuracy per correction budget —
        # monotonically in the loss rate.
        rels = []
        for drop in (0.0, 0.3):
            vals = []
            for s in range(3):
                r = simulate_distributed(
                    multadd,
                    b_7pt,
                    tmax=20,
                    network=NetworkModel(drop_probability=drop, seed=s),
                    machine=MachineParams(flop_rate=2e8, jitter=0.1),
                    nthreads_total=4,
                    seed=s,
                )
                vals.append(r.rel_residual)
            rels.append(float(np.mean(vals)))
        assert rels[0] < rels[1]
        assert np.isfinite(rels[1])  # no blow-up: loss never deadlocks
