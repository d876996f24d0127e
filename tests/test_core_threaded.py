"""Unit tests for the real-thread executor."""

import numpy as np
import pytest

from repro.core import run_threaded
from repro.solvers import AFACx, Multadd


@pytest.fixture(scope="module")
def multadd(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


class TestThreaded:
    def test_local_lock_converges(self, multadd, b_7pt):
        res = run_threaded(multadd, b_7pt, tmax=20, criterion="criterion1")
        assert res.rel_residual < 1e-2
        assert not res.errors

    def test_criterion1_exact_counts(self, multadd, b_7pt):
        res = run_threaded(multadd, b_7pt, tmax=8, criterion="criterion1")
        assert np.all(res.counts == 8)

    def test_criterion2_counts_at_least(self, multadd, b_7pt):
        res = run_threaded(multadd, b_7pt, tmax=8, criterion="criterion2")
        assert np.all(res.counts >= 8)

    @pytest.mark.parametrize("rescomp", ["local", "global", "rupdate"])
    def test_rescomp_modes(self, multadd, b_7pt, rescomp):
        res = run_threaded(
            multadd, b_7pt, tmax=10, rescomp=rescomp, criterion="criterion1"
        )
        # global-res with unpaced one-thread-per-grid workers can
        # legitimately stall or blow past 1.0 (extreme staleness — the
        # very pathology Fig. 4/5 document), so require only a sane run.
        assert np.isfinite(res.rel_residual)
        assert not res.errors
        if rescomp != "global":
            assert res.rel_residual < 1.0

    @pytest.mark.parametrize("write", ["lock", "atomic", "unsafe"])
    def test_write_policies(self, multadd, b_7pt, write):
        res = run_threaded(
            multadd, b_7pt, tmax=10, write=write, criterion="criterion1"
        )
        # Even unsafe writes converge here in practice (updates rarely
        # collide in a GIL runtime) — just check the run is sane.
        assert np.isfinite(res.rel_residual)
        assert not res.errors

    def test_afacx_threaded(self, hier_7pt_agg, b_7pt):
        af = AFACx(hier_7pt_agg, smoother="jacobi", weight=0.9)
        res = run_threaded(af, b_7pt, tmax=15, criterion="criterion1")
        assert res.rel_residual < 0.5
        assert not res.errors

    def test_wall_time_positive(self, multadd, b_7pt):
        res = run_threaded(multadd, b_7pt, tmax=5, criterion="criterion1")
        assert res.wall_time > 0

    def test_invalid_rescomp(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_threaded(multadd, b_7pt, rescomp="telepathic")

    def test_invalid_write(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_threaded(multadd, b_7pt, write="transactional")

    @pytest.mark.parametrize("arm", ["tracer", "live"])
    def test_tracer_and_observer_rejected(self, multadd, b_7pt, arm):
        # A write policy has one observer: a traced run cannot also
        # take a checker.
        from repro.analysis import CheckedWrite
        from repro.observe import LiveConfig, Tracer

        extra = {"tracer": Tracer()} if arm == "tracer" else {"live": LiveConfig()}
        with pytest.raises(ValueError, match="one observer"):
            run_threaded(multadd, b_7pt, tmax=1, observe=CheckedWrite, **extra)

    def test_async_gs_smoother_threaded(self, hier_7pt_agg, b_7pt):
        # The paper's best configuration: async multigrid + async
        # smoothing, with real threads.
        ma = Multadd(
            hier_7pt_agg, smoother="async_gs", nblocks=4, lambda_mode="sweep"
        )
        res = run_threaded(ma, b_7pt, tmax=15, criterion="criterion1")
        assert res.rel_residual < 0.1
        assert not res.errors


class TestResidualMonitor:
    def test_samples_recorded(self, multadd, b_7pt):
        res = run_threaded(
            multadd,
            b_7pt,
            tmax=30,
            criterion="criterion2",
            monitor_interval=0.002,
        )
        assert len(res.residual_samples) >= 1
        times = [t for t, _ in res.residual_samples]
        assert times == sorted(times)

    def test_samples_show_decrease(self, multadd, b_7pt):
        res = run_threaded(
            multadd,
            b_7pt,
            tmax=60,
            criterion="criterion2",
            monitor_interval=0.001,
        )
        rels = [r for _, r in res.residual_samples]
        if len(rels) >= 2:
            assert rels[-1] <= rels[0]

    def test_invalid_interval(self, multadd, b_7pt):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            run_threaded(multadd, b_7pt, tmax=2, monitor_interval=0.0)

    def test_no_monitor_by_default(self, multadd, b_7pt):
        res = run_threaded(multadd, b_7pt, tmax=3)
        assert res.residual_samples == []
