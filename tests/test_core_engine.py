"""Unit tests for the sequential Algorithm-5 engine."""

import numpy as np
import pytest

from repro.core import engine, run_async_engine
from repro.resilience import parse_fault_spec
from repro.solvers import AFACx, Multadd


@pytest.fixture(scope="module")
def multadd(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


class TestEngineBasics:
    def test_local_lock_converges(self, multadd, b_7pt):
        res = run_async_engine(multadd, b_7pt, tmax=20, seed=0)
        assert res.rel_residual < 1e-3
        assert not res.diverged

    def test_criterion1_counts_exact(self, multadd, b_7pt):
        res = run_async_engine(
            multadd, b_7pt, tmax=9, criterion="criterion1", seed=0
        )
        assert np.all(res.counts == 9)

    def test_criterion2_counts_at_least(self, multadd, b_7pt):
        res = run_async_engine(
            multadd, b_7pt, tmax=9, criterion="criterion2", seed=0, alpha=0.3
        )
        assert np.all(res.counts >= 9)
        assert res.counts.max() > 9  # fast grids overshoot

    def test_reproducible(self, multadd, b_7pt):
        r1 = run_async_engine(multadd, b_7pt, tmax=10, seed=4)
        r2 = run_async_engine(multadd, b_7pt, tmax=10, seed=4)
        assert r1.rel_residual == r2.rel_residual

    def test_seeds_differ(self, multadd, b_7pt):
        r1 = run_async_engine(multadd, b_7pt, tmax=10, seed=1, alpha=0.2)
        r2 = run_async_engine(multadd, b_7pt, tmax=10, seed=2, alpha=0.2)
        assert r1.rel_residual != r2.rel_residual

    def test_invalid_args(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_async_engine(multadd, b_7pt, rescomp="psychic")
        with pytest.raises(ValueError):
            run_async_engine(multadd, b_7pt, write="wish")


class TestRescompModes:
    @pytest.mark.parametrize("rescomp", ["local", "global", "rupdate"])
    @pytest.mark.parametrize("write", ["lock", "atomic"])
    def test_all_modes_run(self, multadd, b_7pt, rescomp, write):
        res = run_async_engine(
            multadd, b_7pt, tmax=10, rescomp=rescomp, write=write, seed=0, alpha=0.5
        )
        assert res.rel_residual < 1.0

    def test_global_res_slower_than_local(self, multadd, b_7pt):
        # The paper's central Section-IV observation.
        rels_local, rels_global = [], []
        for s in range(3):
            rels_local.append(
                run_async_engine(
                    multadd, b_7pt, tmax=20, rescomp="local", seed=s, alpha=0.2
                ).rel_residual
            )
            rels_global.append(
                run_async_engine(
                    multadd, b_7pt, tmax=20, rescomp="global", seed=s, alpha=0.2
                ).rel_residual
            )
        assert np.mean(rels_local) < np.mean(rels_global)

    def test_alpha_one_lock_local_matches_sync(self, multadd, b_7pt):
        # Perfectly balanced speeds + lock + local-res: every grid does
        # exactly tmax corrections from residuals that interleave, but
        # with alpha=1 the scheduler is still random — so only check
        # it reaches the synchronous ballpark.
        res = run_async_engine(
            multadd, b_7pt, tmax=20, alpha=1.0, seed=0
        )
        sync = multadd.solve(b_7pt, tmax=20)
        assert res.rel_residual < 100 * sync.final_relres


class TestCheckpoints:
    def test_checkpoints_recorded(self, multadd, b_7pt):
        res = run_async_engine(
            multadd,
            b_7pt,
            tmax=20,
            criterion="criterion2",
            checkpoints=[5, 10, 20],
            seed=0,
        )
        cps = [c[0] for c in res.checkpoint_results]
        assert cps == [5, 10, 20]
        rels = [c[1] for c in res.checkpoint_results]
        assert rels[0] > rels[-1]  # converging

    def test_checkpoints_need_criterion2(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_async_engine(
                multadd, b_7pt, tmax=10, criterion="criterion1", checkpoints=[5]
            )

    def test_checkpoint_corrects_monotone(self, multadd, b_7pt):
        res = run_async_engine(
            multadd,
            b_7pt,
            tmax=15,
            criterion="criterion2",
            checkpoints=[5, 10, 15],
            seed=1,
            alpha=0.5,
        )
        cors = [c[2] for c in res.checkpoint_results]
        assert cors == sorted(cors)


class TestAFACxEngine:
    def test_afacx_async_converges(self, hier_7pt_agg, b_7pt):
        af = AFACx(hier_7pt_agg, smoother="jacobi", weight=0.9)
        res = run_async_engine(af, b_7pt, tmax=30, seed=0, alpha=0.5)
        assert res.rel_residual < 1e-2


class TestActivityTrace:
    def test_spans_recorded_per_correction(self, multadd, b_7pt):
        res = run_async_engine(multadd, b_7pt, tmax=5, seed=0)
        assert len(res.activity_trace) == int(res.counts.sum())
        for g, a, z in res.activity_trace:
            assert 0 <= g < multadd.ngrids
            assert a <= z

    def test_renders_as_timeline(self, multadd, b_7pt):
        from repro.utils import ascii_timeline

        res = run_async_engine(multadd, b_7pt, tmax=4, seed=0, alpha=0.3)
        out = ascii_timeline(res.activity_trace, multadd.ngrids)
        assert out.count("grid") == multadd.ngrids


def choice_draw(rng, speeds, ready, cdfs):
    """The scheduler draw as ``Generator.choice`` makes it."""
    w = speeds[ready]
    return int(rng.choice(ready, p=w / w.sum()))


class TestSchedulerDraw:
    """The engine's cached draw picks what ``Generator.choice`` picks."""

    def test_draws_equal_choice(self):
        aux = np.random.default_rng(11)
        speeds = aux.uniform(0.1, 1.0, size=16)
        # Ready sets of 9-16 grids: past 8 weights numpy's pairwise sum
        # and a left-to-right sum part ways.
        pool = [
            sorted(aux.choice(16, size=m, replace=False).tolist())
            for m in (9, 10, 11, 12, 13, 14, 15, 16)
        ]
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        cdfs = {}
        picks = set()
        for i in range(12_000):
            ready = pool[int(aux.integers(len(pool)))]
            got = engine._next_grid(ours, speeds, ready, cdfs)
            assert got == choice_draw(theirs, speeds, ready, None), f"draw {i}"
            picks.add(got)
        assert picks == set(range(16))
        # One double per draw: the generators are still in step.
        assert ours.bit_generator.state == theirs.bit_generator.state

        sums_differ = 0
        for ready in pool:
            w = speeds[ready]
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            assert cdfs[tuple(ready)] == cdf.tolist()
            sums_differ += sum(w.tolist()) != w.sum()
        assert sums_differ > 0  # the pool tells numpy's sum from Python's

    def test_draw_on_a_cumulative_weight_goes_right(self):
        # choice searches the cumulative weights with side="right"; a
        # uniform equal to one of them picks the next grid.
        class Fixed:
            def random(self):
                return 0.25

        speeds = np.array([1.0, 1.0, 2.0])
        assert engine._next_grid(Fixed(), speeds, [0, 1, 2], {}) == 1

    def test_negative_weight_raises_like_choice(self):
        speeds = np.array([0.5, -0.2, 0.9])
        with pytest.raises(ValueError):
            choice_draw(np.random.default_rng(0), speeds, [0, 1, 2], None)
        with pytest.raises(ValueError):
            engine._next_grid(np.random.default_rng(0), speeds, [0, 1, 2], {})

    def test_run_with_stall_equals_choice_run(self, monkeypatch, hier_7pt, b_7pt):
        solver = Multadd(hier_7pt, smoother="jacobi", weight=0.9)
        assert solver.ngrids >= 3
        kw = dict(
            tmax=8,
            criterion="criterion1",
            seed=9,
            alpha=0.3,
            faults=parse_fault_spec("stall:1@2,duration=60"),
        )
        ours = run_async_engine(solver, b_7pt, **kw)
        assert ours.telemetry.injected_stalls == 1
        monkeypatch.setattr(engine, "_next_grid", choice_draw)
        theirs = run_async_engine(solver, b_7pt, **kw)
        assert ours.activity_trace == theirs.activity_trace
        assert np.array_equal(ours.counts, theirs.counts)
        assert ours.micro_steps == theirs.micro_steps
        assert ours.x.tobytes() == theirs.x.tobytes()
