"""Unit tests for repro.amg.hierarchy, galerkin, smoothed_interp."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg import (
    SetupOptions,
    galerkin_product,
    setup_hierarchy,
    smoothed_interpolants,
)
from repro.amg.smoothed_interp import smoothed_two_level_interpolant
from repro.problems import build_problem


class TestGalerkin:
    def test_symmetric(self, A_7pt, hier_7pt):
        P = hier_7pt.levels[0].P
        Ac = galerkin_product(A_7pt, P)
        assert abs(Ac - Ac.T).max() == 0.0

    def test_spd_preserved(self, A_7pt, hier_7pt):
        P = hier_7pt.levels[0].P
        Ac = galerkin_product(A_7pt, P)
        w = np.linalg.eigvalsh(Ac.toarray())
        assert w.min() > 0

    def test_matches_dense_triple_product(self, A_1d):
        h = setup_hierarchy(A_1d, SetupOptions(aggressive_levels=0, max_coarse=4))
        P = h.levels[0].P
        dense = P.T.toarray() @ A_1d.toarray() @ P.toarray()
        assert np.allclose(h.levels[1].A.toarray(), dense)

    def test_shape_mismatch_raises(self, A_7pt):
        P = sp.csr_matrix(np.ones((3, 2)))
        with pytest.raises(ValueError):
            galerkin_product(A_7pt, P)


class TestSetupHierarchy:
    def test_levels_decrease(self, hier_7pt):
        sizes = [lv.n for lv in hier_7pt.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_coarse_limit_respected(self, hier_7pt):
        assert hier_7pt.levels[-1].n <= 3 * hier_7pt.options.max_coarse

    def test_all_levels_spd(self, hier_7pt):
        for lv in hier_7pt.levels:
            w = np.linalg.eigvalsh(lv.A.toarray())
            assert w.min() > -1e-10

    def test_restriction_is_transpose(self, hier_7pt):
        for lv in hier_7pt.levels[:-1]:
            assert abs(lv.R - lv.P.T).max() == 0.0

    def test_aggressive_coarsens_faster(self, hier_7pt, hier_7pt_agg):
        r0 = hier_7pt.levels[0].n / hier_7pt.levels[1].n
        r1 = hier_7pt_agg.levels[0].n / hier_7pt_agg.levels[1].n
        assert r1 > r0

    def test_operator_complexity_sane(self, hier_7pt_agg):
        assert 1.0 < hier_7pt_agg.operator_complexity() < 6.0

    def test_elasticity_hierarchy_builds(self, hier_elas):
        assert hier_elas.nlevels >= 2

    def test_max_levels(self, A_7pt):
        h = setup_hierarchy(A_7pt, SetupOptions(max_levels=2, aggressive_levels=0))
        assert h.nlevels <= 2

    def test_summary_contains_complexity(self, hier_7pt):
        s = hier_7pt.summary()
        assert "operator complexity" in s

    def test_interpolate_restrict_chain_shapes(self, hier_7pt):
        h = hier_7pt
        k = h.coarsest
        v = np.ones(h.levels[k].n)
        fine = h.interpolate_to_fine(k, v)
        assert fine.shape == (h.levels[0].n,)
        back = h.restrict_from_fine(k, fine)
        assert back.shape == (h.levels[k].n,)

    def test_chain_adjointness(self, hier_7pt):
        # <P_k^0 v, w> == <v, (P_k^0)^T w> for the applied chains.
        h = hier_7pt
        k = h.coarsest
        rng = np.random.default_rng(0)
        v = rng.standard_normal(h.levels[k].n)
        w = rng.standard_normal(h.levels[0].n)
        lhs = float(h.interpolate_to_fine(k, v) @ w)
        rhs = float(v @ h.restrict_from_fine(k, w))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_direct_interp_option(self, A_7pt):
        h = setup_hierarchy(
            A_7pt, SetupOptions(interp_type="direct", aggressive_levels=0)
        )
        assert h.nlevels >= 2

    def test_unknown_options_raise(self, A_7pt):
        with pytest.raises(ValueError):
            setup_hierarchy(A_7pt, SetupOptions(coarsen_type="magic"))
        with pytest.raises(ValueError):
            # aggressive levels use multipass regardless of interp_type,
            # so disable them to hit the interp dispatch.
            setup_hierarchy(
                A_7pt, SetupOptions(interp_type="magic", aggressive_levels=0)
            )


class TestSmoothedInterpolants:
    def test_formula_jacobi(self, hier_7pt):
        lv = hier_7pt.levels[0]
        Pb = smoothed_two_level_interpolant(lv.A, lv.P, kind="jacobi", weight=0.9)
        d = lv.A.diagonal()
        dense = lv.P.toarray() - (0.9 / d)[:, None] * (lv.A @ lv.P).toarray()
        assert np.allclose(Pb.toarray(), dense)

    def test_formula_l1(self, hier_7pt):
        from repro.linalg import l1_row_norms

        lv = hier_7pt.levels[0]
        Pb = smoothed_two_level_interpolant(lv.A, lv.P, kind="l1_jacobi")
        d = l1_row_norms(lv.A)
        dense = lv.P.toarray() - (1.0 / d)[:, None] * (lv.A @ lv.P).toarray()
        assert np.allclose(Pb.toarray(), dense)

    def test_one_per_level(self, hier_7pt):
        Pbars = smoothed_interpolants(hier_7pt)
        assert len(Pbars) == hier_7pt.nlevels - 1

    def test_denser_than_plain(self, hier_7pt):
        Pbars = smoothed_interpolants(hier_7pt)
        assert Pbars[0].nnz > hier_7pt.levels[0].P.nnz

    def test_unknown_kind(self, hier_7pt):
        lv = hier_7pt.levels[0]
        with pytest.raises(ValueError):
            smoothed_two_level_interpolant(lv.A, lv.P, kind="gs")


#: The benchmark's hierarchies under default SetupOptions (its exact
#: counts: compare.py fails a change that moves any of them).
BENCHMARK_SHAPES = [
    ("5pt", 96, [9216, 1152, 552, 144, 36], [45696, 9950, 10416, 2504, 500], 1.511423319328),
    ("27pt", 20, [8000, 140, 38], [195112, 2342, 758], 1.015888310304),
    ("27pt", 28, [21952, 392, 114, 33], [551368, 6830, 3272, 813], 1.019796215957),
    ("7pt", 4, [64, 6], [352, 34], 1.096590909091),
    ("27pt", 5, [125, 1], [2197, 1], 1.000455166136),
]


@pytest.mark.parametrize("name,size,rows,nnz,complexity", BENCHMARK_SHAPES)
def test_benchmark_hierarchy_shapes(name, size, rows, nnz, complexity):
    h = setup_hierarchy(build_problem(name, size).A, SetupOptions())
    assert h.nlevels == len(rows)
    assert [lv.n for lv in h.levels] == rows
    assert [lv.nnz for lv in h.levels] == nnz
    assert round(h.operator_complexity(), 12) == complexity
