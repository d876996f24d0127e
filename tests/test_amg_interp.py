"""Unit tests for repro.amg.interp."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg import (
    CPOINT,
    aggressive_coarsening,
    classical_interpolation,
    classical_strength,
    direct_interpolation,
    multipass_interpolation,
    rs_coarsening,
    truncate_interpolation,
)


@pytest.fixture(scope="module")
def setup_7pt(A_7pt):
    S = classical_strength(A_7pt, theta=0.25)
    split = rs_coarsening(S)
    return A_7pt, S, split


def _common_checks(P, split):
    nc = int((split == CPOINT).sum())
    assert P.shape[1] == nc
    cpts = np.flatnonzero(split == CPOINT)
    # C rows are exact identity rows.
    sub = P[cpts].toarray()
    assert np.allclose(sub, np.eye(nc))


class TestDirectInterpolation:
    def test_shape_and_identity_rows(self, setup_7pt):
        A, S, split = setup_7pt
        P = direct_interpolation(A, S, split)
        _common_checks(P, split)

    def test_row_sums_interior_one(self, setup_7pt):
        # Zero-row-sum rows (pure interior) must interpolate constants
        # exactly: P row sum == 1.
        A, S, split = setup_7pt
        P = direct_interpolation(A, S, split)
        rowsum_A = np.asarray(A.sum(axis=1)).ravel()
        rowsum_P = np.asarray(P.sum(axis=1)).ravel()
        interior = np.abs(rowsum_A) < 1e-12
        fpts = split != CPOINT
        sel = interior & fpts
        if sel.any():
            assert np.allclose(rowsum_P[sel], 1.0, atol=1e-12)

    def test_weights_nonnegative_for_mmatrix(self, setup_7pt):
        A, S, split = setup_7pt
        P = direct_interpolation(A, S, split)
        assert P.data.min() >= 0.0

    def test_1d_exact_halves(self, A_1d):
        S = classical_strength(A_1d)
        split = rs_coarsening(S)
        P = direct_interpolation(A_1d, S, split)
        fpts = np.flatnonzero(split != CPOINT)
        for i in fpts:
            row = P[int(i)].toarray().ravel()
            nz = row[row != 0]
            # interior F points average their two C neighbours
            if nz.size == 2:
                assert np.allclose(nz, 0.5)


class TestClassicalInterpolation:
    def test_shape_and_identity_rows(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        _common_checks(P, split)

    def test_interior_rows_interpolate_constants(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        rowsum_A = np.asarray(A.sum(axis=1)).ravel()
        rowsum_P = np.asarray(P.sum(axis=1)).ravel()
        sel = (np.abs(rowsum_A) < 1e-12) & (split != CPOINT)
        if sel.any():
            assert np.allclose(rowsum_P[sel], 1.0, atol=1e-10)

    def test_better_than_direct_for_two_level(self, setup_7pt):
        # Classical interpolation should give a two-level method at
        # least as good as direct interpolation (rates on a small
        # homogeneous iteration).
        A, S, split = setup_7pt
        from repro.amg import galerkin_product
        import scipy.sparse.linalg as spla

        def two_level_rate(P):
            Ac = galerkin_product(A, P)
            lu = spla.splu(Ac.tocsc())
            d = A.diagonal()
            rng = np.random.default_rng(0)
            x = rng.standard_normal(A.shape[0])
            for _ in range(15):
                x = x - 0.9 / d * (A @ x)  # smooth
                x = x - P @ lu.solve(P.T @ (A @ x))  # correct
                x = x - 0.9 / d * (A @ x)
                nrm = np.linalg.norm(x)
                x /= nrm
            return nrm

        r_classical = two_level_rate(classical_interpolation(A, S, split))
        r_direct = two_level_rate(direct_interpolation(A, S, split))
        assert r_classical <= r_direct + 0.05

    def test_columns_only_c_points(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        # every column corresponds to a C point; total columns == #C
        assert P.shape[1] == (split == CPOINT).sum()


class TestMultipassInterpolation:
    def test_covers_aggressive_f_points(self, A_7pt):
        S = classical_strength(A_7pt, theta=0.25)
        split = aggressive_coarsening(S, coarsener="pmis", seed=0)
        P = multipass_interpolation(A_7pt, S, split)
        # With aggressive coarsening many F points have no strong C
        # neighbour; multipass must still give them nonzero rows.
        row_nnz = np.diff(P.indptr)
        fpts = split != CPOINT
        frac_covered = (row_nnz[fpts] > 0).mean()
        assert frac_covered > 0.95

    def test_identity_on_c(self, A_7pt):
        S = classical_strength(A_7pt, theta=0.25)
        split = aggressive_coarsening(S, coarsener="pmis", seed=0)
        P = multipass_interpolation(A_7pt, S, split)
        _common_checks(P, split)

    def test_constant_preservation_zero_rowsum_matrix(self, A_7pt):
        # On a matrix with zero row sums everywhere (graph Laplacian of
        # the 7pt grid, no Dirichlet truncation), multipass rows must
        # interpolate constants exactly — rowsum(P) == 1 for every
        # covered row.  (On Dirichlet-truncated matrices rows adjacent
        # to the boundary legitimately sum to < 1.)
        import scipy.sparse as sp

        offdiag = A_7pt - sp.diags(A_7pt.diagonal())
        degrees = -np.asarray(offdiag.sum(axis=1)).ravel()
        G = (sp.diags(degrees) + offdiag).tocsr()
        S = classical_strength(G, theta=0.25)
        split = aggressive_coarsening(S, coarsener="pmis", seed=0)
        P = multipass_interpolation(G, S, split)
        covered = np.diff(P.indptr) > 0
        rowsum_P = np.asarray(P.sum(axis=1)).ravel()
        assert np.allclose(rowsum_P[covered], 1.0, atol=1e-8)


class TestTruncation:
    def test_noop_when_disabled(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        P2 = truncate_interpolation(P, 0.0, 0)
        assert (P != P2).nnz == 0

    def test_drops_small_entries(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        P2 = truncate_interpolation(P, trunc_factor=0.5)
        assert P2.nnz <= P.nnz

    def test_preserves_row_sums(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        P2 = truncate_interpolation(P, trunc_factor=0.3)
        assert np.allclose(
            np.asarray(P.sum(axis=1)).ravel(),
            np.asarray(P2.sum(axis=1)).ravel(),
            atol=1e-12,
        )

    def test_max_per_row(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        P2 = truncate_interpolation(P, max_per_row=2)
        assert np.diff(P2.indptr).max() <= 2

    def test_invalid_factor(self, setup_7pt):
        A, S, split = setup_7pt
        P = classical_interpolation(A, S, split)
        with pytest.raises(ValueError):
            truncate_interpolation(P, trunc_factor=1.5)
