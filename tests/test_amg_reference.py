"""The array-form AMG setup stages against their row-loop reference.

``amg_reference`` keeps the loop versions of the RS first pass, HMIS,
classical and multipass interpolation.  The shipped stages must give
byte-identical splittings and operators, whole hierarchies included,
so setup-cache keys, seeded traces and the benchmark's exact counts do
not move.  The shipped code runs under ``np.errstate(all="raise")`` so
that a silent division by zero fails.
"""

import tracemalloc

import amg_reference as ref
import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg import (
    CPOINT,
    FPOINT,
    UNDECIDED,
    SetupOptions,
    classical_interpolation,
    classical_strength,
    hmis_coarsening,
    multipass_interpolation,
    rs_coarsening,
    rs_first_pass,
    setup_hierarchy,
)
from repro.amg import aggressive as amg_aggressive
from repro.amg import hierarchy as amg_hierarchy
from repro.problems import build_problem

#: Where repro.amg looks the four stages up at call time.
_LOOKUPS = [
    (amg_hierarchy, "hmis_coarsening"),
    (amg_hierarchy, "rs_coarsening"),
    (amg_hierarchy, "classical_interpolation"),
    (amg_hierarchy, "multipass_interpolation"),
    (amg_aggressive, "hmis_coarsening"),
]

_ELASTIC = dict(strength_norm="abs", num_functions=3)

HIERARCHY_CASES = [
    # The registry sets at small sizes, default options.
    ("5pt", 24, {}),
    ("7pt", 4, {}),
    ("7pt", 12, {}),
    ("27pt", 5, {}),
    ("27pt", 12, {}),
    ("mfem_laplace", 10, {}),
    # The two cold_solve problems.
    ("5pt", 96, {}),
    ("27pt", 20, {}),
    # Option combinations; 7pt 12^3 gives every one of them 3-5 levels.
    ("7pt", 12, dict(aggressive_levels=0)),
    ("7pt", 12, dict(aggressive_levels=2)),
    ("7pt", 12, dict(coarsen_type="rs")),
    ("7pt", 12, dict(coarsen_type="rs", aggressive_levels=0)),
    ("7pt", 12, dict(coarsen_type="pmis", aggressive_levels=2)),
    ("7pt", 12, dict(npaths=2)),
    ("7pt", 12, dict(nparts=1)),
    ("7pt", 12, dict(interp_type="direct")),
    ("7pt", 12, dict(trunc_factor=0.2, max_per_row=4)),
    ("27pt", 12, dict(aggressive_levels=0)),
    ("27pt", 12, dict(aggressive_levels=2, seed=3)),
    ("mfem_laplace", 10, dict(aggressive_levels=0)),
    ("mfem_laplace", 10, dict(aggressive_levels=2, trunc_factor=0.2)),
    # Elasticity with paper_hierarchy's options, then aggressive levels.
    ("mfem_elasticity", 4, dict(_ELASTIC, aggressive_levels=0)),
    ("mfem_elasticity", 4, dict(_ELASTIC, aggressive_levels=1)),
    ("mfem_elasticity", 4, dict(strength_norm="abs", aggressive_levels=2)),
]


def reference_setup(monkeypatch, A, opts):
    with monkeypatch.context() as patch:
        for module, name in _LOOKUPS:
            patch.setattr(module, name, getattr(ref, name))
        return setup_hierarchy(A, opts)


def shipped_setup(A, opts):
    with np.errstate(all="raise"):
        return setup_hierarchy(A, opts)


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert_same_array(getattr(a, name), getattr(b, name))


def assert_same_hierarchy(h0, h1):
    assert h0.nlevels == h1.nlevels
    for k, (l0, l1) in enumerate(zip(h0.levels, h1.levels)):
        assert_same_csr(l0.A, l1.A)
        if k == h0.coarsest:
            assert l0.P is None and l1.P is None
            continue
        assert_same_csr(l0.P, l1.P)
        assert_same_csr(l0.R, l1.R)
        assert_same_array(l0.splitting, l1.splitting)


@pytest.mark.parametrize(
    "name,size,kw",
    HIERARCHY_CASES,
    ids=[f"{n}-{s}" + "".join(f"-{k}={v}" for k, v in kw.items()) for n, s, kw in HIERARCHY_CASES],
)
def test_hierarchy_matches_reference(monkeypatch, name, size, kw):
    A = build_problem(name, size).A
    opts = SetupOptions(**kw)
    assert_same_hierarchy(reference_setup(monkeypatch, A, opts), shipped_setup(A, opts))


class TestRSFirstPass:
    @pytest.fixture(scope="class")
    def S(self):
        return classical_strength(build_problem("5pt", 20).A)

    def test_full_domain(self, S):
        with np.errstate(all="raise"):
            got = rs_first_pass(S)
        assert_same_array(got, ref.rs_first_pass(S))
        assert_same_array(rs_coarsening(S), ref.rs_coarsening(S))

    def test_block_with_preseeded_splitting(self, S):
        n = S.shape[0]
        allowed = np.zeros(n, dtype=bool)
        allowed[n // 4 : 3 * n // 4] = True
        seeded = np.full(n, UNDECIDED, dtype=np.int8)
        seeded[np.arange(0, n, 7)] = CPOINT  # inside and outside the block
        seeded[np.arange(3, n, 11)] = FPOINT
        want = ref.rs_first_pass(S, allowed=allowed, splitting=seeded.copy())
        mine = seeded.copy()
        with np.errstate(all="raise"):
            got = rs_first_pass(S, allowed=allowed, splitting=mine)
        assert got is mine
        assert_same_array(got, want)
        assert np.array_equal(got[~allowed], seeded[~allowed])

    def test_isolated_points_and_hmis_blocks(self):
        # Two strongly coupled chains and isolated points in between.
        A = sp.block_diag(
            [build_problem("5pt", 16).A, sp.identity(5), build_problem("5pt", 12).A]
        ).tocsr()
        S = classical_strength(A)
        with np.errstate(all="raise"):
            got = rs_first_pass(S)
            hmis = hmis_coarsening(S, nparts=3, seed=1)
        assert_same_array(got, ref.rs_first_pass(S))
        assert np.all(got[256:261] == FPOINT)
        assert_same_array(hmis, ref.hmis_coarsening(S, nparts=3, seed=1))


def _csr(n, entries):
    rows, cols, vals = zip(*entries)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestClassicalBranches:
    """One row per branch of the classical loop, with hand-computed weights."""

    C, F = CPOINT, FPOINT
    A = _csr(7, [
        (0, 0, 4.0), (0, 1, -1.0),
        (1, 0, -2.0), (1, 1, 4.0), (1, 2, -1.0),
        (2, 1, -1.0), (2, 2, 4.0), (2, 3, -1.0),
        (3, 2, -1.0), (3, 3, 4.0), (3, 4, -2.0), (3, 5, -1.0),
        (4, 3, -1.0), (4, 4, 4.0),
        (5, 3, -1.0), (5, 4, -1.0), (5, 5, 4.0),
        (6, 3, -0.5), (6, 4, -4.0), (6, 5, -0.5), (6, 6, 1.0),
    ])
    S = _csr(7, [
        (1, 0, 1.0), (1, 2, 1.0),  # F-F pair (1, 2) shares no C-point: lumped
        (2, 1, 1.0), (2, 3, 1.0),  # no strong C-neighbour: zero row
        (3, 4, 1.0), (3, 5, 1.0),  # (3, 5) distributes through C-point 4
        (5, 3, 1.0), (5, 4, 1.0),
        (6, 4, 1.0),               # weak entries cancel a_66: the d_i guard
    ])
    splitting = np.array([C, F, F, F, C, F, F], dtype=np.int8)

    def test_weights_and_reference(self):
        with np.errstate(all="raise"):
            P = classical_interpolation(self.A, self.S, self.splitting)
        assert_same_csr(P, ref.classical_interpolation(self.A, self.S, self.splitting))
        want = [[1, 0], [2 / 3, 0], [0, 0], [0, 1], [0, 1], [0, 0.5], [0, 4]]
        np.testing.assert_allclose(P.toarray(), want, rtol=1e-15)


class TestMultipassBranches:
    """Several passes, a row that waits a pass, and rows left at zero."""

    C, F = CPOINT, FPOINT
    A = _csr(8, [
        (0, 0, 2.0), (0, 1, -1.0), (0, 4, -1.0),
        (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
        (2, 1, -1.0), (2, 2, 2.0), (2, 3, -1.0),
        (3, 1, -1.0), (3, 2, -1.0), (3, 3, 3.0), (3, 4, 1.0),
        (4, 0, -1.0), (4, 3, 1.0), (4, 4, 2.0),
        (5, 5, 2.0), (5, 6, -1.0),
        (6, 5, -1.0), (6, 6, 2.0),
        (7, 0, -1.0),  # no diagonal: never interpolated
    ])
    S = _csr(8, [
        (1, 0, 1.0), (1, 2, 1.0),
        (2, 1, 1.0), (2, 3, 1.0),
        (3, 1, 1.0), (3, 2, 1.0), (3, 4, 1.0),  # pass 2: used sum -1 + 1 == 0
        (4, 0, 1.0),                            # pass 1, row sum 0: zero weight
        (5, 6, 1.0), (6, 5, 1.0),               # cut off from every C-point
        (7, 0, 1.0),
    ])
    splitting = np.array([C, F, F, F, F, F, F, F], dtype=np.int8)

    def test_weights_and_reference(self):
        with np.errstate(all="raise"):
            P = multipass_interpolation(self.A, self.S, self.splitting)
        assert_same_csr(P, ref.multipass_interpolation(self.A, self.S, self.splitting))
        want = [[1], [1], [1], [2 / 3], [0], [0], [0], [0]]
        np.testing.assert_allclose(P.toarray(), want, rtol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_random_integer_operators_match_reference(seed):
    """Small-integer matrices make exact cancellations common.

    That reaches the ``d_m == 0`` lumping, the ``d_i`` guard and
    multipass rows whose used sum cancels, with mixed signs and random
    splittings.
    """
    rng = np.random.default_rng(seed)
    n = 60
    off = sp.random(n, n, density=0.12, random_state=rng, format="csr")
    off.data = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0], size=off.nnz)
    off.setdiag(0.0)
    A = (off + sp.diags(rng.choice([1.0, 2.0, 4.0, 6.0], size=n))).tocsr()
    A.eliminate_zeros()
    S = classical_strength(A, theta=0.5, norm="abs")
    splitting = np.where(rng.random(n) < 0.3, CPOINT, FPOINT).astype(np.int8)
    with np.errstate(all="raise"):
        P_c = classical_interpolation(A, S, splitting)
        P_m = multipass_interpolation(A, S, splitting)
    assert_same_csr(P_c, ref.classical_interpolation(A, S, splitting))
    assert_same_csr(P_m, ref.multipass_interpolation(A, S, splitting))


def _setup_peak_mb(setup, A, opts):
    tracemalloc.start()
    try:
        setup(A, opts)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_setup_memory_no_worse_than_reference(monkeypatch):
    """Setup may not buy its speed with memory (cold_solve's RSS bound is 5%).

    Default options on 27pt 12^3: the same stages as the benchmark's
    27pt 20^3, where the loops take over ten seconds under tracemalloc.
    """
    A = build_problem("27pt", 12).A
    opts = SetupOptions()
    reference = _setup_peak_mb(
        lambda A, opts: reference_setup(monkeypatch, A, opts), A, opts
    )
    shipped = _setup_peak_mb(setup_hierarchy, A, opts)
    assert shipped <= 1.05 * reference, (shipped, reference)
