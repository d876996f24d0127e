"""Tests for the backend-selectable kernel layer (repro.kernels).

Covers the three contracts the layer is built on:

- **backend parity** — the optimized ``numpy`` backend is bit-identical
  to the ``naive`` seed reference on all five kernels; the optional
  ``numba`` backend agrees to 1e-14 relative (it reorders row sums).
- **plan cache** — per-``(matrix, row-range)`` plans are reused, see
  in-place value edits for free, and are invalidated when the matrix's
  structure (its CSR arrays) is replaced.
- **run-level determinism** — seeded async engine traces are
  bit-identical whether kernels run through the ``naive`` reference
  or the ``numpy`` backend, and the setup cache returns the same
  hierarchy object for equal matrices.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.amg import SetupOptions
from repro.kernels.setupcache import (
    cached_setup_hierarchy,
    cached_smoothed_interpolants,
    clear_setup_cache,
    problem_fingerprint,
    setup_cache_info,
)
from repro.problems import build_problem

HAS_NUMBA = "numba" in kernels.available_backends()


@pytest.fixture(autouse=True)
def _restore_backend():
    prev = kernels.current_backend()
    yield
    kernels.use(prev)
    kernels.clear_plans()


@pytest.fixture()
def problem():
    return build_problem("5pt", 12, rhs_seed=3)


def _operands(problem, seed=0):
    rng = np.random.default_rng(seed)
    A = problem.A
    n = A.shape[0]
    return A, rng.standard_normal(n), problem.b, 1.0 / A.diagonal()


def _run_all_kernels(problem):
    """All five kernels on fresh outputs; returns a name->array/float map."""
    A, x, b, dinv = _operands(problem)
    n = A.shape[0]
    lo, hi = n // 4, n // 2
    out = {}
    out["range_matvec"] = kernels.range_matvec(
        A, x, lo, hi, out=np.empty(hi - lo)
    ).copy()
    out["range_residual"] = kernels.range_residual(
        A, x, b, lo, hi, out=np.empty(hi - lo)
    ).copy()
    out["jacobi_sweep"] = kernels.jacobi_sweeps(A, dinv, b, x0=x, nsweeps=3)
    y = np.linspace(0.0, 1.0, n)
    out["prolong_add"] = kernels.prolong_add(y.copy(), A, x, omega=0.7)
    out["residual_norm"] = kernels.residual_norm(A, x, b)
    return out


class TestBackendSelection:
    def test_available_always_has_numpy_and_naive(self):
        avail = kernels.available_backends()
        assert "numpy" in avail and "naive" in avail

    def test_use_returns_resolved_name(self):
        assert kernels.use("numpy") == "numpy"
        assert kernels.current_backend() == "numpy"
        assert kernels.use("off") == "naive"

    def test_auto_resolves(self):
        resolved = kernels.use("auto")
        assert resolved == ("numba" if HAS_NUMBA else "numpy")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            kernels.use("fortran")

    @pytest.mark.skipif(HAS_NUMBA, reason="numba importable here")
    def test_numba_unavailable_raises_importerror(self):
        with pytest.raises(ImportError):
            kernels.use("numba")


class TestBackendParity:
    def test_numpy_bit_identical_to_naive(self, problem):
        """The headline guarantee: plan-driven numpy == seed, bitwise."""
        kernels.use("naive")
        ref = _run_all_kernels(problem)
        kernels.use("numpy")
        got = _run_all_kernels(problem)
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
    def test_numba_matches_numpy_to_1e14(self, problem):
        kernels.use("numpy")
        ref = _run_all_kernels(problem)
        kernels.use("numba")
        got = _run_all_kernels(problem)
        for name in ref:
            np.testing.assert_allclose(
                got[name], ref[name], rtol=1e-14, atol=1e-14, err_msg=name
            )

    def test_empty_row_range(self, problem):
        A, x, b, _ = _operands(problem)
        out = kernels.range_matvec(A, x, 5, 5, out=np.empty(0))
        assert out.shape == (0,)

    def test_full_range_residual_matches_operator(self, problem):
        A, x, b, _ = _operands(problem)
        n = A.shape[0]
        got = kernels.range_residual(A, x, b, 0, n, out=np.empty(n))
        assert np.array_equal(got, b - A @ x)

    def test_jacobi_sweeps_validation_and_zero(self, problem):
        A, x, b, dinv = _operands(problem)
        with pytest.raises(ValueError):
            kernels.jacobi_sweeps(A, dinv, b, nsweeps=-1)
        y = kernels.jacobi_sweeps(A, dinv, b, x0=x, nsweeps=0)
        assert np.array_equal(y, x)
        assert y is not x  # caller owns a fresh vector

    def test_seed_wrapper_row_range_matvec(self, problem):
        A, x, _, _ = _operands(problem)
        n = A.shape[0]
        lo, hi = 3, n - 7
        full = kernels.row_range_matvec(A, x, lo, hi)
        expect = np.zeros(n)
        expect[lo:hi] = (A @ x)[lo:hi]
        assert np.array_equal(full, expect)


class TestBlockedKernels:
    """Multi-RHS kernels: column j of the (n, k) block result must be
    bit-identical to the single-RHS kernel on column j — the contract
    the server's blocked batch solves (``repro.serve.batch``) are
    built on."""

    def _block(self, problem, k=3, seed=5):
        rng = np.random.default_rng(seed)
        n = problem.A.shape[0]
        X = rng.standard_normal((n, k))
        B = rng.standard_normal((n, k))
        return problem.A, X, B

    @pytest.mark.parametrize(
        "backend", ["naive", "numpy"] + (["numba"] if HAS_NUMBA else [])
    )
    def test_block_columns_bitwise_match_single_rhs(self, problem, backend):
        kernels.use(backend)
        A, X, B = self._block(problem)
        n = A.shape[0]
        lo, hi = n // 4, n // 2
        mv = kernels.range_matvec_block(A, X, lo, hi)
        rs = kernels.range_residual_block(A, X, B, lo, hi)
        assert mv.shape == rs.shape == (hi - lo, X.shape[1])
        for j in range(X.shape[1]):
            # explicit outs: the scalar kernels hand back plan scratch
            # otherwise, and the second call would alias the first
            ref_mv = kernels.range_matvec(
                A, X[:, j].copy(), lo, hi, out=np.empty(hi - lo)
            )
            ref_rs = kernels.range_residual(
                A, X[:, j].copy(), B[:, j].copy(), lo, hi,
                out=np.empty(hi - lo),
            )
            assert np.array_equal(mv[:, j], ref_mv), f"col {j}"
            assert np.array_equal(rs[:, j], ref_rs), f"col {j}"

    def test_block_backends_agree_bitwise(self, problem):
        A, X, B = self._block(problem)
        n = A.shape[0]
        kernels.use("naive")
        ref = kernels.range_residual_block(A, X, B, 0, n)
        kernels.use("numpy")
        got = kernels.range_residual_block(A, X, B, 0, n)
        assert np.array_equal(ref, got)

    def test_noncontiguous_block_accepted(self, problem):
        A, X, B = self._block(problem, k=4)
        n = A.shape[0]
        Xf = np.asfortranarray(X)  # forces the contiguity copy path
        got = kernels.range_matvec_block(A, Xf, 0, n)
        ref = kernels.range_matvec_block(A, X, 0, n)
        assert np.array_equal(got, ref)

    def test_block_requires_2d(self, problem):
        A, X, B = self._block(problem)
        with pytest.raises(ValueError):
            kernels.range_matvec_block(A, X[:, 0], 0, 4)

    def test_empty_block_range(self, problem):
        A, X, B = self._block(problem)
        out = kernels.range_residual_block(A, X, B, 7, 7)
        assert out.shape == (0, X.shape[1])


class TestPlanCache:
    def test_plan_reused_across_calls(self, problem):
        A, x, _, _ = _operands(problem)
        kernels.clear_plans()
        p1 = kernels.plan_for(A, 0, 8)
        p2 = kernels.plan_for(A, 0, 8)
        assert p1 is p2
        info = kernels.plan_cache_info()
        assert info["hits"] >= 1

    def test_distinct_ranges_get_distinct_plans(self, problem):
        A = problem.A
        assert kernels.plan_for(A, 0, 8) is not kernels.plan_for(A, 8, 16)

    def test_inplace_value_edit_visible_without_invalidation(self, problem):
        """Editing A.data in place keeps the plan (it aliases the same
        arrays) and the kernels see the new values immediately."""
        A, x, _, _ = _operands(problem)
        n = A.shape[0]
        p_before = kernels.plan_for(A, 0, n)
        before = kernels.range_matvec(A, x, 0, n, out=np.empty(n)).copy()
        A.data[0] *= 2.0
        try:
            assert kernels.plan_for(A, 0, n) is p_before
            after = kernels.range_matvec(A, x, 0, n, out=np.empty(n))
            assert not np.array_equal(before, after)
            assert np.array_equal(after, A @ x)
        finally:
            A.data[0] /= 2.0

    def test_structural_mutation_invalidates_plan(self, problem):
        """Writing a brand-new nonzero replaces the CSR arrays; the
        stale plan must be dropped, not silently reused."""
        A = problem.A.copy()
        n = A.shape[0]
        x = np.ones(n)
        p_before = kernels.plan_for(A, 0, n)
        # (0, n-1) is guaranteed structurally absent in the 5pt stencil.
        assert A[0, n - 1] == 0.0
        with pytest.warns(sp.SparseEfficiencyWarning):
            A[0, n - 1] = 1.0
        p_after = kernels.plan_for(A, 0, n)
        assert p_after is not p_before
        got = kernels.range_matvec(A, x, 0, n, out=np.empty(n))
        assert np.array_equal(got, A @ x)

    def test_scratch_is_per_slot_and_reused(self):
        a = kernels.scratch(64, slot=0)
        b = kernels.scratch(64, slot=1)
        assert a is not b
        assert kernels.scratch(64, slot=0) is a
        assert kernels.scratch(128, slot=0).shape == (128,)


class TestKernelStats:
    def test_stats_accumulate_and_delta(self, problem):
        A, x, b, _ = _operands(problem)
        prev = kernels.enable_stats(True)
        try:
            before = kernels.stats()
            kernels.residual_norm(A, x, b)
            kernels.residual_norm(A, x, b)
            delta = kernels.stats_delta(before)
            calls, secs = delta["residual_norm"]
            assert calls == 2
            assert secs >= 0.0
        finally:
            kernels.enable_stats(prev)

    def test_disabled_stats_do_not_count(self, problem):
        A, x, b, _ = _operands(problem)
        kernels.enable_stats(False)
        before = kernels.stats()
        kernels.residual_norm(A, x, b)
        assert "residual_norm" not in kernels.stats_delta(before)


class TestEngineBitIdentity:
    """The acceptance gate: seeded engine runs are bit-identical with
    the kernel layer routed through ``naive`` (the seed paths) and
    ``numpy`` (the optimized plans)."""

    @pytest.mark.parametrize("rescomp", ["local", "global", "rupdate"])
    def test_residual_trace_identical_naive_vs_numpy(self, rescomp):
        from repro.core import run_async_engine
        from repro.solvers import Multadd

        p = build_problem("7pt", 8, rhs_seed=1)
        hier = cached_setup_hierarchy(p.A, SetupOptions())
        solver = Multadd(hier, smoother="jacobi", weight=p.jacobi_weight)

        def run():
            return run_async_engine(
                solver, p.b, tmax=8, rescomp=rescomp, seed=4, track_trace=True
            )

        kernels.use("naive")
        ref = run()
        kernels.use("numpy")
        got = run()
        assert ref.kernel_backend == "naive"
        assert got.kernel_backend == "numpy"
        assert np.array_equal(ref.x, got.x)
        assert ref.rel_residual == got.rel_residual
        assert ref.residual_samples == got.residual_samples


class TestSetupCache:
    def test_equal_matrices_share_hierarchy(self):
        clear_setup_cache()
        p1 = build_problem("5pt", 10)
        p2 = build_problem("5pt", 10)
        assert p1.A is not p2.A
        h1 = cached_setup_hierarchy(p1.A, SetupOptions())
        h2 = cached_setup_hierarchy(p2.A, SetupOptions())
        assert h1 is h2
        info = setup_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_different_options_miss(self):
        clear_setup_cache()
        p = build_problem("5pt", 10)
        h1 = cached_setup_hierarchy(p.A, SetupOptions(theta=0.25))
        h2 = cached_setup_hierarchy(p.A, SetupOptions(theta=0.5))
        assert h1 is not h2

    def test_fingerprint_tracks_content(self):
        p = build_problem("5pt", 8)
        f1 = problem_fingerprint(p.A)
        B = p.A.copy()
        B.data[0] += 1.0
        assert problem_fingerprint(B) != f1
        assert problem_fingerprint(p.A.copy()) == f1

    def test_smoothed_interpolants_cached_on_hierarchy(self):
        clear_setup_cache()
        p = build_problem("5pt", 10)
        h = cached_setup_hierarchy(p.A, SetupOptions())
        a = cached_smoothed_interpolants(h, kind="jacobi", weight=0.9)
        b = cached_smoothed_interpolants(h, kind="jacobi", weight=0.9)
        assert a is b
        c = cached_smoothed_interpolants(h, kind="jacobi", weight=0.5)
        assert c is not a


class TestSetupCacheConcurrency:
    """The serve pool hammers the cache from worker threads; these are
    the concurrent-access regression tests for the locked rewrite."""

    def test_concurrent_same_key_converges_on_one_hierarchy(self):
        import threading

        clear_setup_cache()
        nthreads = 8
        problems = [build_problem("5pt", 10) for _ in range(nthreads)]
        barrier = threading.Barrier(nthreads)
        got = [None] * nthreads
        errors = []

        def worker(i):
            try:
                barrier.wait(timeout=10.0)
                got[i] = cached_setup_hierarchy(problems[i].A, SetupOptions())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert all(not t.is_alive() for t in threads)
        # Every thread got a usable hierarchy, and the cache holds
        # exactly one entry for the key — first insertion won, losers
        # converged on later lookups.
        assert all(h is not None for h in got)
        info = setup_cache_info()
        assert info["entries"] == 1
        assert info["hits"] + info["misses"] == nthreads
        assert info["race_losses"] <= max(0, info["misses"] - 1)
        # Whoever raced, a follow-up call is a pure hit on one object.
        again = cached_setup_hierarchy(problems[0].A, SetupOptions())
        assert any(again is h for h in got)
        clear_setup_cache()

    def test_concurrent_mixed_keys_no_cross_talk(self):
        import threading

        clear_setup_cache()
        pa = build_problem("5pt", 8)
        pb = build_problem("5pt", 12)
        barrier = threading.Barrier(8)
        got = {}

        def worker(i):
            p = pa if i % 2 == 0 else pb
            barrier.wait(timeout=10.0)
            got[i] = cached_setup_hierarchy(p.A, SetupOptions())

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        evens = {id(got[i]) for i in range(0, 8, 2)}
        odds = {id(got[i]) for i in range(1, 8, 2)}
        assert len(evens) == 1 and len(odds) == 1
        assert evens != odds
        assert got[0].levels[0].A.shape == (pa.n, pa.n)
        assert got[1].levels[0].A.shape == (pb.n, pb.n)
        assert setup_cache_info()["entries"] == 2
        clear_setup_cache()

    def test_metrics_provider_exports_counters(self):
        from repro.kernels.setupcache import register_setupcache_metrics
        from repro.observe import Metrics

        clear_setup_cache()
        p = build_problem("5pt", 8)
        cached_setup_hierarchy(p.A, SetupOptions())
        cached_setup_hierarchy(p.A, SetupOptions())
        m = Metrics()
        register_setupcache_metrics(m)
        flat = m.flatten()
        assert flat["setupcache.entries"] == 1.0
        assert flat["setupcache.hits"] == 1.0
        assert flat["setupcache.misses"] == 1.0
        clear_setup_cache()
