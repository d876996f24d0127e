"""Property-based tests: asynchronous-model invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st


class TestModelInvariantsProperty:
    @given(st.integers(0, 2**31 - 1), st.floats(0.2, 1.0), st.integers(0, 4))
    @settings(max_examples=10, deadline=None)
    def test_models_never_lose_correction_count(self, seed, alpha, delta):
        # Whatever the schedule, every grid performs exactly its budget.
        from repro.amg import SetupOptions, setup_hierarchy
        from repro.core import ScheduleParams, simulate_full_async_residual
        from repro.problems import laplacian_7pt, random_rhs
        from repro.solvers import Multadd

        A = laplacian_7pt(6)
        h = setup_hierarchy(A, SetupOptions(aggressive_levels=1))
        ma = Multadd(h, smoother="jacobi", weight=0.9)
        res = simulate_full_async_residual(
            ma,
            random_rhs(A.shape[0], 0),
            ScheduleParams(alpha=alpha, delta=delta, updates_per_grid=5, seed=seed),
        )
        assert np.all(res.counts == 5)
        # The reported residual is exactly b - A x (model consistency).
        r = random_rhs(A.shape[0], 0) - ma.A @ res.x
        assert np.linalg.norm(r) / np.linalg.norm(random_rhs(A.shape[0], 0)) == (
            res.rel_residual
        )
