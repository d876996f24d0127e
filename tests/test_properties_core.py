"""Property-based tests for the asynchronous core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ScheduleParams, StalenessSchedule, VectorHistory
from repro.core.run import Criterion


class TestScheduleProperties:
    @given(
        st.integers(1, 10),
        st.floats(0.05, 1.0),
        st.integers(0, 10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_always_admissible(self, ngrids, alpha, delta, seed):
        params = ScheduleParams(alpha=alpha, delta=delta, seed=seed)
        s = StalenessSchedule(ngrids, params)
        last = np.zeros(ngrids, dtype=int)
        for t in range(1, 40):
            for k in range(ngrids):
                z = s.read_instant(k, t)
                assert max(last[k], t - delta, 0) <= z <= t
                last[k] = max(last[k], z)

    @given(st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_run_terminates(self, ngrids, seed):
        params = ScheduleParams(alpha=0.2, updates_per_grid=5, seed=seed)
        s = StalenessSchedule(ngrids, params)
        for t in range(10000):
            for k in s.active_set(t):
                s.record_update(int(k))
            if s.all_done:
                break
        assert s.all_done

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_componentwise_window(self, ngrids, seed, n):
        params = ScheduleParams(alpha=0.5, delta=4, seed=seed)
        s = StalenessSchedule(ngrids, params)
        for t in range(1, 20):
            z = s.read_instants(0, t, n)
            assert z.min() >= max(0, t - 4)
            assert z.max() <= t


class TestHistoryProperties:
    @given(st.integers(1, 6), st.lists(st.integers(0, 100), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_reads_within_depth_always_correct(self, depth, values):
        h = VectorHistory(np.array([0.0]), depth=depth)
        stored = {0: 0.0}
        for t, v in enumerate(values, start=1):
            h.push(np.array([float(v)]), t)
            stored[t] = float(v)
            # All instants within the retention window read back exactly.
            for past in range(max(0, t - depth + 1), t + 1):
                assert h.get(past)[0] == stored[past]


class TestCriteriaProperties:
    @given(st.integers(1, 6), st.integers(1, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_criterion1_stops_exactly(self, ngrids, tmax, seed):
        c = Criterion("criterion1", tmax, ngrids)
        rng = np.random.default_rng(seed)
        while not c.all_done():
            k = int(rng.integers(ngrids))
            if not c.grid_done(k):
                c.record(k)
        assert np.all(c.counts == tmax)

    @given(st.integers(1, 6), st.integers(1, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_criterion2_minimum_reached(self, ngrids, tmax, seed):
        c = Criterion("criterion2", tmax, ngrids)
        rng = np.random.default_rng(seed)
        guard = 0
        while not c.all_done() and guard < 100000:
            k = int(rng.integers(ngrids))
            c.record(k)
            guard += 1
        assert np.all(c.counts >= tmax)
