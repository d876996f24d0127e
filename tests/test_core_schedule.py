"""Unit tests for repro.core.schedule."""

import numpy as np
import pytest

from repro.core import ScheduleParams, StalenessSchedule


class TestScheduleParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleParams(alpha=0.0)
        with pytest.raises(ValueError):
            ScheduleParams(alpha=1.5)
        with pytest.raises(ValueError):
            ScheduleParams(delta=-1)
        with pytest.raises(ValueError):
            ScheduleParams(updates_per_grid=0)

    def test_defaults_match_paper(self):
        p = ScheduleParams()
        assert p.updates_per_grid == 20


class TestStalenessSchedule:
    def test_p_in_range(self):
        s = StalenessSchedule(8, ScheduleParams(alpha=0.3, seed=0))
        assert np.all(s.p >= 0.3) and np.all(s.p <= 1.0)

    def test_alpha_one_always_active(self):
        s = StalenessSchedule(5, ScheduleParams(alpha=1.0, seed=0))
        counts = np.zeros(5, dtype=np.int64)
        for t in range(10):
            assert len(s.active_set(t, counts)) == 5
            if t < 3:
                counts += 1  # still short of the budget: grids keep running

    def test_done_grids_never_reactivate(self):
        s = StalenessSchedule(3, ScheduleParams(alpha=1.0, updates_per_grid=2))
        assert len(s.active_set(99, np.array([2, 2, 2]))) == 0
        assert s.active_set(99, np.array([2, 1, 2])).tolist() == [1]

    def test_delta_zero_reads_current(self):
        s = StalenessSchedule(4, ScheduleParams(alpha=0.5, delta=0, seed=1))
        for t in range(1, 20):
            assert s.read_instant(0, t) == t

    def test_delta_bounds_read(self):
        s = StalenessSchedule(4, ScheduleParams(alpha=0.5, delta=3, seed=2))
        for t in range(1, 50):
            z = s.read_instant(1, t)
            assert t - 3 <= z <= t

    def test_monotone_reads(self):
        s = StalenessSchedule(2, ScheduleParams(alpha=0.5, delta=10, seed=3))
        last = 0
        for t in range(1, 100):
            z = s.read_instant(0, t)
            assert z >= last
            last = z

    def test_componentwise_reads_in_window(self):
        s = StalenessSchedule(2, ScheduleParams(alpha=0.5, delta=5, seed=4))
        z = s.read_instants(0, 10, 1000)
        assert z.min() >= 5 and z.max() <= 10
        # With 1000 samples over a 6-wide window, staleness must vary.
        assert len(np.unique(z)) > 1

    def test_reproducible(self):
        a = StalenessSchedule(6, ScheduleParams(seed=7))
        b = StalenessSchedule(6, ScheduleParams(seed=7))
        assert np.array_equal(a.p, b.p)

    def test_invalid_ngrids(self):
        with pytest.raises(ValueError):
            StalenessSchedule(0, ScheduleParams())
