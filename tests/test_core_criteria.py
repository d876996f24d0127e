"""Unit tests for convergence criteria (Section V)."""

import sys
import threading

import numpy as np
import pytest

from repro.core import Criterion


def criterion(kind, ngrids, tmax):
    return Criterion(kind, tmax, ngrids)


class TestCriterion1:
    def test_grid_stops_individually(self):
        c = criterion("criterion1", 3, tmax=2)
        c.record(0)
        c.record(0)
        assert c.grid_done(0)
        assert not c.grid_done(1)
        assert not c.all_done()

    def test_all_done(self):
        c = criterion("criterion1", 2, tmax=1)
        c.record(0)
        c.record(1)
        assert c.all_done()

    def test_invalid_tmax(self):
        with pytest.raises(ValueError):
            criterion("criterion1", 2, tmax=0)


class TestCriterion2:
    def test_fast_grid_keeps_running(self):
        c = criterion("criterion2", 2, tmax=2)
        c.record(0)
        c.record(0)
        c.record(0)  # grid 0 far ahead
        assert not c.grid_done(0)  # flag not set: grid 1 behind
        c.record(1)
        c.record(1)
        assert c.grid_done(0) and c.grid_done(1)

    def test_counts_can_exceed_tmax(self):
        c = criterion("criterion2", 2, tmax=1)
        for _ in range(5):
            c.record(0)
        assert c.counts[0] == 5

    def test_thread_safety(self):
        # One writer per count, as in every executor, with more threads
        # than cores and a tiny switch interval: the lock-free rule
        # loses no update, and the flag is never up while a grid is
        # still short of tmax.
        ngrids, per = 8, 2000
        c = criterion("criterion2", ngrids, tmax=per)
        early = []

        def hammer(k):
            for _ in range(per):
                c.record(k)
                if c.all_done() and not np.all(c.counts >= per):
                    early.append(k)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(ngrids)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert np.all(c.counts == per)
        assert c.all_done() and not early

    def test_flag_latches(self):
        c = criterion("criterion2", 1, tmax=1)
        c.record(0)
        assert c.all_done()
        c.record(0)
        assert c.all_done()


class TestSharedArrays:
    def test_done_flag_is_the_given_slot(self):
        # procs passes views into its shared flags region.
        counts = np.zeros(2, dtype=np.int64)
        flags = np.zeros(4, dtype=np.int64)
        c = Criterion("criterion2", 1, counts, flags[1:2])
        c.record(0)
        c.record(1)
        assert flags.tolist() == [0, 1, 0, 0]
        assert counts.tolist() == [1, 1]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            criterion("criterion3", 2, tmax=1)
