"""Tests for the happens-before checker (repro.analysis.racecheck)."""

import threading

import numpy as np
import pytest

from repro.analysis import CheckedWrite, run_conformance
from repro.core import AtomicWrite, LockWrite, UnsafeWrite
from repro.solvers import Multadd


@pytest.fixture(scope="module")
def multadd_27(hier_27pt):
    return Multadd(hier_27pt, smoother="jacobi", weight=0.9)


def _checked(policy):
    """``policy`` with a CheckedWrite attached as its observer."""
    chk = CheckedWrite(policy)
    policy.observer = chk
    return policy, chk


class TestCheckedWriteSemantics:
    """Observing must not change what the policy computes."""

    @pytest.mark.parametrize("inner_cls", [LockWrite, AtomicWrite, UnsafeWrite])
    def test_add_matches_plain(self, inner_cls):
        n = 100
        pol, chk = _checked(inner_cls(n))
        target = np.zeros(n)
        pol.add(target, np.arange(float(n)))
        assert np.array_equal(target, np.arange(float(n)))
        assert pol.commits == 1

    def test_assign_slice_and_read(self):
        n = 50
        pol, chk = _checked(AtomicWrite(n, stripe=16))
        target = np.zeros(n)
        pol.assign_slice(target, 10, 40, np.full(30, 3.0))
        out = pol.read(target)
        assert np.array_equal(out[10:40], np.full(30, 3.0))
        assert chk.total_assigns == 1
        assert chk.total_reads == 1

    def test_striping_mirrors_inner(self):
        pol, chk = _checked(AtomicWrite(1000, stripe=256))
        assert len(chk._wseq) == 4
        assert chk.report().nstripes == 4
        pol, chk = _checked(LockWrite(1000))
        assert len(chk._wseq) == 1


class TestDetectors:
    """The instruments fire on manufactured violations (deterministic —
    no reliance on racy scheduling)."""

    def test_seqlock_detects_in_flight_write(self):
        pol, chk = _checked(UnsafeWrite(10))
        src = np.zeros(10)
        chk._wseq[0] = 1  # simulate a write caught mid-flight
        pol.read(src)
        assert chk.torn_reads == 1
        assert chk.torn_read_events

    def test_seqlock_clean_read_not_flagged(self):
        pol, chk = _checked(UnsafeWrite(10))
        src = np.zeros(10)
        pol.add(src, np.ones(10))
        pol.read(src)
        assert chk.torn_reads == 0

    def test_vector_clock_detects_regression(self):
        pol, chk = _checked(UnsafeWrite(10))
        src = np.zeros(10)
        pol.add(src, np.ones(10))
        pol.read(src)  # snapshot: this thread has 1 commit
        tid = threading.get_ident()
        chk._clock[0][tid] = 0  # simulate observing an older version
        pol.read(src)
        assert chk.monotone_violations == 1

    def test_lock_order_check(self):
        pol, chk = _checked(AtomicWrite(100, stripe=10))
        chk._check_order([0, 1, 2])
        assert chk.lock_order_violations == 0
        chk._check_order([2, 1])
        assert chk.lock_order_violations == 1

    def test_sweep_visits_stripes_in_order(self):
        pol, chk = _checked(AtomicWrite(100, stripe=10))
        x = np.zeros(100)
        pol.add(x, np.ones(100))
        pol.assign_slice(x, 15, 85, np.zeros(70))
        pol.read(x)
        assert chk.lock_order_violations == 0
        ops = [(op, s) for _, op, _, s, _ in chk.epoch_log]
        assert ops[:10] == [("add", s) for s in range(10)]
        assert ops[10:18] == [("assign", s) for s in range(1, 9)]
        assert ops[18:] == [("read", s) for s in range(10)]

    def test_staleness_measured(self):
        pol, chk = _checked(LockWrite(10))
        src = np.zeros(10)
        pol.read(src)  # read at epoch 0
        pol.add(src, np.ones(10))  # commit 1: 0 foreign commits since read
        pol.add(src, np.ones(10))  # commit 2: 1 commit since that read
        assert chk.staleness == [0, 1]

    def test_report_fail_on_torn_reads(self):
        pol, chk = _checked(UnsafeWrite(10))
        chk._wseq[0] = 1
        pol.read(np.zeros(10))
        report = chk.report(staleness_bound=10, counts=np.array([1, 1]))
        assert not report.passed
        assert "FAIL" in report.summary()


class TestConformance:
    """Instrumented threaded solves on the 27-point problem satisfy the
    paper's model assumptions (Section III) under both safe policies."""

    @pytest.mark.parametrize("write", ["lock", "atomic"])
    def test_model_conformance(self, multadd_27, b_27pt, write):
        tmax = 5
        report = run_conformance(
            multadd_27, b_27pt, write=write, tmax=tmax, criterion="criterion1"
        )
        assert report.torn_reads == 0
        assert report.lock_order_violations == 0
        assert report.monotone_violations == 0
        assert report.max_staleness <= report.staleness_bound
        # criterion 1: every grid commits exactly tmax corrections.
        assert report.counts == [tmax] * multadd_27.ngrids
        assert report.min_update_share > 0.0
        assert report.passed, report.summary()

    def test_explicit_delta_respected(self, multadd_27, b_27pt):
        report = run_conformance(multadd_27, b_27pt, write="lock", tmax=4, delta=999)
        assert report.staleness_bound == 999
        assert report.staleness_ok

    def test_criterion2_uses_total_commits_bound(self, multadd_27, b_27pt):
        report = run_conformance(
            multadd_27, b_27pt, write="lock", tmax=3, criterion="criterion2"
        )
        # The fallback bound is trivially sound: total commits.
        assert report.staleness_bound == report.total_commits
        assert report.staleness_ok
        assert report.torn_reads == 0

    def test_summary_reports_pass(self, multadd_27, b_27pt):
        report = run_conformance(multadd_27, b_27pt, write="lock", tmax=3)
        s = report.summary()
        assert "[PASS]" in s
        assert "torn=0" in s
