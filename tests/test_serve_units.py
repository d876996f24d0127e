"""Unit tests for the serve building blocks (repro.serve):

jobs vocabulary, bounded admission with tenant-fair shedding, and the
per-operator circuit breaker.  Everything here runs with caller-
supplied clocks — no sleeps, no timing sensitivity.
"""

import numpy as np
import pytest

from repro.problems import build_problem
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionQueue,
    CircuitBreaker,
    Job,
    JobResult,
    JobSpec,
    OperatorRef,
    Ticket,
)


@pytest.fixture(scope="module")
def ref():
    return OperatorRef(build_problem("5pt", 6).A)


def make_job(ref, tenant="acme", now=0.0, **kw):
    b = np.ones(ref.n)
    return Job.create(JobSpec(tenant=tenant, operator=ref, b=b, **kw), now=now)


class TestJobSpec:
    def test_validation(self, ref):
        b = np.ones(ref.n)
        with pytest.raises(ValueError):
            JobSpec(tenant="", operator=ref, b=b)
        with pytest.raises(ValueError):
            JobSpec(tenant="a", operator=ref, b=np.ones(ref.n + 1))
        with pytest.raises(ValueError):
            JobSpec(tenant="a", operator=ref, b=np.ones((ref.n, 1)))
        with pytest.raises(ValueError):
            JobSpec(tenant="a", operator=ref, b=b, tol=0.0)
        with pytest.raises(ValueError):
            JobSpec(tenant="a", operator=ref, b=b, tmax=0)
        with pytest.raises(ValueError):
            JobSpec(tenant="a", operator=ref, b=b, deadline_s=0.0)
        with pytest.raises(ValueError):
            JobSpec(tenant="a", operator=ref, b=b, retries=-1)

    def test_deadline_fixed_at_first_admission(self, ref):
        job = make_job(ref, now=10.0, deadline_s=2.5)
        assert job.t_deadline == pytest.approx(12.5)


class TestOperatorRef:
    def test_fingerprint_covers_matrix_content(self):
        p1 = build_problem("5pt", 6)
        p2 = build_problem("5pt", 6)
        assert OperatorRef(p1.A).fingerprint == OperatorRef(p2.A).fingerprint
        B = p1.A.copy()
        B.data[0] += 1.0
        assert OperatorRef(B).fingerprint != OperatorRef(p1.A).fingerprint

    def test_fingerprint_covers_solver_config(self):
        A = build_problem("5pt", 6).A
        plain = OperatorRef(A)
        weighted = OperatorRef(A, solver_kwargs={"weight": 1.95})
        # Same matrix under two solver configs is two operators: a
        # breaker trip on the poisoned config must not black out the
        # healthy one.
        assert plain.fingerprint != weighted.fingerprint


class TestJobResult:
    def test_status_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            JobResult(job_id=1, tenant="a", status="exploded")

    def test_to_dict_nonfinite_residual_is_none(self):
        res = JobResult(job_id=1, tenant="a", status="failed")
        assert res.to_dict()["rel_residual"] is None
        assert "x" not in res.to_dict()

    def test_make_result_deadline_met(self, ref):
        job = make_job(ref, now=0.0, deadline_s=1.0)
        assert job.make_result("ok", now=0.5).deadline_met
        assert not job.make_result("ok", now=1.5).deadline_met
        # A rejected job never "meets" its SLO.
        assert not job.make_result("rejected", now=0.1).deadline_met


class TestTicket:
    def test_first_completion_wins(self):
        t = Ticket(1)
        first = JobResult(job_id=1, tenant="a", status="ok")
        t.complete(first)
        t.complete(JobResult(job_id=1, tenant="a", status="failed"))
        assert t.result(timeout=1.0) is first

    def test_timeout_returns_none_not_hang(self):
        t = Ticket(2)
        assert not t.done
        assert t.result(timeout=0.01) is None


class TestAdmissionQueue:
    def test_fifo_order(self, ref):
        q = AdmissionQueue(max_depth=8)
        jobs = [make_job(ref) for _ in range(3)]
        for j in jobs:
            assert q.offer(j) == (True, [])
        assert [q.take(timeout=0.01) for _ in range(3)] == jobs

    def test_reject_at_max_depth(self, ref):
        q = AdmissionQueue(max_depth=2)
        assert q.offer(make_job(ref))[0]
        assert q.offer(make_job(ref))[0]
        admitted, shed = q.offer(make_job(ref))
        assert not admitted and shed == []
        assert q.depth() == 2

    def test_sheds_newest_job_of_heaviest_tenant(self, ref):
        q = AdmissionQueue(max_depth=10, high_water=3)
        hogs = [make_job(ref, tenant="hog") for _ in range(3)]
        for j in hogs:
            q.offer(j)
        light = make_job(ref, tenant="light")
        admitted, shed = q.offer(light)
        # The light tenant survives; the hog's newest job is evicted.
        assert admitted
        assert shed == [hogs[-1]]
        assert q.tenant_depths() == {"hog": 2, "light": 1}

    def test_dominating_tenant_sheds_its_own_offer(self, ref):
        q = AdmissionQueue(max_depth=10, high_water=2)
        for _ in range(2):
            q.offer(make_job(ref, tenant="hog"))
        extra = make_job(ref, tenant="hog")
        admitted, shed = q.offer(extra)
        assert not admitted
        assert shed == [extra]
        assert q.depth() == 2

    def test_take_matching_coalesces_one_operator_fifo(self, ref):
        other = OperatorRef(build_problem("5pt", 8).A)
        q = AdmissionQueue(max_depth=16)
        a1 = make_job(ref)
        o1 = Job.create(
            JobSpec(tenant="t", operator=other, b=np.ones(other.n)), now=0.0
        )
        a2 = make_job(ref)
        a3 = make_job(ref)
        for j in (a1, o1, a2, a3):
            q.offer(j)
        got = q.take_matching(ref.fingerprint, limit=2)
        assert got == [a1, a2]  # FIFO among matches, limit respected
        assert q.take(timeout=0.01) is o1  # non-matching job kept in order
        assert q.take(timeout=0.01) is a3

    def test_take_times_out_empty(self, ref):
        q = AdmissionQueue(max_depth=2)
        assert q.take(timeout=0.01) is None

    def test_close_drains_and_rejects_offers(self, ref):
        q = AdmissionQueue(max_depth=4)
        jobs = [make_job(ref) for _ in range(2)]
        for j in jobs:
            q.offer(j)
        assert q.close() == jobs
        assert q.depth() == 0
        assert q.offer(make_job(ref)) == (False, [])

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=4, high_water=5)
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=4, high_water=0)


#: the breaker's probe delay, the unit of the caller-supplied clocks below
RESET = CircuitBreaker.RESET_TIMEOUT_S


def tripped(key="op", now=0.0):
    """A breaker whose ``key`` just opened at ``now``."""
    br = CircuitBreaker()
    for _ in range(CircuitBreaker.FAILURE_THRESHOLD):
        br.record_failure(key, now=now)
    assert br.state(key) == OPEN
    return br


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        br = CircuitBreaker()
        streak = CircuitBreaker.FAILURE_THRESHOLD - 1
        for i in range(streak):
            br.record_failure("op", now=0.1 * i)
        br.record_success("op", now=0.5)  # resets the streak
        for i in range(streak):
            br.record_failure("op", now=0.6 + 0.1 * i)
        assert br.state("op") == CLOSED
        br.record_failure("op", now=0.9)
        assert br.state("op") == OPEN

    def test_open_fast_fails_until_reset_timeout(self):
        br = tripped()
        d = br.allow("op", now=0.5 * RESET)
        assert not d.allowed and d.state == OPEN
        assert br.snapshot()["op"]["fast_fails"] == 1

    def test_half_open_admits_exactly_one_probe(self):
        br = tripped()
        first = br.allow("op", now=1.5 * RESET)
        assert first.allowed and first.probe and first.state == HALF_OPEN
        second = br.allow("op", now=1.6 * RESET)
        assert not second.allowed and second.state == HALF_OPEN

    def test_probe_success_recloses(self):
        br = tripped()
        assert br.allow("op", now=1.5 * RESET).probe
        br.record_success("op", now=1.6 * RESET)
        assert br.state("op") == CLOSED
        assert br.allow("op", now=1.7 * RESET).allowed
        pairs = [(frm, to) for _, key, frm, to in br.transitions if key == "op"]
        assert pairs == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_probe_failure_reopens_and_restarts_timer(self):
        br = tripped()
        assert br.allow("op", now=1.5 * RESET).probe
        br.record_failure("op", now=1.6 * RESET)
        assert br.state("op") == OPEN
        assert not br.allow("op", now=2.0 * RESET).allowed  # timer restarted at 1.6
        assert br.allow("op", now=2.7 * RESET).probe

    def test_abandoned_probe_releases_slot(self):
        br = tripped()
        assert br.allow("op", now=1.5 * RESET).probe
        # The probe job ended without an operator-attributable outcome
        # (shed / crash): the slot must not leak.
        br.abandon_probe("op")
        assert br.allow("op", now=1.6 * RESET).probe

    def test_keys_are_independent(self):
        br = tripped("bad")
        assert not br.allow("bad", now=0.1 * RESET).allowed
        assert br.allow("good", now=0.1 * RESET).allowed
        assert br.state("good") == CLOSED
