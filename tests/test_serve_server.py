"""End-to-end tests for the in-process solve server (repro.serve).

Threaded paths keep their assertions timing-robust (statuses, counters,
ticket resolution).  Anything that needs a fixed queue state parks the
workers inside ``solve_batch`` first (the ``worker_hold`` fixture), and
batched bitwise parity drives the worker path synchronously via
``_process_group``.
"""

import sys
import threading
import time
from time import perf_counter

import numpy as np
import pytest

from repro.problems import build_problem
from repro.resilience import parse_fault_spec
from repro.serve import (
    Job,
    JobSpec,
    OPEN,
    ServeConfig,
    SolveServer,
    TERMINAL_STATUSES,
)


def make_server(**kw):
    kw.setdefault("workers", 2)
    return SolveServer(ServeConfig(**kw))


def rhs(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


class TestLifecycle:
    def test_submit_before_start_is_rejected(self):
        server = make_server()
        p = build_problem("5pt", 8)
        ref = server.register_operator("op", p.A)
        ticket = server.submit(JobSpec(tenant="t", operator=ref, b=rhs(ref.n, 0)))
        res = ticket.result(timeout=1.0)
        assert res.status == "rejected" and res.cause == "shutdown"

    def test_start_runs_exactly_the_configured_workers(self):
        before = set(threading.enumerate())
        server = make_server(workers=3).start()
        try:
            started = set(threading.enumerate()) - before
            assert sorted(t.name for t in started) == [
                "serve-worker-0", "serve-worker-1", "serve-worker-2"
            ]
            assert set(server.alive_threads()) == started
        finally:
            server.stop()

    def test_stop_is_clean_and_idempotent(self):
        server = make_server().start()
        server.stop()
        server.stop()
        assert server.alive_threads() == []

    def test_unknown_operator_raises(self):
        server = make_server()
        with pytest.raises(KeyError):
            server.operator("nope")


class TestEndToEnd:
    def test_multi_tenant_jobs_converge(self):
        server = make_server().start()
        try:
            p = build_problem("5pt", 10)
            server.register_operator(
                "poisson", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )
            tickets = [
                server.submit_named(f"tenant-{i % 3}", "poisson", rhs(p.n, i))
                for i in range(9)
            ]
            results = [t.result(timeout=30.0) for t in tickets]
            assert all(r is not None for r in results)
            assert [r.status for r in results] == ["ok"] * 9
            for r in results:
                assert r.rel_residual <= 1e-8
                assert r.deadline_met
                assert r.attempts == 1
        finally:
            server.stop()
        flat = server.metrics.flatten()
        assert flat["serve.jobs.ok"] == 9
        assert flat["serve.jobs.ok.tenant-0"] == 3
        assert flat["serve.slo.met.tenant-1"] == 3
        assert server.alive_threads() == []

    def test_results_ring_and_stats(self):
        server = make_server(result_history=4).start()
        try:
            p = build_problem("5pt", 8)
            server.register_operator("op", p.A)
            for i in range(6):
                server.submit_named("t", "op", rhs(p.n, i)).result(timeout=30.0)
        finally:
            server.stop()
        assert len(server.recent_results()) == 4  # bounded ring
        stats = server.stats()
        assert stats["queue_depth"] == 0
        assert stats["workers_alive"] == 0
        assert stats["setup_cache"]["entries"] >= 1
        assert stats["metrics"]["serve.jobs.ok"] == 6


class TestBatchedParity:
    def test_grouped_jobs_bitwise_equal_solo(self):
        # Drive the worker path synchronously: one group of 4 versus
        # four singleton groups must produce bitwise-identical
        # iterates (the coalescing-is-free claim, server-level).
        p = build_problem("5pt", 10)
        columns = [rhs(p.n, s) for s in range(4)]

        def run(grouping):
            server = make_server()
            ref = server.register_operator(
                "op", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )
            jobs = []
            for b in columns:
                jobs.append(
                    Job.create(
                        JobSpec(tenant="t", operator=ref, b=b, deadline_s=60.0),
                        now=perf_counter(),
                    )
                )
            if grouping == "batched":
                server._process_group(jobs)
            else:
                for job in jobs:
                    server._process_group([job])
            return [job.ticket.result(timeout=1.0) for job in jobs]

        batched = run("batched")
        solo = run("solo")
        assert [r.batched for r in batched] == [4, 4, 4, 4]
        assert [r.batched for r in solo] == [1, 1, 1, 1]
        for got, ref_r in zip(batched, solo):
            assert got.status == ref_r.status == "ok"
            assert np.array_equal(got.x, ref_r.x)
            assert got.rel_residual == ref_r.rel_residual
            assert got.cycles == ref_r.cycles


class TestFaultIsolation:
    def test_crash_fails_only_that_job_and_pool_self_heals(self):
        server = make_server(
            fault_plans={"crashy": parse_fault_spec("crash:0@1", seed=3)}
        ).start()
        try:
            p = build_problem("5pt", 10)
            server.register_operator(
                "op", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )
            crashy = server.submit_named(
                "crashy", "op", rhs(p.n, 0), deadline_s=30.0, retries=1
            )
            healthy = server.submit_named("calm", "op", rhs(p.n, 1), deadline_s=30.0)
            res_c = crashy.result(timeout=30.0)
            res_h = healthy.result(timeout=30.0)
            # The injected crash killed attempt 1 only; the retry ran
            # on a fresh injector-free sentence and converged.
            assert res_c.status == "ok" and res_c.attempts == 2
            assert res_h.status == "ok" and res_h.attempts == 1
            flat = server.metrics.flatten()
            assert flat["serve.worker_crashes"] >= 1
            assert flat["serve.workers_respawned"] >= 1
            assert flat["serve.retries.crashy"] == 1
            # The pool healed: submit again and it still serves.
            again = server.submit_named("calm", "op", rhs(p.n, 2), deadline_s=30.0)
            assert again.result(timeout=30.0).status == "ok"
        finally:
            server.stop()
        assert server.alive_threads() == []

    def test_crash_without_retry_budget_fails_with_cause(self):
        server = make_server(
            fault_plans={"crashy": parse_fault_spec("crash:0@1", seed=3)}
        ).start()
        try:
            p = build_problem("5pt", 10)
            server.register_operator("op", p.A)
            res = server.submit_named(
                "crashy", "op", rhs(p.n, 0), retries=0, deadline_s=30.0
            ).result(timeout=30.0)
            assert res.status == "failed" and res.cause == "worker_crash"
        finally:
            server.stop()


class TestConcurrency:
    def test_many_workers_end_each_job_exactly_once(self):
        # More workers than cores, a tiny switch interval, four
        # submitters and crashing jobs whose retries re-enter admission:
        # every job is taken by one worker at a time, so the terminal
        # counters add up to the submissions exactly (a job taken twice
        # would count twice, a lost one not at all).
        server = make_server(
            workers=8,
            batch_max=4,
            max_depth=16,
            fault_plans={"crashy": parse_fault_spec("crash:0@1", seed=5)},
        ).start()
        p = build_problem("5pt", 8)
        for name, weight in (("a", p.jacobi_weight), ("b", p.jacobi_weight * 0.999)):
            server.register_operator(name, p.A, solver_kwargs={"weight": weight})
        tickets = []
        lock = threading.Lock()

        def submitter(k):
            for i in range(30):
                ticket = server.submit_named(
                    "crashy" if i % 10 == 0 else f"t{k}",
                    "ab"[i % 2],
                    rhs(p.n, 1000 * k + i),
                    retries=1,
                    deadline_s=60.0,
                )
                with lock:
                    tickets.append(ticket)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads), "a submitter hung"
            results = [t.result(timeout=60.0) for t in tickets]
        finally:
            sys.setswitchinterval(old)
            server.stop()
        assert all(r is not None for r in results), "a ticket never resolved"
        flat = server.metrics.flatten()
        ended = sum(flat.get(f"serve.jobs.{s}", 0) for s in TERMINAL_STATUSES)
        assert flat["serve.submitted"] == ended == len(results) == 120
        assert all(r.status in ("ok", "rejected") for r in results)
        for r in results:
            if r.status == "ok":
                assert r.attempts == (2 if r.tenant == "crashy" else 1), r.oneline()
        assert flat["serve.worker_crashes"] == flat["serve.workers_respawned"] >= 1
        assert server.alive_threads() == []


class TestShutdown:
    def test_attempt_failing_during_stop_ends_instead_of_retrying(self, worker_hold):
        # The crash lands after stop() drained the parked retries: a
        # retry scheduled then would never be re-admitted or rejected.
        server = make_server(
            workers=1, fault_plans={"crashy": parse_fault_spec("crash:0@1", seed=3)}
        ).start()
        p = build_problem("5pt", 10)
        server.register_operator(
            "op", p.A, solver_kwargs={"weight": p.jacobi_weight}
        )
        ticket = worker_hold.plug(
            lambda b: server.submit_named(
                "crashy", "op", b, retries=1, deadline_s=30.0
            ),
            rhs(p.n, 0),
        )
        server.stop(timeout_s=0.05)  # returns with the worker still parked
        worker_hold.release()
        res = ticket.result(timeout=5.0)
        server.stop()
        assert res is not None, "the failed attempt never ended its job"
        assert (res.status, res.cause, res.attempts) == ("failed", "worker_crash", 1)
        flat = server.metrics.flatten()
        assert flat.get("serve.retries", 0) == 0
        assert flat["serve.worker_crashes"] == 1
        assert flat.get("serve.workers_respawned", 0) == 0  # no successor once stopping
        assert server.alive_threads() == []


class TestDegradation:
    def test_deadline_buster_returns_degraded_with_honest_residual(self):
        server = make_server().start()
        try:
            p = build_problem("5pt", 12)
            server.register_operator("op", p.A)
            res = server.submit_named(
                "hasty", "op", rhs(p.n, 0), deadline_s=1e-4
            ).result(timeout=30.0)
            assert res.status == "degraded" and res.cause == "deadline"
            assert res.stalled and not res.deadline_met
            assert res.x is not None
            # The residual reported is the real residual of the
            # returned iterate (x = 0 ⇒ rel exactly 1, or a partial
            # iterate with its recomputed norm).
            assert 0.0 < res.rel_residual <= 1.0
            flat = server.metrics.flatten()
            assert flat["serve.slo.missed.hasty"] == 1
        finally:
            server.stop()

    def test_cycle_budget_exhaustion_degrades(self):
        server = make_server().start()
        try:
            p = build_problem("5pt", 10)
            server.register_operator("op", p.A)
            res = server.submit_named(
                "t", "op", rhs(p.n, 0), tol=1e-14, tmax=2, deadline_s=30.0
            ).result(timeout=30.0)
            assert res.status == "degraded" and res.cause == "cycle_budget"
            assert res.stalled and res.cycles == 2
        finally:
            server.stop()


class TestBreakerIntegration:
    def test_poisoned_operator_trips_then_recloses_on_healthy(self):
        # The breaker must still be open at the fast-fail below, however
        # slowly the host runs: no half-open probe within the test.
        server = make_server(
            workers=1, failure_threshold=2, reset_timeout_s=60.0
        ).start()
        try:
            p = build_problem("5pt", 10)
            # weight 1.95 diverges on the 5pt operator; the default
            # guard throttles it into a no-progress degraded loop,
            # which the breaker counts as failure.
            server.register_operator(
                "poison", p.A, solver_kwargs={"weight": 1.95}
            )
            fp = server.operator("poison").fingerprint
            statuses = []
            for i in range(2):
                res = server.submit_named(
                    "t", "poison", rhs(p.n, i), tmax=5, deadline_s=30.0
                ).result(timeout=30.0)
                statuses.append((res.status, res.cause))
            assert server.breaker.state(fp) == OPEN
            fast = server.submit_named(
                "t", "poison", rhs(p.n, 9), deadline_s=30.0
            ).result(timeout=30.0)
            assert fast.status == "rejected" and fast.cause == "circuit_open"
            # A healthy operator under the same matrix keeps serving:
            # the fingerprint covers the solver config, so the breaker
            # blackout is scoped to the poisoned config.
            server.register_operator(
                "healthy", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )
            ok = server.submit_named(
                "t", "healthy", rhs(p.n, 10), deadline_s=30.0
            ).result(timeout=30.0)
            assert ok.status == "ok"
            pairs = [
                (frm, to) for _, key, frm, to in server.breaker.transitions
                if key == fp
            ]
            assert ("closed", "open") in pairs
        finally:
            server.stop()


class TestOverloadAndErrors:
    def test_burst_past_max_depth_is_rejected_not_buffered(self, worker_hold):
        server = make_server(workers=1, max_depth=2, batch_max=1).start()
        try:
            p = build_problem("5pt", 12)
            server.register_operator("op", p.A)

            def submit(b):
                return server.submit_named("burst", "op", b, deadline_s=30.0)

            # The one worker is parked, so the burst meets a queue that
            # nothing drains.
            plug = worker_hold.plug(submit, rhs(p.n, 99))
            tickets = [submit(rhs(p.n, i)) for i in range(40)]
            worker_hold.release()
            results = [t.result(timeout=60.0) for t in tickets + [plug]]
            assert all(r is not None for r in results)
            assert all(r.status in TERMINAL_STATUSES for r in results)
            rejected = [r for r in results if r.status == "rejected"]
            assert len(rejected) == 38, "a 40-job burst against depth 2 must shed load"
            assert all(
                r.cause in ("overloaded", "shed") for r in rejected
            )
        finally:
            server.stop()
        assert server.alive_threads() == []

    @pytest.mark.parametrize(
        "high_water, depth, cause", [(None, 4, "overloaded"), (3, 3, "shed")]
    )
    def test_held_pool_fills_admission_then_drains_as_one_batch(
        self, worker_hold, high_water, depth, cause
    ):
        # Both workers parked in solve_batch: a job only ever waits in
        # the bounded admission queue, so the queue fills to its bound,
        # the excess is rejected at admission, and the same-operator
        # jobs that waited together leave together.
        server = make_server(max_depth=4, high_water=high_water).start()
        try:
            p = build_problem("5pt", 10)
            server.register_operator(
                "op", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )

            def submit(b):
                return server.submit_named("t", "op", b, deadline_s=30.0)

            plugs = [rhs(p.n, 100 + k) for k in range(2)]
            plug_tickets = [worker_hold.plug(submit, b) for b in plugs]
            tickets, depths = [], []
            for i in range(10):
                tickets.append(submit(rhs(p.n, i)))
                depths.append(server.admission.depth())
                time.sleep(0.005)
            assert depths == list(range(1, depth)) + [depth] * (11 - depth)
            flat = server.metrics.flatten()  # gauges read while both are parked
            assert (flat["serve.queue_depth"], flat["serve.workers_alive"]) == (depth, 2)
            rejected = [t.result(timeout=1.0) for t in tickets[depth:]]
            assert [(r.status, r.cause) for r in rejected] == [
                ("rejected", cause)
            ] * (10 - depth)
            # Free one worker: it finishes its plug, then takes the
            # whole queue as one batch while the other stays parked.
            worker_hold.release(plugs[0])
            queued = [t.result(timeout=30.0) for t in tickets[:depth]]
            assert [(r.status, r.batched) for r in queued] == [("ok", depth)] * depth
            worker_hold.release()
            assert [t.result(timeout=30.0).status for t in plug_tickets] == ["ok"] * 2
        finally:
            worker_hold.release()
            server.stop()
        assert server.metrics.flatten()["serve.batched_jobs"] == depth

    def test_due_retry_takes_the_slot_a_freed_worker_leaves(self, worker_hold):
        # A crashed job's retry comes due while the one worker is parked
        # and the queue is full.  Once freed, the worker takes the queue
        # head first and only then re-admits the retry, into the slot
        # that take freed: the retry is not rejected as overloaded.
        server = make_server(
            workers=1,
            max_depth=2,
            batch_max=1,
            backoff_base_s=0.5,
            backoff_jitter=0.0,
            fault_plans={"crashy": parse_fault_spec("crash:0@1", seed=3)},
        ).start()
        try:
            p = build_problem("5pt", 10)
            server.register_operator(
                "op", p.A, solver_kwargs={"weight": p.jacobi_weight}
            )

            def submit(b, tenant="t"):
                return server.submit_named(tenant, "op", b, retries=1, deadline_s=30.0)

            crashy_b, head = rhs(p.n, 0), rhs(p.n, 1)
            crashy = worker_hold.plug(lambda b: submit(b, "crashy"), crashy_b)
            worker_hold.hold(head)
            tickets = [submit(head), submit(rhs(p.n, 2))]
            over = submit(rhs(p.n, 3)).result(timeout=1.0)
            assert (over.status, over.cause) == ("rejected", "overloaded")
            # The crash retires the worker; its successor takes the
            # head and parks on it, leaving one free slot to refill.
            worker_hold.release(crashy_b)
            worker_hold.wait_parked()
            tickets.append(submit(rhs(p.n, 4)))
            deadline = perf_counter() + 30.0
            while server.metrics.flatten().get("serve.retries", 0) < 1:
                assert perf_counter() < deadline, "the crashed job was not retried"
                time.sleep(0.01)
            time.sleep(0.6)  # past the retry's due time (0.5 s, no jitter)
            flat = server.metrics.flatten()
            assert (flat["serve.queue_depth"], flat["serve.retry_backlog"]) == (2, 1)
            worker_hold.release()
            res = crashy.result(timeout=30.0)
            assert (res.status, res.attempts) == ("ok", 2), res.oneline()
            assert [t.result(timeout=30.0).status for t in tickets] == ["ok"] * 3
        finally:
            worker_hold.release()
            server.stop()
        flat = server.metrics.flatten()
        assert flat["serve.cause.rejected.overloaded"] == 1
        assert flat["serve.worker_crashes"] == flat["serve.workers_respawned"] == 1

    def test_solver_construction_error_fails_job_with_cause(self):
        server = make_server().start()
        try:
            p = build_problem("5pt", 8)
            # weight 2.5 is rejected by the smoother constructor: the
            # defensive worker path must fail the job, not hang it.
            server.register_operator("broken", p.A, solver_kwargs={"weight": 2.5})
            res = server.submit_named(
                "t", "broken", rhs(p.n, 0), retries=0, deadline_s=10.0
            ).result(timeout=30.0)
            assert res.status == "failed"
            assert res.cause == "internal:ValueError"
            assert server.metrics.flatten()["serve.internal_errors"] >= 1
        finally:
            server.stop()
