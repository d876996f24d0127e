"""Chaos acceptance test for the solve server.

One seeded storm throws everything at a small server:

- a flooding tenant saturating the bounded queue (shed),
- a crash-fault tenant whose jobs kill workers mid-solve,
- a deadline-busting tenant (against its *own* operator, so its
  breaker accounting cannot black out the healthy tenants),
- a steady tenant that must keep converging through all of it.

The storm runs in three rounds.  Each round first parks both workers
inside ``solve_batch`` on two steady jobs (the ``worker_hold``
fixture), then offers its jobs in a fixed order, lets every deadline
buster's deadline lapse, and releases the workers.  Nothing leaves
the queue while the workers are parked, so what it holds at the
release follows from the admission rules alone, and so does every
claim below: no outcome depends on a submitter thread racing a worker.

- Round 1 is the storm proper.  The flood bursts 30 jobs: the queue
  keeps 6 (``high_water``) and sheds the rest.  A deadline buster, a
  crash job and two steady jobs then arrive at the flood's peak; the
  flood is the heaviest tenant, so each sheds a flood job, not itself.
- Round 2 offers the other four deadline busters and a crash job.  The
  busters' breaker has seen one failure, so it admits all four.
- Round 3 offers the last two crash jobs and four steady jobs.

No round queues more than ``high_water`` jobs besides the flood, so a
crash job's retry always finds room.  Afterwards, a sequential phase
drives one operator's circuit breaker through its full lifecycle
(trip → fast-fail → half-open probe → re-close).

The acceptance claims checked here:

1. every submitted job terminates in exactly one of
   {ok, degraded, rejected, failed-with-cause} — no ticket hangs;
2. the breaker is observed opening AND re-closing;
3. no hung threads or leaked workers after ``stop()``;
4. rejections and failures carry only *designed* causes — zero jobs
   rejected or failed by a bug (``internal:*``).

(The quantitative claim — healthy-tenant p99 within 2x of the
fault-free baseline — is measured by ``benchmarks/bench_serve.py``
and recorded in ``benchmarks/results/BENCH_serve.json``.)
"""

import itertools
import threading
import time
from collections import defaultdict

import numpy as np

from repro.problems import build_problem
from repro.resilience import parse_fault_spec
from repro.serve import (
    CLOSED,
    OPEN,
    ServeConfig,
    SolveServer,
    TERMINAL_STATUSES,
)

DESIGNED_REJECT_CAUSES = {"overloaded", "shed", "circuit_open", "shutdown"}
DESIGNED_FAIL_CAUSES = {"divergence", "guard_trip", "worker_crash"}
HASTY_DEADLINE_S = 1e-4


def rhs(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


class TestChaosAcceptance:
    def test_seeded_storm_terminates_every_job(self, worker_hold):
        config = ServeConfig(
            workers=2,
            max_depth=8,
            high_water=6,
            batch_max=4,
            failure_threshold=2,
            reset_timeout_s=0.5,
            seed=42,
            fault_plans={"crashy": parse_fault_spec("crash:0@1", seed=7)},
        )
        server = SolveServer(config).start()
        p = build_problem("5pt", 12)
        slow = build_problem("5pt", 14)
        server.register_operator(
            "good", p.A, solver_kwargs={"weight": p.jacobi_weight}
        )
        # The deadline-buster gets its own operator: its zero-cycle
        # degradations feed that operator's breaker, not "good"'s.
        server.register_operator(
            "slow", slow.A, solver_kwargs={"weight": slow.jacobi_weight}
        )

        submit = {
            "steady": lambda b: server.submit_named(
                "steady", "good", b, deadline_s=30.0
            ),
            "flood": lambda b: server.submit_named(
                "flood", "good", b, deadline_s=30.0
            ),
            # Crash faults: every job's first attempt kills a worker.
            "crashy": lambda b: server.submit_named(
                "crashy", "good", b, deadline_s=30.0, retries=1
            ),
            # Deadline busters: can never afford a cycle.
            "hasty": lambda b: server.submit_named(
                "hasty", "slow", b, deadline_s=HASTY_DEADLINE_S
            ),
        }
        seeds = itertools.count(100)
        tickets = defaultdict(list)

        def storm_round(offers):
            for _ in range(2):
                tickets["steady"].append(
                    worker_hold.plug(submit["steady"], rhs(p.n, next(seeds)))
                )
            for tenant in offers:
                n = slow.n if tenant == "hasty" else p.n
                tickets[tenant].append(submit[tenant](rhs(n, next(seeds))))
            time.sleep(100 * HASTY_DEADLINE_S)
            worker_hold.release()
            for ts in tickets.values():
                assert all(t.result(timeout=60.0) is not None for t in ts)

        storm_round(["flood"] * 30 + ["hasty", "crashy", "steady", "steady"])
        storm_round(["hasty"] * 4 + ["crashy"])
        storm_round(["crashy"] * 2 + ["steady"] * 4)
        buckets = {
            tenant: [t.result(timeout=0.0) for t in ts]
            for tenant, ts in tickets.items()
        }

        # -- claim 1: every job terminated, exactly one status --------
        all_results = [r for results in buckets.values() for r in results]
        assert len(all_results) == 12 + 30 + 4 + 5
        assert all(r is not None for r in all_results), "a ticket never resolved"
        for r in all_results:
            assert r.status in TERMINAL_STATUSES
            if r.status == "failed":
                assert r.cause, "failures must carry a cause"

        # -- claim 4: only designed causes, zero rejected-by-bug ------
        for r in all_results:
            if r.status == "rejected":
                assert r.cause in DESIGNED_REJECT_CAUSES, r.oneline()
            if r.status == "failed":
                assert r.cause in DESIGNED_FAIL_CAUSES, r.oneline()
            assert not r.cause.startswith("internal:"), r.oneline()

        # Steady tenant rode through the storm: at the flood's peak its
        # jobs displaced flood jobs instead of being shed.
        steady = buckets["steady"]
        steady_ok = [r for r in steady if r.status == "ok"]
        assert len(steady_ok) == 12, [r.oneline() for r in steady]
        for r in steady_ok:
            assert r.rel_residual <= 1e-8

        # The flood saturated the bounded queue: 24 of its 30 jobs were
        # shed on arrival and 4 more by the jobs that came after it.
        flood = buckets["flood"]
        flood_rejected = [r for r in flood if r.status == "rejected"]
        assert len(flood_rejected) == 28, [r.oneline() for r in flood]
        assert {r.cause for r in flood_rejected} == {"shed"}
        assert [r.status for r in flood if r.status != "rejected"] == ["ok", "ok"]

        # Crash-fault tenant: first attempts crashed, retries landed.
        crashy = buckets["crashy"]
        assert all(r.status in ("ok", "failed") for r in crashy)
        assert [(r.status, r.attempts) for r in crashy] == [("ok", 2)] * 4
        flat = server.metrics.flatten()
        assert flat["serve.worker_crashes"] >= 1
        assert flat["serve.workers_respawned"] >= 1

        # Deadline busters degrade honestly: every one was admitted
        # while its operator's breaker was closed, and none could be
        # dispatched before its deadline.
        hasty = buckets["hasty"]
        assert [r.status for r in hasty] == ["degraded"] * 5, [
            r.oneline() for r in hasty
        ]
        assert all(r.cause == "deadline" and r.stalled for r in hasty)

        # -- claim 2: breaker full lifecycle (deterministic phase) ----
        flaky = server.register_operator(
            "flaky", p.A, solver_kwargs={"weight": p.jacobi_weight * 0.999}
        )
        # A divergence threshold below the starting residual makes a
        # job fail attributably without a poisoned solver: two in a
        # row trip the breaker.
        for i in range(2):
            res = server.submit_named(
                "toxic", "flaky", rhs(p.n, 500 + i),
                divergence_threshold=0.5, retries=0, deadline_s=30.0,
            ).result(timeout=60.0)
            assert res.status == "failed" and res.cause == "divergence"
        assert server.breaker.state(flaky.fingerprint) == OPEN
        fast = server.submit_named(
            "toxic", "flaky", rhs(p.n, 510), deadline_s=30.0
        ).result(timeout=60.0)
        assert fast.status == "rejected" and fast.cause == "circuit_open"
        time.sleep(config.reset_timeout_s + 0.05)
        probe = server.submit_named(
            "steady", "flaky", rhs(p.n, 511), deadline_s=30.0
        ).result(timeout=60.0)
        assert probe.status == "ok"
        assert server.breaker.state(flaky.fingerprint) == CLOSED
        pairs = [
            (frm, to)
            for _, key, frm, to in server.breaker.transitions
            if key == flaky.fingerprint
        ]
        assert ("closed", "open") in pairs, "breaker never opened"
        assert ("open", "half_open") in pairs
        assert ("half_open", "closed") in pairs, "breaker never re-closed"

        # -- claim 3: clean teardown, no leaked threads ---------------
        server.stop()
        assert server.alive_threads() == []
        lingering = [
            t for t in threading.enumerate() if t.name.startswith("serve-")
        ]
        assert lingering == [], lingering
        # Late submissions resolve (rejected), they don't hang.
        late = server.submit_named("steady", "good", rhs(p.n, 999))
        res = late.result(timeout=5.0)
        assert res is not None and res.cause == "shutdown"
