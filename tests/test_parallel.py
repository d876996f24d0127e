"""Tests for the true-parallel process executor (repro.core.parallel).

Covers the backend's four contracts:

- **transport fidelity** — a 1-worker deterministic run is bit-identical
  to the sequential engine (same schedule, shared-memory round trip),
  and :class:`SetupBundle` survives pickling without changing results.
- **cross-process write policies** — the :mod:`repro.core.writes`
  policies over ``multiprocessing`` locks: while another process
  rewrites a shared vector, ``lock`` reads are whole vectors and
  ``atomic`` reads are whole stripes.
- **fault tolerance** — a real process death (``os._exit``) is detected
  by the supervisor, restarted through the guard budget with replica
  re-sync, and lands in the merged telemetry; without a guard the run
  degrades to ``stalled`` instead of hanging.
- **clean shutdown** — the parent unlinks the one shared segment exactly
  once; runs leak neither ``ResourceWarning`` nor ``/dev/shm`` entries.
"""

import glob
import multiprocessing as mp
import pickle
import time
import warnings

import numpy as np
import pytest

from repro.core import run_async_engine, run_procs, SetupBundle, SharedVectors
from repro.core.parallel import _Layout, _assign_grids, _make_locks
from repro.core.writes import make_write_policy
from repro.resilience import GuardPolicy, parse_fault_spec
from repro.solvers import Multadd


@pytest.fixture(scope="module")
def multadd(hier_7pt_agg):
    return Multadd(hier_7pt_agg, smoother="jacobi", weight=0.9)


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestDeterministicTransport:
    def test_bit_identical_to_engine(self, multadd, b_7pt):
        """The headline fidelity check: one worker, engine schedule,
        through SharedMemory — bitwise the engine's x and counts."""
        resp = run_procs(
            multadd, b_7pt, tmax=8, workers=1, deterministic=True, seed=3
        )
        rese = run_async_engine(multadd, b_7pt, tmax=8, seed=3)
        assert not resp.errors
        assert resp.deterministic and resp.workers == 1
        assert np.array_equal(resp.x, rese.x)
        assert np.array_equal(resp.counts, rese.counts)

    def test_deterministic_needs_one_worker(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_procs(multadd, b_7pt, tmax=4, workers=2, deterministic=True)

    def test_deterministic_rejects_faults(self, multadd, b_7pt):
        plan = parse_fault_spec("crash:0@2", seed=1)
        with pytest.raises(ValueError):
            run_procs(
                multadd, b_7pt, tmax=4, workers=1, deterministic=True,
                faults=plan,
            )


class TestProcs:
    def test_converges_lock(self, multadd, b_7pt):
        res = run_procs(multadd, b_7pt, tmax=10, workers=2, criterion="criterion1")
        assert not res.errors
        assert res.rel_residual < 1e-2
        assert np.all(res.counts == 10)  # criterion 1 stops grids exactly
        assert res.workers == 2
        assert res.wall_time > 0

    @pytest.mark.parametrize("write", ["atomic", "unsafe"])
    def test_write_policies(self, multadd, b_7pt, write):
        res = run_procs(
            multadd, b_7pt, tmax=8, workers=2, write=write,
            criterion="criterion1",
        )
        assert not res.errors
        assert np.isfinite(res.rel_residual)
        assert res.rel_residual < 1.0

    @pytest.mark.parametrize("rescomp", ["rupdate", "global"])
    def test_rescomp_modes(self, multadd, b_7pt, rescomp):
        res = run_procs(
            multadd, b_7pt, tmax=8, workers=2, rescomp=rescomp,
            criterion="criterion1",
        )
        # global-res under extreme staleness may legitimately exceed 1.0
        # (the Fig. 4/5 pathology) — require a sane, error-free run.
        assert not res.errors
        assert np.isfinite(res.rel_residual)
        if rescomp != "global":
            assert res.rel_residual < 1.0

    def test_invalid_rescomp(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_procs(multadd, b_7pt, rescomp="telepathic")

    def test_one_rhs_only(self, multadd, b_7pt):
        with pytest.raises(ValueError):
            run_procs(multadd, np.stack([b_7pt, b_7pt], axis=1), tmax=4)

    def test_tracer_attributes_events_to_pids(self, multadd, b_7pt):
        from repro.observe import Tracer

        tracer = Tracer(clock="s")
        res = run_procs(
            multadd, b_7pt, tmax=6, workers=2, criterion="criterion1",
            tracer=tracer,
        )
        assert not res.errors
        events = tracer.events()
        workers = {e.worker for e in events if e.kind == "correct_end"}
        assert workers >= {"p0", "p1"}
        pids = {e.worker_pid for e in events if str(e.worker).startswith("p")}
        assert pids and all(pid > 0 for pid in pids)

    def test_trace_reports_staleness_unknown(self, multadd, b_7pt):
        """Procs has no read epochs, so ``correct_end`` carries the event
        vocabulary's -1 (unknown), never a measured staleness of 0."""
        from repro.observe import TraceAnalyzer, Tracer

        tracer = Tracer(clock="s")
        res = run_procs(
            multadd, b_7pt, tmax=6, workers=2, criterion="criterion1",
            tracer=tracer,
        )
        assert not res.errors
        events = tracer.events()
        ends = [e for e in events if e.kind == "correct_end"]
        assert len(ends) == int(res.counts.sum())
        assert all(e.b == -1.0 for e in ends)
        assert TraceAnalyzer(events).conformance().staleness_samples == 0


class TestCrashRestart:
    def test_crash_restarts_and_recovers(self, multadd, b_7pt):
        """A real process death mid-solve: the supervisor restarts the
        worker, the resync forgives the already-fired crash, and the run
        still completes its criterion-1 budget."""
        plan = parse_fault_spec("crash:0@2", seed=1)
        res = run_procs(
            multadd, b_7pt, tmax=8, workers=2, criterion="criterion1",
            faults=plan, guard=GuardPolicy(),
        )
        assert not res.errors
        assert res.telemetry.injected_crashes == 1
        assert res.telemetry.restarts == 1
        assert not res.stalled
        assert np.all(res.counts >= 8)
        assert res.rel_residual < 1.0

    def test_crash_without_guard_degrades(self, multadd, b_7pt):
        plan = parse_fault_spec("crash:0@2", seed=1)
        res = run_procs(
            multadd, b_7pt, tmax=8, workers=2, criterion="criterion1",
            faults=plan,
        )
        assert not res.errors
        assert res.stalled  # dead worker, no restart budget: degrade, don't hang
        assert res.telemetry.restarts == 0


def _rewrite(name, layout, write, stripe, locks, values):
    """Writer process: rewrite ``x`` with the next uniform value from
    ``values`` through the write policy until the parent raises
    ``flags[0]``, publishing its write count in ``counts[0]``."""
    sv = SharedVectors.attach(name, layout)
    try:
        pol = make_write_policy(write, layout.n, stripe, locks)
        i = 0
        while not sv.flags[0]:
            pol.assign_slice(sv.x, 0, layout.n, np.full(layout.n, values[i % len(values)]))
            i += 1
            sv.counts[0] = i
    finally:
        sv.close()


def _reads_while_rewritten(write, n, stripe, values, nreads=300):
    """``nreads`` reads of ``x`` through the ``write`` policy while a
    spawned process rewrites it through the same policy.

    Reading starts after the writer's first write and goes on past
    ``nreads`` until the writer has written 50 more times, so the reads
    overlap the writes whatever the scheduling."""
    ctx = mp.get_context("spawn")
    layout = _Layout(n=n, ngrids=1, nworkers=1, ring_capacity=1)
    sv = SharedVectors.create(layout)
    locks = _make_locks(write, n, stripe, ctx)
    pol = make_write_policy(write, n, stripe, locks)
    proc = ctx.Process(
        target=_rewrite, args=(sv.name, layout, write, stripe, locks, values), daemon=True
    )
    proc.start()
    reads = []
    try:
        deadline = time.monotonic() + 60.0
        while sv.counts[0] == 0:
            assert proc.is_alive() and time.monotonic() < deadline, "writer never wrote"
            time.sleep(0.001)
        first = int(sv.counts[0])
        while len(reads) < nreads or int(sv.counts[0]) < first + 50:
            assert time.monotonic() < deadline, "writer stopped writing"
            reads.append(pol.read(sv.x))
    finally:
        sv.flags[0] = 1
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        sv.close()
        sv.unlink()
    assert proc.exitcode == 0, "writer did not stop cleanly"
    return reads


def _torn_stripes(reads, stripe):
    return sum(
        not np.all(out[lo : lo + stripe] == out[lo])
        for out in reads
        for lo in range(0, out.size, stripe)
    )


class TestCrossProcessWrites:
    """The write policies over ``multiprocessing`` locks, with the
    writer in another process: what a reader may observe (Section IV)
    holds across processes.  An ``unsafe`` policy fails these checks."""

    @pytest.mark.parametrize(
        "write, stripe",
        [("lock", 4096), ("atomic", 1024), ("atomic", 1500)],
        ids=["lock", "atomic", "atomic-ragged"],
    )
    def test_reads_are_whole(self, write, stripe):
        """``lock`` reads are uniform vectors; ``atomic`` reads are
        uniform stripes, possibly from different writes."""
        reads = _reads_while_rewritten(write, 4096, stripe, np.arange(1.0, 1000.0))
        assert _torn_stripes(reads, stripe) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_torn_stripes_under_concurrent_writes(self, seed):
        """Property: whatever the interleaving, every stripe an
        ``AtomicWrite`` over mp locks returns is uniform — a single
        writer's whole publication."""
        values = np.random.default_rng(seed).integers(1, 10, size=64).astype(float)
        reads = _reads_while_rewritten("atomic", 256, 64, values, nreads=400)
        assert _torn_stripes(reads, 64) == 0


class TestSharedVectors:
    def _layout(self):
        return _Layout(n=32, ngrids=2, nworkers=1, ring_capacity=8)

    def test_roundtrip_and_single_unlink(self):
        layout = self._layout()
        before = _shm_segments()
        sv = SharedVectors.create(layout)
        try:
            sv.x[:] = np.arange(32.0)
            peer = SharedVectors.attach(sv.name, layout)
            assert np.array_equal(peer.x, np.arange(32.0))
            peer.close()
        finally:
            sv.close()
            sv.unlink()
            sv.unlink()  # second unlink is a no-op, not an error
        assert _shm_segments() == before

    def test_shutdown_is_warning_free(self, multadd, b_7pt):
        """Satellite check: a full procs run neither leaks a /dev/shm
        segment nor trips a ResourceWarning at shutdown."""
        import gc

        before = _shm_segments()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            res = run_procs(
                multadd, b_7pt, tmax=6, workers=2, criterion="criterion1"
            )
            gc.collect()
        assert not res.errors
        assert _shm_segments() == before


class TestSetupBundle:
    def test_pickle_roundtrip_preserves_results(self, multadd, b_7pt):
        """What workers actually do: rebuild the solver from a pickled
        bundle and get bit-identical engine results."""
        bundle = SetupBundle.from_solver(multadd)
        clone = pickle.loads(pickle.dumps(bundle)).build_solver()
        assert clone.ngrids == multadd.ngrids
        ref = run_async_engine(multadd, b_7pt, tmax=5, seed=11)
        got = run_async_engine(clone, b_7pt, tmax=5, seed=11)
        assert np.array_equal(ref.x, got.x)
        assert np.array_equal(ref.counts, got.counts)


class TestGridAssignment:
    def test_lpt_is_deterministic_and_complete(self):
        work = np.array([8.0, 4.0, 2.0, 1.0, 1.0])
        owned = _assign_grids(work, 2)
        assert owned == _assign_grids(work, 2)
        assert sorted(g for grids in owned for g in grids) == list(range(5))
        loads = [sum(work[g] for g in grids) for grids in owned]
        assert max(loads) == 8.0  # heaviest grid alone; rest packed opposite

    def test_one_worker_owns_everything(self):
        owned = _assign_grids(np.ones(4), 1)
        assert owned == [[0, 1, 2, 3]]
