"""Unit tests for write policies (Section IV race handling)."""

import threading
from functools import partial

import numpy as np
import pytest

from repro.core import AtomicWrite, LockWrite, UnsafeWrite, make_write_policy
from repro.core.writes import WriteObserver, lock_count


@pytest.mark.parametrize("policy_name", ["lock", "atomic", "unsafe"])
class TestBasicSemantics:
    def test_add(self, policy_name):
        pol = make_write_policy(policy_name, 10)
        target = np.zeros(10)
        pol.add(target, np.arange(10.0))
        assert np.array_equal(target, np.arange(10.0))

    def test_assign_slice(self, policy_name):
        pol = make_write_policy(policy_name, 10)
        target = np.zeros(10)
        pol.assign_slice(target, 3, 7, np.full(4, 2.0))
        assert np.array_equal(target[3:7], np.full(4, 2.0))
        assert np.array_equal(target[:3], np.zeros(3))

    def test_read_copy(self, policy_name):
        pol = make_write_policy(policy_name, 5)
        src = np.arange(5.0)
        out = pol.read(src)
        out[:] = -1
        assert np.array_equal(src, np.arange(5.0))


def _run_to_completion(*targets, timeout=30.0):
    """Run each target on its own thread and assert that all of them
    end within ``timeout`` seconds (a hang fails the test, never the
    run)."""
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a thread did not finish"


class TestConcurrency:
    @pytest.mark.parametrize("policy_name", ["lock", "atomic"])
    def test_no_lost_updates(self, policy_name):
        # Many concurrent adders: a correct policy loses nothing.
        n = 2048
        pol = make_write_policy(policy_name, n)
        target = np.zeros(n)
        nthreads, reps = 8, 50

        def adder():
            for _ in range(reps):
                pol.add(target, np.ones(n))

        _run_to_completion(*[adder] * nthreads)
        assert np.all(target == nthreads * reps)


class TestInterleaving:
    """Consistency under a concurrent reader (Section IV semantics)."""

    def test_lock_reader_never_sees_half_applied_update(self):
        # LockWrite's contract: the whole-vector update is atomic, so a
        # reader observes either all of an add or none of it — every
        # read of a uniformly-incremented vector is itself uniform.
        n = 4096
        pol = LockWrite(n)
        target = np.zeros(n)
        stop = threading.Event()
        bad = []

        def writer():
            delta = np.ones(n)
            while not stop.is_set():
                pol.add(target, delta)

        def reader():
            try:
                for _ in range(300):
                    snap = pol.read(target)
                    if snap.min() != snap.max():
                        bad.append((snap.min(), snap.max()))
            finally:
                stop.set()  # a reader that raises must not strand the writer

        _run_to_completion(writer, reader)
        assert not bad, f"reader saw torn whole-vector updates: {bad[:3]}"

    def test_atomic_reader_sees_consistent_stripes(self):
        # AtomicWrite only promises per-stripe consistency: a concurrent
        # reader may see an update half-committed *across* stripes, but
        # never within one stripe.
        n, stripe = 4096, 512
        pol = AtomicWrite(n, stripe=stripe)
        target = np.zeros(n)
        stop = threading.Event()
        bad = []

        def writer():
            delta = np.ones(n)
            while not stop.is_set():
                pol.add(target, delta)

        def reader():
            try:
                for _ in range(300):
                    snap = pol.read(target)
                    for _, a, b in pol._ranges():
                        seg = snap[a:b]
                        if seg.min() != seg.max():
                            bad.append((a, b))
            finally:
                stop.set()  # a reader that raises must not strand the writer

        _run_to_completion(writer, reader)
        assert not bad, f"reader saw torn stripes: {bad[:3]}"

    def test_atomic_concurrent_adds_disjoint_slices(self):
        # Writers assigning disjoint slices through the same policy
        # never corrupt each other's region.
        n = 1024
        pol = AtomicWrite(n, stripe=128)
        target = np.zeros(n)
        nthreads = 4
        width = n // nthreads

        def assigner(i):
            lo, hi = i * width, (i + 1) * width
            for _ in range(100):
                pol.assign_slice(target, lo, hi, np.full(width, float(i + 1)))

        _run_to_completion(*[partial(assigner, i) for i in range(nthreads)])
        for i in range(nthreads):
            assert np.all(target[i * width : (i + 1) * width] == i + 1)


class TestLocksFreedOnError:
    """A data movement that raises leaves every stripe lock free."""

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("name", ["lock", "atomic"])
    @pytest.mark.parametrize("op", ["add", "assign_slice"])
    def test_mismatched_shapes(self, name, op, observed):
        pol = make_write_policy(name, 10, 4)
        if observed:
            pol.observer = WriteObserver()  # every hook a no-op
        target = np.zeros(10)
        short = np.ones(6)  # atomic: stripe 0 moves, stripe 1 raises
        with pytest.raises(ValueError):
            if op == "add":
                pol.add(target, short)
            else:
                pol.assign_slice(target, 0, 10, short)
        for lock in pol._locks:
            assert lock.acquire(blocking=False)
            lock.release()


class TestAtomicWrite:
    def test_stripe_count(self):
        pol = AtomicWrite(1000, stripe=256)
        assert pol.nstripes == 4

    def test_stripe_ranges_cover(self):
        pol = AtomicWrite(1000, stripe=300)
        spans = list(pol._ranges())
        assert spans[0][1] == 0
        assert spans[-1][2] == 1000
        total = sum(b - a for _, a, b in spans)
        assert total == 1000

    def test_partial_slice_ranges(self):
        pol = AtomicWrite(1000, stripe=100)
        spans = list(pol._ranges(250, 450))
        covered = sorted((a, b) for _, a, b in spans)
        assert covered[0][0] == 250 and covered[-1][1] == 450

    def test_invalid_stripe(self):
        with pytest.raises(ValueError):
            AtomicWrite(10, stripe=0)


class TestRegistry:
    def test_unknown(self):
        with pytest.raises(KeyError):
            make_write_policy("transactional", 10)

    @pytest.mark.parametrize(
        "name, nlocks", [("lock", 0), ("lock", 2), ("atomic", 2), ("atomic", 4), ("unsafe", 1)]
    )
    def test_wrong_lock_count(self, name, nlocks):
        # 10 entries in stripes of 4: atomic takes 3 locks, lock 1, unsafe none.
        locks = [threading.Lock() for _ in range(nlocks)]
        with pytest.raises(ValueError):
            make_write_policy(name, 10, 4, locks)

    @pytest.mark.parametrize("name, nlocks", [("lock", 1), ("atomic", 3), ("unsafe", 0)])
    def test_lock_count(self, name, nlocks):
        # The count make_write_policy accepts is the one lock_count gives.
        assert lock_count(name, 10, 4) == nlocks
        make_write_policy(name, 10, 4, [threading.Lock() for _ in range(nlocks)])

    def test_names(self):
        assert LockWrite(4).name == "lock"
        assert AtomicWrite(4).name == "atomic"
        assert UnsafeWrite(4).name == "unsafe"
