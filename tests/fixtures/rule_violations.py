"""Seeded violations of every RPR rule — linter test fixture.

This file is *linted as text* by ``tests/test_analysis_linter.py``
(with ``ignore_scope=True``); it is never imported, never collected by
pytest, and excluded from ruff (``extend-exclude = ["tests/fixtures"]``).
Every block below must keep triggering exactly the rule named above it.
"""

import threading
import time

import numpy as np

_locks = [threading.Lock() for _ in range(4)]


def rpr001_direct_shared_mutation(x, r, e, lo, hi, vals):
    # RPR001: direct mutation of the shared iterate / residual.
    x += e
    x[lo:hi] += e[lo:hi]
    r[lo:hi] = vals


def rpr002_nested_and_descending(data):
    # RPR002: nested acquisition of two stripe locks...
    with _locks[0]:
        with _locks[1]:
            data += 1
    # ...and a descending stripe sweep.
    for s in reversed(range(4)):
        with _locks[s]:
            data += 1


def rpr003_unseeded_randomness():
    # RPR003: legacy module-level RNG and unseeded default_rng().
    noise = np.random.rand(3)
    rng = np.random.default_rng()
    return noise, rng


def rpr003_hash_seed(size, alpha):
    # RPR003: a seed computed with hash(), salted per process.
    seed = hash((size, alpha)) % 2**32
    return np.random.default_rng(seed)


def rpr004_wall_clock():
    # RPR004: wall-clock time in a measurement.
    start = time.time()
    return time.time() - start


from dataclasses import dataclass  # noqa: E402


@dataclass
class BrokenResult:
    # RPR005: missing 'stalled'/'telemetry', and a shared mutable default.
    x: float = 0.0
    errors: list = []


import logging  # noqa: E402

log = logging.getLogger("fixture")


def rpr006_hot_path_emission(corrections):
    # RPR006: print/logging emission inside an executor loop.
    for e in corrections:
        print("applying", e)
        log.debug("correction %s", e)
    while corrections:
        logging.info("still going")
        corrections.pop()


def rpr007_hot_loop_allocation(A, xs, n):
    # RPR007: per-iteration O(n) allocation / format conversion.
    acc = np.zeros(n)
    for x in xs:
        out = np.zeros(n)
        rows = np.repeat(np.arange(n), 2)
        acc += out[rows[:n]]
    while n > 0:
        tmp = np.empty(n)
        B = A.tocsr()
        acc[:n] += tmp + B.diagonal()[:n]
        n -= 1
    return acc


def rpr008_membership_writes(mm, grid_down, rank_state):
    # RPR008: membership state mutated outside MembershipManager.
    grid_down[0] = True
    mm.alive[3] = False
    mm.rank_state = rank_state
    mm.last_heard[2] += 1.0
    return mm


def rpr009_apply_correction(iterate, update):
    # RPR009: raw write to an array that is shared in the *caller* —
    # the escaping worker closure below hands `iterate` to this
    # helper, so the interprocedural pass must flag the write even
    # though this function looks innocent in isolation.  (Names are
    # deliberately not in RPR001's list: only the whole-program pass
    # can see this.)
    iterate += update


def rpr009_spawn_unguarded_helper(A, b, n):
    # Escape seed: iterate and resid are created here and flow into
    # `worker`, which is handed off as a value (Thread target) — both
    # arrays are statically shared from that point on.
    iterate = np.zeros(n)
    resid = b - A @ iterate

    def worker(k):
        # RPR009: raw write to an escaping shared array, no lock held.
        resid[k] += 1.0
        update = np.zeros(n)
        rpr009_apply_correction(iterate, update)

    t = threading.Thread(target=worker, args=(0,), daemon=True)
    t.start()
    return iterate


_order_lock_a = threading.Lock()
_order_lock_b = threading.Lock()


def rpr010_first_order(data):
    # Takes A here, then B inside the callee: the A -> B edge.
    with _order_lock_a:
        _rpr010_under_a(data)


def _rpr010_under_a(data):
    # RPR010: acquires B while the caller holds A...
    with _order_lock_b:
        data[0] = 1.0


def rpr010_inverted_order(data):
    # ...while this path takes B first, then A inside its callee —
    # the opposite order, a cross-function deadlock cycle.
    with _order_lock_b:
        _rpr010_under_b(data)


def _rpr010_under_b(data):
    # RPR010: acquires A while the caller holds B.
    with _order_lock_a:
        data[0] = 2.0


_buffer_lock = threading.Lock()


def on_snapshot_blocking(snap, sink, sock):
    # RPR011: blocking work inside a live snapshot callback.
    time.sleep(0.1)
    fh = open("/tmp/snap.json", "a")
    fh.write(str(snap))
    sock.sendall(b"snap")
    _buffer_lock.acquire()


class FixtureStallDetector:
    # RPR011: detector update doing I/O instead of pure math.
    def update(self, snap):
        with open("/tmp/alerts.log") as fh:
            return fh.readline()

    def _check(self, snap):
        time.sleep(0.01)
        return None


# RPR012: fork-unsafe module-level state for the procs executor —
# spawn children re-import the module and get private copies.
_worker_cache = {}
_result_rows: list = []
_module_lock = threading.Lock()
_scratch = np.zeros(16)


class SharedVectors:
    # Allowed: the one place np.frombuffer views may be constructed.
    def __init__(self, buf):
        self.x = np.frombuffer(buf, dtype=np.float64)


def rpr012_rogue_view(shm):
    # RPR012: a raw shared-memory view outside the SharedVectors helper.
    return np.frombuffer(shm.buf, dtype=np.float64)


import queue  # noqa: E402
from collections import deque  # noqa: E402
from multiprocessing import JoinableQueue  # noqa: E402


def rpr013_unbounded_queues(n):
    # RPR013: unbounded queue construction in the serve layer.
    inbox = queue.Queue()
    lifo = queue.LifoQueue(0)
    prio = queue.PriorityQueue(maxsize=0)
    simple = queue.SimpleQueue()
    joinable = JoinableQueue()
    work = deque()
    bounded = queue.Queue(maxsize=n)  # allowed: caller-bounded depth
    ring = deque(maxlen=n)  # allowed: bounded ring
    return inbox, lifo, prio, simple, joinable, work, bounded, ring


def rpr013_unbounded_blocking(q, t, lock, cond):
    # RPR013: blocking primitives with no timeout bound.
    item = q.get()
    t.join()
    lock.acquire()
    cond.wait()
    ok = q.get(timeout=1.0)  # allowed: bounded wait
    lock.acquire(blocking=False)  # allowed: cannot wait at all
    return item, ok
