"""Shared fixtures: small, fast test problems and hierarchies.

Session-scoped because AMG setup is the slow part; tests must not
mutate fixture objects (solvers copy what they change).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.amg import SetupOptions, setup_hierarchy
from repro.problems import laplacian_7pt, laplacian_27pt, random_rhs
from repro.problems.fem import elasticity_cantilever, laplace_on_ball


def poisson1d(n: int) -> sp.csr_matrix:
    """1-D Dirichlet Laplacian — the smallest meaningful SPD matrix."""
    return sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
        offsets=[-1, 0, 1],
        format="csr",
    ).tocsr()


@pytest.fixture(scope="session")
def A_1d():
    return poisson1d(32)


@pytest.fixture(scope="session")
def A_7pt():
    return laplacian_7pt(8)  # 512 rows


@pytest.fixture(scope="session")
def A_27pt():
    return laplacian_27pt(8)


@pytest.fixture(scope="session")
def A_ball():
    return laplace_on_ball(10)


@pytest.fixture(scope="session")
def A_elas():
    return elasticity_cantilever(8, 3, 3)


@pytest.fixture(scope="session")
def b_7pt(A_7pt):
    return random_rhs(A_7pt.shape[0], seed=7)


@pytest.fixture(scope="session")
def b_27pt(A_27pt):
    return random_rhs(A_27pt.shape[0], seed=27)


@pytest.fixture(scope="session")
def hier_7pt(A_7pt):
    return setup_hierarchy(A_7pt, SetupOptions(aggressive_levels=0, max_coarse=20))


@pytest.fixture(scope="session")
def hier_7pt_agg(A_7pt):
    return setup_hierarchy(A_7pt, SetupOptions(aggressive_levels=1, max_coarse=20))


@pytest.fixture(scope="session")
def hier_27pt(A_27pt):
    return setup_hierarchy(A_27pt, SetupOptions(aggressive_levels=1, max_coarse=20))


@pytest.fixture(scope="session")
def hier_ball(A_ball):
    return setup_hierarchy(A_ball, SetupOptions(aggressive_levels=0, max_coarse=20))


@pytest.fixture(scope="session")
def hier_elas(A_elas):
    return setup_hierarchy(
        A_elas,
        SetupOptions(aggressive_levels=0, strength_norm="abs", max_coarse=30),
    )


class WorkerHold:
    """Parks a solve-server worker inside ``solve_batch`` while the group
    it runs carries a held right-hand side, until that RHS is released.

    The server looks ``solve_batch`` up in its module at call time, so
    patching it there holds workers without any production hook.  With
    every worker parked, nothing takes from the admission queue, which
    makes queue depth, shedding and batching deterministic.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        from repro.serve import server as server_module

        # (b, gate) pairs; holding b keeps the identity test sound
        self._held: list = []
        self._entered = threading.Semaphore(0)
        real = server_module.solve_batch

        def held_solve_batch(solver, columns, *args, **kwargs):
            for held_b, gate in list(self._held):
                if not gate.is_set() and any(b is held_b for b in columns):
                    self._entered.release()
                    assert gate.wait(timeout=60.0), "held worker never released"
            return real(solver, columns, *args, **kwargs)

        monkeypatch.setattr(server_module, "solve_batch", held_solve_batch)

    def hold(self, b):
        """Park any worker whose group carries ``b``, until it is released."""
        self._held.append((b, threading.Event()))

    def wait_parked(self):
        """Wait until one more worker has parked on a held RHS."""
        assert self._entered.acquire(timeout=30.0), "no worker took the held job"

    def plug(self, submit, b):
        """Hold ``b``, submit it with ``submit(b)``, and return its
        ticket once a worker is parked on it."""
        self.hold(b)
        ticket = submit(b)
        self.wait_parked()
        return ticket

    def release(self, b=None):
        """Release the worker held on ``b`` (every held worker if None)."""
        for held_b, gate in self._held:
            if b is None or held_b is b:
                gate.set()


@pytest.fixture()
def worker_hold(monkeypatch):
    hold = WorkerHold(monkeypatch)
    yield hold
    hold.release()  # never leave a worker parked past its test
