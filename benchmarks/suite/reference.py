"""A fixed reference loop that gauges how fast the host runs right now.

On a shared machine the same code runs tens of percent slower for
seconds to minutes at a time (other tenants, clock changes), more than
the regressions a bound must catch.  The loop below mixes interpreted
Python with small scipy CSR products, as repro's hot paths do, and does
not depend on repro.  A workload times it between its own operations,
and harness.py reports times scaled to the speed at which one pass takes
``REF_NOMINAL_S``.

A pass is timed in CPU time of the calling thread, not wall time.  A
slowed host slows the loop's instructions, which CPU time counts (a
pass that took 7.9 ms of wall time took 7.6 ms of CPU time).  Time the
loop spends waiting for the interpreter lock or a CPU held by the
process's own threads, such as idle server threads waking up or OpenBLAS
threads spinning after a BLAS call, is left out: it depends on the code
under test.
"""

from __future__ import annotations

from time import thread_time

import numpy as np
import scipy.sparse as sp

__all__ = ["REF_NOMINAL_S", "Reference"]

#: Seconds of one reference pass at the speed reported times are scaled to.
REF_NOMINAL_S = 0.005


class Reference:
    """Call to time the loop: mean seconds of one pass."""

    def __init__(self) -> None:
        n, w = 4096, 64
        self.R = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-w, -1, 0, 1, w], shape=(n, n), format="csr")
        self.x = np.linspace(0.0, 1.0, n)

    def _pass(self) -> float:
        t0 = thread_time()
        acc = 0.0
        for i in range(300):
            y = self.R @ self.x
            acc += float(y[i])
            for j in range(20):
                acc += j * 1e-9
        return thread_time() - t0

    def __call__(self, passes: int = 1) -> float:
        return sum(self._pass() for _ in range(passes)) / passes
