"""Multigrid solvers.

- :class:`MultiplicativeMultigrid` — the classical V(s1,s2)-cycle
  (Algorithm 1 of the paper), the ``Mult`` baseline.
- :class:`BPX` — the classical additive preconditioner (Eq. 1); kept
  both as a preconditioner and as the divergent-as-a-solver baseline
  the paper discusses.
- :class:`Multadd` — additive variants of multiplicative multigrid
  (Eq. 2; Vassilevski & Yang) with smoothed interpolants and the
  symmetrized smoother.
- :class:`AFACx` — the asynchronous fast adaptive composite grid
  method with smoothing (Algorithm 2).
- :class:`PCG` — conjugate gradients preconditioned by any of the
  above (extension; the paper uses the methods as solvers only).

Additive solvers share the :class:`AdditiveMultigrid` interface:
``correction(k, r)`` returns grid ``k``'s fine-grid correction from a
fine-grid residual, which is exactly the ``B_k`` / ``C_k`` of the
asynchronous models (Section III) and the unit of work of the
shared-memory algorithms (Section IV).
"""

from .base import AdditiveMultigrid, SolveResult
from .coarse import CoarseSolver
from .mult import MultiplicativeMultigrid
from .bpx import BPX
from .multadd import Multadd
from .afacx import AFACx
from .pcg import PCG

__all__ = [
    "AdditiveMultigrid",
    "SolveResult",
    "CoarseSolver",
    "MultiplicativeMultigrid",
    "BPX",
    "Multadd",
    "AFACx",
    "PCG",
]
