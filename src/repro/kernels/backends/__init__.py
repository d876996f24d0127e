"""Kernel backend implementations.

Every backend module exposes the same five low-level entry points
operating on a :class:`~repro.kernels.plans.RowRangePlan` plus caller
buffers (the dispatch layer in :mod:`repro.kernels` owns buffer
acquisition and statistics):

=====================  ==============================================
``range_matvec``       ``out[:] = (A @ x)[start:stop]`` (local length)
``range_residual``     ``out[:] = (b - A @ x)[start:stop]``
``jacobi_sweep``       one fused diagonal sweep, in place on ``y``
``prolong_add``        ``y += omega * (P @ e)`` (fused axpy-SpMV)
``residual_norm``      ``||b - A x||_2`` without a persistent temporary
=====================  ==============================================

Backends:

- ``numpy`` — allocation-free plan-driven kernels on scipy's compiled
  CSR routines; bit-identical to the seed code paths (same operation
  order), which ``tests/kernels_reference.py`` keeps verbatim behind
  this same interface as the parity tests' reference.
- ``numba`` — JIT-compiled loops; available only when numba imports,
  agrees with ``numpy`` to tight floating-point tolerance (1e-14
  relative) but not bitwise (different reduction code).
"""
