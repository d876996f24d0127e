"""Finite-difference / tensor-product Laplacians on a cube.

These are the ``7pt`` and ``27pt`` test sets of the paper: the 3-D
Laplace operator on an ``n x n x n`` interior grid of the unit cube with
homogeneous Dirichlet boundary conditions.

- ``7pt``: classical second-order centred differences, stencil
  ``[-1, ..., 6, ..., -1]``.
- ``27pt``: the 27-point centred-difference Laplacian — every one of
  the 26 neighbours couples with weight -1 against a centre weight of
  26.  The matrix is symmetric, irreducibly diagonally dominant (hence
  SPD with Dirichlet truncation) and reproduces the paper's Table-I
  dimensions exactly: 27,000 rows and 681,472 nonzeros at n=30.

(The trilinear-hex FEM Laplacian is *not* used for ``27pt`` because on
a uniform grid its face-neighbour couplings cancel, leaving a 21-point
stencil; it is still exposed as :func:`laplacian_27pt_fem` since it is
a useful harder-stencil variant.)
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..linalg import as_csr

__all__ = [
    "laplacian_5pt",
    "laplacian_7pt",
    "laplacian_27pt",
    "laplacian_27pt_fem",
    "laplacian_1d",
    "mass_1d",
]


def laplacian_1d(n: int, h_scaled: bool = False) -> sp.csr_matrix:
    """1-D Dirichlet Laplacian ``tridiag(-1, 2, -1)`` of size ``n``.

    With ``h_scaled`` the matrix is divided by ``h = 1/(n+1)`` (the FEM
    stiffness scaling); the unscaled version is the pure difference
    stencil.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    K = sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    if h_scaled:
        K = K * (n + 1.0)
    return as_csr(K)


def mass_1d(n: int, h_scaled: bool = False) -> sp.csr_matrix:
    """1-D P1 mass matrix ``tridiag(1, 4, 1)/6`` of size ``n``.

    With ``h_scaled`` the matrix is multiplied by ``h = 1/(n+1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    M = sp.diags(
        [np.ones(n - 1) / 6.0, 4.0 * np.ones(n) / 6.0, np.ones(n - 1) / 6.0],
        offsets=[-1, 0, 1],
        format="csr",
    )
    if h_scaled:
        M = M / (n + 1.0)
    return as_csr(M)


def laplacian_5pt(n: int) -> sp.csr_matrix:
    """5-point 2-D Laplacian on an ``n^2`` interior grid (Dirichlet).

    The standard centred-difference stencil ``[-1; -1, 4, -1; -1]`` —
    the benchmark suite's workhorse (``n = 96`` gives 9,216 rows, large
    enough that SpMV dominates without the 3-D sets' setup cost).
    """
    K = laplacian_1d(n)
    eye = sp.identity(n, format="csr")
    A = sp.kron(K, eye) + sp.kron(eye, K)
    return as_csr(A)


def laplacian_7pt(n: int) -> sp.csr_matrix:
    """7-point 3-D Laplacian on an ``n^3`` interior grid (Dirichlet).

    ``n`` is the paper's *grid length* (e.g. 30 gives the Table-I
    "27,000 rows" matrix).  Row count is ``n**3``; interior rows have 7
    nonzeros (183,600 nnz at n=30, matching the paper).
    """
    K = laplacian_1d(n)
    eye = sp.identity(n, format="csr")
    A = (
        sp.kron(sp.kron(K, eye), eye)
        + sp.kron(sp.kron(eye, K), eye)
        + sp.kron(sp.kron(eye, eye), K)
    )
    return as_csr(A)


def laplacian_27pt(n: int) -> sp.csr_matrix:
    """27-point 3-D Laplacian on an ``n^3`` interior grid (Dirichlet).

    All 26 neighbours have weight -1, the centre 26.  At n=30 this
    gives 27,000 rows and ``(3n-2)^3 = 681,472`` nonzeros — exactly the
    Table-I ``27pt`` matrix dimensions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ones = np.ones(n - 1)
    B = sp.diags([ones, np.ones(n), ones], offsets=[-1, 0, 1], format="csr")
    N = sp.kron(sp.kron(B, B), B)  # adjacency + self over the 27-neighbourhood
    A = 27.0 * sp.identity(n**3, format="csr") - N
    return as_csr(A)


def laplacian_27pt_fem(n: int) -> sp.csr_matrix:
    """Trilinear-hex FEM Laplacian on an ``n^3`` interior grid.

    Tensor sum ``K(x)M(x)M + M(x)K(x)M + M(x)M(x)K`` of 1-D stiffness
    and mass.  On a uniform grid the face couplings cancel, so this is
    a 21-point stencil — kept as an additional (harder) test operator.
    """
    K = laplacian_1d(n)
    M = mass_1d(n)
    A = (
        sp.kron(sp.kron(K, M), M)
        + sp.kron(sp.kron(M, K), M)
        + sp.kron(sp.kron(M, M), K)
    )
    return as_csr(A)
