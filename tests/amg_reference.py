"""Row-by-row reference versions of the vectorized AMG setup stages.

These are the original loop implementations of the RS first pass, HMIS
coarsening, classical modified interpolation and multipass
interpolation, kept verbatim as the tests' reference.  The shipped
array versions in :mod:`repro.amg.coarsen` and :mod:`repro.amg.interp`
must reproduce them bit for bit (see ``test_amg_reference.py``).
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.amg.coarsen import (
    CPOINT,
    FPOINT,
    UNDECIDED,
    _second_pass,
    pmis_coarsening,
)
from repro.amg.strength import strength_transpose_counts
from repro.linalg import as_csr

__all__ = [
    "rs_first_pass",
    "rs_coarsening",
    "hmis_coarsening",
    "classical_interpolation",
    "multipass_interpolation",
]


def _csr_rows(M: sp.csr_matrix, i: int) -> np.ndarray:
    return M.indices[M.indptr[i] : M.indptr[i + 1]]


def _row(M: sp.csr_matrix, i: int):
    lo, hi = M.indptr[i], M.indptr[i + 1]
    return M.indices[lo:hi], M.data[lo:hi]


def _coarse_map(splitting: np.ndarray) -> np.ndarray:
    cmap = -np.ones(splitting.shape[0], dtype=np.int64)
    cpts = np.flatnonzero(splitting == CPOINT)
    cmap[cpts] = np.arange(cpts.size)
    return cmap


def rs_first_pass(
    S: sp.csr_matrix,
    allowed: np.ndarray | None = None,
    splitting: np.ndarray | None = None,
) -> np.ndarray:
    """Classical Ruge-Stueben first pass, one heap entry per update."""
    S = as_csr(S)
    ST = as_csr(S.T)
    n = S.shape[0]
    if splitting is None:
        splitting = np.full(n, UNDECIDED, dtype=np.int8)
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    else:
        allowed = np.asarray(allowed, dtype=bool)

    def in_scope(j: int) -> bool:
        return bool(allowed[j])

    measure = np.zeros(n, dtype=np.int64)
    base = strength_transpose_counts(S)
    for i in range(n):
        if allowed[i] and splitting[i] == UNDECIDED:
            infl = _csr_rows(ST, i)
            measure[i] = int(np.count_nonzero(allowed[infl])) if infl.size else 0
    for i in range(n):
        if allowed[i] and splitting[i] == UNDECIDED and base[i] == 0:
            row = _csr_rows(S, i)
            if row.size == 0:
                splitting[i] = FPOINT

    heap: List[Tuple[int, int]] = [
        (-int(measure[i]), i)
        for i in range(n)
        if allowed[i] and splitting[i] == UNDECIDED
    ]
    heapq.heapify(heap)

    while heap:
        neg_m, i = heapq.heappop(heap)
        if splitting[i] != UNDECIDED or -neg_m != measure[i]:
            continue
        if measure[i] <= 0:
            continue
        splitting[i] = CPOINT
        for j in _csr_rows(ST, i):
            if in_scope(j) and splitting[j] == UNDECIDED:
                splitting[j] = FPOINT
                for k in _csr_rows(S, j):
                    if in_scope(k) and splitting[k] == UNDECIDED:
                        measure[k] += 1
                        heapq.heappush(heap, (-int(measure[k]), k))
        for k in _csr_rows(S, i):
            if in_scope(k) and splitting[k] == UNDECIDED:
                measure[k] -= 1
                heapq.heappush(heap, (-int(measure[k]), k))
    return splitting


def rs_coarsening(S: sp.csr_matrix) -> np.ndarray:
    """Reference first pass followed by the shipped second pass."""
    splitting = rs_first_pass(S)
    splitting[splitting == UNDECIDED] = FPOINT
    return _second_pass(S, splitting)


def hmis_coarsening(
    S: sp.csr_matrix, nparts: int = 8, seed: int = 0
) -> np.ndarray:
    """Blockwise reference RS first pass, then the shipped PMIS pass."""
    S = as_csr(S)
    n = S.shape[0]
    nparts = max(1, min(nparts, n // 128 if n >= 256 else 1))
    splitting = np.full(n, UNDECIDED, dtype=np.int8)
    bounds = np.linspace(0, n, nparts + 1).astype(np.int64)
    for p in range(nparts):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        if hi <= lo:
            continue
        allowed = np.zeros(n, dtype=bool)
        allowed[lo:hi] = True
        rs_first_pass(S, allowed=allowed, splitting=splitting)
    return pmis_coarsening(S, seed=seed, splitting=splitting)


def classical_interpolation(
    A: sp.csr_matrix, S: sp.csr_matrix, splitting: np.ndarray
) -> sp.csr_matrix:
    """Classical modified interpolation, one F-row at a time."""
    A = as_csr(A)
    S = as_csr(S)
    splitting = np.asarray(splitting, dtype=np.int8)
    n = A.shape[0]
    cmap = _coarse_map(splitting)
    nc = int((splitting == CPOINT).sum())
    diag_all = A.diagonal()

    rows_out, cols_out, vals_out = [], [], []
    for i in range(n):
        if splitting[i] == CPOINT:
            rows_out.append(i)
            cols_out.append(cmap[i])
            vals_out.append(1.0)
            continue
        cols, vals = _row(A, i)
        strong = set(int(s) for s in _csr_rows(S, i))
        c_i = [int(c) for c in _csr_rows(S, i) if splitting[c] == CPOINT]
        if not c_i:
            continue
        c_set = set(c_i)
        w_acc = {c: 0.0 for c in c_i}
        d_i = 0.0
        for col, a_ij in zip(cols, vals):
            col = int(col)
            if col == i:
                d_i += a_ij
            elif col in c_set:
                w_acc[col] += a_ij
            elif col in strong and splitting[col] == FPOINT:
                mcols, mvals = _row(A, col)
                sign = -1.0 if diag_all[col] > 0 else 1.0
                d_m = 0.0
                shares = []
                for mc, a_mk in zip(mcols, mvals):
                    mc = int(mc)
                    if mc in c_set and a_mk * sign > 0:
                        d_m += a_mk
                        shares.append((mc, a_mk))
                if d_m != 0.0:
                    for mc, a_mk in shares:
                        w_acc[mc] += a_ij * a_mk / d_m
                else:
                    d_i += a_ij
            else:
                d_i += a_ij
        if abs(d_i) < 1e-10 * abs(diag_all[i]):
            d_i = float(diag_all[i])
        for c in c_i:
            w = -w_acc[c] / d_i
            if w != 0.0:
                rows_out.append(i)
                cols_out.append(cmap[c])
                vals_out.append(w)

    P = sp.csr_matrix(
        (np.array(vals_out), (np.array(rows_out, dtype=np.int64), np.array(cols_out, dtype=np.int64))),
        shape=(n, nc),
    )
    return as_csr(P)


def multipass_interpolation(
    A: sp.csr_matrix, S: sp.csr_matrix, splitting: np.ndarray
) -> sp.csr_matrix:
    """Multipass interpolation with a dict of rows per fine point."""
    A = as_csr(A)
    S = as_csr(S)
    splitting = np.asarray(splitting, dtype=np.int8)
    n = A.shape[0]
    cmap = _coarse_map(splitting)
    nc = int((splitting == CPOINT).sum())

    P_rows: dict[int, dict[int, float]] = {}
    done = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(splitting == CPOINT):
        P_rows[int(i)] = {int(cmap[i]): 1.0}
        done[i] = True

    for i in range(n):
        if done[i]:
            continue
        strong = _csr_rows(S, i)
        strong_c = strong[splitting[strong] == CPOINT]
        if strong_c.size == 0:
            continue
        cols, vals = _row(A, i)
        diag = float(A[i, i])
        sc_set = set(int(c) for c in strong_c)
        num = {}
        sum_all = 0.0
        sum_c = 0.0
        for col, a in zip(cols, vals):
            col = int(col)
            if col == i:
                continue
            sum_all += a
            if col in sc_set:
                sum_c += a
                num[col] = num.get(col, 0.0) + a
        if sum_c == 0.0 or diag == 0.0:
            continue
        alpha = sum_all / sum_c
        P_rows[i] = {
            int(cmap[c]): -alpha * a / diag for c, a in num.items() if a != 0.0
        }
        done[i] = True

    progress = True
    while progress and not done.all():
        progress = False
        newly = []
        for i in np.flatnonzero(~done):
            strong = _csr_rows(S, i)
            used = [int(m) for m in strong if done[m]]
            if not used:
                continue
            cols, vals = _row(A, i)
            diag = 0.0
            sum_all = 0.0
            sum_used = 0.0
            coeff = {}
            used_set = set(used)
            for col, a in zip(cols, vals):
                col = int(col)
                if col == i:
                    diag = a
                    continue
                sum_all += a
                if col in used_set:
                    sum_used += a
                    coeff[col] = coeff.get(col, 0.0) + a
            if diag == 0.0 or sum_used == 0.0:
                continue
            alpha = sum_all / sum_used
            acc: dict[int, float] = {}
            for m, a_im in coeff.items():
                scale = -alpha * a_im / diag
                for c, w in P_rows[m].items():
                    acc[c] = acc.get(c, 0.0) + scale * w
            newly.append((i, acc))
        for i, acc in newly:
            P_rows[i] = acc
            done[i] = True
            progress = True

    rows_out, cols_out, vals_out = [], [], []
    for i, row in P_rows.items():
        for c, w in row.items():
            if w != 0.0:
                rows_out.append(i)
                cols_out.append(c)
                vals_out.append(w)
    P = sp.csr_matrix(
        (np.array(vals_out), (np.array(rows_out, dtype=np.int64), np.array(cols_out, dtype=np.int64))),
        shape=(n, nc),
    )
    return as_csr(P)
