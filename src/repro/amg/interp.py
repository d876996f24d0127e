"""Interpolation (prolongation) operators.

Three interpolation schemes cover what the paper's BoomerAMG
configurations use:

- :func:`direct_interpolation` — the simple one-point-distance formula,
  with positive and negative couplings scaled separately.
- :func:`classical_interpolation` — classical Ruge-Stueben
  interpolation in its *modified* form (BoomerAMG ``interp_type 0``):
  strong F-F connections are distributed through common C-points, with
  sign-aware weights, and strong F-neighbours sharing *no* common
  C-point are lumped into the diagonal instead of being dropped.
- :func:`multipass_interpolation` — for aggressive-coarsening levels,
  where F-points can be arbitrarily far from any C-point: interpolation
  is propagated outward from the C-points in passes.  Its first pass
  uses one ratio per row, not direct interpolation's split by sign.

All functions take the matrix ``A``, the strength matrix ``S`` and an
int8 C/F splitting and return ``P`` of shape ``(n, nc)`` whose C-rows
are identity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..linalg import as_csr
from .coarsen import CPOINT, FPOINT

__all__ = [
    "direct_interpolation",
    "classical_interpolation",
    "multipass_interpolation",
    "truncate_interpolation",
]

#: Entries of ``A`` per row block of :func:`classical_interpolation`.
_BLOCK_NNZ = 1 << 13


def _coarse_map(splitting: np.ndarray) -> np.ndarray:
    """Map fine index -> coarse index for C-points (-1 for F-points)."""
    cmap = -np.ones(splitting.shape[0], dtype=np.int64)
    cpts = np.flatnonzero(splitting == CPOINT)
    cmap[cpts] = np.arange(cpts.size)
    return cmap


def _row(M: sp.csr_matrix, i: int):
    lo, hi = M.indptr[i], M.indptr[i + 1]
    return M.indices[lo:hi], M.data[lo:hi]


def _strong_set(S: sp.csr_matrix, i: int) -> np.ndarray:
    return S.indices[S.indptr[i] : S.indptr[i + 1]]


def _entries(M: sp.csr_matrix, lo: int, hi: int):
    """Row, column and value of each stored entry in rows ``lo:hi`` of ``M``."""
    a, b = M.indptr[lo], M.indptr[hi]
    rows = np.repeat(np.arange(lo, hi), np.diff(M.indptr[lo : hi + 1]))
    return rows, M.indices[a:b], M.data[a:b]


def _find(keys: np.ndarray, queries: np.ndarray):
    """Positions of ``queries`` in the sorted ``keys``, and which are there.

    Keys are row-major ``i * n + j``, so a canonical CSR matrix lists
    its own in sorted order.
    """
    pos = np.searchsorted(keys, queries)
    found = pos < keys.size
    found[found] = keys[pos[found]] == queries[found]
    return pos, found


def _assemble(rows, cols, vals, shape) -> sp.csr_matrix:
    """Canonical CSR ``P`` from its nonzero triples."""
    keep = vals != 0.0
    P = sp.csr_matrix(
        (vals[keep], (np.asarray(rows, dtype=np.int64)[keep], np.asarray(cols, dtype=np.int64)[keep])),
        shape=shape,
    )
    return as_csr(P)


def direct_interpolation(
    A: sp.csr_matrix, S: sp.csr_matrix, splitting: np.ndarray
) -> sp.csr_matrix:
    """Direct interpolation with separate positive/negative scaling.

    For an F-point ``i`` with strong C-set ``C_i``::

        w_ij = -alpha_i * a_ij / a~_ii   (a_ij < 0)
        w_ij = -beta_i  * a_ij / a~_ii   (a_ij > 0)

    where ``alpha_i`` (resp. ``beta_i``) is the ratio of the full
    negative (positive) off-diagonal row sum to the negative (positive)
    sum over ``C_i``; when the row has positive off-diagonals but none
    of them is a strong C connection, the positive sum is lumped into
    the diagonal ``a~_ii`` instead.

    F-points with an empty strong C-set get a zero row (their error is
    handled purely by smoothing); aggressive coarsening produces such
    rows by design, and multipass interpolation fills them in.
    """
    A = as_csr(A)
    S = as_csr(S)
    splitting = np.asarray(splitting, dtype=np.int8)
    n = A.shape[0]
    cmap = _coarse_map(splitting)
    nc = int((splitting == CPOINT).sum())

    rows_out, cols_out, vals_out = [], [], []
    for i in range(n):
        if splitting[i] == CPOINT:
            rows_out.append(i)
            cols_out.append(cmap[i])
            vals_out.append(1.0)
            continue
        cols, vals = _row(A, i)
        mask_off = cols != i
        diag = float(vals[~mask_off][0]) if (~mask_off).any() else 0.0
        if diag == 0.0:
            raise ValueError(f"zero diagonal at row {i}")
        strong = _strong_set(S, i)
        strong_c = strong[splitting[strong] == CPOINT]
        if strong_c.size == 0:
            continue  # zero row
        sc_set = set(int(c) for c in strong_c)
        off_cols = cols[mask_off]
        off_vals = vals[mask_off]
        in_c = np.fromiter((int(c) in sc_set for c in off_cols), bool, off_cols.size)

        neg = off_vals < 0
        pos = off_vals > 0
        sum_neg_all = off_vals[neg].sum()
        sum_pos_all = off_vals[pos].sum()
        sum_neg_c = off_vals[neg & in_c].sum()
        sum_pos_c = off_vals[pos & in_c].sum()

        dtilde = diag
        alpha = sum_neg_all / sum_neg_c if sum_neg_c != 0.0 else 0.0
        if sum_pos_c != 0.0:
            beta = sum_pos_all / sum_pos_c
        else:
            beta = 0.0
            dtilde += sum_pos_all  # lump unmatched positive couplings
        if sum_neg_c == 0.0:
            dtilde += sum_neg_all

        sel = in_c & (neg | pos)
        w = np.where(off_vals[sel] < 0, alpha, beta) * off_vals[sel] / (-dtilde)
        keep = w != 0.0
        tgt = off_cols[sel][keep]
        rows_out.extend([i] * int(keep.sum()))
        cols_out.extend(cmap[tgt].tolist())
        vals_out.extend(w[keep].tolist())
    return _assemble(rows_out, cols_out, np.array(vals_out), (n, nc))


def classical_interpolation(
    A: sp.csr_matrix, S: sp.csr_matrix, splitting: np.ndarray
) -> sp.csr_matrix:
    """Classical *modified* Ruge-Stueben interpolation.

    For F-point ``i`` with strong C-set ``C_i``, strong F-set ``F_i``
    and weak neighbours ``W_i``::

        w_ij = - ( a_ij + sum_{m in F_i} a_im * a~_mj / d_m ) / d_i
        d_m  = sum_{k in C_i} a~_mk
        d_i  = a_ii + sum_{n in W_i} a_in + sum_{m in F_i, d_m = 0} a_im

    where ``a~_mk`` keeps only entries whose sign is opposite to the
    diagonal ``a_mm`` (the standard sign filter), and the last sum is
    the *modification*: strong F-neighbours with no common C-point are
    lumped into the diagonal rather than dropped, which keeps row sums
    correct for near-null-space constants.  When ``d_i`` cancels to
    below ``1e-10 |a_ii|`` (mixed-sign rows, e.g. elasticity), ``a_ii``
    replaces it: the row stays bounded at the cost of exact constants,
    the same guard BoomerAMG applies.  F-points with an empty ``C_i``
    get a zero row; multipass handles aggressive levels.

    Rows are computed a block at a time with array operations.  Each
    sum adds its terms in the order a loop over row ``i`` of ``A`` meets
    them: ``d_m`` in the column order of row ``m``; ``d_i`` and the
    numerator of ``w_ij`` in the column order of the entries ``a_ij``
    and ``a_im`` they come from.
    """
    A = as_csr(A)
    S = as_csr(S)
    splitting = np.asarray(splitting, dtype=np.int8)
    n = A.shape[0]
    cmap = _coarse_map(splitting)
    nc = int((splitting == CPOINT).sum())
    diag = A.diagonal()
    is_c = splitting == CPOINT
    is_f = splitting == FPOINT

    # A~, the sign-filtered C-part of A, as CSR arrays.
    hat = np.where(np.repeat(diag > 0, np.diff(A.indptr)), A.data < 0, A.data > 0)
    hat &= is_c[A.indices]
    hat_ptr = np.concatenate(([0], np.cumsum(hat)))[A.indptr]
    hat_cols, hat_vals = A.indices[hat], A.data[hat]

    cpts = np.flatnonzero(is_c)
    out = [(cpts, cpts, np.ones(cpts.size))]
    # Rows are independent; blocks of about _BLOCK_NNZ entries of A bound
    # the temporaries, which hold a few entries per (i, m, k) triple.
    step = max(1, _BLOCK_NNZ * n // max(A.nnz, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows, cols, data = _entries(A, lo, hi)
        srows, scols, _ = _entries(S, lo, hi)
        # C_i as sorted (i, c) keys; the F-rows that have one are active.
        sel = ~is_c[srows] & is_c[scols]
        ci_rows, ci_cols = srows[sel], scols[sel]
        ckeys = ci_rows * n + ci_cols
        active = np.zeros(hi - lo, dtype=bool)
        active[ci_rows - lo] = True
        in_row = active[rows - lo]
        strong = in_row & _find(srows * n + scols, rows * n + cols)[1]
        direct = strong & is_c[cols]
        ff = np.flatnonzero(strong & is_f[cols] & (cols != rows))

        # Expand each strong F-F entry (i, m) into row m of A~ and keep
        # the entries a~_mk with k in C_i.
        m = cols[ff]
        lens = hat_ptr[m + 1] - hat_ptr[m]
        pair = np.repeat(np.arange(ff.size), lens)
        src = np.repeat(hat_ptr[m] - (np.cumsum(lens) - lens), lens) + np.arange(pair.size)
        target, found = _find(ckeys, rows[ff][pair] * n + hat_cols[src])
        pair, target, a_mk = pair[found], target[found], hat_vals[src[found]]
        d_m = np.bincount(pair, weights=a_mk, minlength=ff.size)

        # d_i: the diagonal, weak entries and lumped F-neighbours (d_m == 0).
        to_diag = in_row & ~direct
        to_diag[ff[d_m != 0.0]] = False
        d_i = np.bincount(rows[to_diag] - lo, weights=data[to_diag], minlength=hi - lo)
        tiny = np.abs(d_i) < 1e-10 * np.abs(diag[lo:hi])
        d_i[tiny] = diag[lo:hi][tiny]

        # Numerators: the direct a_ij and the shares a_im * a_mk / d_m,
        # stably sorted by the entry of A each comes from.
        share = d_m[pair] != 0.0
        pair, target, a_mk = pair[share], target[share], a_mk[share]
        dpos = np.flatnonzero(direct)
        order = np.argsort(np.concatenate((dpos, ff[pair])), kind="stable")
        bins = np.concatenate((_find(ckeys, rows[dpos] * n + cols[dpos])[0], target))
        terms = np.concatenate((data[dpos], data[ff[pair]] * a_mk / d_m[pair]))
        w_acc = np.bincount(bins[order], weights=terms[order], minlength=ckeys.size)
        out.append((ci_rows, ci_cols, -w_acc / d_i[ci_rows - lo]))

    rows, cols, vals = (np.concatenate(part) for part in zip(*out))
    return _assemble(rows, cmap[cols], vals, (n, nc))


def multipass_interpolation(
    A: sp.csr_matrix, S: sp.csr_matrix, splitting: np.ndarray
) -> sp.csr_matrix:
    """Multipass interpolation for aggressive coarsening.

    Pass 1 interpolates each F-point ``i`` with a strong C-neighbour
    from its strong C-set ``C_i``, with one ratio for the whole row::

        w_ij = -( sum_{k != i} a_ik / sum_{k in C_i} a_ik ) * a_ij / a_ii

    This is not :func:`direct_interpolation`: there is no split into
    positive and negative couplings and no lumping.  Each later pass
    interpolates the remaining F-points through their strong neighbours
    ``m`` interpolated in earlier passes::

        row_i = -(alpha_i / a_ii) * sum_{m} a_im * row_m

    with ``alpha_i`` the ratio of the full off-diagonal row sum to the
    sum over the used neighbours ``m`` (so constants are preserved);
    pass 1 is this formula with the C-points' identity rows.  A row
    whose diagonal or used sum is zero waits for a later pass.  Stops
    when every F-point is covered or no progress is possible (any
    leftovers keep zero rows).

    Row sums add in CSR order.  Each pass forms its rows as the sparse
    product ``W @ P`` of its weights ``W[i, m]`` and the rows so far;
    scipy adds each entry ``(i, c)`` in the column order of ``W``.
    """
    A = as_csr(A)
    S = as_csr(S)
    splitting = np.asarray(splitting, dtype=np.int8)
    n = A.shape[0]
    cmap = _coarse_map(splitting)
    nc = int((splitting == CPOINT).sum())
    diag = A.diagonal()
    rows, cols, data = _entries(A, 0, n)
    srows, scols, _ = _entries(S, 0, n)
    off = cols != rows
    strong = off & _find(srows * n + scols, rows * n + cols)[1]
    sum_all = np.bincount(rows[off], weights=data[off], minlength=n)

    done = splitting == CPOINT
    cpts = np.flatnonzero(done)
    P = sp.csr_matrix((np.ones(cpts.size), (cpts, cmap[cpts])), shape=(n, nc))
    while not done.all():
        used = strong & done[cols]
        sum_used = np.bincount(rows[used], weights=data[used], minlength=n)
        cover = ~done & (sum_used != 0.0) & (diag != 0.0)
        if not cover.any():
            break
        scale = np.zeros(n)
        scale[cover] = -(sum_all[cover] / sum_used[cover])
        e = used & cover[rows]
        W = sp.csr_matrix(
            (scale[rows[e]] * data[e] / diag[rows[e]], (rows[e], cols[e])), shape=(n, n)
        )
        P = P + W @ P
        done |= cover
    return as_csr(P)


def truncate_interpolation(
    P: sp.csr_matrix, trunc_factor: float = 0.0, max_per_row: int = 0
) -> sp.csr_matrix:
    """Truncate small interpolation weights, preserving row sums.

    Entries with ``|w| < trunc_factor * max_row|w|`` are dropped (and
    optionally only the ``max_per_row`` largest kept); surviving
    entries are rescaled so each row keeps its original sum — the
    standard BoomerAMG truncation that preserves interpolation of
    constants.
    """
    if trunc_factor == 0.0 and max_per_row == 0:
        return as_csr(P)
    if not 0.0 <= trunc_factor < 1.0:
        raise ValueError("trunc_factor must be in [0, 1)")
    P = as_csr(P).tolil()
    for i in range(P.shape[0]):
        row = np.array(P.data[i], dtype=np.float64)
        cols = np.array(P.rows[i], dtype=np.int64)
        if row.size == 0:
            continue
        absr = np.abs(row)
        keep = absr >= trunc_factor * absr.max()
        if max_per_row and keep.sum() > max_per_row:
            order = np.argsort(-absr)
            sel = np.zeros(row.size, dtype=bool)
            sel[order[:max_per_row]] = True
            keep &= sel
            if not keep.any():
                keep[order[0]] = True
        old_sum = row.sum()
        new_sum = row[keep].sum()
        scale = old_sum / new_sum if new_sum != 0.0 else 1.0
        P.rows[i] = cols[keep].tolist()
        P.data[i] = (row[keep] * scale).tolist()
    return as_csr(P.tocsr())
