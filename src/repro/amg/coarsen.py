"""C/F splittings: Ruge-Stueben, PMIS and HMIS coarsening.

Conventions
-----------
- ``S`` is the strength matrix from :mod:`repro.amg.strength`: row ``i``
  lists the points ``i`` *depends* on; column ``j`` lists the points
  ``j`` *influences*.
- A splitting is an int8 vector with values :data:`CPOINT` (1),
  :data:`FPOINT` (-1); :data:`UNDECIDED` (0) only appears internally.

Algorithms
----------
- :func:`rs_first_pass`  — the classical greedy first pass driven by
  the "influence" measure, with the standard measure updates.
- :func:`rs_coarsening`  — first pass + the second pass that promotes
  F-points so that every strong F-F pair shares a common C-point
  (required for pure classical interpolation).
- :func:`pmis_coarsening` — parallel modified independent set
  (De Sterck, Yang & Heys), vectorized by rounds.
- :func:`hmis_coarsening` — hybrid: one-pass RS inside each of
  ``nparts`` contiguous row blocks (the "processor domains" of
  BoomerAMG), then a PMIS sweep that resolves the remaining points.
  With ``nparts = 1`` this reduces to one-pass RS plus a PMIS cleanup,
  exactly the serial degeneration of BoomerAMG's HMIS.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from ..linalg import as_csr
from .strength import strength_transpose_counts

__all__ = [
    "CPOINT",
    "FPOINT",
    "UNDECIDED",
    "rs_first_pass",
    "rs_coarsening",
    "pmis_coarsening",
    "hmis_coarsening",
    "validate_cf_splitting",
]

CPOINT: int = 1
FPOINT: int = -1
UNDECIDED: int = 0
#: Marks points outside the scope of an RS first pass in its state list.
_OUT: int = 2


def _csr_rows(M: sp.csr_matrix, i: int) -> np.ndarray:
    return M.indices[M.indptr[i] : M.indptr[i + 1]]


def rs_first_pass(
    S: sp.csr_matrix,
    allowed: np.ndarray | None = None,
    splitting: np.ndarray | None = None,
) -> np.ndarray:
    """Classical Ruge-Stueben first pass.

    Greedily picks the undecided point with the largest measure
    (number of undecided/F points it strongly influences) as a C-point,
    turns its undecided strong dependents into F-points, and increments
    the measures of points those new F-points depend on.  Ties go to
    the smallest index.

    Parameters
    ----------
    S:
        Strength matrix.
    allowed:
        Optional boolean mask restricting which points this pass may
        decide (used by HMIS to coarsen one block at a time).  Strong
        connections to points outside the mask are ignored.
    splitting:
        Optional pre-existing splitting to continue from (modified in
        place and returned).

    Returns
    -------
    int8 splitting; points not in ``allowed`` (or unreachable isolated
    points) may remain :data:`UNDECIDED`.
    """
    S = as_csr(S)
    n = S.shape[0]
    if splitting is None:
        splitting = np.full(n, UNDECIDED, dtype=np.int8)
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    else:
        allowed = np.asarray(allowed, dtype=bool)
    _rs_first_pass(S, as_csr(S.T), allowed, splitting)
    return splitting


def _rs_first_pass(
    S: sp.csr_matrix, ST: sp.csr_matrix, allowed: np.ndarray, splitting: np.ndarray
) -> None:
    """:func:`rs_first_pass` on ``S`` and its transpose ``ST``, in place.

    The initial measures, isolated points and heap are array operations.
    The greedy selection is sequential by definition and runs on plain
    Python values: ``state`` holds the splitting of the points in scope
    and :data:`_OUT` for the rest, so one test ``state[k] == UNDECIDED``
    checks both "in scope" and "undecided"; each visited row of ``S`` or
    ``ST`` is converted to a list when it is visited.

    A pop selects the undecided point with the largest measure, smallest
    index first: stale heap entries are skipped and every undecided
    point has an entry with its current measure.  So the selections
    depend only on the measures, and a point whose measure changed is
    pushed once per new C-point, with its value after that C-point's
    updates.
    """
    n = S.shape[0]
    scope = allowed & (splitting == UNDECIDED)
    # Isolated in-scope points (no influences at all) become F directly:
    # nothing interpolates from them and nothing needs them.
    isolated = scope & (np.diff(S.indptr) == 0) & (np.diff(ST.indptr) == 0)
    splitting[isolated] = FPOINT
    scope &= ~isolated
    # Measure: how many in-scope points depend on each point.
    depends = S.indices[np.repeat(allowed, np.diff(S.indptr))]
    measure_arr = np.bincount(depends, minlength=n)
    cand = np.flatnonzero(scope)
    heap = list(zip((-measure_arr[cand]).tolist(), cand.tolist()))
    heapq.heapify(heap)
    measure = measure_arr.tolist()
    state = np.where(scope, UNDECIDED, _OUT).tolist()
    Sp, Si, Tp, Ti = S.indptr, S.indices, ST.indptr, ST.indices
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap:
        neg_m, i = heappop(heap)
        if neg_m >= 0:
            # Every measure left is <= 0: no undecided in-scope point
            # depends on any point left, so none is useful as a C-point.
            # In block (HMIS) mode they stay for the PMIS cleanup (their
            # strong connections may cross the block boundary); in
            # full-domain mode they become F.
            break
        if state[i] != UNDECIDED or -neg_m != measure[i]:
            continue  # stale heap entry
        state[i] = CPOINT
        changed = set()
        # Strong dependents of the new C-point become F.
        for j in Ti[Tp[i] : Tp[i + 1]].tolist():
            if state[j] == UNDECIDED:
                state[j] = FPOINT
                # Each point the new F-point depends on becomes more
                # attractive as a C-point.
                for k in Si[Sp[j] : Sp[j + 1]].tolist():
                    if state[k] == UNDECIDED:
                        measure[k] += 1
                        changed.add(k)
        # The points i depends on lose one potential dependent.
        for k in Si[Sp[i] : Sp[i + 1]].tolist():
            if state[k] == UNDECIDED:
                measure[k] -= 1
                changed.add(k)
        for k in changed:
            if state[k] == UNDECIDED:
                heappush(heap, (-measure[k], k))
    splitting[scope] = np.array(state, dtype=np.int8)[scope]


def _second_pass(S: sp.csr_matrix, splitting: np.ndarray) -> np.ndarray:
    """RS second pass: every strong F-F pair must share a C-point.

    Scans F-points; when a strong F-F connection has no common strong
    C-neighbour, the tentative fix of promoting the *neighbour* to C is
    applied (the textbook heuristic, which slightly over-coarsens
    compared to Ruge & Stueben's full tentative logic but preserves the
    interpolation invariant).
    """
    S = as_csr(S)
    n = S.shape[0]
    for i in range(n):
        if splitting[i] != FPOINT:
            continue
        row_i = _csr_rows(S, i)
        if row_i.size == 0:
            continue
        ci = set(int(c) for c in row_i[splitting[row_i] == CPOINT])
        for j in row_i[splitting[row_i] == FPOINT]:
            row_j = _csr_rows(S, int(j))
            cj = row_j[splitting[row_j] == CPOINT]
            if not ci.intersection(int(c) for c in cj):
                splitting[j] = CPOINT
                ci.add(int(j))
    return splitting


def rs_coarsening(S: sp.csr_matrix) -> np.ndarray:
    """Full classical Ruge-Stueben coarsening (first + second pass)."""
    splitting = rs_first_pass(S)
    splitting[splitting == UNDECIDED] = FPOINT
    return _second_pass(S, splitting)


def pmis_coarsening(
    S: sp.csr_matrix,
    seed: int = 0,
    splitting: np.ndarray | None = None,
) -> np.ndarray:
    """PMIS coarsening, vectorized by independent-set rounds.

    ``w(i) = lambda(i) + sigma(i)`` with ``sigma`` uniform in (0, 1);
    each round the undecided points that dominate their whole strong
    neighbourhood become C, then undecided points strongly depending on
    a new C become F.

    A pre-seeded ``splitting`` (from HMIS's RS block pass) is honoured:
    existing C-points immediately F-ify their undecided dependents.
    """
    S = as_csr(S)
    n = S.shape[0]
    ST = as_csr(S.T)
    rng = np.random.default_rng(seed)
    lam = strength_transpose_counts(S).astype(np.float64)
    w = lam + rng.uniform(0.0, 1.0, size=n)

    if splitting is None:
        splitting = np.full(n, UNDECIDED, dtype=np.int8)
    else:
        splitting = np.asarray(splitting, dtype=np.int8).copy()

    sym = as_csr(((S + ST) > 0).astype(np.float64))  # undirected strong graph

    # Points that influence nothing and depend on nothing: F.
    isolated = (np.diff(S.indptr) == 0) & (np.diff(ST.indptr) == 0)
    splitting[(splitting == UNDECIDED) & isolated] = FPOINT
    # Points with zero influence measure cannot be selected as C by the
    # w-domination rule unless nothing around them can either; PMIS
    # makes lambda == 0 points F up front.
    zero_lam = lam == 0
    splitting[(splitting == UNDECIDED) & zero_lam & ~isolated] = FPOINT

    # Seeded C-points F-ify their undecided strong dependents.
    cpts = np.flatnonzero(splitting == CPOINT)
    if cpts.size:
        dep = np.unique(ST[cpts].indices)
        mask = splitting[dep] == UNDECIDED
        splitting[dep[mask]] = FPOINT

    max_rounds = n + 1
    for _ in range(max_rounds):
        und = splitting == UNDECIDED
        if not und.any():
            break
        # Max of w over strong neighbours (undirected), undecided only.
        w_eff = np.where(und, w, -np.inf)
        neigh_max = np.full(n, -np.inf)
        rows = np.repeat(np.arange(n), np.diff(sym.indptr))
        np.maximum.at(neigh_max, rows, w_eff[sym.indices])
        new_c = und & (w > neigh_max)
        if not new_c.any():
            # Only possible if two undecided points tie exactly —
            # probability zero with random sigma, but guard anyway.
            i = int(np.flatnonzero(und)[0])
            new_c = np.zeros(n, dtype=bool)
            new_c[i] = True
        splitting[new_c] = CPOINT
        # Undecided strong dependents of new C-points become F.
        influenced = ST[np.flatnonzero(new_c)].indices
        if influenced.size:
            inf_idx = np.unique(influenced)
            mask = splitting[inf_idx] == UNDECIDED
            splitting[inf_idx[mask]] = FPOINT
    return splitting


def hmis_coarsening(
    S: sp.csr_matrix, nparts: int = 8, seed: int = 0
) -> np.ndarray:
    """HMIS coarsening: blockwise one-pass RS + global PMIS resolution.

    The row set is split into ``nparts`` contiguous blocks ("processor
    domains").  RS first pass runs independently inside each block with
    cross-block strong connections masked out; the resulting C-points
    seed a global PMIS pass that decides everything still undecided
    (in particular points whose neighbourhood straddles blocks).
    """
    S = as_csr(S)
    ST = as_csr(S.T)
    n = S.shape[0]
    # Keep blocks large enough that the interior RS pass is meaningful;
    # tiny blocks would push everything to the PMIS stage anyway.
    nparts = max(1, min(nparts, n // 128 if n >= 256 else 1))
    splitting = np.full(n, UNDECIDED, dtype=np.int8)
    bounds = np.linspace(0, n, nparts + 1).astype(np.int64)
    for p in range(nparts):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        if hi <= lo:
            continue
        allowed = np.zeros(n, dtype=bool)
        allowed[lo:hi] = True
        _rs_first_pass(S, ST, allowed, splitting)
    del ST  # PMIS transposes S itself; do not hold two copies
    # Interior F decisions from the block pass stand; PMIS resolves the
    # rest.  F-points adjacent to nothing strong stay F.
    return pmis_coarsening(S, seed=seed, splitting=splitting)


def validate_cf_splitting(
    S: sp.csr_matrix, splitting: np.ndarray, require_common_c: bool = False
) -> None:
    """Sanity checks for a C/F splitting; raises ``ValueError`` on failure.

    Checks: every point decided; every F-point with strong connections
    has at least one strong C-neighbour (unless it has no strong
    connections at all); optionally the RS second-pass invariant that
    strong F-F pairs share a common C-point.
    """
    S = as_csr(S)
    n = S.shape[0]
    splitting = np.asarray(splitting)
    if splitting.shape != (n,):
        raise ValueError("splitting has wrong length")
    if np.any(splitting == UNDECIDED):
        raise ValueError("undecided points remain")
    if not np.all(np.isin(splitting, (CPOINT, FPOINT))):
        raise ValueError("splitting contains values other than C/F")
    for i in range(n):
        if splitting[i] != FPOINT:
            continue
        row = _csr_rows(S, i)
        if row.size == 0:
            continue
        crow = row[splitting[row] == CPOINT]
        if crow.size == 0:
            raise ValueError(f"F-point {i} has strong connections but no C-neighbour")
        if require_common_c:
            ci = set(int(c) for c in crow)
            for j in row[splitting[row] == FPOINT]:
                rj = _csr_rows(S, int(j))
                cj = rj[splitting[rj] == CPOINT]
                if not ci.intersection(int(c) for c in cj):
                    raise ValueError(
                        f"strong F-F pair ({i}, {int(j)}) shares no C-point"
                    )
