"""Dominant generalized eigenvector estimation and per-edge spectral scoring.

The dominant eigenvalue mu_max of the pencil (L_Gu, L_Su) measures how far
the subgraph's symmetrized Laplacian is from the original's.  A few steps of
generalized power iteration (multiply by L_Gu, solve with L_Su) give a vector
h_t rich in the top eigenvector directions (L_Gu and L_Su may be operators
that are never formed: the loop applies both as two products with a directed
Laplacian, and solves with L_Su through a ``GroundedSolver`` of L_S);
``power_iterate`` runs r starts as one n x r block, so a step is one product
and one block solve, and returns the r estimates with that block.
``score_edges`` then scores all off-subgraph edges at once from the block by
first-order perturbation of the pencil, with an r-dimensional embedding of
the same quadratic forms that lets the selection step skip edges that
perturb the same spectral directions.

``filter_similar_edges`` makes that selection greedily over the ranked
candidates.  It compares a candidate only with kept edges whose embedding
norm lies in its window [f ||e||, ||e|| / f], f just below epsilon: by the
triangle inequality no edge outside it can be similar enough to matter.  The
kept norms stay sorted, so each block of candidates finds its windows by
binary search and computes the similarities of those pairs at once; the
block's survivors are then resolved against each other in order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "power_iterate",
    "score_edges",
    "filter_similar_edges",
]

# Each work buffer of the similarity filter holds at most this many float64
# values (512 KiB): the pairs of a block of candidates and the kept rows in
# their norm windows run in pieces of this size, and a block's survivors (at
# most isqrt(FILTER_BUFFER / r) of them) are compared with each other at once.
FILTER_BUFFER = 1 << 16

# Margin on epsilon for the norm window of ``_norm_windows``.
WINDOW_SLACK = 1e-9

# Largest relative residual of an iterative solve that the power iteration
# and ``apps.directed_solve`` accept.
RESIDUAL_CAP = 1e-3


def _coldot(U, V):
    """Dot products of the matching columns of two n x k blocks."""
    return np.einsum("ij,ij->j", U, V)


def _colnorm(U):
    return np.sqrt(_coldot(U, U))


def power_iterate(L_Gu, L_Su, h0, t=3, *, solver):
    """t alternations of (multiply by L_Gu, solve with L_Su) from the rows of h0.

    h0 is an r x n array with one start per row.  Returns (mu, H): the r
    estimates of mu_max as an array, and the final iterates as the columns
    of the n x r block H, which owns its data (the last block solve's).
    The r starts run as one block, so each step makes one product with L_Gu
    and one block solve with ``solver``, such as a ``GroundedSolver`` of
    L_S, whose ``solve`` returns (x, SolveStats).  L_Gu and L_Su may be any
    operands of ``@``.  The starts are deflated to zero mean up front; the
    solver returns iterates orthogonal to null(L_Su), which holds the
    all-ones vector, so they stay deflated.  Each iterate is
    renormalized every step (the Rayleigh quotient is scale-invariant); a
    column whose norm reaches 0 stays 0.
    mu[j] is (h^T L_Gu h) / (h^T L_Su h) at column h = H[:, j], which is at
    least 1 - eps whenever S is a subgraph of G with matching null space.

    A solver that reports an unconverged solve is accepted up to a residual
    of ``RESIDUAL_CAP``, since only an approximate eigenvector is needed;
    anything worse raises RuntimeError.  ``GroundedSolver`` is direct and
    reports itself converged.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.ndim != 2:
        raise ValueError(f"starts must be an r x n array, got shape {h0.shape}")
    H = h0.T.copy()
    H -= H.mean(axis=0)
    for _ in range(t):
        # Rebinding H frees each block as soon as the next one exists.
        H = L_Gu @ H
        H, stats = solver.solve(H)
        if not stats.converged and stats.residual > RESIDUAL_CAP:
            raise RuntimeError(
                f"subgraph solve stalled at residual {stats.residual:.3e}"
            )
        norms = _colnorm(H)
        np.divide(H, norms, out=H, where=norms > 0)
    num = _coldot(H, L_Gu @ H)
    den = _coldot(H, L_Su @ H)
    mu = np.divide(num, den, out=np.full_like(num, np.inf), where=den > 0)
    return mu, H


def score_edges(H, L_S, tails, heads, weights):
    """(sensitivities, embeddings) of the off-subgraph edges (tails, heads).

    Adding edge (p, q) perturbs L_S by dL_S = w (e_p - e_q) e_p^T, and
    h^T (dL_S L_S^T + L_S dL_S^T) h collapses to 2 w (h_p - h_q) (L_S^T h)_p.
    Embedding component k is that form without w at column h = H[:, k] of
    the n x r block H (zero when p has no out-edge in S); the sensitivity is
    w times their mean.
    """
    Y = L_S.T @ H
    embeddings = H[tails]
    embeddings -= H[heads]
    embeddings *= 2.0
    embeddings *= Y[tails]
    return weights * embeddings.mean(axis=1), embeddings


def filter_similar_edges(embeddings, tails, epsilon, d_out, out_degrees):
    """Greedy similarity pruning of sensitivity-ranked candidate rows.

    ``embeddings`` holds one row per candidate, best first, and ``tails`` the
    candidates' tail nodes.  Candidates whose tail already has out-degree
    >= d_out in the subgraph (``out_degrees``, indexed by node) are excluded
    up front.  The first survivor is always kept; each further one is kept
    only if its spectral similarity 1 - ||a - b|| / max(||a||, ||b||) to
    every kept row stays below epsilon; two zero rows count as fully
    similar.  Returns the kept row indices, ascending.

    The decisions are those of the one-candidate-at-a-time loop, computed
    with the same operations (norms as ``np.linalg.norm`` of a row, distances
    as ``d * d`` summed along the row), so a tie at epsilon is decided as
    that loop decides it.  Candidates run in blocks: a block is compared with
    the rows kept before it whose norm lies in its window (see
    ``_norm_windows``), and the block's survivors with each other.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if d_out < 1:
        raise ValueError("d_out must be >= 1")
    tails = np.asarray(tails, dtype=np.int64)
    rows = np.flatnonzero(np.asarray(out_degrees)[tails] < d_out)
    if rows.size == 0:
        return rows
    P = np.ascontiguousarray(np.asarray(embeddings, dtype=np.float64)[rows])
    r = max(1, P.shape[1])
    block = max(1, math.isqrt(FILTER_BUFFER // r))
    pair_budget = max(1, FILTER_BUFFER // r)
    kept = []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # The square root of a BLAS dot per row, as np.linalg.norm of the
        # row; np.linalg.norm(P, axis=1) sums in another order.
        norms = np.sqrt(np.matmul(P[:, None, :], P[:, :, None]).ravel())
        windows = _norm_windows(norms, epsilon, r) if rows.size > block else None
        b0 = 0
        while b0 < rows.size:
            b1 = min(b0 + block, rows.size)
            survivors = np.arange(b0, b1)
            if kept:
                kept_sorted = np.asarray(kept)[np.argsort(norms[kept])]
                if windows is None:
                    starts = np.zeros(b1 - b0, dtype=np.int64)
                    counts = np.full(b1 - b0, len(kept))
                else:
                    kept_norms = norms[kept_sorted]
                    starts = np.searchsorted(kept_norms, windows[0][b0:b1], "left")
                    counts = np.searchsorted(kept_norms, windows[1][b0:b1], "right") - starts
                # End the block where its pairs would outgrow the budget (a
                # single candidate may exceed it; its pairs run in pieces).
                take = max(1, int(np.searchsorted(np.cumsum(counts), pair_budget, "right")))
                b1 = b0 + take
                blocked = _blocked_by_kept(
                    P, norms, epsilon, b0, starts[:take], counts[:take], kept_sorted, pair_budget
                )
                survivors = b0 + np.flatnonzero(~blocked)
            kept.extend(_resolve_in_order(P, norms, epsilon, survivors))
            b0 = b1
    return rows[kept]


def _norm_windows(norms, epsilon, r):
    """Per row, the norms a row may have to be similar to it: (lo, hi).

    By the triangle inequality ||a - b|| >= | ||a|| - ||b|| |, so a pair can
    only reach similarity >= epsilon when the smaller norm is at least
    epsilon times the larger.  The window [lo, hi] = [f ||e||, ||e|| / f],
    with f = epsilon - ``WINDOW_SLACK``, also holds every pair whose
    similarity computed in floating point reaches epsilon: rounding moves a
    computed similarity by at most about 8 (r + 3) units of 2^-53, far below
    the slack for r <= 10^5, as long as the squares that decide a pair stay
    clear of underflow and overflow.  Returns None, meaning no window, when
    that cannot be vouched for: f <= 0, r > 10^5, or a nonzero norm outside
    [1e-100, 1e100] (also nan or inf).
    """
    f = epsilon - WINDOW_SLACK
    nonzero = norms[norms != 0]
    if f <= 0 or r > 10**5 or (
        nonzero.size and not (nonzero.min() >= 1e-100 and nonzero.max() <= 1e100)
    ):
        return None
    return f * norms, norms / f


def _similar_pairs_ok(P, norms, epsilon, kept_rows, cand_rows):
    """Per pair (kept_rows[i], cand_rows[i]): is the similarity below epsilon?"""
    d = P[kept_rows]
    d -= P[cand_rows]
    d *= d
    dist = np.sqrt(d.sum(axis=1))
    # Two zero embeddings give 0 / 0 = nan, which is not below epsilon, as
    # a similarity of 1 would not be.
    return 1.0 - dist / np.maximum(norms[kept_rows], norms[cand_rows]) < epsilon


def _blocked_by_kept(P, norms, epsilon, b0, starts, counts, kept_sorted, pair_budget):
    """Which candidates b0, b0 + 1, ... are similar to a kept row in their
    window; candidate i's window is kept_sorted[starts[i]:starts[i] + counts[i]]."""
    blocked = np.zeros(counts.size, dtype=bool)
    total = int(counts.sum())
    if total == 0:
        return blocked
    cand = np.repeat(np.arange(counts.size), counts)
    # Position of each pair in kept_sorted: its window start plus its rank
    # inside the window.
    pos = np.arange(total) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    for p0 in range(0, total, pair_budget):
        c = cand[p0 : p0 + pair_budget]
        ok = _similar_pairs_ok(P, norms, epsilon, kept_sorted[pos[p0 : p0 + pair_budget]], b0 + c)
        blocked[c[~ok]] = True
    return blocked


def _resolve_in_order(P, norms, epsilon, survivors):
    """The survivors kept, in order, when each must be dissimilar to the
    survivors kept before it."""
    s = survivors.size
    if s == 0:
        return []
    pairs = np.repeat(survivors, s), np.tile(survivors, s)
    ok = _similar_pairs_ok(P, norms, epsilon, *pairs).reshape(s, s)
    # ok[k, k] is False (a similarity of 1 or nan), so keeping k also
    # retires it.
    alive = np.ones(s, dtype=bool)
    kept = []
    while True:
        k = int(alive.argmax())
        if not alive[k]:
            return kept
        kept.append(int(survivors[k]))
        alive &= ok[k]
