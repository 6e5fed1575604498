"""Dominant generalized eigenvector estimation and per-edge spectral scoring.

The dominant eigenvalue mu_max of the pencil (L_Gu, L_Su) measures how far
the subgraph's symmetrized Laplacian is from the original's.  A few steps of
generalized power iteration (multiply by L_Gu, solve with L_Su) give a vector
h_t rich in the top eigenvector directions (L_Gu may be an operator that is
never formed); ``power_iterate`` runs r starts as one n x r block, so a step
is one product and one block solve.  ``score_edges`` then scores all
off-subgraph edges at once by first-order perturbation of the pencil, with
an r-dimensional embedding of the same quadratic forms that lets the
selection step skip edges that perturb the same spectral directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import SpsSolver, _coldot, _colnorm

__all__ = [
    "EigPair",
    "EdgeScore",
    "power_iterate",
    "score_edges",
    "spectral_similarity",
    "filter_similar_edges",
]


@dataclass
class EigPair:
    """Rayleigh-quotient estimate of mu_max with the vector that produced it."""

    mu: float
    h: np.ndarray
    t: int


@dataclass
class EdgeScore:
    edge_id: int
    tail: int
    head: int
    weight: float
    sensitivity: float
    embedding: np.ndarray


def power_iterate(
    L_Gu, L_Su, h0, t=3, solver: SpsSolver | None = None, residual_cap=1e-3
) -> list[EigPair]:
    """t alternations of (multiply by L_Gu, solve with L_Su) from the rows of h0.

    h0 is an r x n array with one start per row; the result is a list of r
    ``EigPair``.  The r starts run as one n x r block, so each step makes one
    product with L_Gu and one block solve.  L_Gu and L_Su may be any operands
    of ``@``.  The starts are deflated to zero mean up front and each iterate
    renormalized every step (the Rayleigh quotient is scale-invariant); a
    column whose norm reaches 0 stays 0.  mu is estimated as
    (h^T L_Gu h) / (h^T L_Su h), which is at least 1 - eps whenever S is a
    subgraph of G with matching null space.

    Badly conditioned subgraph systems can bottom out above the solver's
    tolerance in double precision; since only an approximate eigenvector is
    needed, solves are accepted up to ``residual_cap`` and anything worse
    propagates as an error.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if solver is None:
        solver = SpsSolver(L_Su)
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.ndim != 2:
        raise ValueError(f"starts must be an r x n array, got shape {h0.shape}")
    H = h0.T.copy()
    H -= H.mean(axis=0)
    for _ in range(t):
        # Rebinding H frees each block as soon as the next one exists.
        H = L_Gu @ H
        H, stats = solver.solve(H)
        if not stats.converged and stats.residual > residual_cap:
            raise RuntimeError(
                f"subgraph solve stalled at residual {stats.residual:.3e}"
            )
        H -= H.mean(axis=0)
        norms = _colnorm(H)
        np.divide(H, norms, out=H, where=norms > 0)
    num = _coldot(H, L_Gu @ H)
    den = _coldot(H, L_Su @ H)
    mu = np.divide(num, den, out=np.full_like(num, np.inf), where=den > 0)
    # Copies, so that the block is freed here: the loop keeps the accepted
    # vectors, and a block kept alive by views of it raised the peak RSS of
    # later runs in the same process by fragmenting the heap.
    return [EigPair(mu=float(mu[j]), h=H[:, j].copy(), t=t) for j in range(H.shape[1])]


def score_edges(h_list, L_S, tails, heads, weights):
    """(sensitivities, embeddings) of the off-subgraph edges (tails, heads).

    Adding edge (p, q) perturbs L_S by dL_S = w (e_p - e_q) e_p^T, and
    h^T (dL_S L_S^T + L_S dL_S^T) h collapses to 2 w (h_p - h_q) (L_S^T h)_p.
    Embedding component k is that form without w at h = h_list[k] (zero when
    p has no out-edge in S); the sensitivity is w times their mean.
    """
    H = np.column_stack(h_list)
    Y = L_S.T @ H
    embeddings = H[tails]
    embeddings -= H[heads]
    embeddings *= 2.0
    embeddings *= Y[tails]
    return weights * embeddings.mean(axis=1), embeddings


def spectral_similarity(s1, s2) -> float:
    """1 - ||s1 - s2|| / max(||s1||, ||s2||); two zero embeddings count as
    fully redundant (similarity 1)."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape != s2.shape:
        raise ValueError(f"embedding lengths differ: {s1.shape} vs {s2.shape}")
    denom = max(np.linalg.norm(s1), np.linalg.norm(s2))
    if denom == 0:
        return 1.0
    return float(1.0 - np.linalg.norm(s1 - s2) / denom)


def filter_similar_edges(candidates, epsilon, d_out, out_degrees=None):
    """Greedy similarity pruning of a sensitivity-ranked candidate list.

    Candidates whose tail already has out-degree >= d_out in the subgraph are
    excluded up front (skipped entirely when ``out_degrees`` is None).  The
    first survivor is always kept; each further edge is kept only if its
    spectral similarity to every kept edge stays below epsilon.  Output is a
    subset of the input in input order.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if d_out < 1:
        raise ValueError("d_out must be >= 1")
    pool = [
        c
        for c in candidates
        if out_degrees is None or out_degrees[c.tail] < d_out
    ]
    if not pool:
        return []
    # Kept embeddings and norms fill the first rows of arrays of pool size;
    # ``diff`` is a work buffer for the distances.  Norms and distances are
    # computed with the operations of ``np.linalg.norm``, so they are equal
    # to its results, and a tie at epsilon is decided as it decides it.
    kept = []
    kept_mat = np.empty((len(pool), pool[0].embedding.size))
    kept_norms = np.empty(len(pool))
    diff = np.empty_like(kept_mat)
    with np.errstate(invalid="ignore", divide="ignore"):
        for cand in pool:
            e = cand.embedding
            en = np.sqrt(e.dot(e))
            n_kept = len(kept)
            d = np.subtract(kept_mat[:n_kept], e, out=diff[:n_kept])
            d *= d
            dist = np.sqrt(d.sum(axis=1))
            # Two zero embeddings give 0 / 0 = nan, which is not below
            # epsilon, as a similarity of 1 would not be.
            if (1.0 - dist / np.maximum(kept_norms[:n_kept], en) < epsilon).all():
                kept_mat[n_kept] = e
                kept_norms[n_kept] = en
                kept.append(cand)
    return kept
