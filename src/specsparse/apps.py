"""Downstream uses of the sparsifiers: PageRank, directed solves, partitioning.

PageRank runs the damped fixed-point iteration on the out-degree transition
operator; dangling nodes get a tiny self-loop so the degree inverse exists.
The directed Laplacian solve goes through the symmetrized system (solve
L_Su y = b, smooth on L_Gu, map back with x = L_G^T y).  Partitioning embeds
nodes with the low eigenvectors of the symmetrized Laplacian, collapsing
repeated eigenvalues into distinct groups, and clusters them with k-means.

The partition's eigensolve takes one of three routes: a dense ``eigh`` up to
``dense_cutoff`` nodes; above it, shift-invert Lanczos on one sparse factor
of L_u when L_u has at most ``SHIFT_INVERT_NNZ_PER_ROW`` nonzeros per row
(sparsifiers), else plain Lanczos on the operator v -> L (L^T v) (dense
inputs, whose factor would fill).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import DirectedGraph, adjacency, laplacian, symmetrize, symmetrized_operator
from .solver import SolverParams, SpsSolver, _GaussSeidel, _shifted_factor
from .sparsify import Sparsifier

__all__ = [
    "PageRankResult",
    "Partitioning",
    "pagerank",
    "pagerank_correlation",
    "directed_solve",
    "spectral_partition",
    "kmeans",
    "adjusted_rand_index",
]

# Dangling nodes get a self-loop this many times the largest edge weight.
DANGLING_LOOP_SCALE = 1e-6

# Eigenvalues closer than this (relative to the spectral radius) collapse
# into one distinct value.
EIGENVALUE_GROUP_TOL = 1e-8

# spectral_partition factors L_u for shift-invert when it has at most this
# many nonzeros per row.  Sparsifiers from `sparsify` measure 5.7-6.7 per row
# and factor cheaply (0.5 M nonzeros on a 4000-node one); the graphs they
# sparsify measure 37-40, where the factor fills to 8 M nonzeros at 4000
# nodes and 42 M (about 1 GB) at 12000, so those stay on plain Lanczos.
SHIFT_INVERT_NNZ_PER_ROW = 16


@dataclass
class PageRankResult:
    p: np.ndarray
    alpha: float
    iterations: int
    residual: float
    converged: bool


@dataclass
class Partitioning:
    assignment: np.ndarray
    k: int
    eigvec_indices: list[int]
    eigenvalues: np.ndarray


def _with_dangling_loops(g: DirectedGraph) -> DirectedGraph:
    has_out = np.zeros(g.n, dtype=bool)
    has_out[g.tails] = True
    if has_out.all():
        return g
    w = DANGLING_LOOP_SCALE * (g.weights.max() if g.num_edges else 1.0)
    extra = [(i, i, w) for i in np.nonzero(~has_out)[0]]
    return DirectedGraph(g.n, g.edges + extra, allow_self_loops=True)


def _transition(g: DirectedGraph):
    """Column-stochastic operator A^T D^-1 after the dangling fix."""
    g = _with_dangling_loops(g)
    A = adjacency(g)
    d = np.asarray(A.sum(axis=1)).ravel()
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    return (A.T @ sp.dia_array((inv[np.newaxis, :], [0]), shape=(g.n, g.n))).tocsr()


def pagerank(g: DirectedGraph, alpha=0.15, personalization=None, tol=1e-10, max_iters=1000) -> PageRankResult:
    """Fixed-point iteration of p = (1 - alpha) A^T D^-1 p + alpha * pr.

    ``personalization`` must be a nonnegative distribution summing to 1;
    omitted, the uniform vector is used.  The result is a probability
    distribution; non-convergence is flagged rather than raised.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    n = g.n
    if personalization is None:
        pr = np.full(n, 1.0 / n)
    else:
        pr = np.asarray(personalization, dtype=np.float64)
        if pr.shape != (n,) or pr.min() < 0 or abs(pr.sum() - 1.0) > 1e-8:
            raise ValueError("personalization must be a nonnegative distribution over the nodes")
    M = _transition(g)
    p = pr.copy()
    residual = np.inf
    for it in range(1, max_iters + 1):
        p_new = (1.0 - alpha) * (M @ p) + alpha * pr
        p_new /= p_new.sum()
        residual = float(np.abs(p_new - p).sum())
        p = p_new
        if residual <= tol:
            return PageRankResult(p, alpha, it, residual, True)
    return PageRankResult(p, alpha, max_iters, residual, False)


def _pagerank_smoothed(g: DirectedGraph, p0, alpha, pr, sweeps):
    """Improve a PageRank estimate with Gauss-Seidel sweeps on the original
    graph's fixed-point system (I - (1-alpha) A^T D^-1) p = alpha * pr."""
    n = g.n
    M = sp.eye_array(n, format="csr") - (1.0 - alpha) * _transition(g)
    p = _GaussSeidel(M.tocsr()).forward(p0.copy(), alpha * pr, sweeps)
    s = p.sum()
    return p / s if s != 0 else p


def _pearson(a, b):
    # Pearson of a vector with itself is exactly 1; corrcoef's normalization
    # loses the last ulp even for bit-identical inputs.
    if np.array_equal(a, b):
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


def pagerank_correlation(g: DirectedGraph, s, alpha=0.15, personalization=None, gs_sweeps=3, tol=1e-10, max_iters=1000):
    """Pearson correlation of PageRank on g vs on its sparsifier.

    Returns (raw, smoothed): the raw correlation of the two vectors, and the
    correlation after a few Gauss-Seidel sweeps of the original-graph system
    applied to the sparsifier's vector.
    """
    sg = s.graph if isinstance(s, Sparsifier) else s
    n = g.n
    pr = np.full(n, 1.0 / n) if personalization is None else np.asarray(personalization, dtype=np.float64)
    full = pagerank(g, alpha, personalization, tol, max_iters)
    sparse_ = pagerank(sg, alpha, personalization, tol, max_iters)
    raw = _pearson(full.p, sparse_.p)
    smoothed_p = _pagerank_smoothed(g, sparse_.p, alpha, pr, gs_sweeps)
    smoothed = _pearson(full.p, smoothed_p)
    return raw, smoothed


def _gs_on_symmetrized(L_G, y, b, sweeps):
    """Gauss-Seidel sweeps on L_Gu y = b with L_Gu = L_G L_G^T never formed.

    Maintains z = L_G^T y; row i of L_Gu applied to y is row_i(L_G) . z and
    its diagonal is ||row_i(L_G)||^2, so each node update costs O(row nnz).
    """
    L = sp.csr_array(L_G)
    indptr, indices, data = L.indptr, L.indices, L.data
    z = L.T @ y
    y = y.copy()
    row_sq = np.asarray(L.multiply(L).sum(axis=1)).ravel()
    for _ in range(sweeps):
        for i in range(L.shape[0]):
            d = row_sq[i]
            if d <= 0:
                continue
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            r = b[i] - vals @ z[cols]
            delta = r / d
            y[i] += delta
            z[cols] += delta * vals
    return y


def directed_solve(g: DirectedGraph, s, b, gs_sweeps=5, x_true=None, solver_params=None):
    """Solve L_G x = b through the sparsifier's symmetrized system.

    Steps: solve L_Su y = b, remove high-frequency error with ``gs_sweeps``
    Gauss-Seidel sweeps on L_Gu y = b (rows formed on the fly), then map back
    with x = L_G^T y.  b must lie in the range of L_Gu for the smoothed
    system to be consistent.  Returns (x, rel_error) where rel_error compares
    against the min-norm solution derived from ``x_true`` when given, else None.
    """
    sg = s.graph if isinstance(s, Sparsifier) else s
    L_G = laplacian(g)
    L_S = laplacian(sg)
    L_Su = symmetrize(L_S)
    solver = SpsSolver(L_Su, params=solver_params or SolverParams())
    b = np.asarray(b, dtype=np.float64)
    y, stats = solver.solve(b)
    if not stats.converged and stats.residual > 1e-3:
        raise RuntimeError(f"sparsifier solve stalled at residual {stats.residual:.3e}")
    if gs_sweeps > 0:
        y = _gs_on_symmetrized(L_G, y, b, gs_sweeps)
    x = L_G.T @ y

    rel_error = None
    if x_true is not None:
        # Compare against the projection of x_true on the row space of L_G,
        # which is what any solution of the singular system can recover.
        dense = L_G.toarray()
        x_ref = np.linalg.pinv(dense) @ (dense @ np.asarray(x_true, dtype=np.float64))
        denom = np.linalg.norm(x_ref)
        rel_error = float(np.linalg.norm(x - x_ref) / denom) if denom > 0 else float(np.linalg.norm(x))
    return x, rel_error


def _distinct_groups(eigenvalues):
    """Group ascending eigenvalues whose gap is below the relative tolerance."""
    scale = max(abs(eigenvalues[0]), abs(eigenvalues[-1]), 1e-300)
    groups = [[0]]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[groups[-1][0]] <= EIGENVALUE_GROUP_TOL * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _low_eigenpairs(L, Lu, want, v0):
    """The ``want`` smallest eigenpairs of L_u = L L^T, in ascending order.

    Sparse L_u: shift-invert Lanczos with one SuperLU factor of
    L_u - sigma I, made by the solver's ``_shifted_factor``.  The factor is
    freed on return.
    Dense L_u: Lanczos for the smallest eigenvalues on v -> L (L^T v).
    """
    n = Lu.shape[0]
    if Lu.nnz <= SHIFT_INVERT_NNZ_PER_ROW * n:
        # Just below the spectrum of the PSD L_u: L_u - sigma I is SPD
        # although L_u is singular.
        sigma = -1e-8 * spla.norm(Lu, 1)
        lu = _shifted_factor(Lu, -sigma)
        OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        vals, vecs = spla.eigsh(Lu, k=want, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)
    else:
        vals, vecs = spla.eigsh(symmetrized_operator(L), k=want, which="SA", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def spectral_partition(g: DirectedGraph, k, seed=0, dense_cutoff=2000) -> Partitioning:
    """Cluster nodes with eigenvectors of the first k distinct eigenvalues.

    Eigenvalues of the symmetrized Laplacian come with multiplicities; values
    within a relative 1e-8 band collapse into one distinct group.  Embedding
    columns are taken group by group in ascending order (truncating inside
    the final group) so that exactly k coordinates are used, then clustered
    by seeded k-means with 10 restarts.

    The eigensolve is dense (``eigh``) for n <= ``dense_cutoff``.  Above it,
    ARPACK finds max(4k, 2k + 10) eigenpairs: by shift-invert on a sparse
    factor when L_u has at most ``SHIFT_INVERT_NNZ_PER_ROW`` nonzeros per
    row, else by Lanczos for the smallest eigenvalues on v -> L (L^T v).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    L = laplacian(g)
    Lu = symmetrize(L)
    n = g.n
    if n <= dense_cutoff:
        vals, vecs = np.linalg.eigh(Lu.toarray())
    else:
        want = min(n - 1, max(4 * k, 2 * k + 10))
        v0 = np.random.default_rng(seed).standard_normal(n)
        vals, vecs = _low_eigenpairs(L, Lu, want, v0)
    vals = np.maximum(vals, 0.0)

    groups = _distinct_groups(vals)
    if len(groups) < k:
        raise ValueError(
            f"requested {k} distinct eigenvalues but only {len(groups)} are available"
        )
    cols = []
    for group in groups:
        take = min(len(group), k - len(cols))
        cols.extend(group[:take])
        if len(cols) == k:
            break
    X = vecs[:, cols]
    assignment = kmeans(X, k, seed=seed, restarts=10)
    return Partitioning(
        assignment=assignment,
        k=k,
        eigvec_indices=list(cols),
        eigenvalues=vals[cols],
    )


def kmeans(X, k, seed=0, restarts=10, max_iters=100):
    """Plain k-means with k-means++ seeding; best inertia over restarts wins.

    Labels are relabeled densely in order of first appearance so the output
    is deterministic for a fixed seed.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}]")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = _kmeanspp(X, k, rng)
        labels = None
        for _ in range(max_iters):
            dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = dist.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                members = X[labels == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
                else:
                    centers[c] = X[int(rng.integers(n))]
        inertia = float(((X - centers[labels]) ** 2).sum())
        if inertia < best_inertia - 1e-15:
            best_inertia, best_labels = inertia, labels
    dense = {}
    out = np.empty(n, dtype=np.int64)
    for i, lab in enumerate(best_labels):
        out[i] = dense.setdefault(int(lab), len(dense))
    return out


def _kmeanspp(X, k, rng):
    n = X.shape[0]
    centers = [X[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(((X[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(X[int(rng.integers(n))])
            continue
        centers.append(X[rng.choice(n, p=d2 / total)])
    return np.asarray(centers, dtype=np.float64)


def adjusted_rand_index(a, b) -> float:
    """Chance-adjusted agreement between two clusterings (1 = identical)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("clusterings must cover the same nodes")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
