"""Downstream uses of the sparsifiers: PageRank, directed solves, partitioning.

PageRank runs the damped fixed-point iteration on the out-degree transition
operator, in which a dangling node keeps its own mass (its column is e_i).
The directed Laplacian solve goes through the symmetrized system: solve
L_Su y = b, smooth with forward Gauss-Seidel sweeps on the formed
L_Gu = L_G L_G^T through the solver's prepared sweep kernel, and map back
with x = L_G^T y.  Partitioning embeds nodes with the low eigenvectors of
the symmetrized Laplacian, collapsing repeated eigenvalues into distinct
groups, and clusters them with k-means.

``_low_eigenpairs`` is the one eigensolve of L_u, for the partition and for
``specsparse spectrum``.  It takes one of three routes: dense up to
``DENSE_CUTOFF`` nodes, or when ARPACK's subspace would span every node;
otherwise shift-invert Lanczos on one sparse factor of L_u when L_u has at
most ``SHIFT_INVERT_NNZ_PER_ROW`` nonzeros per row (sparsifiers), else plain
Lanczos on the operator v -> L (L^T v) (dense inputs, whose factor would
fill).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import DirectedGraph, adjacency, laplacian, symmetrize, symmetrized_operator
from .seed import _scc_labels, _sink_flags
from .sensitivity import RESIDUAL_CAP
from .solver import SolverParams, SpsSolver, _shifted_factor, _Sweep
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

# Eigenvalues closer than this (relative to the spectral radius) collapse
# into one distinct value.
EIGENVALUE_GROUP_TOL = 1e-8

# Up to this many nodes the eigensolve of L_u is dense (all n eigenpairs).
DENSE_CUTOFF = 2000

# Above DENSE_CUTOFF, L_u is factored for shift-invert when it has at most this
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


def _transition(g: DirectedGraph):
    """Column-stochastic operator A^T D^-1, with column e_i for each dangling
    node i (no out-edge): entry w / d_tail at (head, tail) for every edge."""
    d = np.asarray(adjacency(g).sum(axis=1)).ravel()
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    dangling = np.flatnonzero(d == 0)
    return sp.csr_array(
        (
            np.concatenate([g.weights * inv[g.tails], np.ones(dangling.size)]),
            (np.concatenate([g.heads, dangling]), np.concatenate([g.tails, dangling])),
        ),
        shape=(g.n, g.n),
    )


def pagerank(
    g: DirectedGraph, alpha=0.15, personalization=None, tol=1e-10, max_iters=1000, *, transition=None
) -> PageRankResult:
    """Fixed-point iteration of p = (1 - alpha) A^T D^-1 p + alpha * pr.

    ``personalization`` must be a nonnegative distribution summing to 1;
    omitted, the uniform vector is used.  The result is a probability
    distribution; non-convergence is flagged rather than raised.
    ``transition`` is g's operator A^T D^-1 when the caller has already
    built it (as ``pagerank_correlation`` has); omitted, it is built here.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    n = g.n
    if n == 0:
        raise ValueError("PageRank needs a graph with at least one node")
    if personalization is None:
        pr = np.full(n, 1.0 / n)
    else:
        pr = np.asarray(personalization, dtype=np.float64)
        if (
            pr.shape != (n,)
            or not np.isfinite(pr).all()
            or pr.min() < 0
            or abs(pr.sum() - 1.0) > 1e-8
        ):
            raise ValueError("personalization must be a nonnegative distribution over the nodes")
    M = _transition(g) if transition is None else transition
    damping = 1.0 - alpha
    restart = alpha * pr
    p = pr.copy()
    residual = np.inf
    for it in range(1, max_iters + 1):
        # p_new = (1 - alpha) (M p) + alpha pr, normalized, in place on the
        # product; the old p then holds |p_new - p|.
        p_new = M @ p
        p_new *= damping
        p_new += restart
        p_new /= p_new.sum()
        np.subtract(p_new, p, out=p)
        residual = float(np.abs(p, out=p).sum())
        p = p_new
        if residual <= tol:
            return PageRankResult(p, alpha, it, residual, True)
    return PageRankResult(p, alpha, max_iters, residual, False)


def _pagerank_smoothed(M, p0, alpha, pr, sweeps):
    """Improve a PageRank estimate with Gauss-Seidel sweeps on the fixed-point
    system (I - (1-alpha) M) p = alpha * pr of the graph whose transition
    operator is M."""
    p = p0
    if sweeps > 0:
        A = sp.eye_array(M.shape[0], format="csr") - (1.0 - alpha) * M
        p = _Sweep(A).run(p0, alpha * pr, sweeps)
    s = p.sum()
    return p / s if s != 0 else p


def _pearson(a, b):
    # Pearson of a vector with itself is exactly 1; corrcoef's normalization
    # loses the last ulp even for bit-identical inputs.
    if np.array_equal(a, b):
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


def _pagerank_comparison(g, sg, alpha, personalization, gs_sweeps, tol=1e-10, max_iters=1000):
    """PageRank of g and of its sparsifier sg, each solved once.

    Returns (full, sparse, raw, smoothed): the two ``PageRankResult``s, the
    correlation of their vectors, and the correlation after ``gs_sweeps``
    Gauss-Seidel sweeps of g's system applied to sg's vector.
    """
    if sg.n != g.n:
        raise ValueError(f"sparsifier has {sg.n} nodes, graph has {g.n}")
    M = _transition(g)
    full = pagerank(g, alpha, personalization, tol, max_iters, transition=M)
    sparse_ = pagerank(sg, alpha, personalization, tol, max_iters)
    pr = np.full(g.n, 1.0 / g.n) if personalization is None else np.asarray(personalization, dtype=np.float64)
    smoothed_p = _pagerank_smoothed(M, sparse_.p, alpha, pr, gs_sweeps)
    return full, sparse_, _pearson(full.p, sparse_.p), _pearson(full.p, smoothed_p)


def pagerank_correlation(g: DirectedGraph, s, alpha=0.15, personalization=None, gs_sweeps=3, tol=1e-10, max_iters=1000):
    """Pearson correlation of PageRank on g vs on its sparsifier.

    Returns (raw, smoothed): the raw correlation of the two vectors, and the
    correlation after a few Gauss-Seidel sweeps of the original-graph system
    applied to the sparsifier's vector.
    """
    sg = s.graph if isinstance(s, Sparsifier) else s
    return _pagerank_comparison(g, sg, alpha, personalization, gs_sweeps, tol, max_iters)[2:]


def directed_solve(g: DirectedGraph, s, b, gs_sweeps=5, solver_params=None):
    """Solve L_G x = b through the sparsifier's symmetrized system.

    Steps: solve L_Su y = b, remove high-frequency error with ``gs_sweeps``
    forward Gauss-Seidel sweeps on L_Gu y = b, then map back with
    x = L_G^T y.  The sweeps run on the formed L_Gu = L_G L_G^T through the
    solver's prepared sweep kernel, after the L_Su factor is freed, over the
    rows with a nonzero diagonal; an isolated node keeps its y_i.  b must lie
    in the range of L_Gu for the smoothed system to be consistent.

    L_Su has the all-ones null vector, so a nonzero mean of b is projected
    away.  A node without edges in the sparsifier is a zero row of L_Su,
    which no y can meet: when b minus its mean is larger on those rows than
    the solve accepts (relative ``RESIDUAL_CAP``, or the solver's tol if
    larger), ValueError is raised before the solve.  Returns x and the
    ``SolveStats`` of the sparsifier solve.
    """
    sg = s.graph if isinstance(s, Sparsifier) else s
    if sg.n != g.n:
        raise ValueError(f"sparsifier has {sg.n} nodes, graph has {g.n}")
    L_G = laplacian(g)
    L_S = laplacian(sg)
    L_Su = symmetrize(L_S)
    params = solver_params or SolverParams()
    b = np.asarray(b, dtype=np.float64)
    free = L_Su.diagonal() == 0
    if free.any():
        centered = b - b.mean()
        stray, total = np.linalg.norm(centered[free]), np.linalg.norm(centered)
        if stray > max(RESIDUAL_CAP, params.tol) * total:
            raise ValueError(
                "right-hand side is inconsistent on nodes without edges in the sparsifier: "
                f"b minus its mean has norm {stray:.3e} there, of {total:.3e} in all"
            )
    solver = SpsSolver(L_Su, params=params)
    y, stats = solver.solve(b)
    del solver, L_S, L_Su  # free the L_Su factor before L_Gu is formed
    if not stats.converged and stats.residual > RESIDUAL_CAP:
        raise RuntimeError(f"sparsifier solve stalled at residual {stats.residual:.3e}")
    if gs_sweeps > 0:
        L_Gu = symmetrize(L_G)
        live = L_Gu.diagonal() > 0
        if live.all():
            y = _Sweep(L_Gu).run(y, b, gs_sweeps)
        else:
            # The zero rows are isolated nodes, whose columns are zero too.
            y[live] = _Sweep(L_Gu[live][:, live]).run(y[live], b[live], gs_sweeps)
    return L_G.T @ y, stats


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


def _low_eigenpairs(L, want, seed, *, vectors=True):
    """Low eigenvalues of L_u = L L^T in ascending order, clamped at 0, with
    their eigenvectors as columns when ``vectors`` (else None).

    Up to ``DENSE_CUTOFF`` nodes a dense ``eigh`` (``eigvalsh`` without
    vectors) gives all n.  So it does above the cutoff when 2k + 1 >= n for
    k = min(want, n - 1): ARPACK's default subspace of 2k + 1 vectors would
    then span every node, at a cost far above the dense one.  Otherwise
    ARPACK gives the k smallest from a start drawn with ``seed``: by
    shift-invert with one SuperLU factor of L_u - sigma I, made by the
    solver's ``_shifted_factor`` and freed on return, when L_u has at most
    ``SHIFT_INVERT_NNZ_PER_ROW`` nonzeros per row, else by Lanczos for the
    smallest eigenvalues on v -> L (L^T v).  want == 0 gives no pairs.
    """
    n = L.shape[0]
    if want == 0:
        return np.empty(0), np.empty((n, 0))
    Lu = symmetrize(L)
    k = min(want, n - 1)
    if n <= DENSE_CUTOFF or 2 * k + 1 >= n:
        if vectors:
            vals, vecs = np.linalg.eigh(Lu.toarray())
        else:
            vals, vecs = np.linalg.eigvalsh(Lu.toarray()), None
        return np.maximum(vals, 0.0), vecs
    v0 = np.random.default_rng(seed).standard_normal(n)
    if Lu.nnz <= SHIFT_INVERT_NNZ_PER_ROW * n:
        # Just below the spectrum of the PSD L_u: L_u - sigma I is SPD
        # although L_u is singular.
        sigma = -1e-8 * spla.norm(Lu, 1)
        lu = _shifted_factor(Lu, -sigma)
        OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        out = spla.eigsh(Lu, k=k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv, return_eigenvectors=vectors)
    else:
        out = spla.eigsh(symmetrized_operator(L), k=k, which="SA", v0=v0, return_eigenvectors=vectors)
    vals, vecs = out if vectors else (out, None)
    order = np.argsort(vals)
    return np.maximum(vals[order], 0.0), (vecs[:, order] if vectors else None)


def spectral_partition(g: DirectedGraph, k, seed=0) -> Partitioning:
    """Cluster nodes with eigenvectors of the first k distinct eigenvalues.

    Eigenvalues of the symmetrized Laplacian come with multiplicities; values
    within a relative 1e-8 band collapse into one distinct group.  Embedding
    columns are taken group by group in ascending order so that exactly k
    coordinates are used, then clustered by seeded k-means with 10 restarts.
    A k that ends inside a group raises ValueError: any basis of that
    eigenspace is valid, so part of it would give an arbitrary split.

    The eigenpairs come from ``_low_eigenpairs``: all n up to
    ``DENSE_CUTOFF`` nodes, else the max(4k, 2k + 10, c + k) smallest, where
    c, the multiplicity of eigenvalue 0, is the number of sink strongly
    connected components of g.  An ARPACK route that still returns fewer
    than c eigenvalues in the lowest group raises RuntimeError.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if g.n < k:
        raise ValueError(f"k={k} clusters need at least {k} nodes, the graph has {g.n}")
    n_comp, labels = _scc_labels(g.n, g.tails, g.heads)
    nullity = int(_sink_flags(n_comp, labels, g.tails, g.heads).sum())
    vals, vecs = _low_eigenpairs(laplacian(g), max(4 * k, 2 * k + 10, nullity + k), seed)

    groups = _distinct_groups(vals)
    if len(groups[0]) < nullity:
        raise RuntimeError(
            f"the eigensolver found {len(groups[0])} of the {nullity} null vectors of L_u"
        )
    if len(groups) < k:
        raise ValueError(
            f"requested {k} distinct eigenvalues but only {len(groups)} are available"
        )
    cols = []
    for group in groups:
        if len(cols) + len(group) > k:
            raise ValueError(
                f"k={k} would take {k - len(cols)} of the {len(group)} eigenvectors of "
                f"eigenvalue {vals[group[0]]:.3g}; choose k to end at a whole group"
            )
        cols.extend(group)
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
    _, first, inverse = np.unique(best_labels, return_index=True, return_inverse=True)
    dense = np.empty(first.size, dtype=np.int64)
    dense[np.argsort(first)] = np.arange(first.size)
    return dense[inverse.ravel()]


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
