"""Downstream uses of the sparsifiers: PageRank, directed solves, partitioning.

PageRank solves (I - (1 - alpha) M) p = alpha pr, M the out-degree
transition operator, in which a dangling node keeps its own mass (its
column is e_i), by BiCGSTAB from pr, as Gleich, Zhukov and Berkhin (2004)
propose, and finishes with the damped fixed-point iteration from the
clipped, normalized iterate: a residual within tol is a fixed-point step
within tol, so one step normally ends it.  Its iteration counts are
products with M.  The smoothed PageRank correlation takes more steps of
that fixed-point iteration on the original graph, started from the
sparsifier's vector.  The directed Laplacian solve runs BiCGSTAB on L_G
itself, with L_G's diagonal as preconditioner.  Partitioning embeds nodes
with the low eigenvectors of the symmetrized Laplacian, collapsing repeated
eigenvalues into distinct groups, and clusters them with k-means.

``_low_eigenpairs`` is the one eigensolve of L_u, for the partition and for
``specsparse spectrum``: dense up to ``solver.DENSE_MAX`` nodes, plain
Lanczos on v -> L (L^T v) for a dense L_u whose L has one sink strongly
connected component, and otherwise Lanczos on L_u^+ through the loop's
``GroundedSolver`` of L, which holds all c null vectors.  The partition asks
for c + k eigenpairs, c the number of sink strongly connected components,
and doubles the request until they hold k + 1 distinct groups (or all n
eigenvalues): only the first k columns and one value past them decide the
grouping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import solver
from .graphs import DirectedGraph, _sink_grounds, adjacency, laplacian, symmetrize, symmetrized_operator
from .sensitivity import RESIDUAL_CAP
from .solver import GroundedSolver, SolverParams, SolveStats, _checked_rhs
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

# Eigenvalues closer than this, relative to ||L_u||_1 (a bound on its
# spectral radius), collapse into one distinct value.
EIGENVALUE_GROUP_TOL = 1e-8

# On the ARPACK routes of the eigensolve (above ``solver.DENSE_MAX`` nodes),
# ARPACK runs on a Lanczos basis of max(2k + 1, this) vectors (at most n) for
# k eigenpairs, where its default is 2k + 1: a wider basis restarts less
# often.  On the 4000-node clustered benchmark graph's L_u (40 nonzeros per
# row), plain Lanczos for 9 pairs took about 3500 operator products and
# 0.74-0.78 s with 19 vectors, 1850 and 0.43-0.44 s with 40, and no less with
# 60 (one BLAS thread, 2-vCPU VM).
ARPACK_MIN_NCV = 40

# Above ``solver.DENSE_MAX`` nodes, the eigensolve takes plain Lanczos on
# v -> L (L^T v) when L_u has more than this many nonzeros per row and L one
# sink component, and the grounded route otherwise.  Sparsifiers from
# `sparsify` measure 5.7-6.7 per row and factor cheaply; the graphs they
# sparsify measure 37-40, where plain Lanczos took 0.51 s against 1.21 s
# through the grounded factor on the 4000-node clustered benchmark graph
# (2-vCPU VM).
LANCZOS_NNZ_PER_ROW = 16


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
    """Personalized PageRank: the solution p of p = (1 - alpha) M p + alpha pr,
    M = A^T D^-1, as a probability distribution.

    The linear system (I - (1 - alpha) M) p = alpha pr is solved by
    BiCGSTAB from pr (``_pagerank_bicgstab``) until the 1-norm of its
    residual is at most ``tol``; its iterate, clipped at 0 and normalized,
    then starts the fixed-point iteration, which stops when the 1-norm of a
    step is at most ``tol``, which must be positive.  A residual within tol
    is a step within tol, so one step normally ends it; after a BiCGSTAB
    breakdown or a spent budget the iteration runs on with what is left.
    ``iterations`` and ``max_iters`` (>= 1) count products with M: one for
    the initial residual and two per BiCGSTAB step, one per fixed-point
    step.  Non-convergence is flagged rather than raised.

    ``personalization`` must be a nonnegative distribution summing to 1;
    omitted, the uniform vector is used.  ``transition`` is g's operator
    A^T D^-1 when the caller has already built it (as
    ``pagerank_correlation`` has); omitted, it is built here.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    SolverParams(tol, max_iters)  # the same stopping-rule checks as the solver's
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
    start, used = pr, 0
    # Room for the initial residual, one BiCGSTAB step and the finishing step.
    if max_iters >= 4:
        start, used = _pagerank_bicgstab(M, alpha, pr, tol, max_iters - 1)
    p, steps, residual, converged = _pagerank_iteration(M, start, alpha, pr, tol, max_iters - used)
    return PageRankResult(p, alpha, used + steps, residual, converged)


def _pagerank_bicgstab(M, alpha, pr, tol, budget):
    """BiCGSTAB (van der Vorst, 1992) on (I - (1 - alpha) M) x = alpha pr
    from x = pr, with the operator applied as x - (1 - alpha) (M x).

    Stops when the 1-norm of the recurrence residual is at most ``tol``, on
    a breakdown (r_hat . r, r_hat . v or omega equal to 0, where r_hat is
    the initial residual) or before a step would take more than ``budget``
    products with M.  Returns (x, products): x clipped at 0 and normalized,
    and the products spent, at most ``budget`` (>= 3).
    """
    damping = 1.0 - alpha
    x = pr.copy()
    # r = alpha pr - (pr - (1 - alpha) M pr): the fixed-point step from pr.
    r = M @ pr
    r -= pr
    r *= damping
    products = 1
    r_hat = r.copy()
    p = None
    while np.abs(r).sum() > tol and products + 2 <= budget:
        rho_next = r_hat @ r
        if rho_next == 0.0:
            break
        if p is None:
            p = r.copy()
        else:
            # p = r + beta (p - omega v)
            p -= omega * v
            p *= (rho_next / rho) * (step / omega)
            p += r
        rho = rho_next
        v = M @ p
        v *= -damping
        v += p
        products += 1
        rv = r_hat @ v
        if rv == 0.0:
            break
        step = rho / rv
        x += step * p
        r -= step * v  # the half-step residual s
        if np.abs(r).sum() <= tol:
            break
        t = M @ r
        t *= -damping
        t += r
        products += 1
        omega = (t @ r) / (t @ t)
        if omega == 0.0:
            break
        x += omega * r
        r -= omega * t
    # M is column-stochastic, so r, p, v, s and t all sum to 0 and x keeps
    # the sum 1 of pr: clipped, it sums to at least that.
    np.maximum(x, 0.0, out=x)
    x /= x.sum()
    return x, products


def _pagerank_iteration(M, p0, alpha, pr, tol, max_iters):
    """Steps of p <- (1 - alpha) M p + alpha pr, normalized, from p0 (left
    unchanged), until the 1-norm of a step is at most ``tol`` or after
    ``max_iters`` steps.  Returns (p, steps, the last step's norm,
    converged); ``max_iters`` 0 returns a copy of p0."""
    damping = 1.0 - alpha
    restart = alpha * pr
    p = p0.copy()
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
            return p, it, residual, True
    return p, max_iters, residual, False


def _pearson(a, b, names):
    """Pearson correlation of two PageRank vectors, named by ``names`` in
    the error raised when one of them is constant (the correlation is then
    undefined)."""
    # Pearson of a vector with itself is exactly 1; corrcoef's normalization
    # loses the last ulp even for bit-identical inputs.
    if np.array_equal(a, b):
        return 1.0
    for v, name in zip((a, b), names):
        if v.min() == v.max():
            raise ValueError(f"the {name} PageRank vector is constant: its correlation is undefined")
    return float(np.corrcoef(a, b)[0, 1])


def _pagerank_comparison(g, sg, alpha, personalization, smoothing_steps, tol=1e-10, max_iters=1000):
    """PageRank of g and of its sparsifier sg, each solved once.

    Returns (full, sparse, raw, smoothed): the two ``PageRankResult``s, the
    correlation of their vectors, and the correlation after at most
    ``smoothing_steps`` more steps of g's own iteration started from sg's
    vector (fewer when a step meets ``tol``).
    """
    if sg.n != g.n:
        raise ValueError(f"sparsifier has {sg.n} nodes, graph has {g.n}")
    if smoothing_steps < 0:
        raise ValueError(f"smoothing_steps must not be negative, got {smoothing_steps}")
    M = _transition(g)
    full = pagerank(g, alpha, personalization, tol, max_iters, transition=M)
    sparse_ = pagerank(sg, alpha, personalization, tol, max_iters)
    pr = np.full(g.n, 1.0 / g.n) if personalization is None else np.asarray(personalization, dtype=np.float64)
    smoothed_p = _pagerank_iteration(M, sparse_.p, alpha, pr, tol, smoothing_steps)[0]
    raw = _pearson(full.p, sparse_.p, ("graph's", "sparsifier's"))
    return full, sparse_, raw, _pearson(full.p, smoothed_p, ("graph's", "smoothed sparsifier's"))


def pagerank_correlation(g: DirectedGraph, s, alpha=0.15, personalization=None, smoothing_steps=10, tol=1e-10, max_iters=1000):
    """Pearson correlation of PageRank on g vs on its sparsifier.

    Returns (raw, smoothed): the raw correlation of the two vectors, and the
    correlation after at most ``smoothing_steps`` (not negative) steps of
    g's own PageRank iteration started from the sparsifier's vector.  The
    smoothed value measures how far g's iteration gets from that start more
    than the sparsifier itself.  ValueError when either vector is constant
    (and the two are not bit-identical), since the correlation is then
    undefined.
    """
    sg = s.graph if isinstance(s, Sparsifier) else s
    return _pagerank_comparison(g, sg, alpha, personalization, smoothing_steps, tol, max_iters)[2:]


def directed_solve(g: DirectedGraph, s, b, solver_params=None):
    """Solve L_G x = b by BiCGSTAB on L_G, preconditioned by its diagonal.

    ``s``, a sparsifier of g (``Sparsifier`` or ``DirectedGraph``), must
    have g's node count but does not enter the solve.

    b is a vector or an n x k block, whose columns are solved one at a time
    by scipy's ``bicgstab`` from x = 0, at relative residual ``tol``
    (``atol`` 0) within ``max_iters`` steps of ``solver_params``.  The
    preconditioner is Jacobi's, J = diag(1 / diag(L_G)) with 1 on the zero
    diagonal of a node without out-edges, applied on the right.

    Every column of L_G sums to zero, so its range holds only zero-mean
    vectors, and a nonzero mean of b (of each column) is projected away.
    An isolated node is a zero row of L_G, which no x can meet: when b minus
    its mean is larger on those rows than the solve accepts (relative
    ``RESIDUAL_CAP``, or the solver's tol if larger), ValueError is raised
    before the solve, as it is for a b whose first dimension is not n or
    that is not finite.

    Returns x and a ``SolveStats`` over the block: ``iterations`` the most
    steps of a column, ``residual`` the largest relative residual
    ||b - mean - L_G x|| / ||b - mean|| (0 for a column that centers to
    rounding residue, at most n eps ||b||, and is solved as zero) and
    ``converged`` true only if every column met tol.  RuntimeError when a
    column stops above ``RESIDUAL_CAP``.
    """
    sg = s.graph if isinstance(s, Sparsifier) else s
    if sg.n != g.n:
        raise ValueError(f"sparsifier has {sg.n} nodes, graph has {g.n}")
    b = _checked_rhs(b, g.n)
    if g.n == 0:
        return b.copy(), SolveStats(0, 0.0, True)
    params = solver_params or SolverParams()
    L = laplacian(g)
    B = b if b.ndim == 2 else b[:, None]
    # Each column centered by its own mean, summed as for a vector b, and
    # held contiguously: a block solves bit for bit as its columns do.
    C = np.asfortranarray(B - np.array([c.mean() for c in B.T]))
    # Centering a constant column leaves rounding residue, at most about
    # log2(n) eps ||b||: a column no larger than n eps ||b|| is zero.
    C[:, np.linalg.norm(C, axis=0) <= g.n * np.finfo(np.float64).eps * np.linalg.norm(B, axis=0)] = 0.0
    free = np.diff(L.indptr) == 0  # isolated nodes: no entry in their row
    if free.any():
        stray, total = np.linalg.norm(C[free]), np.linalg.norm(C)
        if stray > max(RESIDUAL_CAP, params.tol) * total:
            raise ValueError(
                "right-hand side is inconsistent on nodes without edges: "
                f"b minus its mean has norm {stray:.3e} there, of {total:.3e} in all"
            )
    d = L.diagonal()
    jacobi = np.divide(1.0, d, out=np.ones_like(d), where=d != 0)
    # J applied once to L's columns: BiCGSTAB solves L J y = c, and x = J y.
    # Passed as bicgstab's M instead, J would be a second operator call in
    # every product, about a fifth of the time of a 115-node solve.
    LJ = sp.csr_array((L.data * jacobi[L.indices], L.indices, L.indptr), shape=L.shape)
    X = np.zeros_like(C)
    steps = 0
    for j in range(C.shape[1]):
        if not C[:, j].any():
            continue
        tick = itertools.count()  # one call per BiCGSTAB step
        y, _ = spla.bicgstab(
            LJ, C[:, j], rtol=params.tol, atol=0.0, maxiter=params.max_iters, callback=lambda _: next(tick)
        )
        X[:, j] = jacobi * y
        steps = max(steps, next(tick))
    cnorm = np.linalg.norm(C, axis=0)
    rnorm = np.linalg.norm(L @ X - C, axis=0)
    residual = np.divide(rnorm, cnorm, out=np.zeros_like(cnorm), where=cnorm > 0)
    worst = float(residual.max(initial=0.0))
    converged = worst <= params.tol
    if not converged and worst > RESIDUAL_CAP:
        raise RuntimeError(f"directed solve stalled at residual {worst:.3e}")
    return (X if b.ndim == 2 else X[:, 0]), SolveStats(steps, worst, converged)


def _distinct_groups(eigenvalues, scale):
    """Group ascending eigenvalues: each joins the group of the one before
    when it lies within ``EIGENVALUE_GROUP_TOL * scale`` of that group's
    first value.  ``scale`` is fixed by the matrix, not by the values
    given, so the dense and the ARPACK routes group alike."""
    groups = [[0]]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[groups[-1][0]] <= EIGENVALUE_GROUP_TOL * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _low_eigenpairs(L, want, seed, *, vectors=True, Lu=None):
    """Low eigenvalues of L_u = L L^T in ascending order, clamped at 0, with
    their eigenvectors as columns when ``vectors`` (else None).

    Up to ``solver.DENSE_MAX`` nodes (read at each call) a dense ``eigh``
    (``eigvalsh`` without vectors) gives all n.  So it does at any size when
    2k + 1 >= n for k = min(want, n - 1): ARPACK's default subspace of
    2k + 1 vectors would then span every node, at a cost far above the
    dense one.  Otherwise the k smallest come through ARPACK, from a start
    drawn with ``seed``, on a Lanczos basis of
    min(max(2m + 1, ``ARPACK_MIN_NCV``), n) vectors for the m pairs it
    computes.  When L_u has more than ``LANCZOS_NNZ_PER_ROW`` nonzeros per
    row and L exactly one sink strongly connected component, ARPACK finds
    the m = k smallest of v -> L (L^T v).  Otherwise a ``GroundedSolver``
    of L, freed on return, gives the c vectors of null(L_u) first, at
    eigenvalue 0, and ARPACK finds the m = k - c largest eigenvalues theta
    of v -> L_u^+ v from a start projected off null(L_u), each giving the
    eigenvalue 1 / theta; k <= c needs no ARPACK call.  Plain Lanczos would
    find only one copy of a repeated eigenvalue, so a null space of several
    dimensions always takes the grounded route.  want == 0 gives no pairs.
    ``Lu`` is L_u when the caller has already formed it; omitted, it is
    formed here.
    """
    n = L.shape[0]
    if want == 0:
        return np.empty(0), np.empty((n, 0))
    if Lu is None:
        Lu = symmetrize(L)
    k = min(want, n - 1)
    if n <= solver.DENSE_MAX or 2 * k + 1 >= n:
        if vectors:
            vals, vecs = np.linalg.eigh(Lu.toarray())
        else:
            vals, vecs = np.linalg.eigvalsh(Lu.toarray()), None
        return np.maximum(vals, 0.0), vecs
    v0 = np.random.default_rng(seed).standard_normal(n)
    if Lu.nnz > LANCZOS_NNZ_PER_ROW * n and _sink_grounds(L).size == 1:
        null, op, which = np.empty((n, 0)), symmetrized_operator(L), "SA"
    else:
        grounded = GroundedSolver(L)
        null = grounded.null_space()
        if k <= null.shape[1]:
            return np.zeros(k), (null[:, :k] if vectors else None)
        v0 -= null @ (null.T @ v0)
        op = spla.LinearOperator((n, n), matvec=lambda v: grounded.solve(v)[0], dtype=np.float64)
        which = "LA"
    m = k - null.shape[1]  # the pairs ARPACK computes
    ncv = min(max(2 * m + 1, ARPACK_MIN_NCV), n)
    out = spla.eigsh(op, k=m, which=which, v0=v0, ncv=ncv, return_eigenvectors=vectors)
    vals, vecs = out if vectors else (out, None)
    if which == "LA":
        vals = 1.0 / vals
    order = np.argsort(vals)
    vals = np.concatenate([np.zeros(null.shape[1]), np.maximum(vals[order], 0.0)])
    return vals, (np.hstack([null, vecs[:, order]]) if vectors else None)


def spectral_partition(g: DirectedGraph, k, seed=0) -> Partitioning:
    """Cluster nodes with eigenvectors of the first k distinct eigenvalues.

    Eigenvalues of the symmetrized Laplacian come with multiplicities; values
    within 1e-8 ||L_u||_1 of a group's first value join that group, on
    every route alike.  Embedding columns are taken group by group in
    ascending order so that exactly k coordinates are used, then clustered
    by seeded k-means with 10 restarts.  A k that ends inside a group
    raises ValueError: any basis of that eigenspace is valid, so part of it
    would give an arbitrary split.

    The eigenpairs come from ``_low_eigenpairs``: all n up to
    ``solver.DENSE_MAX`` nodes, else the c + k smallest, where c, the
    multiplicity of eigenvalue 0, is the number of sink strongly connected
    components of g.  While they fall into at most k distinct groups and
    are fewer than n, the request doubles and is asked again, with L and
    L_u formed once.  With k + 1 groups the k columns end before the last
    group returned, which ARPACK may have cut short, so the group they end
    in is whole.  Neither rule sees a repeated eigenvalue of which ARPACK
    finds only some copies.  In the null space the route rule prevents it:
    c > 1 takes the grounded route, whose solver holds all c null vectors;
    an eigensolve that still returns fewer than c eigenvalues in the lowest
    group raises RuntimeError.  ``seed``, which draws the ARPACK start and
    the k-means seeding, must not be negative (ValueError).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if g.n < k:
        raise ValueError(f"k={k} clusters need at least {k} nodes, the graph has {g.n}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    L = laplacian(g)
    nullity = _sink_grounds(L).size
    Lu = symmetrize(L)
    scale = spla.norm(Lu, 1)
    want = nullity + k
    while True:
        vals, vecs = _low_eigenpairs(L, want, seed, Lu=Lu)
        groups = _distinct_groups(vals, scale)
        if len(groups) > k or vals.size == g.n:
            break
        want *= 2

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
    is deterministic for a fixed seed.  ``restarts`` and ``max_iters`` must
    be at least 1.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}]")
    if restarts < 1 or max_iters < 1:
        raise ValueError(f"restarts and max_iters must be at least 1, got {restarts} and {max_iters}")
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
