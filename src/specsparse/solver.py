"""Multilevel solver for SPS Laplacian-like systems, negative weights included.

Symmetrized Laplacians L_u = L L^T may carry positive off-diagonals, which
rules out M-matrix-only methods.  The solver here combines affinity-guided
node aggregation (smooth test vectors decide which neighbors merge), Galerkin
coarse operators, Gauss-Seidel smoothing and a dense direct solve at the
coarsest level, and wraps the resulting V-cycle as a preconditioner for
conjugate gradient so convergence is guaranteed on SPS systems even when the
hierarchy is weak.  Singular systems with the all-ones null vector are
handled by deflation onto the zero-mean subspace; all-zero rows and degree-1
nodes are eliminated exactly before the hierarchy is built.

Each Gauss-Seidel triangle is prepared once for SuperLU's triangular-solve
kernel ``gstrs`` (the one ``spsolve_triangular`` ends in), so a sweep costs
one sparse product, one substitution and one diagonal rescale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

__all__ = [
    "SolverParams",
    "SolveStats",
    "AggregationHierarchy",
    "SpsSolver",
    "gauss_seidel",
    "node_affinity",
    "build_hierarchy",
    "solve_sps",
]


@dataclass
class SolverParams:
    """Tunables for the multilevel SPS solver.

    The defaults (8 test vectors, 3 relaxations for affinities, threshold
    0.4, 2+2 smoothing sweeps, coarsest size 200) are engineering choices;
    every one of them can be overridden.
    """

    tol: float = 1e-8
    max_iters: int = 400
    affinity_vectors: int = 8
    affinity_sweeps: int = 3
    theta: float = 0.4
    pre_sweeps: int = 2
    post_sweeps: int = 2
    coarsest_size: int = 200
    max_levels: int = 30
    max_aggregate: int = 8
    max_direct: int = 2000
    eliminate_degree_one: bool = True
    seed: int = 0
    # Escape hatch for matrices the aggregation cycle cannot handle (heavily
    # tree-like symmetrized subgraphs): when CG progress stalls, switch the
    # preconditioner to a shifted sparse factorization.
    direct_fallback: bool = True
    stall_check: int = 40
    stall_ratio: float = 1e-2


@dataclass
class SolveStats:
    iterations: int
    residual: float
    converged: bool


def _as_intc(index):
    """Index array as C ``int``, the index type of SuperLU.

    Raises ValueError where a plain cast would wrap (values above 2**31 - 1).
    """
    index = np.asarray(index)
    limit = np.iinfo(np.intc).max
    if index.size and index.max() > limit:
        raise ValueError(
            f"index value {int(index.max())} exceeds the C int limit {limit} of SuperLU"
        )
    return index.astype(np.intc, copy=False)


class _Sweep:
    """Gauss-Seidel sweeps on L in one direction, prepared once for SuperLU.

    A forward sweep solves with tril(L), a backward one with triu(L).
    ``spsolve_triangular`` redoes the preparation on every call: it
    transposes the CSR triangle to CSC (solving with ``trans="T"``), scales it
    to unit diagonal, sums duplicates and lays it out as SuperLU L/U arrays
    with C-int indices.  Doing the same steps once here and then calling the
    ``gstrs`` kernel it ends in keeps every sweep bit-identical to a sweep
    through ``spsolve_triangular``.
    """

    def __init__(self, L, lower):
        n = L.shape[0]
        T = sp.tril(L, k=0, format="csr") if lower else sp.triu(L, k=0, format="csr")
        self.rest = sp.triu(L, k=1, format="csr") if lower else sp.tril(L, k=-1, format="csr")
        diag = T.diagonal()
        if np.any(diag == 0):
            raise np.linalg.LinAlgError("Gauss-Seidel triangle is singular: zero entry on diagonal")
        self.invdiag = 1 / diag
        A = (T @ sp.diags_array(self.invdiag)).T  # CSC, so a lower T becomes upper
        A.sum_duplicates()
        if lower:
            lf = sp.eye_array(n, format="csc")
            uf = A
            uf.setdiag(0)
        else:
            lf = A
            uf = sp.csc_array((n, n))
        self.factors = (
            n, lf.nnz, lf.data, _as_intc(lf.indices), _as_intc(lf.indptr),
            n, uf.nnz, uf.data, _as_intc(uf.indices), _as_intc(uf.indptr),
        )

    def run(self, x, b, sweeps):
        for _ in range(sweeps):
            y, info = _superlu.gstrs("T", *self.factors, b - self.rest @ x)
            if info:
                raise np.linalg.LinAlgError("Gauss-Seidel triangle is singular")
            x = y * self.invdiag.reshape(-1, *([1] * (y.ndim - 1)))
        return x


class _GaussSeidel:
    """Forward/backward Gauss-Seidel sweeps on L; assumes a nonzero diagonal.

    Each direction is prepared on its first sweep and reused by every later
    one, so callers that sweep one way only prepare one triangle.  A zero
    diagonal raises ``np.linalg.LinAlgError`` on that first sweep.
    """

    def __init__(self, L):
        self.L = sp.csr_array(L)
        self._forward = None
        self._backward = None

    def forward(self, x, b, sweeps=1):
        if self._forward is None:
            self._forward = _Sweep(self.L, lower=True)
        return self._forward.run(x, b, sweeps)

    def backward(self, x, b, sweeps=1):
        if self._backward is None:
            self._backward = _Sweep(self.L, lower=False)
        return self._backward.run(x, b, sweeps)


def gauss_seidel(L, b, x0=None, sweeps=1, direction="forward"):
    """Run plain Gauss-Seidel sweeps on L x = b starting from x0.

    Rows that are entirely zero with a zero right-hand side are left alone;
    a zero diagonal anywhere else signals a degenerate row and raises.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    L = sp.csr_array(L, dtype=np.float64)
    n = L.shape[0]
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected square matrix, got {L.shape}")
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    diag = L.diagonal()
    C = sp.coo_array(L)
    nz = (C.data != 0) & (C.row != C.col)
    row_deg = np.bincount(C.row[nz], minlength=n)
    col_deg = np.bincount(C.col[nz], minlength=n)
    inert = (diag == 0) & (row_deg == 0) & (col_deg == 0) & (b == 0)
    if np.any((diag == 0) & ~inert):
        bad = int(np.nonzero((diag == 0) & ~inert)[0][0])
        raise ValueError(f"zero diagonal at row {bad}: degenerate row")

    if inert.any():
        act = np.nonzero(~inert)[0]
        sub = _GaussSeidel(L[np.ix_(act, act)])
        xa = x[act]
        xa = sub.forward(xa, b[act], sweeps) if direction == "forward" else sub.backward(xa, b[act], sweeps)
        x = x.copy()
        x[act] = xa
        return x
    gs = _GaussSeidel(L)
    return gs.forward(x, b, sweeps) if direction == "forward" else gs.backward(x, b, sweeps)


def node_affinity(L, K=8, sweeps=3, seed=0):
    """Affinity scores c_uv on the off-diagonal pattern of L.

    K random vectors are relaxed a few sweeps on L x = 0; after relaxation
    only smooth error survives, so strongly connected node pairs show highly
    correlated values.  c_uv = |<X_u, X_v>|^2 / (<X_u, X_u> <X_v, X_v>) lies
    in [0, 1] and is exactly symmetric; pairs with an identically-zero vector
    get affinity 0.
    """
    if K < 2:
        raise ValueError("need at least 2 test vectors")
    L = sp.csr_array(L, dtype=np.float64)
    n = L.shape[0]
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, K))

    diag = L.diagonal()
    act = np.nonzero(diag != 0)[0]
    if act.size:
        gs = _GaussSeidel(L[np.ix_(act, act)])
        X[act] = gs.forward(X[act], np.zeros((act.size, K)), sweeps)

    C = sp.coo_array(L)
    off = C.row != C.col
    rows, cols = C.row[off], C.col[off]
    num = np.einsum("ij,ij->i", X[rows], X[cols])
    den = np.einsum("ij,ij->i", X[rows], X[rows]) * np.einsum("ij,ij->i", X[cols], X[cols])
    c = np.zeros(rows.size)
    ok = den > 0
    c[ok] = np.clip(num[ok] ** 2 / den[ok], 0.0, 1.0)
    out = sp.coo_array((c, (rows, cols)), shape=L.shape).tocsr()
    out.sum_duplicates()
    return out


@dataclass
class _Level:
    matrix: sp.csr_array
    aggregates: np.ndarray | None  # fine node -> coarse node, None at coarsest
    prolongation: sp.csr_array | None
    smoother: _GaussSeidel | None = None


@dataclass
class AggregationHierarchy:
    levels: list[_Level]
    pre_sweeps: int = 2
    post_sweeps: int = 2
    coarse_solver: object = field(default=None, repr=False)

    @property
    def sizes(self):
        return [lvl.matrix.shape[0] for lvl in self.levels]


def _best_neighbors(affinity):
    """Per node, the neighbor with maximal affinity (ties to smaller id)."""
    C = sp.coo_array(affinity)
    n = affinity.shape[0]
    best = np.full(n, -1, dtype=np.int64)
    best_c = np.full(n, -1.0)
    order = np.lexsort((C.col, -C.data, C.row))  # by row, then affinity desc, then col asc
    rows = C.row[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    best[rows[first]] = C.col[order][first]
    best_c[rows[first]] = C.data[order][first]
    return best, best_c


def _aggregate(affinity, theta, max_aggregate):
    """Greedy aggregation pass; returns fine->coarse map and coarse count."""
    n = affinity.shape[0]
    best, best_c = _best_neighbors(affinity)
    agg = np.full(n, -1, dtype=np.int64)
    size = []

    def new_aggregate(*nodes):
        aid = len(size)
        size.append(len(nodes))
        for u in nodes:
            agg[u] = aid
        return aid

    for u in range(n):
        if agg[u] != -1:
            continue
        v = int(best[u])
        if v < 0 or best_c[u] < theta:
            new_aggregate(u)
        elif agg[v] == -1:
            new_aggregate(u, v)
        elif size[agg[v]] < max_aggregate:
            agg[u] = agg[v]
            size[agg[v]] += 1
        else:
            new_aggregate(u)

    # Force lone nodes into their best neighbor's aggregate when the pass
    # barely coarsened; keeps level sizes strictly decreasing.
    if len(size) > 0.95 * n:
        for u in range(n):
            if size[agg[u]] != 1:
                continue
            v = int(best[u])
            if v >= 0 and agg[v] != agg[u] and size[agg[v]] < 2 * max_aggregate:
                size[agg[u]] -= 1
                agg[u] = agg[v]
                size[agg[v]] += 1
        keep = np.unique(agg)
        remap = np.full(len(size), -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        agg = remap[agg]
        return agg, keep.size
    return agg, len(size)


def build_hierarchy(L, params: SolverParams | None = None) -> AggregationHierarchy:
    """Build the aggregation hierarchy for an SPS matrix.

    Coarsening stops at ``coarsest_size`` unknowns, at ``max_levels`` or when
    a pass fails to shrink the level (stall), whichever comes first.
    """
    params = params or SolverParams()
    L = sp.csr_array(L, dtype=np.float64)
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected square matrix, got {L.shape}")
    levels = []
    current = L
    for depth in range(params.max_levels):
        n = current.shape[0]
        if n <= params.coarsest_size:
            break
        aff = node_affinity(
            current,
            K=params.affinity_vectors,
            sweeps=params.affinity_sweeps,
            seed=params.seed + depth,
        )
        agg, nc = _aggregate(aff, params.theta, params.max_aggregate)
        if nc >= n:
            break
        P = sp.coo_array((np.ones(n), (np.arange(n), agg)), shape=(n, nc)).tocsr()
        coarse = (P.T @ current @ P).tocsr()
        coarse = ((coarse + coarse.T) * 0.5).tocsr()
        coarse.eliminate_zeros()
        levels.append(_Level(matrix=current, aggregates=agg, prolongation=P))
        current = coarse
    levels.append(_Level(matrix=current, aggregates=None, prolongation=None))

    for lvl in levels[:-1]:
        lvl.smoother = _GaussSeidel(lvl.matrix)
    coarsest = levels[-1].matrix
    nc = coarsest.shape[0]
    if nc == 0:
        coarse_solver = None
    elif nc <= params.max_direct:
        inv = np.linalg.pinv(coarsest.toarray(), hermitian=True)
        coarse_solver = lambda b: inv @ b
    else:
        # Stalled coarsening on a huge level: fall back to an iterative
        # solve, symmetric so the enclosing CG stays well defined.
        gs = _GaussSeidel(coarsest)
        levels[-1].smoother = gs
        coarse_solver = lambda b: gs.backward(gs.forward(np.zeros_like(b), b, 10), b, 10)
    return AggregationHierarchy(
        levels=levels,
        pre_sweeps=params.pre_sweeps,
        post_sweeps=params.post_sweeps,
        coarse_solver=coarse_solver,
    )


def _vcycle(h: AggregationHierarchy, depth, b):
    lvl = h.levels[depth]
    if depth == len(h.levels) - 1:
        return h.coarse_solver(b) if h.coarse_solver is not None else np.zeros_like(b)
    x = lvl.smoother.forward(np.zeros_like(b), b, h.pre_sweeps)
    r = b - lvl.matrix @ x
    x = x + lvl.prolongation @ _vcycle(h, depth + 1, lvl.prolongation.T @ r)
    return lvl.smoother.backward(x, b, h.post_sweeps)


class SpsSolver:
    """Reusable solver for one SPS matrix; build once, solve many right-hand sides."""

    def __init__(self, L, params: SolverParams | None = None, singular="auto"):
        self.params = params or SolverParams()
        L = sp.csr_array(L, dtype=np.float64)
        if L.shape[0] != L.shape[1]:
            raise ValueError(f"expected square matrix, got {L.shape}")
        self.L = L
        self.n = L.shape[0]

        diag = L.diagonal()
        scale = diag.max() if self.n else 0.0
        if singular == "auto":
            ones = np.ones(self.n)
            self.singular = self.n > 0 and (
                scale == 0.0 or np.abs(L @ ones).max() <= 1e-10 * max(scale, 1.0)
            )
        else:
            self.singular = bool(singular)

        self.active = np.nonzero(diag > 0)[0]
        self._eliminations = []  # (u, parent, diag_u, w_uv) in elimination order
        reduced = L[np.ix_(self.active, self.active)].tocsr() if self.active.size else None
        ids = self.active
        if reduced is not None and self.params.eliminate_degree_one:
            reduced, ids = self._peel(reduced, ids)
        self.reduced_ids = ids
        self.reduced = reduced
        self._lu = None
        if reduced is not None and reduced.shape[0] > 0:
            self.hierarchy = build_hierarchy(reduced, self.params)
        else:
            self.hierarchy = None

    def _peel(self, M, ids, max_rounds=10):
        """Exactly eliminate degree-1 nodes (no fill is created)."""
        orig_diag_floor = 1e-12 * max(M.diagonal().max(), 1e-300)
        for _ in range(max_rounds):
            if M.shape[0] <= self.params.coarsest_size:
                break
            C = sp.coo_array(M)
            off = (C.row != C.col) & (C.data != 0)
            offdeg = np.bincount(C.row[off], minlength=M.shape[0])
            diag = M.diagonal()
            leaves = np.nonzero((offdeg == 1) & (diag > orig_diag_floor))[0]
            if leaves.size == 0:
                break
            neighbor = np.full(M.shape[0], -1, dtype=np.int64)
            offw = np.zeros(M.shape[0])
            neighbor[C.row[off]] = C.col[off]
            offw[C.row[off]] = C.data[off]

            gone = np.zeros(M.shape[0], dtype=bool)
            diag_update = np.zeros(M.shape[0])
            for u in leaves:
                v = int(neighbor[u])
                if gone[u] or gone[v]:
                    continue
                w = float(offw[u])
                d = float(diag[u])
                self._eliminations.append((int(ids[u]), int(ids[v]), d, w))
                diag_update[v] -= w * w / d
                gone[u] = True
            if not gone.any():
                break
            keep = np.nonzero(~gone)[0]
            M = M[np.ix_(keep, keep)].tocsr() + sp.diags_array(diag_update[keep]).tocsr()
            M.eliminate_zeros()
            ids = ids[keep]
            # Nodes isolated by the peel (tiny diagonal, no neighbors) drop out.
            C = sp.coo_array(M)
            off = (C.row != C.col) & (C.data != 0)
            offdeg = np.bincount(C.row[off], minlength=M.shape[0])
            floating = (offdeg == 0) & (M.diagonal() <= orig_diag_floor)
            if floating.any():
                keep = np.nonzero(~floating)[0]
                M = M[np.ix_(keep, keep)].tocsr()
                ids = ids[keep]
        return M, ids

    def solve(self, b, tol=None, max_iters=None):
        """Solve L x = b; returns (x, SolveStats).

        Singular systems get b projected onto the zero-mean subspace and the
        solution deflated to 1^T x = 0.  On non-convergence the best iterate
        is returned with ``converged=False``.
        """
        tol = self.params.tol if tol is None else tol
        max_iters = self.params.max_iters if max_iters is None else max_iters
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.n},)")
        if self.singular:
            b = b - b.mean()
        bnorm = np.linalg.norm(b)
        if bnorm == 0:
            return np.zeros(self.n), SolveStats(0, 0.0, True)

        work = b.copy()
        for u, v, d, w in self._eliminations:
            work[v] -= (w / d) * work[u]

        x = np.zeros(self.n)
        iters = 0
        converged = True
        if self.reduced is not None and self.reduced.shape[0] > 0:
            br = work[self.reduced_ids]
            xr, iters, converged = self._solve_reduced(br, tol * bnorm, max_iters)
            x[self.reduced_ids] = xr
        for u, v, d, w in reversed(self._eliminations):
            x[u] = (work[u] - w * x[v]) / d
        if self.singular:
            x = x - x.mean()
        residual = float(np.linalg.norm(b - self.L @ x) / bnorm)
        return x, SolveStats(iters, residual, converged and residual <= tol * (1 + 1e-9))

    def _solve_reduced(self, br, atol, max_iters):
        precond = self._lu_solve if self._lu is not None else self._apply_m
        allow_stall = self._lu is None and self.params.direct_fallback
        x, it, converged, stalled = self._pcg(br, atol, max_iters, precond, allow_stall)
        if not converged and allow_stall and self.reduced.shape[0] > self.params.coarsest_size:
            # From here on the LU preconditions every solve; dropping the
            # V-cycle first lowers the memory peak of the factorization.
            self.hierarchy = None
            self._build_lu()
            x2, it2, converged, _ = self._pcg(br, atol, max_iters, self._lu_solve, False)
            if np.linalg.norm(br - self.reduced @ x2) <= np.linalg.norm(br - self.reduced @ x):
                x = x2
            return x, it + it2, converged
        return x, it, converged

    def _build_lu(self):
        shift = 1e-8 * max(self.reduced.diagonal().max(), 1e-300)
        shifted = (self.reduced + shift * sp.eye_array(self.reduced.shape[0])).tocsc()
        self._lu = spla.splu(sp.csc_matrix(shifted))

    def _lu_solve(self, r):
        return self._lu.solve(r)

    def _pcg(self, b, atol, max_iters, precond, allow_stall):
        A = self.reduced
        deflate = self.singular
        check = self.params.stall_check
        stall_cut = self.params.stall_ratio

        def project(v):
            return v - v.mean() if deflate else v

        b = project(b)
        x = np.zeros_like(b)
        r = b.copy()
        r0 = np.linalg.norm(r)
        best_x, best_r = x, r0
        if r0 <= atol:
            return x, 0, True, False
        z = project(precond(r))
        rz = float(r @ z)
        if rz <= 0:
            z, rz = r.copy(), float(r @ r)
        p = z.copy()
        for it in range(1, max_iters + 1):
            Ap = A @ p
            pAp = float(p @ Ap)
            if pAp <= 0:
                break
            alpha = rz / pAp
            x = x + alpha * p
            r = r - alpha * Ap
            rn = np.linalg.norm(r)
            if rn < best_r:
                best_x, best_r = x, rn
            if rn <= atol:
                return x, it, True, False
            if allow_stall and it == check and best_r > stall_cut * r0:
                return best_x, it, False, True
            z = project(precond(r))
            rz_new = float(r @ z)
            if rz_new <= 0:
                z = r.copy()
                rz_new = float(r @ r)
            p = z + (rz_new / rz) * p
            rz = rz_new
        return best_x, max_iters, False, False

    def _apply_m(self, r):
        if self.hierarchy is None:
            return r.copy()
        return _vcycle(self.hierarchy, 0, r)


def solve_sps(L, b, tol=1e-8, max_iters=400, params: SolverParams | None = None, singular="auto"):
    """One-shot solve of the SPS system L x = b.

    Convenience wrapper over :class:`SpsSolver`; reuse the class directly
    when solving many right-hand sides against one matrix.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if params is None:
        params = SolverParams(tol=tol, max_iters=max_iters)
    solver = SpsSolver(L, params=params, singular=singular)
    return solver.solve(b, tol=tol, max_iters=max_iters)
