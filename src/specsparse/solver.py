"""Solves with symmetrized Laplacians L_u = L L^T: through a factor of L, or of L_u.

``GroundedSolver`` is the route of the sparsification loop.  It never forms
L_u: for any matrix (L L^T)^+ = (L^T)^+ L^+, so one LU factor of the
directed Laplacian L, grounded at one node per sink strongly connected
component, gives the pseudo-inverse solve as two solves with that factor and
its transpose, between projections onto the complements of L's two null
spaces.  Its condition number is that of L, not of L_u, and any number of
sink components is handled.

``SpsSolver`` solves a given SPS matrix.  Symmetrized Laplacians may carry
positive off-diagonals, which rules out M-matrix-only methods.  It drops the
all-zero rows and solves the remaining (active) system by scipy's conjugate
gradient (``cg``), one column of the right-hand side at a time,
preconditioned by one SuperLU factor of the system shifted by
``FACTOR_SHIFT`` (1e-12) of its largest diagonal, built once per matrix.
Singular systems with the all-ones null vector are handled by deflation onto
the zero-mean subspace.  Each column returns its iterate of least true
residual, which costs one more product with the system per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse import csgraph

from .graphs import _sink_flags

__all__ = ["SolverParams", "SolveStats", "SpsSolver", "GroundedSolver"]

# ``GroundedSolver`` factors systems up to this many nodes densely by LAPACK,
# larger ones by SuperLU.
DENSE_MAX = 200

# Shift of the sparse factor, relative to the largest diagonal.  It keeps the
# factor of a singular system definite; the inverse of a larger shift damps
# the near-null directions that power-iteration right-hand sides are rich in,
# which costs PCG steps.
FACTOR_SHIFT = 1e-12


@dataclass
class SolverParams:
    """Stopping rule of an iterative solve: relative residual ``tol`` within
    ``max_iters`` steps.  ``SpsSolver``'s conjugate gradient and
    ``directed_solve``'s BiCGSTAB stop by it, and ``pagerank`` checks its
    own ``tol`` and ``max_iters`` through it."""

    tol: float = 1e-8
    max_iters: int = 400

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class SolveStats:
    iterations: int
    residual: float
    converged: bool


def _checked_rhs(b, n):
    """b as a float64 array; ValueError unless it is an n-vector or an n x k
    block of finite entries."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},) or ({n}, k)")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    return b


def _symmetric_splu(A):
    """SuperLU factor of the square sparse A, in a minimum-degree ordering on
    A^T + A with diagonal pivots (``SymmetricMode``, ``diag_pivot_thresh=0``).

    The ordering stays symmetric; on symmetrized and grounded Laplacians it
    fills far less than scipy's default COLAMD ordering.
    """
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _shifted_factor(A, shift):
    """``_symmetric_splu`` factor of A + shift I, for a symmetric A."""
    return _symmetric_splu(A + shift * sp.eye_array(A.shape[0], format="csr"))


def build_hierarchy(L):
    """Factor of the square CSR SPS matrix L, as a function r -> M r.

    M = (L + FACTOR_SHIFT max(diag L) I)^-1, from one shifted sparse factor,
    which keeps M positive definite when L is singular and preconditions
    PCG.  An empty L gets the identity.  M applies to vectors and to n x k
    blocks alike.

    The name predates this design: the benchmark's tracer
    (``perfbench/tracer.py``) wraps ``specsparse.solver.build_hierarchy`` as
    its span ``solver.hierarchy``, so the name stays until the benchmark
    renames that span.  Only ``SpsSolver`` builds through it; the
    sparsification loop solves through ``GroundedSolver``, so that span
    reads 0 for ``sparsify``.
    """
    if L.shape[0] == 0:
        return np.copy  # an empty diagonal has no largest entry
    return _shifted_factor(L, FACTOR_SHIFT * max(L.diagonal().max(), 1e-300)).solve


class SpsSolver:
    """Reusable solver for one SPS matrix; build once, solve many right-hand sides.

    The factor is built here, once, by ``build_hierarchy`` on the active
    system.  It is called through the module global so that the benchmark's
    tracer, which wraps that global by name, sees every build.
    """

    def __init__(self, L, params: SolverParams | None = None):
        self.params = params or SolverParams()
        L = sp.csr_array(L, dtype=np.float64)
        if L.shape[0] != L.shape[1]:
            raise ValueError(f"expected square matrix, got {L.shape}")
        self.L = L
        self.n = L.shape[0]

        diag = L.diagonal()
        scale = diag.max() if self.n else 0.0
        self.singular = self.n > 0 and (
            scale == 0.0 or np.abs(L @ np.ones(self.n)).max() <= 1e-10 * max(scale, 1.0)
        )

        self.active = np.nonzero(diag > 0)[0]
        # Usually every node is active, and the reduced system is L itself.
        self.partial = self.active.size < self.n
        self.reduced = L[np.ix_(self.active, self.active)].tocsr() if self.partial else L
        self._precond = build_hierarchy(self.reduced)

    def solve(self, b):
        """Solve L x = b for a vector b or an n x k block b; returns (x, SolveStats).

        The stopping rule is the solver's ``SolverParams``, for every call.
        A block x is a new array that owns its data.  Singular systems get b
        projected onto the zero-mean subspace and the solution deflated to
        1^T x = 0.

        Each column is solved on its own by scipy's ``cg``.  After every step
        the deflated iterate's true residual is measured, one more product
        with L per step, and a column returns its iterate of least true
        residual, x = 0 included.  The stats cover the whole block:
        ``iterations`` is the most steps of any column (a zero right-hand
        side takes none), ``residual`` the largest relative residual of a
        column and ``converged`` true only if every column converged.  A b
        that is not finite raises ValueError.
        """
        params = self.params
        b = _checked_rhs(b, self.n)
        B = b if b.ndim == 2 else b[:, None]
        mean = B.mean(axis=0) if self.singular else np.zeros(B.shape[1])
        C = B - mean  # the right-hand side solved for
        bnorm = np.linalg.norm(C, axis=0)
        X = np.zeros(C.shape)
        X[self.active], steps, converged = self._pcg(C[self.active], params.tol * bnorm, params.max_iters)
        residual = self._residual(X, B, mean, bnorm)
        converged &= residual <= params.tol * (1 + 1e-9)
        stats = SolveStats(steps, float(residual.max(initial=0.0)), bool(converged.all()))
        return (X if b.ndim == 2 else X[:, 0]), stats

    def _residual(self, X, B, mean, bnorm):
        """Each column's relative residual ||b - mean - L x|| / ||b - mean||
        (0 where the denominator is)."""
        # The residual, negated and formed in place.
        T = self.L @ X
        T -= B
        T += mean
        return np.divide(np.linalg.norm(T, axis=0), bnorm, out=np.zeros_like(bnorm), where=bnorm > 0)

    def _pcg(self, R, atol, max_iters):
        """scipy's ``cg`` on the active system from x = 0, for each column of R.

        Returns (X, the most steps of any column, converged per column).  A
        column runs until cg's recurrence residual falls below its ``atol``
        or for ``max_iters`` steps, and returns the deflated iterate of least
        true residual, x = 0 included; it has converged when that residual
        is at most its ``atol``.
        """
        A = self.reduced
        n = A.shape[0]
        deflate = self.singular and n > 0  # an empty vector has no mean

        def deflated(v):
            """v projected onto the zero-mean subspace of a singular system,
            as a new array."""
            return v - v.mean() if deflate else v.copy()

        M = spla.LinearOperator((n, n), matvec=lambda r: deflated(self._precond(r)), dtype=np.float64)
        X = np.zeros(R.shape)
        best = np.zeros(R.shape[1])  # each column's least true residual
        steps = 0
        for k in range(R.shape[1]):
            r = deflated(R[:, k])
            best[k] = np.linalg.norm(r)
            taken = 0

            def track(x):
                nonlocal taken
                taken += 1
                x = deflated(x)
                res = np.linalg.norm(r - A @ x)
                if res < best[k]:
                    best[k] = res
                    X[:, k] = x

            spla.cg(A, r, rtol=0.0, atol=atol[k], maxiter=max_iters, M=M, callback=track)
            steps = max(steps, taken)
        return X, steps, best <= atol


class _DenseLU:
    """Solves with the dense LAPACK LU factor (``dgetrf``) of a small matrix,
    through the interface of SuperLU's ``solve``."""

    __slots__ = ("lu", "piv")

    def __init__(self, lu, piv):
        self.lu, self.piv = lu, piv

    def solve(self, b, trans="N"):
        return lapack.dgetrs(self.lu, self.piv, b, trans=int(trans == "T"))[0]


class GroundedSolver:
    """Pseudo-inverse solves with L_u = L L^T through one LU factor of L.

    L is a directed Laplacian D - A^T: its columns sum to zero and its
    off-diagonals are not positive, so it is column diagonally dominant.
    One node per sink strongly connected component of its graph, found from
    L's pattern, is grounded: the component's lowest-numbered node.  The
    factor is of L with the ground rows and columns replaced by those of the
    identity, which keeps a right-hand side's ground entries and solves the
    minor M of the other nodes.  Every other node reaches a ground node, so
    M is nonsingular and, being column diagonally dominant, needs no
    pivoting.  Up to ``DENSE_MAX`` nodes the factor is dense LAPACK
    ``dgetrf``; above that SuperLU's, in a minimum-degree ordering on
    A^T + A with diagonal pivots and no shift.

    With c sink components, null(L) is spanned by the c stationary vectors,
    each supported on its sink, and null(L^T) = null(L_u) by the c
    absorption-probability vectors, or by the all-ones vector when c = 1.
    The first come from one solve of c columns, the others, when c > 1, from
    one transposed solve; both are kept as dense n x c bases with
    orthonormal columns.  An L without edges grounds every node and is 0,
    as is its pseudo-inverse; it gets no factor.
    """

    def __init__(self, L):
        L = sp.csr_array(L, dtype=np.float64)
        if L.shape[0] != L.shape[1]:
            raise ValueError(f"expected square matrix, got {L.shape}")
        self.L = L
        self.n = n = L.shape[0]
        ncomp, labels = csgraph.connected_components(L, directed=True, connection="strong")
        # Entry (i, j, v) of L; off the diagonal it is the edge j -> i.
        i, j, v = np.repeat(np.arange(n), np.diff(L.indptr)), L.indices, L.data
        sink = _sink_flags(ncomp, labels, j, i)
        self.ground = ground = np.sort(np.unique(labels, return_index=True)[1][sink])
        self._factor = None
        if ground.size == n:
            return
        c = ground.size
        grounded = np.zeros(n, dtype=bool)
        grounded[ground] = True
        gi, gj = grounded[i], grounded[j]

        keep = ~(gi | gj)
        rows, cols = np.concatenate([i[keep], ground]), np.concatenate([j[keep], ground])
        vals = np.concatenate([v[keep], np.ones(c)])
        if n <= DENSE_MAX:
            A = np.zeros((n, n), order="F")
            A[rows, cols] = vals
            lu, piv, info = lapack.dgetrf(A, overwrite_a=1)
            if info:
                raise RuntimeError("grounded Laplacian minor is singular")
            self._factor = _DenseLU(lu, piv)
        else:
            self._factor = _symmetric_splu(sp.csc_array((vals, (rows, cols)), shape=(n, n)))

        def ground_block(cut, node, ground_node):
            """n x c block with 1 at (g_k, k) for the k-th ground node g_k,
            and -v at (node, k) for each entry of ``cut`` whose ground_node
            is g_k."""
            B = np.zeros((n, c))
            B[ground, np.arange(c)] = 1.0
            B[node[cut], np.searchsorted(ground, ground_node[cut])] = -v[cut]
            return B

        # Stationary vectors: L pi = 0 with pi = 1 on its own ground node and
        # 0 on the others, so the other rows solve M pi = -L[:, g].  pi is 0
        # off its sink (no edge leaves a sink), so the normalized vectors are
        # orthonormal.
        right = self._factor.solve(ground_block(gj & ~gi, i, j))
        self._right = right / np.linalg.norm(right, axis=0)
        # Absorption probabilities: L^T z = 0 with z = 1 on its own ground
        # node and 0 on the others, so M^T z = -L[g, :]^T.  None stands for
        # the all-ones vector.
        self._left = None
        if c > 1:
            left = self._factor.solve(ground_block(gi & ~gj, j, i), trans="T")
            self._left = np.linalg.qr(left)[0]

    def solve(self, b):
        """x = L_u^+ b for a vector b or an n x k block b; returns (x, SolveStats).

        b is projected onto null(L^T)^perp, solved with M (ground entries
        0), projected onto null(L)^perp, solved with M^T, and projected onto
        null(L^T)^perp again.  x is a new array.  The route is direct and
        measures no residual: the stats read one iteration, residual nan and
        converged true.  A b that is not finite raises ValueError.
        """
        b = _checked_rhs(b, self.n)
        B = b if b.ndim == 2 else b[:, None]
        if self._factor is None or not B.shape[1]:
            X = np.zeros(B.shape)
        else:
            Y = self._off_left(B)
            Y[self.ground] = 0.0
            Y = self._factor.solve(Y)
            Y -= self._right @ (self._right.T @ Y)
            Y[self.ground] = 0.0
            X = self._off_left(self._factor.solve(Y, trans="T"))
        return (X if b.ndim == 2 else X[:, 0]), SolveStats(1, float("nan"), True)

    def _off_left(self, M):
        """M projected onto null(L^T)^perp, as a new array."""
        if self._left is None:
            return M - M.mean(axis=0)
        return M - self._left @ (self._left.T @ M)
