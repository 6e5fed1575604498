"""Pseudo-inverse solves with symmetrized Laplacians L_u = L L^T through one LU factor of L.

``GroundedSolver`` never forms L_u: for any matrix (L L^T)^+ = (L^T)^+ L^+,
so one LU factor of the directed Laplacian L, grounded at one node per sink
strongly connected component, gives the pseudo-inverse solve as two solves
with that factor and its transpose, between projections onto the
complements of L's two null spaces.  Its condition number is that of L, not
of L_u, and any number of sink components is handled.  The sparsification
loop solves through it, and so does ``apps``' eigensolve of L_u above
``DENSE_MAX`` nodes, unless L_u is dense and null(L_u) one-dimensional.
``build_hierarchy`` makes its one factor: dense LAPACK up to ``DENSE_MAX``
nodes, SuperLU above.

``SpsSolver`` is another name of ``GroundedSolver``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .graphs import _sink_grounds

__all__ = ["SolverParams", "SolveStats", "SpsSolver", "GroundedSolver"]

# Up to this many nodes ``build_hierarchy`` factors densely by LAPACK and
# ``apps._low_eigenpairs`` eigensolves L_u densely by ``eigh``; larger systems
# take SuperLU and ARPACK.  Crossovers measured for both (one BLAS thread,
# 2-vCPU VM): the LU of seed subgraphs, built and applied to 11 blocks of 16
# columns, took 1.22 ms dense against 1.30 ms by SuperLU at 100 nodes, 2.1
# against 1.5 ms at 150 and 3.1 against 2.0 ms at 200, yet the bundled
# 115-node sparsifications ran 10-12 % slower with no dense factor, so the
# threshold stays at or above 115.  Partitioning a sparsifier took 5.0 ms
# dense against 6.1 ms by the grounded route at 150 nodes and 6.4 against
# 5.3 ms at 200; a graph with dense L_u and one sink component, 22 ms dense
# against 33 ms by plain Lanczos at 400 nodes and 0.11 against 0.04-0.05 s at
# 800.
DENSE_MAX = 200


@dataclass
class SolverParams:
    """Stopping rule of an iterative solve: relative residual ``tol`` within
    ``max_iters`` steps.  ``directed_solve``'s BiCGSTAB stops by it, and
    ``pagerank`` checks its own ``tol`` and ``max_iters`` through it."""

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


class _DenseLU:
    """Solves with the dense LAPACK LU factor (``dgetrf``) of a small matrix,
    through the interface of SuperLU's ``solve``."""

    __slots__ = ("lu", "piv")

    def __init__(self, lu, piv):
        self.lu, self.piv = lu, piv

    def solve(self, b, trans="N"):
        return lapack.dgetrs(self.lu, self.piv, b, trans=int(trans == "T"))[0]


def build_hierarchy(n, rows, cols, vals):
    """LU factor of the n x n matrix A with the entries ``vals`` at
    (``rows``, ``cols``), whose ``solve(b, trans="N")`` solves with A, or
    with A^T for ``trans="T"``.

    Up to ``DENSE_MAX`` nodes the factor is dense LAPACK ``dgetrf``; above
    that SuperLU's, in a minimum-degree ordering on A^T + A with diagonal
    pivots (``SymmetricMode``, ``diag_pivot_thresh=0``), which on grounded
    Laplacians fills far less than scipy's default COLAMD ordering.  A
    singular A raises RuntimeError.
    """
    # The name is the benchmark tracer's: perfbench/tracer.py wraps
    # ``specsparse.solver.build_hierarchy`` as its span ``solver.hierarchy``,
    # so it stays until the benchmark renames its ``solver.*`` spans.
    if n <= DENSE_MAX:
        A = np.zeros((n, n), order="F")
        A[rows, cols] = vals
        lu, piv, info = lapack.dgetrf(A, overwrite_a=1)
        if info:
            raise RuntimeError("grounded Laplacian minor is singular")
        return _DenseLU(lu, piv)
    A = sp.csc_array((vals, (rows, cols)), shape=(n, n))
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


class GroundedSolver:
    """Pseudo-inverse solves with L_u = L L^T through one LU factor of L.

    L is a directed Laplacian D - A^T: its columns sum to zero and its
    off-diagonals are not positive, so it is column diagonally dominant.
    One node per sink strongly connected component of its graph, found from
    L's pattern by ``graphs._sink_grounds``, is grounded: the component's
    lowest-numbered node.  The factor is of L with the ground rows and
    columns replaced by those of the identity, which keeps a right-hand
    side's ground entries and solves the minor M of the other nodes.  Every
    other node reaches a ground node, so M is nonsingular and, being column
    diagonally dominant, needs no pivoting.  The factor is
    ``build_hierarchy``'s.  An L with a positive off-diagonal entry is not a
    directed Laplacian and raises ValueError.

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
        # Entry (i, j, v) of L; off the diagonal it is the edge j -> i.
        i, j, v = np.repeat(np.arange(n), np.diff(L.indptr)), L.indices, L.data
        if (v[i != j] > 0).any():
            raise ValueError("L has a positive off-diagonal entry, so it is not a directed Laplacian D - A^T")
        self.ground = ground = _sink_grounds(L)
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
        self._factor = build_hierarchy(n, rows, cols, vals)

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

    def null_space(self):
        """Orthonormal n x c basis of null(L_u) = null(L^T): the all-ones
        vector over sqrt(n) when c = 1, the identity for an L without edges."""
        if self._factor is None:
            return np.eye(self.n)
        if self._left is None:
            return np.full((self.n, 1), 1.0 / np.sqrt(self.n))
        return self._left

    def _off_left(self, M):
        """M projected onto null(L^T)^perp, as a new array."""
        if self._left is None:
            return M - M.mean(axis=0)
        return M - self._left @ (self._left.T @ M)


# Another name of the one solver, under which the benchmark's tracer wraps
# its ``__init__`` and ``solve`` until it renames its ``solver.*`` spans.
SpsSolver = GroundedSolver
