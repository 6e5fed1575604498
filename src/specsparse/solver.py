"""Preconditioned conjugate gradient for SPS Laplacian-like systems.

Symmetrized Laplacians L_u = L L^T may carry positive off-diagonals, which
rules out M-matrix-only methods.  ``SpsSolver`` drops the all-zero rows and
runs conjugate gradient on the remaining (active) system, preconditioned by
one operator built once per matrix.  Up to ``DENSE_MAX`` nodes it is the
explicit inverse from a dense Cholesky factor: of the system itself, or, for
a singular system with the all-ones null vector, of the system plus
(d/n) 1 1^T (d its largest diagonal), which acts as the pseudo-inverse on the
zero-mean subspace.  Larger systems, and small ones whose Cholesky factor is
singular to working precision (a null space wider than the all-ones
vector), get one SuperLU factor of the system shifted by ``FACTOR_SHIFT``
(1e-12) of its largest diagonal.  Singular systems with the all-ones null
vector are handled by deflation onto the zero-mean subspace.
The right-hand side may be an n x k block: its columns run through one
column-wise conjugate gradient, one product and one preconditioner call per
step for all columns still running.

Forward Gauss-Seidel sweeps, which the PageRank smoothing and the directed
solve use, prepare the lower triangle once for SuperLU's triangular-solve
kernel ``gstrs`` (the one ``spsolve_triangular`` ends in).  One mask splits
the CSR arrays into the triangle and the strict upper part; the triangle's
CSR arrays are the CSC arrays of its transpose, so only its values are
scaled and no transposed copy is made.  A sweep then costs one sparse
product, one substitution and one diagonal rescale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, lapack
from scipy.sparse.linalg._dsolve import _superlu

__all__ = ["SolverParams", "SolveStats", "SpsSolver"]

# Active systems up to this many nodes are preconditioned by the explicit
# inverse of their dense Cholesky factor, which solves them in one CG step;
# larger ones are factored sparsely.
DENSE_MAX = 200

# Shift of the sparse factor, relative to the largest diagonal.  It keeps the
# factor of a singular system definite; the inverse of a larger shift damps
# the near-null directions that power-iteration right-hand sides are rich in,
# which costs PCG steps.  It is also the least reciprocal condition estimate
# at which a dense Cholesky factor is accepted.
FACTOR_SHIFT = 1e-12


@dataclass
class SolverParams:
    """Stopping rule of the conjugate gradient: relative residual ``tol``
    within ``max_iters`` steps."""

    tol: float = 1e-8
    max_iters: int = 400

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass
class SolveStats:
    iterations: int
    residual: float
    converged: bool


def _coldot(U, V):
    """Dot products of the matching columns of two n x k blocks."""
    return np.einsum("ij,ij->j", U, V)


def _colnorm(U):
    return np.sqrt(_coldot(U, U))


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
    """Forward Gauss-Seidel sweeps on L, prepared at construction for SuperLU.

    L must have a nonzero diagonal; a zero entry on it raises
    ``np.linalg.LinAlgError`` here, before any sweep.  A sweep solves with
    tril(L).  ``spsolve_triangular`` redoes the preparation on every call:
    it transposes the CSR triangle to CSC (solving with ``trans="T"``),
    scales it to unit diagonal, sums duplicates and lays it out as SuperLU
    L/U arrays with C-int indices.  Here one
    ``col <= row`` mask splits the CSR arrays of L into the triangle and the
    strict upper ``rest``, each with duplicates summed as ``tril``/``triu``
    sum them.  The triangle's CSR arrays, read as CSC, are the U arrays of
    its transpose, so they need only the column scaling and a zeroed
    diagonal.  Every sweep through the ``gstrs`` kernel that
    ``spsolve_triangular`` ends in is then bit-identical to a sweep through
    ``spsolve_triangular``.
    """

    def __init__(self, L):
        L = sp.csr_array(L)
        n = L.shape[0]
        lower = L.indices <= np.repeat(np.arange(n), np.diff(L.indptr))
        tri = _masked(L, lower)
        self.rest = _masked(L, ~lower)
        diag = tri.diagonal()
        if np.any(diag == 0):
            raise np.linalg.LinAlgError("Gauss-Seidel triangle is singular: zero entry on diagonal")
        self.invdiag = 1 / diag
        data = tri.data * self.invdiag[tri.indices]
        data[tri.indptr[1:] - 1] = 0  # sorted rows of a triangle end in the diagonal
        lf = sp.eye_array(n, format="csc")
        self.factors = (
            n, lf.nnz, lf.data, _as_intc(lf.indices), _as_intc(lf.indptr),
            n, tri.nnz, data, _as_intc(tri.indices), _as_intc(tri.indptr),
        )

    def run(self, x, b, sweeps):
        for _ in range(sweeps):
            y, info = _superlu.gstrs("T", *self.factors, b - self.rest @ x)
            if info:
                raise np.linalg.LinAlgError("Gauss-Seidel triangle is singular")
            x = y * self.invdiag.reshape(-1, *([1] * (y.ndim - 1)))
        return x


def _masked(L, mask):
    """The entries of the CSR matrix L where ``mask`` holds, in canonical CSR."""
    kept = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=kept[1:])
    part = sp.csr_array((L.data[mask], L.indices[mask], kept[L.indptr]), shape=L.shape)
    part.sum_duplicates()
    return part


def _shifted_factor(A, shift):
    """SuperLU factor of A + shift I, for a symmetric A.

    Minimum degree on A^T + A with diagonal pivots (``SymmetricMode``,
    ``diag_pivot_thresh=0``) keeps the ordering symmetric; on symmetrized
    Laplacians it fills far less than scipy's default COLAMD ordering.
    """
    n = A.shape[0]
    return spla.splu(
        (A + shift * sp.eye_array(n, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _cholesky_inverse(A, singular):
    """Explicit inverse of the dense SPS matrix A, deflated when ``singular``,
    or None when its Cholesky factor is not definite enough.

    A singular A with A 1 = 0 is factored as B = A + (d/n) 1 1^T, d its
    largest diagonal: when null(A) is span(1), B^-1 r = A^+ r for every
    zero-mean r.  The factor is accepted when LAPACK's reciprocal condition
    estimate (``dpocon``) is at least ``FACTOR_SHIFT``.  That rejects a B
    that is singular because null(A) is wider than span(1) (several sink
    components).  Over 1500 random graphs of 3 to 199 nodes, such a B either
    failed to factor or had an estimate of at most 1.7e-17, and a definite
    one had at least 1.2e-10.  The smallest pivot is no such test: its square
    reached 2.8e-12 of the largest diagonal on a singular B, above
    ``FACTOR_SHIFT``.
    """
    n = A.shape[0]
    if n == 0:
        return A  # LAPACK refuses an empty matrix
    if singular:
        A += A.diagonal().max() / n
    anorm = np.abs(A).sum(axis=0).max()
    try:
        factor = cho_factor(A, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    rcond, info = lapack.dpocon(factor[0], anorm)
    if info or not rcond >= FACTOR_SHIFT:
        return None
    return cho_solve(factor, np.eye(n), overwrite_b=True, check_finite=False)


def build_hierarchy(L, singular):
    """Preconditioner for the square CSR SPS matrix L, as a function r -> M r.

    Up to ``DENSE_MAX`` nodes M is the inverse from a dense Cholesky factor
    of L, or of L + (d/n) 1 1^T when ``singular`` (L 1 = 0), which equals
    the pseudo-inverse of L on zero-mean vectors.  Larger L, and small ones
    whose factor is rejected as singular, get one shifted sparse factor,
    M = (L + FACTOR_SHIFT max(diag L) I)^-1, which keeps M positive definite
    when L is singular.  M applies to vectors and to n x k blocks alike.

    The name predates this design: the benchmark's tracer
    (``perfbench/tracer.py``) wraps ``specsparse.solver.build_hierarchy`` as
    its span ``solver.hierarchy``, so the name stays until the benchmark
    renames that span.
    """
    if L.shape[0] <= DENSE_MAX:
        inv = _cholesky_inverse(L.toarray(), singular)
        if inv is not None:
            return lambda r: inv @ r
    return _shifted_factor(L, FACTOR_SHIFT * max(L.diagonal().max(), 1e-300)).solve


class SpsSolver:
    """Reusable solver for one SPS matrix; build once, solve many right-hand sides.

    The preconditioner is built here, once, by ``build_hierarchy`` on the
    active system.  It is called through the module global so that the
    benchmark's tracer, which wraps that global by name, sees every build.
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
        self.reduced = L if self.active.size == self.n else L[np.ix_(self.active, self.active)].tocsr()
        self._precond = build_hierarchy(self.reduced, self.singular)

    def solve(self, b):
        """Solve L x = b for a vector b or an n x k block b; returns (x, SolveStats).

        The stopping rule is the solver's ``SolverParams``, for every call.
        A block x is a new array that owns its data.
        A block is solved column by column: each column has its own step
        sizes, stopping test and best iterate, but every step makes one
        product with L and one preconditioner call for all the columns still
        running, and a column leaves the block when it stops.  Singular
        systems get b projected onto the zero-mean subspace and the solution
        deflated to 1^T x = 0.  A column that does not converge returns its
        best iterate.  The stats cover the whole block: ``iterations`` is the
        number of block steps, ``residual`` the largest relative residual of
        a column and ``converged`` true only if every column converged.
        """
        tol = self.params.tol
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.n},) or ({self.n}, k)")
        B = b if b.ndim == 2 else b[:, None]
        mean = B.mean(axis=0) if self.singular else np.zeros(B.shape[1])
        bnorm = _colnorm(B - mean)

        Xa, steps, converged = self._pcg(B[self.active] - mean, tol * bnorm, self.params.max_iters)
        X = np.zeros(B.shape)
        X[self.active] = Xa
        if self.singular:
            X -= X.mean(axis=0)
        # The residual b - mean - L x, negated and formed in place.
        T = self.L @ X
        T -= B
        T += mean
        residual = np.divide(_colnorm(T), bnorm, out=np.zeros_like(bnorm), where=bnorm > 0)
        converged &= residual <= tol * (1 + 1e-9)
        stats = SolveStats(steps, float(residual.max(initial=0.0)), bool(converged.all()))
        return (X if b.ndim == 2 else X[:, 0]), stats

    def _pcg(self, R, atol, max_iters):
        """Column-wise PCG on the active system from x = 0.

        R holds one right-hand side per column and becomes the residual
        block.  Returns (X, block steps, converged per column).  A column is
        done when its residual reaches its ``atol``; it stops without
        converging when its curvature p^T A p is not positive or after
        ``max_iters`` steps, and then returns its best iterate.
        """
        A = self.reduced
        precond = self._precond
        deflate = self.singular and A.shape[0] > 0  # an empty block has no mean

        if deflate:
            R -= R.mean(axis=0)
        X = np.zeros(R.shape, order="F")
        converged = np.zeros(R.shape[1], dtype=bool)
        run = np.arange(R.shape[1])  # the columns still in the block
        Xr = np.zeros_like(R)
        Xbest = np.zeros_like(R)  # each column's iterate of least residual
        P = np.zeros_like(R)  # with rz = 1, the first direction is z itself
        rz = np.ones(run.size)
        rn = _colnorm(R)
        best_r = rn.copy()
        curved = np.ones(run.size, dtype=bool)
        steps = 0
        while run.size:
            done = rn <= atol
            stop = done | ~curved | (steps == max_iters)
            if stop.any():
                X[:, run[stop]] = Xbest[:, stop]
                converged[run[done]] = True
                keep = ~stop
                run = run[keep]
                if not run.size:
                    break
                Xr, Xbest, R, P = Xr[:, keep], Xbest[:, keep], R[:, keep], P[:, keep]
                atol, rz, rn, best_r = atol[keep], rz[keep], rn[keep], best_r[keep]

            Z = precond(R)
            if deflate:
                Z -= Z.mean(axis=0)
            rz_new = _coldot(R, Z)
            flat = rz_new <= 0  # no descent through the preconditioner: use r itself
            if flat.any():
                Z[:, flat] = R[:, flat]
                rz_new[flat] = _coldot(R[:, flat], R[:, flat])
            P *= rz_new / rz
            P += Z
            del Z
            rz = rz_new

            AP = A @ P
            pAp = _coldot(P, AP)
            curved = pAp > 0
            alpha = np.divide(rz, pAp, out=np.zeros_like(rz), where=curved)
            AP *= alpha
            R -= AP
            rn = _colnorm(R)
            np.multiply(P, alpha, out=AP)
            Xr += AP
            del AP
            improved = curved & (rn < best_r)
            Xbest[:, improved] = Xr[:, improved]
            best_r = np.where(improved, rn, best_r)
            steps += 1
        return X, steps, converged
