"""Direct and preconditioned conjugate gradient solves of SPS Laplacian-like systems.

Symmetrized Laplacians L_u = L L^T may carry positive off-diagonals, which
rules out M-matrix-only methods.  ``SpsSolver`` drops the all-zero rows and
solves the remaining (active) system with one factor built once per matrix.
Up to ``DENSE_MAX`` nodes it is a dense Cholesky factor: of the system
itself, or, for a singular system with the all-ones null vector, of the
system plus (d/n) 1 1^T (d its largest diagonal), which solves like the
pseudo-inverse on the zero-mean subspace.  That factor solves the system
directly; only columns whose residual misses the tolerance go on into
conjugate gradient, preconditioned by the same factor.  Larger systems, and
small ones whose Cholesky factor is singular to working precision (a null
space wider than the all-ones vector), run preconditioned conjugate gradient
with one SuperLU factor of the system shifted by ``FACTOR_SHIFT`` (1e-12) of
its largest diagonal.  Singular systems with the all-ones null vector are
handled by deflation onto the zero-mean subspace.
The right-hand side may be an n x k block: its columns run through one
column-wise conjugate gradient, one product and one preconditioner call per
step for all columns still running.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

__all__ = ["SolverParams", "SolveStats", "SpsSolver"]

# Active systems up to this many nodes are solved directly by their dense
# Cholesky factor; larger ones are factored sparsely and solved by PCG.
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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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


class _Cholesky:
    """Solves with the dense upper Cholesky factor ``c`` of a small system.

    Called on a vector or an n x k block r, it returns A^-1 r by two
    triangular solves (LAPACK ``dpotrs``), as a new array.  ``SpsSolver``
    solves with it directly, and it preconditions PCG for the columns that
    the direct solve leaves above the tolerance.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __call__(self, r):
        return lapack.dpotrs(self.c, r)[0]


def _cholesky(A, singular):
    """``_Cholesky`` of the dense SPS matrix A, deflated when ``singular``,
    or None when its factor is not definite enough.  A is overwritten.

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
    if singular:
        A += A.diagonal().max() / A.shape[0]
    anorm = np.abs(A).sum(axis=0).max()
    c, info = lapack.dpotrf(A, clean=0, overwrite_a=1)
    if info:
        return None
    rcond, info = lapack.dpocon(c, anorm)
    if info or not rcond >= FACTOR_SHIFT:
        return None
    return _Cholesky(c)


def build_hierarchy(L, singular):
    """Factor of the square CSR SPS matrix L, as a function r -> M r.

    Up to ``DENSE_MAX`` nodes it is a ``_Cholesky``, the dense Cholesky
    factor of L, or of L + (d/n) 1 1^T when ``singular`` (L 1 = 0): M is
    then L^-1, or the pseudo-inverse of L on zero-mean vectors, and
    ``SpsSolver`` solves with it directly.  Larger L, and small ones whose
    factor is rejected as singular, get one shifted sparse factor,
    M = (L + FACTOR_SHIFT max(diag L) I)^-1, which keeps M positive definite
    when L is singular and preconditions PCG.  An empty L gets the identity.
    M applies to vectors and to n x k blocks alike.

    The name predates this design: the benchmark's tracer
    (``perfbench/tracer.py``) wraps ``specsparse.solver.build_hierarchy`` as
    its span ``solver.hierarchy``, so the name stays until the benchmark
    renames that span.
    """
    n = L.shape[0]
    if n == 0:
        return np.copy  # LAPACK refuses an empty matrix
    if n <= DENSE_MAX:
        factor = _cholesky(L.toarray(), singular)
        if factor is not None:
            return factor
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
        self._precond = build_hierarchy(self.reduced, self.singular)

    def solve(self, b):
        """Solve L x = b for a vector b or an n x k block b; returns (x, SolveStats).

        The stopping rule is the solver's ``SolverParams``, for every call.
        A block x is a new array that owns its data.  Singular systems get b
        projected onto the zero-mean subspace and the solution deflated to
        1^T x = 0.

        With a dense Cholesky factor the block is solved directly, which is
        the one step that PCG makes with that factor as preconditioner; a
        column whose residual misses the tolerance then runs PCG, with the
        same factor, on its residual.  Otherwise the block is solved column
        by column by PCG: each column has its own step sizes, stopping test
        and best iterate, but every step makes one product with L and one
        preconditioner call for all the columns still running, and a column
        leaves the block when it stops.  A column that does not converge
        returns its best iterate.  The stats cover the whole block:
        ``iterations`` is the number of block steps (the direct solve counts
        as one, a zero right-hand side takes none), ``residual`` the largest
        relative residual of a column and ``converged`` true only if every
        column converged.  A b that is not finite raises ValueError.
        """
        params = self.params
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.n},) or ({self.n}, k)")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite")
        B = b if b.ndim == 2 else b[:, None]
        mean = B.mean(axis=0) if self.singular else np.zeros(B.shape[1])
        C = B - mean  # the right-hand side solved for
        bnorm = _colnorm(C)
        tol = params.tol * (1 + 1e-9)
        if isinstance(self._precond, _Cholesky) and bnorm.any():
            # Deflating the solution is enough: the factor maps the all-ones
            # vector to a multiple of itself.
            X = self._spread(self._deflated(self._precond(self._rows(C))))
            steps, converged = 1, np.ones(B.shape[1], dtype=bool)
            residual = self._residual(X, B, mean, bnorm)
            run = residual > tol
            if run.any() and params.max_iters > 1:
                R = C[:, run] - self.L @ X[:, run]
                D, more, converged[run] = self._correction(R, params.tol * bnorm[run], params.max_iters - 1)
                X[:, run] += D
                steps += more
                residual = self._residual(X, B, mean, bnorm)
        else:
            X, steps, converged = self._correction(C, params.tol * bnorm, params.max_iters)
            residual = self._residual(X, B, mean, bnorm)
        converged &= residual <= tol
        stats = SolveStats(steps, float(residual.max(initial=0.0)), bool(converged.all()))
        return (X if b.ndim == 2 else X[:, 0]), stats

    def _rows(self, M):
        """The active rows of the n x k block M: M itself when every node is active."""
        return M[self.active] if self.partial else M

    def _spread(self, Xa):
        """The n x k block with the active rows Xa and zeros elsewhere."""
        if not self.partial:
            return Xa
        X = np.zeros((self.n, Xa.shape[1]))
        X[self.active] = Xa
        return X

    def _deflated(self, M):
        """M projected in place onto zero-mean columns, for a singular system."""
        if self.singular and M.shape[0]:  # an empty block has no mean
            M -= M.mean(axis=0)
        return M

    def _correction(self, R, atol, max_iters):
        """PCG on the residual block R, which it may overwrite: returns the
        deflated n x k correction to x, the block steps and the columns that
        converged."""
        Xa, steps, converged = self._pcg(self._rows(R), atol, max_iters)
        # Deflated as a C-ordered block: the column means of PCG's
        # Fortran-ordered iterate would sum in another order.
        return self._deflated(np.ascontiguousarray(self._spread(Xa))), steps, converged

    def _residual(self, X, B, mean, bnorm):
        """Each column's relative residual ||b - mean - L x|| / ||b - mean||
        (0 where the denominator is)."""
        # The residual, negated and formed in place.
        T = self.L @ X
        T -= B
        T += mean
        return np.divide(_colnorm(T), bnorm, out=np.zeros_like(bnorm), where=bnorm > 0)

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
