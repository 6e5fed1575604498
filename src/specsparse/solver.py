"""Preconditioned conjugate gradient for SPS Laplacian-like systems.

Symmetrized Laplacians L_u = L L^T may carry positive off-diagonals, which
rules out M-matrix-only methods.  ``SpsSolver`` drops the all-zero rows and
runs conjugate gradient on the remaining (active) system, preconditioned by
one operator built once per matrix: the dense pseudo-inverse up to
``DENSE_MAX`` nodes, otherwise one SuperLU factor of the system shifted by
1e-8 of its largest diagonal.  Singular systems with the all-ones null
vector are handled by deflation onto the zero-mean subspace.

Gauss-Seidel sweeps, which the PageRank smoothing uses, prepare each
triangle once for SuperLU's triangular-solve kernel ``gstrs`` (the one
``spsolve_triangular`` ends in), so a sweep costs one sparse product, one
substitution and one diagonal rescale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

__all__ = [
    "SolverParams",
    "SolveStats",
    "SpsSolver",
    "gauss_seidel",
    "solve_sps",
]

# Active systems up to this many nodes are preconditioned by their dense
# pseudo-inverse, which solves them in one CG step; larger ones are factored.
DENSE_MAX = 200


@dataclass
class SolverParams:
    """Stopping rule of the conjugate gradient: relative residual ``tol``
    within ``max_iters`` steps."""

    tol: float = 1e-8
    max_iters: int = 400


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


def build_hierarchy(L):
    """Preconditioner for the square CSR SPS matrix L, as a function r -> M r.

    Up to ``DENSE_MAX`` nodes M is the pseudo-inverse of L.  Larger L get one
    shifted factor, M = (L + 1e-8 max(diag L) I)^-1, which keeps M positive
    definite when L is singular.

    The name predates this design: the benchmark's tracer
    (``perfbench/tracer.py``) wraps ``specsparse.solver.build_hierarchy`` as
    its span ``solver.hierarchy``, so the name stays until the benchmark
    renames that span.
    """
    if L.shape[0] <= DENSE_MAX:
        inv = np.linalg.pinv(L.toarray(), hermitian=True)
        return lambda r: inv @ r
    return _shifted_factor(L, 1e-8 * max(L.diagonal().max(), 1e-300)).solve


class SpsSolver:
    """Reusable solver for one SPS matrix; build once, solve many right-hand sides.

    The preconditioner is built here, once, by ``build_hierarchy`` on the
    active system.  It is called through the module global so that the
    benchmark's tracer, which wraps that global by name, sees every build.
    """

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
        self.reduced = L[np.ix_(self.active, self.active)].tocsr()
        self._precond = build_hierarchy(self.reduced)

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

        x = np.zeros(self.n)
        x[self.active], iters, converged = self._pcg(b[self.active], tol * bnorm, max_iters)
        if self.singular:
            x = x - x.mean()
        residual = float(np.linalg.norm(b - self.L @ x) / bnorm)
        return x, SolveStats(iters, residual, converged and residual <= tol * (1 + 1e-9))

    def _pcg(self, b, atol, max_iters):
        A = self.reduced
        precond = self._precond
        deflate = self.singular

        def project(v):
            return v - v.mean() if deflate else v

        b = project(b)
        x = np.zeros_like(b)
        r = b.copy()
        r0 = np.linalg.norm(r)
        best_x, best_r = x, r0
        if r0 <= atol:
            return x, 0, True
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
                return x, it, True
            z = project(precond(r))
            rz_new = float(r @ z)
            if rz_new <= 0:
                z = r.copy()
                rz_new = float(r @ r)
            p = z + (rz_new / rz) * p
            rz = rz_new
        return best_x, max_iters, False


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
