import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    SolveStats,
    banded_digraph,
    build_seed,
    SolverParams,
    SpsSolver,
    laplacian,
    symmetrize,
)

from specsparse import solver as solver_module
from specsparse.solver import DENSE_MAX, _as_intc, _Sweep, build_hierarchy

from conftest import nullity, random_digraph, strong_digraph


def connected_symmetrized(rng, n):
    """Symmetrized Laplacian of a strongly connected directed graph."""
    return symmetrize(laplacian(strong_digraph(rng, n)))


def shifted_factor_spy(monkeypatch):
    """Record every call of ``solver._shifted_factor``."""
    calls = []
    real = solver_module._shifted_factor

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver_module, "_shifted_factor", spy)
    return calls


class TestGaussSeidel:
    def test_hand_computed_step(self):
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x = _Sweep(L).run(np.zeros(2), np.array([1.0, 1.0]), 1)
        np.testing.assert_allclose(x, [0.5, 0.75])

    def test_zero_rhs_fixed_point(self):
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x = _Sweep(L).run(np.zeros(2), np.zeros(2), 5)
        np.testing.assert_array_equal(x, 0.0)

    def test_identity_one_sweep(self, rng):
        b = rng.standard_normal(6)
        x = _Sweep(sp.eye_array(6, format="csr")).run(np.zeros(6), b, 1)
        np.testing.assert_allclose(x, b)

    def test_residual_does_not_increase_on_sps(self, rng):
        for _ in range(10):
            Lu = connected_symmetrized(rng, int(rng.integers(4, 25)))
            b = Lu @ rng.standard_normal(Lu.shape[0])
            x0 = rng.standard_normal(Lu.shape[0])
            r0 = np.linalg.norm(b - Lu @ x0)
            x1 = _Sweep(Lu).run(x0, b, 1)
            r1 = np.linalg.norm(b - Lu @ x1)
            assert r1 <= r0 * (1 + 1e-12)


class TestPreparedTriangles:
    """The prepared sweeps call SuperLU's private ``gstrs`` kernel directly.

    These pin that binding: a change to ``gstrs`` must fail here, bit for
    bit, rather than shift the smoother unnoticed.
    """

    @staticmethod
    def reference(L, x, b, sweeps):
        tri, rest = sp.tril(L, k=0, format="csr"), sp.triu(L, k=1, format="csr")
        for _ in range(sweeps):
            x = spla.spsolve_triangular(tri, b - rest @ x, lower=True)
        return x

    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("width", [None, 5])
    def test_bit_identical_to_spsolve_triangular(self, rng, sweeps, width):
        Lu = sp.csr_array(connected_symmetrized(rng, 60))
        shape = (60,) if width is None else (60, width)
        x0 = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        gs = _Sweep(Lu)
        expected = self.reference(Lu, x0, b, sweeps)
        for _ in range(2):  # the second call reuses the prepared triangle
            got = gs.run(x0, b, sweeps)
            assert got.shape == shape
            assert np.array_equal(got, expected)

    def test_zero_diagonal_raises_linalg_error(self):
        L = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="zero entry on diagonal") as info:
            _Sweep(L)  # at construction, before any sweep
        # sparsify reads a RuntimeError as an ill-posed pencil and returns the seed
        assert not isinstance(info.value, RuntimeError)

    def test_index_cast_refuses_to_wrap(self):
        big = np.array([0, 2**31], dtype=np.int64)
        with pytest.raises(ValueError, match="C int limit"):
            _as_intc(big)
        edge = _as_intc(np.array([0, 2**31 - 1], dtype=np.int64))
        assert edge.dtype == np.intc
        assert edge[-1] == 2**31 - 1
        assert _as_intc(np.array([], dtype=np.int64)).dtype == np.intc


def copying_sweep(L):
    """A ``_Sweep`` prepared the way the mask split replaced: ``tril`` and
    ``triu`` copies, the column scaling as a product with a diagonal matrix,
    a transpose to CSC, ``sum_duplicates`` and ``setdiag``."""
    n = L.shape[0]
    T = sp.tril(L, k=0, format="csr")
    sweep = _Sweep.__new__(_Sweep)
    sweep.rest = sp.triu(L, k=1, format="csr")
    sweep.invdiag = 1 / T.diagonal()
    uf = (T @ sp.diags_array(sweep.invdiag)).T
    uf.sum_duplicates()
    uf.setdiag(0)
    lf = sp.eye_array(n, format="csc")
    sweep.factors = (
        n, lf.nnz, lf.data, _as_intc(lf.indices), _as_intc(lf.indptr),
        n, uf.nnz, uf.data, _as_intc(uf.indices), _as_intc(uf.indptr),
    )
    return sweep


def raw_csr(n, rows, cols, vals, shuffle_rng=None):
    """CSR arrays exactly as given: duplicates, explicit zeros and (with
    ``shuffle_rng``) unsorted columns are kept."""
    order = np.argsort(rows, kind="stable") if shuffle_rng is None else np.lexsort((shuffle_rng.random(rows.size), rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_array((vals[order], cols[order], indptr), shape=(n, n))


class TestCopyFreePreparation:
    """The mask split gives the sweeps of the copying construction bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        density=st.floats(0.0, 12.0),
        unsorted=st.booleans(),
        width=st.sampled_from([None, 3]),
    )
    def test_same_sweeps_as_the_copying_construction(self, seed, n, density, unsorted, width):
        rng = np.random.default_rng(seed)
        m = int(density * n)
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        vals = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, m)
        vals[rng.random(m) < 0.15] = 0.0  # explicit zeros
        # Repeat some entries (duplicates, up to four copies of one pair) and
        # give every row a diagonal, split over two stored entries.
        again = rng.integers(0, m, m // 2) if m else np.zeros(0, dtype=np.int64)
        again = np.concatenate([again, again[: again.size // 3]])
        diag = np.arange(n)
        rows = np.concatenate([rows, rows[again], diag, diag])
        cols = np.concatenate([cols, cols[again], diag, diag])
        vals = np.concatenate([vals, rng.standard_normal(again.size), 5 + 30 * rng.random(n), rng.random(n)])
        L = raw_csr(n, rows, cols, vals, rng if unsorted else None)
        shape = (n,) if width is None else (n, width)
        x0, b = rng.standard_normal(shape), rng.standard_normal(shape)
        want = copying_sweep(L).run(x0, b, 3)
        got = _Sweep(L).run(x0, b, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(got, TestPreparedTriangles.reference(L, x0, b, 3))

    def test_canonical_input_with_explicit_zeros(self, rng):
        Lu = sp.csr_array(connected_symmetrized(rng, 50))
        Lu.data[rng.random(Lu.nnz) < 0.2] = 0.0
        Lu.setdiag(Lu.diagonal() + 1.0)
        assert Lu.has_canonical_format and np.any(Lu.data == 0)
        x0, b = rng.standard_normal(50), rng.standard_normal(50)
        assert np.array_equal(_Sweep(Lu).run(x0, b, 5), copying_sweep(Lu).run(x0, b, 5))

    def test_does_not_change_its_input(self, rng):
        L = raw_csr(4, np.array([0, 1, 1, 2, 3, 3, 1]), np.array([0, 1, 0, 2, 3, 1, 0]), np.arange(1.0, 8.0))
        arrays = [a.copy() for a in (L.data, L.indices, L.indptr)]
        _Sweep(L).run(np.ones(4), np.ones(4), 2)
        assert all(np.array_equal(a, c) for a, c in zip((L.data, L.indices, L.indptr), arrays))


class TestSpsSolver:
    # The one- and two-node systems take the dense Cholesky route.
    def test_singular_two_node(self, monkeypatch):
        calls = shifted_factor_spy(monkeypatch)
        L = sp.csr_array(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        x, stats = SpsSolver(L, SolverParams()).solve(np.array([1.0, -1.0]))
        np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-10)
        assert stats.converged and abs(x.sum()) < 1e-12
        assert stats.iterations == 1 and not calls

    def test_nonsingular_two_node(self, monkeypatch):
        calls = shifted_factor_spy(monkeypatch)
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x, stats = SpsSolver(L, SolverParams()).solve(np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2 / 3, 1 / 3], atol=1e-10)
        assert stats.converged and stats.iterations == 1 and not calls

    def test_one_node(self, monkeypatch):
        calls = shifted_factor_spy(monkeypatch)
        x, stats = SpsSolver(sp.csr_array(np.array([[3.0]]))).solve(np.array([6.0]))
        np.testing.assert_allclose(x, [2.0], rtol=1e-15)
        assert stats.converged and stats.iterations == 1 and not calls

    def test_zero_rhs(self, rng):
        Lu = connected_symmetrized(rng, 12)
        x, stats = SpsSolver(Lu, SolverParams()).solve(np.zeros(12))
        np.testing.assert_array_equal(x, 0.0)
        assert stats.converged and stats.iterations == 0

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_invalid_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            SolverParams(tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_invalid_max_iters(self, max_iters):
        # -1 would never equal the step count, so PCG would run without a cap
        with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
            SolverParams(max_iters=max_iters)
        assert SolverParams(max_iters=1).max_iters == 1

    def test_matches_pseudoinverse_on_random_systems(self, rng):
        # small systems take the dense pseudo-inverse, the last few the factor
        tol = 1e-9
        sizes = [*rng.integers(4, 50, size=20), *rng.integers(DENSE_MAX + 1, 2 * DENSE_MAX, size=5)]
        for n in map(int, sizes):
            Lu = connected_symmetrized(rng, n)
            b = Lu @ rng.standard_normal(n)
            b -= b.mean()
            x, stats = SpsSolver(Lu, SolverParams(tol=tol)).solve(b)
            assert stats.converged
            ref = np.linalg.pinv(Lu.toarray()) @ b
            ref -= ref.mean()
            err = np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300)
            assert err <= 10 * tol

    def test_handles_positive_offdiagonals(self, rng):
        found = 0
        for _ in range(20):
            n = int(rng.integers(5, 40))
            Lu = connected_symmetrized(rng, n)
            co = Lu.tocoo()
            if (co.data[co.row != co.col] > 0).any():
                found += 1
                b = Lu @ rng.standard_normal(n)
                b -= b.mean()
                x, stats = SpsSolver(Lu, SolverParams(tol=1e-9)).solve(b)
                assert stats.converged
        assert found >= 10  # symmetrization produces them routinely

    def test_degree_one_elimination_exact(self, rng):
        # a weighted undirected path, a tree, against the pseudo-inverse
        n = 30
        edges = []
        for i in range(n - 1):
            w = float(rng.uniform(0.5, 2.0))
            edges += [(i, i + 1, w), (i + 1, i, w)]
        Lu = symmetrize(laplacian(DirectedGraph(n, edges)))
        b = Lu @ rng.standard_normal(n)
        b -= b.mean()
        x, stats = SpsSolver(Lu, SolverParams(tol=1e-10)).solve(b)
        ref = np.linalg.pinv(Lu.toarray()) @ b
        err = np.linalg.norm(x - x.mean() - (ref - ref.mean()))
        assert stats.converged and err <= 1e-7 * max(1.0, np.linalg.norm(ref))

    def test_isolated_nodes(self):
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0)])
        Lu = symmetrize(laplacian(g))
        b = np.array([1.0, -1.0, 0.0, 0.0])
        solver = SpsSolver(Lu, SolverParams())
        assert list(solver.active) == [0, 1] and solver.reduced.shape == (2, 2)
        x, stats = solver.solve(b)
        assert stats.converged
        np.testing.assert_allclose(Lu @ x, b, atol=1e-8)

    def test_nonconvergence_reports_best_iterate(self, rng):
        Lu = connected_symmetrized(rng, 300)
        b = Lu @ rng.standard_normal(300)
        b -= b.mean()
        x, stats = SpsSolver(Lu, SolverParams(tol=1e-15, max_iters=1)).solve(b)
        assert not stats.converged
        assert stats.residual >= 0

    def test_reusable_solver(self, rng):
        Lu = connected_symmetrized(rng, 25)
        solver = SpsSolver(Lu)
        for _ in range(3):
            b = Lu @ rng.standard_normal(25)
            b -= b.mean()
            x, stats = solver.solve(b)
            assert stats.converged

    @pytest.mark.parametrize("n", [60, DENSE_MAX + 30])
    def test_all_active_system_is_not_copied(self, rng, n):
        # Every diagonal entry is positive, so the reduced system is L
        # itself; solving through an np.ix_ copy gives the same bits.
        Lu = connected_symmetrized(rng, n)
        solver = SpsSolver(Lu)
        assert solver.reduced is solver.L
        copied = SpsSolver(Lu)
        copied.reduced = Lu[np.ix_(copied.active, copied.active)].tocsr()
        assert copied.reduced is not copied.L
        copied._precond = build_hierarchy(copied.reduced, copied.singular)
        B = Lu @ rng.standard_normal((n, 3))
        for b in (B, B[:, 0]):
            (x, stats), (x_copy, stats_copy) = solver.solve(b), copied.solve(b)
            assert np.array_equal(x, x_copy) and stats == stats_copy

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 3])
    def test_no_active_node_solves_without_warnings(self, n):
        # An all-zero system has no active node; deflating its empty block
        # took the mean of an empty slice.
        solver = SpsSolver(sp.csr_array((n, n)))
        assert solver.singular and solver.active.size == 0
        x, stats = solver.solve(np.ones(n))
        assert np.array_equal(x, np.zeros(n)) and stats == SolveStats(0, 0.0, True)
        x, stats = solver.solve(np.arange(n, dtype=float))
        assert np.array_equal(x, np.zeros(n)) and stats.converged == (n == 1)

    def test_seed_subgraph_through_factor(self, rng):
        # seed subgraphs are nearly trees and badly conditioned; at 800
        # nodes the system takes the shifted sparse factor
        from specsparse import build_seed

        g = strong_digraph(rng, 800)
        seed = build_seed(g)
        Lsu = symmetrize(laplacian(seed.graph))
        b = Lsu @ rng.standard_normal(800)
        b -= b.mean()
        x, stats = SpsSolver(Lsu, SolverParams(tol=1e-8)).solve(b)
        assert stats.residual <= 1e-6


class TestBlockSolve:
    """A block right-hand side is solved column by column in one PCG run."""

    @staticmethod
    def assert_columns_match(solver, B, X, stats, rel=1e-10):
        singles = [solver.solve(B[:, j]) for j in range(B.shape[1])]
        for j, (x, _) in enumerate(singles):
            assert np.linalg.norm(X[:, j] - x) <= rel * np.linalg.norm(x)
        assert stats.iterations == max(s.iterations for _, s in singles)
        assert stats.converged == all(s.converged for _, s in singles)
        assert stats.residual == pytest.approx(max(s.residual for _, s in singles), rel=1e-3, abs=1e-12)
        return singles

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(4, 49), st.integers(DENSE_MAX + 1, 2 * DENSE_MAX - 1)),
        k=st.integers(1, 4),
        zero_at=st.integers(0, 4),
        singular=st.booleans(),
        stopped_at=st.sampled_from([None, 1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_column_solves(self, n, k, zero_at, singular, stopped_at, seed):
        rng = np.random.default_rng(seed)
        Lu = connected_symmetrized(rng, n)
        if not singular:
            Lu = sp.csr_array(Lu + sp.diags_array(rng.uniform(0.1, 1.0, n)))
        B = Lu @ rng.standard_normal((n, k))
        B = np.insert(B, min(zero_at, k), 0.0, axis=1)
        tol, max_iters = (1e-8, 400) if stopped_at is None else (1e-12, stopped_at)
        solver = SpsSolver(Lu, SolverParams(tol=tol, max_iters=max_iters))
        assert solver.singular == singular
        if stopped_at is not None:
            # Unpreconditioned, no column gets to 1e-12 within two steps:
            # max_iters stops every nonzero one, which returns its best iterate.
            solver._precond = lambda R: R.copy()
        X, stats = solver.solve(B)
        assert X.shape == B.shape
        assert np.all(X[:, min(zero_at, k)] == 0.0)
        singles = self.assert_columns_match(solver, B, X, stats)
        for j, (_, s) in enumerate(singles):
            if j == min(zero_at, k):
                assert s.converged and s.iterations == 0 and s.residual == 0.0
            else:
                assert s.converged == (stopped_at is None)
                assert s.residual <= (tol if s.converged else 1.0)  # never worse than x = 0
                if not s.converged:
                    assert s.iterations == max_iters

    def test_stopped_column_returns_its_best_iterate(self, rng):
        # Plain CG, whose residual norm rises on some steps, so that columns
        # stopped by max_iters must hand back an earlier iterate.
        n = 60
        Lu = connected_symmetrized(rng, n)
        B = Lu @ rng.standard_normal((n, 4))

        def residuals(X):
            return np.linalg.norm(B - Lu @ X, axis=0) / np.linalg.norm(B, axis=0)

        kept_earlier = 0
        X_prev, res_prev = np.zeros_like(B), np.ones(4)
        for max_iters in range(1, 25):
            solver = SpsSolver(Lu, SolverParams(tol=1e-14, max_iters=max_iters))
            solver._precond = lambda R: R.copy()
            X, stats = solver.solve(B)
            assert not stats.converged and stats.iterations == max_iters
            # Unpreconditioned, the steps amplify the rounding in which block
            # and column reductions differ, hence the looser match.
            self.assert_columns_match(solver, B, X, stats, rel=1e-6)
            res = residuals(X)
            assert np.all(res <= res_prev * (1 + 1e-12))
            kept_earlier += int(np.sum(np.all(X == X_prev, axis=0)))
            X_prev, res_prev = X, res
        assert kept_earlier > 0

    def test_empty_system(self):
        solver = SpsSolver(sp.csr_array((0, 0)))
        for shape in [(0,), (0, 3)]:
            x, stats = solver.solve(np.zeros(shape))
            assert x.shape == shape and stats == SolveStats(0, 0.0, True)

    @pytest.mark.parametrize("n", [12, DENSE_MAX + 30])
    @pytest.mark.parametrize("singular", [True, False])
    def test_block_of_no_columns(self, rng, n, singular):
        # Both preconditioner routes: an n x 0 block is solved at once.
        Lu = connected_symmetrized(rng, n)
        if not singular:
            Lu = sp.csr_array(Lu + sp.eye_array(n))
        x, stats = SpsSolver(Lu).solve(np.zeros((n, 0)))
        assert x.shape == (n, 0) and stats == SolveStats(0, 0.0, True)

    def test_shape_validated(self, rng):
        solver = SpsSolver(connected_symmetrized(rng, 8))
        for shape in [(7,), (8, 2, 1), (9, 2)]:
            with pytest.raises(ValueError, match="rhs has shape"):
                solver.solve(np.zeros(shape))


def disjoint_union(*graphs, isolated=0):
    """Directed graph made of the given graphs side by side, plus isolated nodes."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(t + offset, h + offset, w) for t, h, w in g.edges]
        offset += g.n
    return DirectedGraph(offset + isolated, edges)


def hub(rng, n):
    """Node 0 linked both ways to every other node."""
    return DirectedGraph(n, [e for i in range(1, n) for e in ((0, i, float(rng.uniform(0.5, 2.0))), (i, 0, 1.0))])


class TestShiftedFactor:
    """Systems solved through the shifted factor, and their small versions.

    The shift keeps the factor of a singular system definite; it must stay
    small enough that a consistent right-hand side converges in one step on
    singular, disconnected, seed-like and hub systems alike (at a shift of
    1e-8 of the largest diagonal each of these took two).  Every system above
    DENSE_MAX takes the factor.  A small one takes it only when its dense
    Cholesky factor is rejected: when its null space is wider than span(1),
    as with several components or several sink components.  Isolated nodes
    leave the active system, and a hub is connected, so their small versions
    keep the dense route.  Each case maps to (graph, takes the factor).
    """

    CASES = {
        "connected": (lambda rng: strong_digraph(rng, 600), True),
        "three components": (lambda rng: disjoint_union(*(strong_digraph(rng, 250) for _ in range(3))), True),
        "50 isolated nodes": (lambda rng: disjoint_union(strong_digraph(rng, 300), isolated=50), True),
        "banded seed": (lambda rng: build_seed(banded_digraph(n=2000, seed=5)).graph, True),
        "hub": (lambda rng: hub(rng, 400), True),
        "small three components": (lambda rng: disjoint_union(*(strong_digraph(rng, 40) for _ in range(3))), True),
        "small 10 isolated nodes": (lambda rng: disjoint_union(strong_digraph(rng, 50), isolated=10), False),
        "small hub": (lambda rng: hub(rng, 60), False),
        "small sink components": (lambda rng: random_digraph(np.random.default_rng(3), 150), True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_consistent_rhs_converges_in_one_step(self, rng, monkeypatch, case):
        make, factored = self.CASES[case]
        Lu = symmetrize(laplacian(make(rng)))
        calls = shifted_factor_spy(monkeypatch)
        solver = SpsSolver(Lu, SolverParams(tol=1e-8))
        assert len(calls) == factored
        if solver.reduced.shape[0] <= DENSE_MAX:
            assert solver.singular
            assert (nullity(solver.reduced) > 1) == factored
        b = Lu @ rng.standard_normal(Lu.shape[0])
        x, stats = solver.solve(b)
        assert stats.converged and stats.residual <= 1e-8
        assert np.linalg.norm(b - Lu @ x) <= 1e-8 * np.linalg.norm(b)
        assert stats.iterations == 1


class TestCholeskyRoute:
    """Systems up to DENSE_MAX nodes: the inverse of a dense Cholesky factor,
    checked against the pseudo-inverse."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, DENSE_MAX), singular=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_pseudo_inverse(self, n, singular, seed):
        rng = np.random.default_rng(seed)
        Lu = connected_symmetrized(rng, n)
        if not singular:
            Lu = sp.csr_array(Lu + sp.diags_array(rng.uniform(0.1, 1.0, n)))
        with pytest.MonkeyPatch.context() as mp:
            calls = shifted_factor_spy(mp)
            solver = SpsSolver(Lu, SolverParams(tol=1e-8))
        assert solver.singular == singular and not calls
        r = rng.standard_normal(n)
        r -= r.mean()
        ref = np.linalg.pinv(Lu.toarray(), hermitian=True) @ r
        if singular:
            ref -= ref.mean()  # pinv's rounding in the null direction
        z = solver._precond(r)
        assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
        b = Lu @ rng.standard_normal(n)
        x, stats = solver.solve(b)
        assert stats.converged and stats.iterations == 1

    def test_empty_system_builds_without_lapack(self):
        M = build_hierarchy(sp.csr_array((0, 0)), True)
        assert M(np.zeros((0, 2))).shape == (0, 2)
