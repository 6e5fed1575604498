import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lapack

from specsparse import (
    DirectedGraph,
    GroundedSolver,
    SolveStats,
    banded_digraph,
    build_seed,
    SolverParams,
    SpsSolver,
    laplacian,
    symmetrize,
)

from specsparse import solver as solver_module
from specsparse.solver import DENSE_MAX, build_hierarchy

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

    @pytest.mark.parametrize("dense_max", [DENSE_MAX, 0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, monkeypatch, dense_max, bad):
        # A NaN norm of b made the relative residual 0: a NaN x was
        # reported as solved in one step.
        monkeypatch.setattr(solver_module, "DENSE_MAX", dense_max)
        Lu = symmetrize(laplacian(DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])))
        solver = SpsSolver(Lu)
        for b in (np.array([bad, 1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 2.0], [2.0, bad]])):
            with pytest.raises(ValueError, match="^right-hand side must be finite$"):
                solver.solve(b)


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
    """Systems up to DENSE_MAX nodes: the dense Cholesky factor, checked
    against the pseudo-inverse."""

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


def pcg_spy(monkeypatch):
    """Record the right-hand side widths of every ``SpsSolver._pcg`` call."""
    widths = []
    real = SpsSolver._pcg

    def spy(self, R, *args):
        widths.append(R.shape[1])
        return real(self, R, *args)

    monkeypatch.setattr(SpsSolver, "_pcg", spy)
    return widths


def weighted_path(rng, n, decades):
    """Directed path 0 -> 1 -> ... -> n-1, weights 10^u for u uniform in
    [-decades, decades]."""
    w = 10.0 ** rng.uniform(-decades, decades, n - 1)
    return DirectedGraph(n, [(i, i + 1, float(w[i])) for i in range(n - 1)])


class TestDirectRoute:
    """Systems up to DENSE_MAX nodes are solved by their Cholesky factor,
    without PCG unless a column misses the tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["strong", "path", "two components", "random"]),
        n=st.integers(2, 120),
        isolated=st.integers(0, 4),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # A second eigenvalue at 8.3e-10 of the largest: the factor is accepted.
    @example(kind="random", n=25, isolated=0, k=1, seed=3137)
    def test_agrees_with_the_sparse_route(self, kind, n, isolated, k, seed):
        rng = np.random.default_rng(seed)
        g = {
            "strong": lambda: strong_digraph(rng, n),
            "path": lambda: weighted_path(rng, n, 0.5),  # condition grows as n^4
            "two components": lambda: disjoint_union(strong_digraph(rng, n), strong_digraph(rng, 3)),
            "random": lambda: random_digraph(rng, n),  # may have several sinks
        }[kind]()
        Lu = symmetrize(laplacian(disjoint_union(g, isolated=isolated)))
        B = Lu @ rng.standard_normal((Lu.shape[0], k))
        tol = 1e-8
        dense = SpsSolver(Lu, SolverParams(tol=tol))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "DENSE_MAX", 0)
            sparse = SpsSolver(Lu, SolverParams(tol=tol))
        assert dense.partial or not isolated
        direct = isinstance(dense._precond, solver_module._Cholesky)
        # A null space wider than span(1) rejects the dense factor.  A random
        # graph may take either route: it may have several sinks, or a
        # second eigenvalue near zero that the factor's test still accepts.
        expected = {"strong": True, "path": True, "two components": False}
        if kind in expected:
            assert direct == expected[kind]
        (xd, sd), (xs, ss) = dense.solve(B), sparse.solve(B)
        assert sd.converged and ss.converged
        assert sd.residual <= tol and ss.residual <= tol
        if direct:
            assert sd.iterations == 1
        else:
            assert np.array_equal(xd, xs) and sd == ss  # the same sparse factor
        # Both solutions are deflated and meet b to tol, so they agree to
        # 2 tol through L_u.
        assert np.abs(xd.sum(axis=0)).max() <= 1e-9 * np.abs(xd).max()
        assert np.all(np.linalg.norm(Lu @ (xd - xs), axis=0) <= 2 * tol * np.linalg.norm(B, axis=0))

    def test_missed_column_continues_in_pcg(self, rng, monkeypatch):
        # Weights over four decades: a random right-hand side, rich in the
        # lowest modes, misses 1e-10 after the direct solve; one from the
        # range of L_u does not.
        n = 60
        Lu = symmetrize(laplacian(weighted_path(rng, n, 2)))
        B = np.column_stack([Lu @ rng.standard_normal(n), rng.standard_normal(n)])
        solver = SpsSolver(Lu, SolverParams(tol=1e-10, max_iters=50))
        assert isinstance(solver._precond, solver_module._Cholesky)
        C = B - B.mean(axis=0)
        Z = solver._precond(C)
        Z -= Z.mean(axis=0)
        direct = np.linalg.norm(C - Lu @ Z, axis=0) / np.linalg.norm(C, axis=0)
        assert direct[0] <= 1e-10 < direct[1]
        widths = pcg_spy(monkeypatch)
        X, stats = solver.solve(B)
        assert widths == [1] and stats.iterations >= 2
        residual = np.linalg.norm(C - Lu @ X, axis=0) / np.linalg.norm(C, axis=0)
        np.testing.assert_array_equal(X[:, 0], Z[:, 0])  # kept as the factor gave it
        assert residual[1] <= direct[1] * (1 + 1e-6)  # PCG keeps its best iterate
        assert stats.residual == pytest.approx(residual.max(), rel=1e-6)

    def test_max_iters_one_is_the_direct_solve(self, rng, monkeypatch):
        n = 60
        Lu = symmetrize(laplacian(weighted_path(rng, n, 2)))
        widths = pcg_spy(monkeypatch)
        x, stats = SpsSolver(Lu, SolverParams(tol=1e-10, max_iters=1)).solve(rng.standard_normal(n))
        assert widths == [] and stats.iterations == 1 and not stats.converged


def sinks_digraph(rng, body, sink_sizes, decades):
    """Digraph whose sink strongly connected components have the given
    sizes (a ring with chords, or a dangling node for size 1), plus
    ``body`` nodes that each reach a sink, with weights 10^u, u uniform in
    [0, decades).  Node labels are shuffled."""
    n = body + sum(sink_sizes)
    pairs, sinks, start = set(), [], body
    for size in sink_sizes:
        nodes = list(range(start, start + size))
        sinks += nodes
        if size > 1:
            pairs.update(zip(nodes, nodes[1:] + nodes[:1]))
            pairs.update(tuple(int(v) for v in rng.choice(nodes, 2, replace=False)) for _ in range(size))
        start += size
    for i in range(body):
        # An edge to a later body node or into a sink: every node reaches one.
        pairs.add((i, int(rng.choice(list(range(i + 1, body)) + sinks))))
        for _ in range(2):
            j = int(rng.integers(0, n))
            if j != i:
                pairs.add((i, j))
    perm = rng.permutation(n)
    return DirectedGraph(n, [(int(perm[t]), int(perm[h]), float(10 ** rng.uniform(0, decades))) for t, h in sorted(pairs)])


def lapack_and_splu_spy(monkeypatch):
    """Record every ``dgetrf`` and ``splu`` call."""
    calls = []
    real_getrf, real_splu = lapack.dgetrf, spla.splu

    def getrf_spy(*args, **kwargs):
        calls.append("dgetrf")
        return real_getrf(*args, **kwargs)

    def splu_spy(*args, **kwargs):
        calls.append("splu")
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgetrf", getrf_spy)
    monkeypatch.setattr(spla, "splu", splu_spy)
    return calls


class TestGroundedSolver:
    """``GroundedSolver(L_S).solve(b)`` against dense oracles of L_Su = L_S L_S^T."""

    @settings(max_examples=60, deadline=None)
    @given(
        body=st.integers(0, 25),
        sink_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        decades=st.floats(0, 2),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        dense_max=st.sampled_from([DENSE_MAX, 0]),
    )
    @example(body=0, sink_sizes=[1, 1, 1], decades=0.0, k=2, seed=0, dense_max=DENSE_MAX)  # no edges
    @example(body=6, sink_sizes=[1, 1, 1, 1], decades=2.0, k=1, seed=1, dense_max=DENSE_MAX)  # dangling
    @example(body=0, sink_sizes=[4], decades=1.0, k=1, seed=2, dense_max=0)
    def test_solves_the_pseudo_inverse(self, body, sink_sizes, decades, k, seed, dense_max):
        # Bounds from 1000 such graphs on each route: the relative residual
        # on the projected right-hand side reached 2.2e-14 kappa, the
        # distance from the pinv solution 5.9e-15 kappa (kappa = cond(L_Su)
        # off its null space, at most 1.9e5), and the null-space part of x
        # 6.5e-15.
        rng = np.random.default_rng(seed)
        g = sinks_digraph(rng, body, sink_sizes, decades)
        L = laplacian(g)
        Ld = L.toarray()
        Lu = Ld @ Ld.T
        N = scipy.linalg.null_space(Ld.T)
        assert N.shape[1] == len(sink_sizes)
        sv = np.linalg.svd(Ld, compute_uv=False)
        sv = sv[sv > 1e-10 * max(sv.max(initial=0.0), 1e-300)]
        kappa = (sv.max() / sv.min()) ** 2 if sv.size else 1.0
        b = rng.standard_normal((g.n, k))
        b_range = b - N @ (N.T @ b)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver_module, "DENSE_MAX", dense_max)
            x, stats = GroundedSolver(L).solve(b)
        assert x.shape == b.shape
        assert (stats.iterations, stats.converged) == (1, True) and np.isnan(stats.residual)
        scale = max(np.linalg.norm(b_range), 1e-300)
        assert np.linalg.norm(Lu @ x - b_range) <= 1e-12 * kappa * scale
        assert np.linalg.norm(N.T @ x) <= 1e-12 * np.linalg.norm(x)
        x_pinv = np.linalg.pinv(Lu) @ b
        assert np.linalg.norm(x - x_pinv) <= 1e-12 * kappa * max(np.linalg.norm(x_pinv), 1e-300)

    def test_dense_and_sparse_routes_agree(self, rng, monkeypatch):
        g = sinks_digraph(rng, 40, [1, 3, 2], 1.0)
        b = rng.standard_normal((g.n, 3))
        dense, _ = GroundedSolver(laplacian(g)).solve(b)
        calls = lapack_and_splu_spy(monkeypatch)
        monkeypatch.setattr(solver_module, "DENSE_MAX", g.n - 1)
        sparse, _ = GroundedSolver(laplacian(g)).solve(b)
        assert calls == ["splu"]
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10 * np.abs(dense).max())

    def test_vector_and_block(self, rng):
        g = sinks_digraph(rng, 10, [2, 1], 1.0)
        solver = GroundedSolver(laplacian(g))
        B = rng.standard_normal((g.n, 3))
        X, _ = solver.solve(B)
        x, _ = solver.solve(B[:, 1])
        assert x.shape == (g.n,)
        np.testing.assert_allclose(x, X[:, 1], rtol=0, atol=1e-12 * np.abs(X).max())
        assert solver.solve(np.zeros((g.n, 0)))[0].shape == (g.n, 0)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_no_edges_is_zero_without_a_factor(self, monkeypatch, n):
        # Every node is its own sink and grounded: L = 0 and L_Su^+ = 0.
        # LAPACK refuses the empty minor, so no factor is built.
        calls = lapack_and_splu_spy(monkeypatch)
        solver = GroundedSolver(laplacian(DirectedGraph(n, [])))
        x, stats = solver.solve(np.arange(n, dtype=np.float64))
        X, _ = solver.solve(np.ones((n, 2)))
        assert calls == [] and x.shape == (n,) and X.shape == (n, 2)
        assert not x.any() and not X.any() and stats.converged

    def test_dangling_nodes(self):
        # A star: the centre's three heads are dangling nodes, each a sink.
        g = DirectedGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.5)])
        Ld = laplacian(g).toarray()
        b = np.array([1.0, -2.0, 0.5, 3.0])
        x, _ = GroundedSolver(laplacian(g)).solve(b)
        np.testing.assert_allclose(x, np.linalg.pinv(Ld @ Ld.T) @ b, rtol=0, atol=1e-12)

    def test_input_validated(self):
        L = laplacian(DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]))
        with pytest.raises(ValueError, match="expected square matrix"):
            GroundedSolver(sp.csr_array(np.ones((2, 3))))
        solver = GroundedSolver(L)
        with pytest.raises(ValueError, match="rhs has shape"):
            solver.solve(np.ones(4))
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            solver.solve(np.array([1.0, np.nan, 0.0]))
