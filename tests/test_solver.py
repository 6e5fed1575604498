import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lapack

import specsparse
from specsparse import (
    DirectedGraph,
    GroundedSolver,
    banded_digraph,
    build_seed,
    SolverParams,
    laplacian,
    symmetrize,
)

from specsparse import solver as solver_module
from specsparse.solver import DENSE_MAX

from conftest import random_digraph, sink_components, strong_digraph


class TestSolverParams:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_invalid_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            SolverParams(tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_invalid_max_iters(self, max_iters):
        # -1 would never equal the step count, so an iterative solve would run without a cap
        with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
            SolverParams(max_iters=max_iters)
        assert SolverParams(max_iters=1).max_iters == 1


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


def weighted_path(rng, n, decades):
    """Directed path 0 -> 1 -> ... -> n-1, weights 10^u for u uniform in
    [-decades, decades]."""
    w = 10.0 ** rng.uniform(-decades, decades, n - 1)
    return DirectedGraph(n, [(i, i + 1, float(w[i])) for i in range(n - 1)])


def pinv_solve(L, b):
    """(L L^T)^+ b from the dense pseudo-inverse."""
    Ld = L.toarray()
    return np.linalg.pinv(Ld @ Ld.T, hermitian=True) @ b


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

    @pytest.mark.parametrize("dense_max", [DENSE_MAX, 0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, monkeypatch, dense_max, bad):
        # DENSE_MAX picks the dense or the sparse LU.
        monkeypatch.setattr(solver_module, "DENSE_MAX", dense_max)
        solver = GroundedSolver(laplacian(DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])))
        for b in (np.array([bad, 1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 2.0], [2.0, bad]])):
            with pytest.raises(ValueError, match="^right-hand side must be finite$"):
                solver.solve(b)

    def test_symmetrized_laplacian_rejected(self, rng):
        # L_u's positive off-diagonals show it is no directed Laplacian; solved
        # as one, it would give (L_u L_u^T)^+ b.
        L = laplacian(strong_digraph(rng, 12))
        Lu = symmetrize(L).tocoo()
        assert (Lu.data[Lu.row != Lu.col] > 0).any()
        with pytest.raises(ValueError, match="positive off-diagonal entry"):
            GroundedSolver(Lu)
        GroundedSolver(L)

    def test_sps_solver_is_another_name(self):
        assert specsparse.SpsSolver is GroundedSolver

    CASES = {
        "connected": lambda rng: strong_digraph(rng, 600),
        "hub": lambda rng: hub(rng, 400),
        "three components": lambda rng: disjoint_union(*(strong_digraph(rng, 250) for _ in range(3))),
        "50 isolated nodes": lambda rng: disjoint_union(strong_digraph(rng, 300), isolated=50),
        "banded seed": lambda rng: build_seed(banded_digraph(n=2000, seed=5)).graph,
        "random sinks": lambda rng: random_digraph(np.random.default_rng(3), 150),
        "small three components": lambda rng: disjoint_union(*(strong_digraph(rng, 40) for _ in range(3))),
        "small 10 isolated nodes": lambda rng: disjoint_union(strong_digraph(rng, 50), isolated=10),
        "small hub": lambda rng: hub(rng, 60),
        "small sink components": lambda rng: sinks_digraph(rng, 40, [1, 3, 2, 4], 2.0),
    }

    @pytest.mark.parametrize("route", ["dense", "sparse"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_range_rhs_solved_off_the_null_space(self, rng, monkeypatch, case, route):
        g = self.CASES[case](rng)
        L = laplacian(g)
        monkeypatch.setattr(solver_module, "DENSE_MAX", g.n if route == "dense" else 0)
        solver = GroundedSolver(L)
        # null_space() is an orthonormal basis of null(L_u) = null(L^T).
        N = solver.null_space()
        assert N.shape == (g.n, len(sink_components(g)))
        np.testing.assert_allclose(N.T @ N, np.eye(N.shape[1]), rtol=0, atol=1e-12)
        assert np.linalg.norm(L.T @ N) <= 1e-10 * np.sqrt(N.shape[1])
        b = L @ (L.T @ rng.standard_normal(g.n))
        x, _ = solver.solve(b)
        assert np.linalg.norm(L @ (L.T @ x) - b) <= 1e-8 * np.linalg.norm(b)
        assert np.linalg.norm(N.T @ x) <= 1e-12 * np.linalg.norm(x)

    def test_singular_two_node(self):
        # The 2-cycle: L_u = 2 [[1, -1], [-1, 1]], whose range is spanned by
        # (1, -1) at eigenvalue 4.
        L = laplacian(DirectedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)]))
        x, stats = GroundedSolver(L).solve(np.array([1.0, -1.0]))
        np.testing.assert_allclose(x, [0.25, -0.25], rtol=0, atol=1e-15)
        assert stats.converged and stats.iterations == 1

    @pytest.mark.parametrize("dense_max", [DENSE_MAX, 0])
    def test_zero_rhs(self, rng, monkeypatch, dense_max):
        monkeypatch.setattr(solver_module, "DENSE_MAX", dense_max)
        x, stats = GroundedSolver(laplacian(random_digraph(rng, 12))).solve(np.zeros(12))
        np.testing.assert_array_equal(x, 0.0)
        assert stats.converged

    def test_matches_pseudoinverse_on_random_systems(self, rng):
        sizes = [*rng.integers(4, 50, size=20), *rng.integers(DENSE_MAX + 1, 2 * DENSE_MAX, size=5)]
        for n in map(int, sizes):
            L = laplacian(strong_digraph(rng, n))
            b = rng.standard_normal(n)
            x, _ = GroundedSolver(L).solve(b)
            ref = pinv_solve(L, b)
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_weighted_path_matches_pinv(self, rng):
        # A tree whose only sink is its last node, weights over two decades.
        L = laplacian(weighted_path(rng, 30, 1))
        b = rng.standard_normal(30)
        x, _ = GroundedSolver(L).solve(b)
        ref = pinv_solve(L, b)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_isolated_nodes(self):
        # Nodes 2 and 3 are sinks of their own and are grounded with node 0.
        L = laplacian(DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0)]))
        solver = GroundedSolver(L)
        assert list(solver.ground) == [0, 2, 3]
        b = np.array([1.0, -1.0, 0.0, 0.0])
        x, _ = solver.solve(b)
        np.testing.assert_allclose(L @ (L.T @ x), b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x, pinv_solve(L, b), rtol=0, atol=1e-12)

    def test_reusable_solver(self, rng):
        L = laplacian(random_digraph(rng, 25))
        solver = GroundedSolver(L)
        for _ in range(3):
            b = rng.standard_normal(25)
            x, _ = solver.solve(b)
            ref = pinv_solve(L, b)
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_matrix_solves_without_warnings(self, monkeypatch, n):
        # The zero matrix grounds every node: no factor, and x = 0.
        calls = lapack_and_splu_spy(monkeypatch)
        solver = GroundedSolver(sp.csr_array((n, n)))
        assert solver.ground.size == n
        for b in (np.ones(n), np.arange(n, dtype=float)):
            x, stats = solver.solve(b)
            assert np.array_equal(x, np.zeros(n)) and stats.converged
        assert calls == []

    def test_seed_subgraph_through_factor(self, rng, monkeypatch):
        # Seed subgraphs are nearly trees and badly conditioned; at 800
        # nodes the system takes SuperLU's factor.
        seed = build_seed(strong_digraph(rng, 800))
        L = laplacian(seed.graph)
        calls = lapack_and_splu_spy(monkeypatch)
        solver = GroundedSolver(L)
        assert calls == ["splu"]
        b = L @ (L.T @ rng.standard_normal(800))
        x, _ = solver.solve(b)
        assert np.linalg.norm(L @ (L.T @ x) - b) <= 1e-8 * np.linalg.norm(b)

    def test_empty_system(self):
        solver = GroundedSolver(sp.csr_array((0, 0)))
        for shape in [(0,), (0, 3)]:
            x, stats = solver.solve(np.zeros(shape))
            assert x.shape == shape and stats.converged

    @pytest.mark.parametrize("n", [12, DENSE_MAX + 30])
    @pytest.mark.parametrize("graph", ["strong", "random"])
    def test_block_of_no_columns(self, rng, n, graph):
        # An n x 0 block is solved at once, with one sink or several, small or large.
        g = strong_digraph(rng, n) if graph == "strong" else random_digraph(rng, n)
        x, stats = GroundedSolver(laplacian(g)).solve(np.zeros((n, 0)))
        assert x.shape == (n, 0) and stats.converged

    def test_shape_validated(self, rng):
        solver = GroundedSolver(laplacian(strong_digraph(rng, 8)))
        for shape in [(7,), (8, 2, 1), (9, 2)]:
            with pytest.raises(ValueError, match="rhs has shape"):
                solver.solve(np.zeros(shape))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(4, 49), st.integers(DENSE_MAX + 1, 2 * DENSE_MAX - 1)),
        k=st.integers(1, 4),
        zero_at=st.integers(0, 4),
        kind=st.sampled_from(["strong", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_column_solves(self, n, k, zero_at, kind, seed):
        rng = np.random.default_rng(seed)
        g = strong_digraph(rng, n) if kind == "strong" else random_digraph(rng, n)
        solver = GroundedSolver(laplacian(g))
        B = rng.standard_normal((n, k))
        B = np.insert(B, min(zero_at, k), 0.0, axis=1)
        X, stats = solver.solve(B)
        assert X.shape == B.shape and stats.converged
        assert np.all(X[:, min(zero_at, k)] == 0.0)
        for j in range(B.shape[1]):
            x, _ = solver.solve(B[:, j])
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * max(np.linalg.norm(x), 1e-300)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["strong", "path", "two components", "random"]),
        n=st.integers(2, 120),
        isolated=st.integers(0, 4),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_range_rhs_of_a_union_with_isolated_nodes(self, kind, n, isolated, k, seed):
        rng = np.random.default_rng(seed)
        g = {
            "strong": lambda: strong_digraph(rng, n),
            "path": lambda: weighted_path(rng, n, 0.5),
            "two components": lambda: disjoint_union(strong_digraph(rng, n), strong_digraph(rng, 3)),
            "random": lambda: random_digraph(rng, n),  # may have several sinks
        }[kind]()
        g = disjoint_union(g, isolated=isolated)
        L = laplacian(g)
        N = scipy.linalg.null_space(L.toarray().T)
        B = L @ (L.T @ rng.standard_normal((g.n, k)))
        X, _ = GroundedSolver(L).solve(B)
        assert np.linalg.norm(L @ (L.T @ X) - B) <= 1e-8 * np.linalg.norm(B)
        assert np.linalg.norm(N.T @ X) <= 1e-12 * np.linalg.norm(X)
