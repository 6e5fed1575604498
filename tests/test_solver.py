import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from specsparse import (
    DirectedGraph,
    SolverParams,
    SpsSolver,
    build_hierarchy,
    gauss_seidel,
    laplacian,
    node_affinity,
    solve_sps,
    symmetrize,
)

from specsparse.solver import _as_intc, _GaussSeidel, _vcycle

from conftest import random_digraph, strong_digraph


def connected_symmetrized(rng, n):
    """Symmetrized Laplacian of a strongly connected directed graph."""
    return symmetrize(laplacian(strong_digraph(rng, n)))


class TestGaussSeidel:
    def test_hand_computed_step(self):
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x = gauss_seidel(L, np.array([1.0, 1.0]), np.zeros(2), sweeps=1)
        np.testing.assert_allclose(x, [0.5, 0.75])

    def test_zero_rhs_fixed_point(self):
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x = gauss_seidel(L, np.zeros(2), np.zeros(2), sweeps=5)
        np.testing.assert_array_equal(x, 0.0)

    def test_identity_one_sweep(self, rng):
        b = rng.standard_normal(6)
        x = gauss_seidel(sp.eye_array(6, format="csr"), b, np.zeros(6), sweeps=1)
        np.testing.assert_allclose(x, b)

    def test_zero_diagonal_raises(self):
        L = sp.csr_array(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="degenerate"):
            gauss_seidel(L, np.ones(2), sweeps=1)

    def test_inert_rows_skipped(self):
        L = sp.csr_array(np.array([[2.0, 0.0], [0.0, 0.0]]))
        x = gauss_seidel(L, np.array([2.0, 0.0]), np.zeros(2), sweeps=1)
        np.testing.assert_allclose(x, [1.0, 0.0])

    def test_residual_does_not_increase_on_sps(self, rng):
        for _ in range(10):
            Lu = connected_symmetrized(rng, int(rng.integers(4, 25)))
            b = Lu @ rng.standard_normal(Lu.shape[0])
            x0 = rng.standard_normal(Lu.shape[0])
            r0 = np.linalg.norm(b - Lu @ x0)
            x1 = gauss_seidel(Lu, b, x0, sweeps=1)
            r1 = np.linalg.norm(b - Lu @ x1)
            assert r1 <= r0 * (1 + 1e-12)

    def test_backward_direction(self):
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x = gauss_seidel(L, np.array([1.0, 1.0]), np.zeros(2), sweeps=1, direction="backward")
        np.testing.assert_allclose(x, [0.75, 0.5])


class TestPreparedTriangles:
    """The prepared sweeps call SuperLU's private ``gstrs`` kernel directly.

    These pin that binding: a change to ``gstrs`` must fail here, bit for
    bit, rather than shift the smoother unnoticed.
    """

    @staticmethod
    def reference(L, x, b, sweeps, direction):
        if direction == "forward":
            tri, rest, lower = sp.tril(L, k=0, format="csr"), sp.triu(L, k=1, format="csr"), True
        else:
            tri, rest, lower = sp.triu(L, k=0, format="csr"), sp.tril(L, k=-1, format="csr"), False
        for _ in range(sweeps):
            x = spla.spsolve_triangular(tri, b - rest @ x, lower=lower)
        return x

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("width", [None, 5])
    def test_bit_identical_to_spsolve_triangular(self, rng, direction, sweeps, width):
        Lu = sp.csr_array(connected_symmetrized(rng, 60))
        shape = (60,) if width is None else (60, width)
        x0 = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        gs = _GaussSeidel(Lu)
        sweep = gs.forward if direction == "forward" else gs.backward
        expected = self.reference(Lu, x0, b, sweeps, direction)
        for _ in range(2):  # the second call reuses the prepared triangle
            got = sweep(x0, b, sweeps)
            assert got.shape == shape
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_zero_diagonal_raises_linalg_error(self, direction):
        L = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 2.0]]))
        gs = _GaussSeidel(L)
        sweep = gs.forward if direction == "forward" else gs.backward
        with pytest.raises(np.linalg.LinAlgError, match="zero entry on diagonal") as info:
            sweep(np.zeros(3), np.ones(3))
        # sparsify reads a RuntimeError as an ill-posed pencil and returns the seed
        assert not isinstance(info.value, RuntimeError)

    def test_zero_diagonal_on_hierarchy_level_raises(self):
        n = 12
        main = np.full(n, 2.0)
        main[5] = 0.0
        off = np.full(n - 1, -1.0)
        L = sp.diags_array([off, main, off], offsets=[-1, 0, 1]).tocsr()
        h = build_hierarchy(L, SolverParams(coarsest_size=2, theta=0.0))
        assert len(h.levels) >= 2
        with pytest.raises(np.linalg.LinAlgError, match="zero entry on diagonal"):
            _vcycle(h, 0, np.ones(n))

    def test_index_cast_refuses_to_wrap(self):
        big = np.array([0, 2**31], dtype=np.int64)
        with pytest.raises(ValueError, match="C int limit"):
            _as_intc(big)
        edge = _as_intc(np.array([0, 2**31 - 1], dtype=np.int64))
        assert edge.dtype == np.intc
        assert edge[-1] == 2**31 - 1
        assert _as_intc(np.array([], dtype=np.int64)).dtype == np.intc


class TestNodeAffinity:
    def test_identical_columns_give_one(self):
        # on a connected pair, one sweep makes both test-vector rows equal,
        # so the Cauchy-Schwarz ratio is exactly 1
        g = DirectedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        A = node_affinity(symmetrize(laplacian(g)), K=4, seed=0)
        assert A[0, 1] == 1.0

    def test_symmetric_exactly(self, rng):
        Lu = connected_symmetrized(rng, 15)
        A = node_affinity(Lu, seed=3)
        diff = (A - A.T).toarray()
        assert np.abs(diff).max() == 0.0

    def test_bounded(self, rng):
        Lu = connected_symmetrized(rng, 20)
        A = node_affinity(Lu, seed=1)
        assert A.data.min() >= 0.0 and A.data.max() <= 1.0

    def test_requires_two_vectors(self, rng):
        Lu = connected_symmetrized(rng, 5)
        with pytest.raises(ValueError, match="2"):
            node_affinity(Lu, K=1)

    def test_pattern_matches_offdiagonals(self, rng):
        Lu = connected_symmetrized(rng, 12)
        A = node_affinity(Lu, seed=2)
        off = Lu.copy().tocoo()
        expected = {(i, j) for i, j, v in zip(off.row, off.col, off.data) if i != j and v != 0}
        got = {(i, j) for i, j in zip(*A.nonzero())}
        assert got <= expected


class TestHierarchy:
    def test_small_matrix_single_level(self, rng):
        Lu = connected_symmetrized(rng, 40)
        h = build_hierarchy(Lu, SolverParams(coarsest_size=200))
        assert len(h.levels) == 1

    def test_path_coarsens_below_floor(self):
        edges = []
        for i in range(3):
            edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
        Lu = symmetrize(laplacian(DirectedGraph(4, edges)))
        h = build_hierarchy(Lu, SolverParams(coarsest_size=2, theta=0.3))
        assert len(h.levels) >= 2
        assert h.sizes[-1] <= 2

    def test_levels_strictly_shrink(self, rng):
        Lu = connected_symmetrized(rng, 600)
        h = build_hierarchy(Lu, SolverParams(coarsest_size=50))
        sizes = h.sizes
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 0.95 * sizes[0]

    def test_galerkin_levels_stay_sps(self, rng):
        Lu = connected_symmetrized(rng, 400)
        h = build_hierarchy(Lu, SolverParams(coarsest_size=30))
        for lvl in h.levels[1:]:
            M = lvl.matrix
            X = rng.standard_normal((M.shape[0], 100))
            quad = np.einsum("ij,ij->j", X, M @ X)
            assert quad.min() >= -1e-10 * max(1.0, np.abs(quad).max())

    def test_aggregates_stay_within_components(self, rng):
        g = DirectedGraph(
            8,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 0, 2.0)]
            + [(4, 5, 1.0), (5, 6, 1.0), (6, 4, 1.0), (7, 4, 2.0)],
        )
        Lu = symmetrize(laplacian(g))
        h = build_hierarchy(Lu, SolverParams(coarsest_size=2, theta=0.0))
        comp = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        for lvl in h.levels[:-1]:
            agg = lvl.aggregates
            coarse_comp = {}
            for node, a in enumerate(agg):
                prev = coarse_comp.setdefault(int(a), comp[node])
                assert prev == comp[node]
            comp = np.array([coarse_comp[i] for i in range(max(agg) + 1)])


class TestSolveSps:
    def test_singular_two_node(self):
        L = sp.csr_array(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        x, stats = solve_sps(L, np.array([1.0, -1.0]))
        np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-10)
        assert stats.converged and abs(x.sum()) < 1e-12

    def test_nonsingular_two_node(self):
        L = sp.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x, stats = solve_sps(L, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2 / 3, 1 / 3], atol=1e-10)

    def test_zero_rhs(self, rng):
        Lu = connected_symmetrized(rng, 12)
        x, stats = solve_sps(Lu, np.zeros(12))
        np.testing.assert_array_equal(x, 0.0)
        assert stats.converged and stats.iterations == 0

    def test_invalid_tol(self, rng):
        Lu = connected_symmetrized(rng, 5)
        with pytest.raises(ValueError, match="tol"):
            solve_sps(Lu, np.zeros(5), tol=0.0)

    def test_matches_pseudoinverse_on_random_systems(self, rng):
        tol = 1e-9
        for _ in range(25):
            n = int(rng.integers(4, 50))
            Lu = connected_symmetrized(rng, n)
            b = Lu @ rng.standard_normal(n)
            b -= b.mean()
            x, stats = solve_sps(Lu, b, tol=tol)
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
                x, stats = solve_sps(Lu, b, tol=1e-9)
                assert stats.converged
        assert found >= 10  # symmetrization produces them routinely

    def test_degree_one_elimination_exact(self, rng):
        # a weighted undirected path has many degree-1 eliminations
        n = 30
        edges = []
        for i in range(n - 1):
            w = float(rng.uniform(0.5, 2.0))
            edges += [(i, i + 1, w), (i + 1, i, w)]
        Lu = symmetrize(laplacian(DirectedGraph(n, edges)))
        b = Lu @ rng.standard_normal(n)
        b -= b.mean()
        for flag in (True, False):
            x, stats = solve_sps(Lu, b, tol=1e-10, params=SolverParams(tol=1e-10, eliminate_degree_one=flag))
            ref = np.linalg.pinv(Lu.toarray()) @ b
            err = np.linalg.norm(x - x.mean() - (ref - ref.mean()))
            assert stats.converged and err <= 1e-7 * max(1.0, np.linalg.norm(ref))

    def test_isolated_nodes(self):
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0)])
        Lu = symmetrize(laplacian(g))
        b = np.array([1.0, -1.0, 0.0, 0.0])
        x, stats = solve_sps(Lu, b)
        assert stats.converged
        np.testing.assert_allclose(Lu @ x, b, atol=1e-8)

    def test_nonconvergence_reports_best_iterate(self, rng):
        Lu = connected_symmetrized(rng, 300)
        b = Lu @ rng.standard_normal(300)
        b -= b.mean()
        x, stats = solve_sps(
            Lu,
            b,
            tol=1e-15,
            max_iters=1,
            params=SolverParams(tol=1e-15, max_iters=1, coarsest_size=20, direct_fallback=False),
        )
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

    def test_larger_system_with_fallback(self, rng):
        # seed subgraphs produce the badly conditioned case that trips the
        # aggregation cycle into the factorization fallback
        from specsparse import build_seed

        g = strong_digraph(rng, 800)
        seed = build_seed(g)
        Lsu = symmetrize(laplacian(seed.graph))
        b = Lsu @ rng.standard_normal(800)
        b -= b.mean()
        x, stats = solve_sps(Lsu, b, tol=1e-8)
        assert stats.residual <= 1e-6

    def test_fallback_releases_hierarchy(self):
        from specsparse import build_seed

        rng = np.random.default_rng(3)
        g = strong_digraph(rng, 400)
        Lsu = symmetrize(laplacian(build_seed(g).graph))
        # a stall check after two iterations forces the LU fallback
        solver = SpsSolver(Lsu, SolverParams(coarsest_size=50, stall_check=2, stall_ratio=1e-6))
        assert solver.hierarchy is not None
        for _ in range(2):
            b = Lsu @ rng.standard_normal(400)
            b -= b.mean()
            x, stats = solver.solve(b)
            assert stats.converged
            assert solver._lu is not None
            assert solver.hierarchy is None
