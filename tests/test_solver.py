import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from specsparse import (
    DirectedGraph,
    SolverParams,
    SpsSolver,
    gauss_seidel,
    laplacian,
    solve_sps,
    symmetrize,
)

from specsparse.solver import DENSE_MAX, _as_intc, _GaussSeidel

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

    def test_index_cast_refuses_to_wrap(self):
        big = np.array([0, 2**31], dtype=np.int64)
        with pytest.raises(ValueError, match="C int limit"):
            _as_intc(big)
        edge = _as_intc(np.array([0, 2**31 - 1], dtype=np.int64))
        assert edge.dtype == np.intc
        assert edge[-1] == 2**31 - 1
        assert _as_intc(np.array([], dtype=np.int64)).dtype == np.intc


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
        # small systems take the dense pseudo-inverse, the last few the factor
        tol = 1e-9
        sizes = [*rng.integers(4, 50, size=20), *rng.integers(DENSE_MAX + 1, 2 * DENSE_MAX, size=5)]
        for n in map(int, sizes):
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
        # a weighted undirected path, a tree, against the pseudo-inverse
        n = 30
        edges = []
        for i in range(n - 1):
            w = float(rng.uniform(0.5, 2.0))
            edges += [(i, i + 1, w), (i + 1, i, w)]
        Lu = symmetrize(laplacian(DirectedGraph(n, edges)))
        b = Lu @ rng.standard_normal(n)
        b -= b.mean()
        x, stats = solve_sps(Lu, b, tol=1e-10)
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
            params=SolverParams(tol=1e-15, max_iters=1),
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

    def test_seed_subgraph_through_factor(self, rng):
        # seed subgraphs are nearly trees and badly conditioned; at 800
        # nodes the system takes the shifted sparse factor
        from specsparse import build_seed

        g = strong_digraph(rng, 800)
        seed = build_seed(g)
        Lsu = symmetrize(laplacian(seed.graph))
        b = Lsu @ rng.standard_normal(800)
        b -= b.mean()
        x, stats = solve_sps(Lsu, b, tol=1e-8)
        assert stats.residual <= 1e-6
