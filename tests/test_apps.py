import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    SolveStats,
    SolverParams,
    SparsifyParams,
    adjacency,
    adjusted_rand_index,
    directed_solve,
    kmeans,
    laplacian,
    pagerank,
    pagerank_correlation,
    read_matrix_market,
    sparsify,
    spectral_partition,
    symmetrize,
)

from specsparse import apps
from specsparse.synth import clustered_digraph

from conftest import eigsh_spy, min_norm_error, random_digraph, strong_digraph


@st.composite
def graphs_with_isolated_and_sinks(draw):
    """``random_digraph`` with the out-edges of some nodes dropped (sink-only
    or isolated nodes) and a few isolated nodes appended."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    g = random_digraph(rng, n, extra_factor=draw(st.floats(0.3, 3.0)))
    keep = rng.random(n)[g.tails] >= draw(st.floats(0.0, 0.5))
    return DirectedGraph.from_arrays(n + draw(st.integers(0, 3)), g.tails[keep], g.heads[keep], g.weights[keep])


def _weights_over_six_decades():
    rng = np.random.default_rng(3)
    g = strong_digraph(rng, 25)
    return DirectedGraph.from_arrays(25, g.tails, g.heads, 10.0 ** rng.uniform(-3, 3, g.num_edges))


# Small graphs for the directed solve: sinks (zero diagonal of L_G), hubs,
# several attractors, isolated nodes.
FIXED_GRAPHS = {
    "synth32": lambda: read_matrix_market(Path(__file__).parent / "data" / "synth32.mtx"),
    "path": lambda: DirectedGraph(6, [(i, i + 1, 1.0 + i) for i in range(5)]),  # node 5 a sink
    "hub": lambda: DirectedGraph(9, [(0, i, 1.0) for i in range(1, 9)] + [(i, 0, 0.5 * i) for i in range(1, 9)]),
    "two attractors": lambda: DirectedGraph(
        7, [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 1.0), (3, 4, 1.0), (4, 2, 1.0), (5, 0, 1.0), (6, 4, 3.0), (5, 6, 1.0)]
    ),
    "weights over six decades": _weights_over_six_decades,
    "isolated node": lambda: DirectedGraph(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (2, 3, 0.5)]),  # node 4
}


class TestPageRank:
    def test_two_cycle_symmetric(self):
        g = DirectedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        res = pagerank(g, alpha=0.15)
        np.testing.assert_allclose(res.p, [0.5, 0.5], atol=1e-12)
        assert res.converged

    def test_single_dangling_node(self):
        res = pagerank(DirectedGraph(1, []), alpha=0.15)
        np.testing.assert_allclose(res.p, [1.0])

    def test_no_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            pagerank(DirectedGraph(0, []))
        with pytest.raises(ValueError, match="at least one node"):
            pagerank_correlation(DirectedGraph(0, []), DirectedGraph(0, []))

    def test_two_nodes(self):
        for edges, want in [([], [0.5, 0.5]), ([(0, 1, 1.0), (1, 0, 3.0)], [0.5, 0.5])]:
            g = DirectedGraph(2, edges)
            np.testing.assert_allclose(pagerank(g).p, want, atol=1e-12)
            assert pagerank_correlation(g, g) == (1.0, 1.0)

    def test_chain_matches_dense_oracle(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        res = pagerank(g, alpha=0.15, tol=1e-12)
        # same fixed point computed densely; the dangling node 2 keeps its mass
        A = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=float)
        M = A.T / A.sum(axis=1)
        p = np.full(3, 1 / 3)
        for _ in range(200000):
            pn = 0.85 * M @ p + 0.15 / 3
            pn /= pn.sum()
            if np.abs(pn - p).sum() < 1e-15:
                break
            p = pn
        np.testing.assert_allclose(res.p, p, atol=1e-8)

    def test_distribution_property(self, rng):
        for _ in range(10):
            g = random_digraph(rng, int(rng.integers(2, 40)))
            res = pagerank(g, alpha=0.15)
            assert res.p.min() >= 0
            assert abs(res.p.sum() - 1.0) <= 1e-10

    def test_personalization(self, rng):
        g = strong_digraph(rng, 10)
        pr = np.zeros(10)
        pr[3] = 1.0
        res = pagerank(g, alpha=0.5, personalization=pr)
        assert res.p[3] > 1.0 / 10

    def test_personalization_validated(self, rng):
        g = strong_digraph(rng, 5)
        with pytest.raises(ValueError, match="personalization"):
            pagerank(g, personalization=np.array([1.0, 0, 0, 0, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_personalization_non_finite_rejected(self, rng, bad):
        # min() < 0 and the sum check are both False for NaN, so a NaN entry
        # would run every iteration and return a NaN vector
        g = strong_digraph(rng, 5)
        pr = np.array([0.5, 0.5, 0, 0, bad])
        with pytest.raises(ValueError, match="personalization must be a nonnegative distribution"):
            pagerank(g, personalization=pr)

    def test_alpha_validated(self, rng):
        g = strong_digraph(rng, 4)
        with pytest.raises(ValueError, match="alpha"):
            pagerank(g, alpha=0.0)

    def test_alpha_one_returns_restart(self, rng):
        g = strong_digraph(rng, 6)
        res = pagerank(g, alpha=1.0)
        np.testing.assert_allclose(res.p, np.full(6, 1 / 6), atol=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
    def test_tol_validated(self, rng, tol):
        # tol=nan ran all 1000 iterations and reported residual 0.0
        with pytest.raises(ValueError, match="tol must be positive"):
            pagerank(strong_digraph(rng, 5), tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_validated(self, rng, max_iters):
        # max_iters=0 returned the personalization itself
        with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
            pagerank(strong_digraph(rng, 5), max_iters=max_iters)
        assert pagerank(strong_digraph(rng, 5), max_iters=1).iterations == 1


def pagerank_reference(g, alpha, pr, tol=1e-10, max_iters=1000, p0=None):
    """The fixed-point loop with a new array for every intermediate, from
    p0 (pr when omitted)."""
    M = apps._transition(g)
    p = (pr if p0 is None else p0).copy()
    for it in range(1, max_iters + 1):
        p_new = (1.0 - alpha) * (M @ p) + alpha * pr
        p_new /= p_new.sum()
        residual = float(np.abs(p_new - p).sum())
        p = p_new
        if residual <= tol:
            break
    return p, it, residual


class DoubledSecondProduct:
    """A transition operator whose second product returns 2 x: with
    alpha = 0.5 the first BiCGSTAB step then meets v = x - 0.5 (2 x) = 0,
    so r_hat . v = 0, a breakdown.  Every other product is M's."""

    def __init__(self, M):
        self.M, self.calls = M, 0

    def __matmul__(self, x):
        self.calls += 1
        return 2.0 * x if self.calls == 2 else self.M @ x


class TestPageRankSolve:
    @settings(max_examples=80, deadline=None)
    @given(
        g=graphs_with_isolated_and_sinks(),
        alpha=st.sampled_from([0.15, 0.5, 1.0]),
        pr_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_matches_the_dense_solve(self, g, alpha, pr_seed):
        # Dangling nodes (their column of M is e_i), several sinks and
        # isolated nodes.  A last step within tol bounds the 1-norm error
        # by tol / alpha.
        n, tol = g.n, 1e-10
        pr = np.full(n, 1.0 / n)
        if pr_seed is not None:
            pr = np.random.default_rng(pr_seed).uniform(0.0, 1.0, n) * (np.arange(n) % 3 != 1)
            pr[0] += 0.1
            pr /= pr.sum()
        M = apps._transition(g).toarray()
        want = np.linalg.solve(np.eye(n) - (1.0 - alpha) * M, alpha * pr)
        res = pagerank(g, alpha, pr, tol=tol)
        assert res.converged and res.residual <= tol
        assert res.p.min() >= 0 and abs(res.p.sum() - 1.0) <= 1e-12
        assert np.abs(res.p - want).sum() <= tol / alpha + 1e-12

    def test_budget_counts_products(self, rng):
        g = random_digraph(rng, 40)
        M = apps._transition(g)
        pr = np.full(40, 1.0 / 40)
        for max_iters in range(1, 30):
            res = pagerank(g, max_iters=max_iters)
            assert 1 <= res.iterations <= max_iters
            if not res.converged:
                assert res.iterations == max_iters
        # Too small a budget for BiCGSTAB: the fixed-point loop, bit for bit.
        for max_iters in (1, 2, 3):
            res = pagerank(g, max_iters=max_iters)
            p, steps, residual, _ = apps._pagerank_iteration(M, pr, 0.15, pr, 1e-10, max_iters)
            np.testing.assert_array_equal(res.p, p)
            assert res.iterations == steps == max_iters and res.residual == residual

    def test_breakdown_falls_through_to_the_fixed_point_loop(self, rng):
        g = random_digraph(rng, 30)
        M = apps._transition(g)
        pr = rng.uniform(0.0, 1.0, 30)
        pr /= pr.sum()
        res = pagerank(g, 0.5, pr, transition=DoubledSecondProduct(M))
        # Two products (the initial residual and v), then the fixed-point
        # loop from pr, clipped and normalized, with the budget left.
        p, steps, residual, converged = apps._pagerank_iteration(M, pr / pr.sum(), 0.5, pr, 1e-10, 998)
        assert converged and steps > 1
        np.testing.assert_array_equal(res.p, p)
        assert (res.iterations, res.residual, res.converged) == (2 + steps, residual, True)
        want = np.linalg.solve(np.eye(30) - 0.5 * M.toarray(), 0.5 * pr)
        assert np.abs(res.p - want).sum() <= 1e-10 / 0.5 + 1e-12

    @pytest.mark.parametrize("name", ["synth115", "synth32"])
    def test_fewer_products_than_the_fixed_point_loop(self, name):
        # At most 70 % of the plain loop's products, summed over the uniform
        # and 8 personalized queries: a silent fall back to the loop fails.
        g = read_matrix_market(Path(__file__).parent / "data" / f"{name}.mtx")
        queries = [np.full(g.n, 1.0 / g.n)]
        for i in range(8):
            pr = np.zeros(g.n)
            pr[np.random.default_rng([7, g.n, i]).choice(g.n, 5, replace=False)] = 0.2
            queries.append(pr)
        M = apps._transition(g)
        solved = sum(pagerank(g, personalization=pr).iterations for pr in queries)
        looped = sum(apps._pagerank_iteration(M, pr, 0.15, pr, 1e-10, 1000)[1] for pr in queries)
        assert solved <= 0.7 * looped


class TestPageRankInPlace:
    def test_same_bits_as_the_allocating_loop(self, rng):
        # The fixed-point loop that finishes every solve and smooths the
        # correlation, from pr as well as from another start.
        for trial in range(20):
            n = int(rng.integers(1, 60))
            g = random_digraph(rng, n)  # dangling nodes included
            pr = np.full(n, 1.0 / n)
            if trial % 2:
                pr = rng.uniform(0.0, 1.0, n)
                pr /= pr.sum()
            p0 = None if trial % 4 < 2 else pagerank(random_digraph(rng, n), personalization=pr).p
            alpha = float(rng.choice([0.15, 0.5, 1.0]))
            M = apps._transition(g)
            p, steps, residual, _ = apps._pagerank_iteration(M, pr if p0 is None else p0, alpha, pr, 1e-10, 200)
            want, it, want_residual = pagerank_reference(g, alpha, pr, max_iters=200, p0=p0)
            np.testing.assert_array_equal(p, want)
            assert (steps, residual) == (it, want_residual)

    def test_start_is_left_unchanged(self, rng):
        g = random_digraph(rng, 20)
        M, pr = apps._transition(g), np.full(20, 0.05)
        p0 = rng.uniform(0.0, 1.0, 20)
        p0 /= p0.sum()
        kept = p0.copy()
        p, steps, residual, converged = apps._pagerank_iteration(M, p0, 0.15, pr, 1e-10, 5)
        assert np.array_equal(p0, kept) and p is not p0
        assert (steps, converged) == (5, False)
        # No step: a copy of the start, no step norm, not converged.
        p, steps, residual, converged = apps._pagerank_iteration(M, p0, 0.15, pr, 1e-10, 0)
        assert np.array_equal(p, p0) and p is not p0
        assert (steps, residual, converged) == (0, np.inf, False)

    def test_given_transition_is_used(self, rng):
        g, h = random_digraph(rng, 30), random_digraph(rng, 30)
        np.testing.assert_array_equal(pagerank(g, transition=apps._transition(g)).p, pagerank(g).p)
        np.testing.assert_array_equal(pagerank(g, transition=apps._transition(h)).p, pagerank(h).p)


def product_transition(g):
    """A^T D^-1 as a sparse product with a diagonal matrix, with the degree
    inverse 0 at dangling nodes, whose columns it leaves empty."""
    A = adjacency(g)
    d = np.asarray(A.sum(axis=1)).ravel()
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    return (A.T @ sp.dia_array((inv[np.newaxis, :], [0]), shape=(g.n, g.n))).tocsr()


class TestTransition:
    def test_product_bits_and_dangling_columns(self, rng):
        graphs = [DirectedGraph(1, []), DirectedGraph(3, []), DirectedGraph(2, [(0, 1, 1.5)])]
        for _ in range(30):
            g = strong_digraph(rng, int(rng.integers(2, 40)), extra_factor=float(rng.uniform(0.3, 2.5)))
            sinks = rng.random(g.n) < 0.3
            graphs += [g, g.subgraph(np.flatnonzero(~sinks[g.tails]))]
        counts = np.zeros(2, dtype=int)
        for g in graphs:
            got, want = apps._transition(g), product_transition(g)
            dangling = np.bincount(g.tails, minlength=g.n) == 0
            counts[int(dangling.any())] += 1
            if not dangling.any():
                for attr in ("indptr", "indices", "data"):
                    assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
            dense = got.toarray()
            # A dangling node keeps its mass: its column is e_i exactly.
            assert np.array_equal(dense[:, dangling], np.eye(g.n)[:, dangling])
            assert np.array_equal(dense[:, ~dangling], want.toarray()[:, ~dangling])
            np.testing.assert_allclose(dense.sum(axis=0), 1.0, rtol=1e-14)
        assert counts.min() >= 25


class TestPageRankCorrelation:
    def test_identity_sparsifier(self, rng):
        g = strong_digraph(rng, 20)
        raw, smoothed = pagerank_correlation(g, g)
        assert raw == pytest.approx(1.0, abs=1e-12)
        assert smoothed == pytest.approx(1.0, abs=1e-12)

    def test_seed_beats_random_subgraph_baseline(self, rng):
        from specsparse import build_seed

        g = strong_digraph(rng, 20, extra_factor=4.0)
        seed = build_seed(g)
        raw, _ = pagerank_correlation(g, seed.graph)

        ids = rng.choice(g.num_edges, size=len(seed.kept_edge_ids), replace=False)
        baseline_graph = g.subgraph(ids.tolist())
        braw, _ = pagerank_correlation(g, baseline_graph)
        assert raw >= braw - 0.02

    def test_sparsifier_size_mismatch(self, rng):
        g = strong_digraph(rng, 12)
        with pytest.raises(ValueError, match="sparsifier has 13 nodes, graph has 12"):
            pagerank_correlation(g, DirectedGraph(13, []))

    def test_smoothing_helps(self, rng):
        g = strong_digraph(rng, 40)
        res = sparsify(g, SparsifyParams(iter_max=4, mu_limit=1.0, seed=1, alpha_percent=10))
        raw, smoothed = pagerank_correlation(g, res, smoothing_steps=5)
        assert smoothed >= raw - 1e-9

    def test_negative_smoothing_steps_rejected(self, rng):
        g = strong_digraph(rng, 8)
        with pytest.raises(ValueError, match="smoothing_steps must not be negative, got -1"):
            pagerank_correlation(g, g, smoothing_steps=-1)

    def test_smoothing_steps_on_synth115(self):
        """No step gives the raw correlation; ten steps of G's iteration do
        at least as well as three forward Gauss-Seidel sweeps of G's system
        (I - (1 - alpha) M) p = alpha pr, which smoothed before."""

        def gauss_seidel(M, p, alpha, pr, sweeps):
            A = sp.eye_array(M.shape[0], format="csr") - (1.0 - alpha) * M
            lower, upper = sp.tril(A, format="csr"), sp.triu(A, k=1, format="csr")
            for _ in range(sweeps):
                p = spla.spsolve_triangular(lower, alpha * pr - upper @ p, lower=True)
            return p / p.sum()

        g = read_matrix_market(Path(__file__).parent / "data" / "synth115.mtx")
        M = apps._transition(g)
        params = dict(d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9, r=16, t=5)
        for seed in range(3):
            res = sparsify(g, SparsifyParams(**params, seed=seed))
            for i in range(3):
                pr = np.zeros(g.n)
                pr[np.random.default_rng([7, g.n, i]).choice(g.n, 5, replace=False)] = 0.2
                raw, smoothed = pagerank_correlation(g, res, personalization=pr)
                assert pagerank_correlation(g, res, personalization=pr, smoothing_steps=0) == (raw, raw)
                p_s = pagerank(res.graph, personalization=pr).p
                swept = gauss_seidel(M, p_s, 0.15, pr, 3)
                old = float(np.corrcoef(pagerank(g, personalization=pr).p, swept)[0, 1])
                assert raw < old <= smoothed

    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_smoothing_is_the_graphs_iteration_from_the_sparsifiers_vector(self, rng, steps):
        g = strong_digraph(rng, 30)
        res = sparsify(g, SparsifyParams(iter_max=3, mu_limit=1.0, seed=2, alpha_percent=10))
        pr = np.full(g.n, 1.0 / g.n)
        p_g = pagerank(g, personalization=pr).p
        p_s = pagerank(res.graph, personalization=pr).p
        smoothed = pagerank_reference(g, 0.15, pr, max_iters=steps, p0=p_s)[0]
        raw, got = pagerank_correlation(g, res, smoothing_steps=steps)
        assert raw == float(np.corrcoef(p_g, p_s)[0, 1])
        assert got == float(np.corrcoef(p_g, smoothed)[0, 1])

    @pytest.mark.parametrize("graph", ["strong", "dangling", "synth32"])
    def test_many_smoothing_steps_recover_the_graphs_pagerank(self, rng, monkeypatch, graph):
        if graph == "synth32":
            g = read_matrix_market(Path(__file__).parent / "data" / "synth32.mtx")
        else:
            g = strong_digraph(rng, 40) if graph == "strong" else random_digraph(rng, 40)
        s = g.subgraph(list(range(0, g.num_edges, 2)))
        iteration, runs = apps._pagerank_iteration, []

        def spy(*args):
            runs.append(iteration(*args))
            return runs[-1]

        monkeypatch.setattr(apps, "_pagerank_iteration", spy)
        raw, smoothed = pagerank_correlation(g, s, smoothing_steps=1000)
        # g's, s's and the smoothing run; the last stops once a step meets tol.
        _, steps, residual, converged = runs[2]
        assert converged and steps < 1000 and residual <= 1e-10
        assert raw < smoothed and smoothed == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name, g, s", [
        ("graph's", DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]),
         DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])),
        ("sparsifier's", DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]), DirectedGraph(4, [])),
    ])
    def test_constant_vector_raises(self, name, g, s):
        # A constant PageRank vector has no Pearson correlation: corrcoef
        # returned nan with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"the {name} PageRank vector is constant"):
                pagerank_correlation(g, s)
            # Bit-equal vectors correlate exactly, constant or not.
            assert pagerank_correlation(g, g) == (1.0, 1.0)


class TestDirectedSolve:
    def test_recovers_solution(self, rng):
        g = strong_digraph(rng, 30)
        x_true = rng.standard_normal(30)
        b = laplacian(g) @ x_true
        x, _ = directed_solve(g, g, b)
        assert min_norm_error(g, x, x_true) <= 1e-6

    def test_zero_rhs(self, rng):
        g = strong_digraph(rng, 12)
        x, stats = directed_solve(g, g, np.zeros(12))
        np.testing.assert_array_equal(x, 0.0)
        assert stats == SolveStats(0, 0.0, True)

    def test_sparsifier_does_not_enter_the_solve(self, rng):
        g = strong_digraph(rng, 60)
        res = sparsify(g, SparsifyParams(iter_max=4, mu_limit=2.0, seed=0, alpha_percent=10))
        b = laplacian(g) @ rng.standard_normal(g.n)
        x, stats = directed_solve(g, res, b)
        y, same = directed_solve(g, g, b)
        assert np.array_equal(x, y) and stats == same

    def test_accepts_plain_graph_as_sparsifier(self, rng):
        g = strong_digraph(rng, 15)
        sub = g.subgraph(list(range(g.num_edges - 2)))
        b = laplacian(g) @ rng.standard_normal(15)
        x, stats = directed_solve(g, sub, b)
        assert x.shape == (15,)
        assert isinstance(stats, SolveStats) and stats.converged and stats.residual <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        # A NaN norm of b made the relative residual 0: all max_iters
        # BiCGSTAB steps ran and a NaN x was reported as converged.
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        for b in ([bad, 1.0, 2.0], [[0.0, 1.0], [1.0, 2.0], [2.0, bad]]):
            with pytest.raises(ValueError, match="^right-hand side must be finite$"):
                directed_solve(g, g, b)

    def test_inconsistent_rhs_on_nodes_without_edges(self):
        # Nodes without edges are zero rows of L_G; b minus its mean must
        # vanish there, so a nonzero mean alone is projected away.
        g = DirectedGraph(3, [])
        with pytest.raises(ValueError, match="right-hand side is inconsistent on nodes without edges"):
            directed_solve(g, g, [0.0, 1.0, 2.0])
        for b in (np.ones(3), np.full(3, -0.18547186)):  # the second centers to rounding residue
            x, stats = directed_solve(g, g, b)
            np.testing.assert_array_equal(x, 0.0)
            assert stats == SolveStats(0, 0.0, True)
        # Node 3 is isolated; the other three form a cycle.
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(ValueError, match="right-hand side is inconsistent on nodes without edges"):
            directed_solve(g, g, [1.0, -1.0, 0.0, 3.0])
        # A node with edges in G but none in the sparsifier is no zero row.
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)])
        b = laplacian(g) @ np.array([0.0, 1.0, 2.0, 3.0])
        x, stats = directed_solve(g, g.subgraph([0, 1, 2]), b)
        assert stats.converged and np.linalg.norm(laplacian(g) @ x - b) <= 1e-8 * np.linalg.norm(b)

    @settings(max_examples=60, deadline=None)
    @given(g=graphs_with_isolated_and_sinks(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(g=DirectedGraph(4, [(0, 1, 1.0)]), k=2, seed=0)  # two isolated nodes and a sink
    @example(g=DirectedGraph(3, []), k=1, seed=0)  # every node isolated
    @example(g=DirectedGraph(3, []), k=1, seed=220)  # a constant b: centering leaves rounding residue
    def test_meets_tol_on_graphs_with_isolated_nodes_and_sinks(self, g, k, seed):
        rng = np.random.default_rng(seed)
        L_G = laplacian(g)
        B = L_G @ rng.standard_normal((g.n, k)) + rng.standard_normal(k)  # consistent up to each mean
        params = SolverParams(tol=1e-10)
        X, stats = directed_solve(g, g, B, solver_params=params)
        assert stats.converged and stats.residual <= params.tol
        # Up to the rounding of the test's own centering, which sums in
        # another order.
        C = B - B.mean(axis=0)
        residual = np.linalg.norm(L_G @ X - C, axis=0)
        assert (residual <= params.tol * np.linalg.norm(C, axis=0) + 1e-14 * np.linalg.norm(B, axis=0)).all()
        steps = 0
        for j in range(k):
            x, column = directed_solve(g, g, B[:, j], solver_params=params)
            assert np.array_equal(x, X[:, j]) and column.converged
            steps = max(steps, column.iterations)
        assert stats.iterations == steps <= params.max_iters

    @pytest.mark.parametrize("name", ["synth32", "path", "hub", "two attractors", "weights over six decades", "isolated node"])
    def test_matches_the_min_norm_solution(self, name):
        g = FIXED_GRAPHS[name]()
        x_true = np.random.default_rng(0).standard_normal(g.n)
        params = SolverParams(tol=1e-10)
        x, stats = directed_solve(g, g, laplacian(g) @ x_true, solver_params=params)
        assert stats.converged and stats.residual <= params.tol
        assert 1 <= stats.iterations <= params.max_iters
        assert min_norm_error(g, x, x_true) <= 1e-6

    @pytest.mark.parametrize("scaled", ["even nodes by 2^10", "odd nodes by 2^-6", "each node by its own"])
    def test_jacobi_makes_the_solve_blind_to_out_weight_scale(self, scaled):
        # Scaling node i's out-edges by c_i scales column i of L_G and its
        # diagonal alike, so L_G J is unchanged; powers of two keep it bit
        # for bit, and x comes back divided by c.  Unpreconditioned, only a
        # scale common to all nodes would.
        g = read_matrix_market(Path(__file__).parent / "data" / "synth32.mtx")
        b = laplacian(g) @ np.random.default_rng(1).standard_normal(g.n)
        c = np.ones(g.n)
        if scaled == "even nodes by 2^10":
            c[::2] = 2.0**10
        elif scaled == "odd nodes by 2^-6":
            c[1::2] = 2.0**-6
        else:
            c = np.ldexp(1.0, np.random.default_rng(2).integers(-8, 9, g.n))
        h = DirectedGraph.from_arrays(g.n, g.tails, g.heads, g.weights * c[g.tails])
        x, stats = directed_solve(g, g, b)
        y, scaled = directed_solve(h, h, b)
        assert np.array_equal(y, x / c) and scaled == stats

    def test_unconverged_below_the_cap_is_flagged(self):
        rng = np.random.default_rng(0)
        g = strong_digraph(rng, 40)
        b = laplacian(g) @ rng.standard_normal(40)
        x, stats = directed_solve(g, g, b, solver_params=SolverParams(tol=1e-12, max_iters=12))
        assert stats.iterations == 12 and not stats.converged
        assert 1e-12 < stats.residual <= apps.RESIDUAL_CAP
        assert np.linalg.norm(laplacian(g) @ x - b) == pytest.approx(stats.residual * np.linalg.norm(b))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_no_nodes(self, shape):
        g = DirectedGraph(0, [])
        x, stats = directed_solve(g, g, np.zeros(shape))
        assert x.shape == shape and stats == SolveStats(0, 0.0, True)

    def test_sparsifier_size_mismatch(self, rng):
        g = strong_digraph(rng, 12)
        with pytest.raises(ValueError, match="sparsifier has 11 nodes, graph has 12"):
            directed_solve(g, DirectedGraph(11, []), np.zeros(12))

    @pytest.mark.parametrize("shape", [(3,), (5,), (3, 2), (4, 2, 1)])
    @pytest.mark.parametrize("sparsifier", ["3-cycle", "G"])
    def test_rhs_shape_validated(self, monkeypatch, shape, sparsifier):
        # Node 3 is a sink, whose diagonal in L_G is zero.
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)])
        s = g.subgraph([0, 1, 2]) if sparsifier == "3-cycle" else g
        solved = []
        monkeypatch.setattr(apps.spla, "bicgstab", lambda *args, **kwargs: solved.append(args))
        with pytest.raises(ValueError, match=rf"rhs has shape \({shape[0]},"):
            directed_solve(g, s, np.zeros(shape))
        assert not solved  # raised before any solve

    def test_block_rhs_matches_column_solves(self):
        # Each column is centered by its own mean: every column here meets
        # its mean on node 3, which is isolated.
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)])
        B = np.array([[1.0, 1.0, 3.0], [1.0, -1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
        X, stats = directed_solve(g, g, B)
        assert X.shape == B.shape and stats.converged
        for j in range(B.shape[1]):
            x, _ = directed_solve(g, g, B[:, j])
            assert np.array_equal(X[:, j], x)

    def test_stall_raises(self, rng):
        g = strong_digraph(rng, 40)
        b = laplacian(g) @ rng.standard_normal(40)
        with pytest.raises(RuntimeError, match="directed solve stalled at residual"):
            directed_solve(g, g, b, solver_params=SolverParams(max_iters=1))


def _sparse_matches_dense(monkeypatch, g, k, shift_invert, requests):
    """Partition g through ARPACK (DENSE_CUTOFF = 0) and check it against eigh.

    ARPACK must be asked for ``requests`` eigenpairs in turn, each on a basis
    of min(max(2k + 1, ARPACK_MIN_NCV), n) vectors by the expected route; the
    eigenvalues and indices must agree, and each chosen eigenvector of the
    last call must lie in the dense eigenspace of its eigenvalue (any
    orthonormal basis of a repeated eigenvalue is valid, so the vectors
    themselves need not agree).  Returns both results.
    """
    dense = spectral_partition(g, k, seed=0)
    calls = eigsh_spy(monkeypatch)
    monkeypatch.setattr(apps, "DENSE_CUTOFF", 0)
    sparse = spectral_partition(g, k, seed=0)
    assert [call.k for call in calls] == requests
    for call in calls:
        assert call.ncv == min(max(2 * call.k + 1, apps.ARPACK_MIN_NCV), g.n)
        assert (call[0] is not None) == shift_invert
    vals, vecs = calls[-1][1]

    w, V = np.linalg.eigh(symmetrize(laplacian(g)).toarray())
    scale = max(abs(w).max(), 1e-300)
    assert sparse.eigvec_indices == dense.eigvec_indices
    np.testing.assert_allclose(sparse.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-8 * scale)
    X = vecs[:, np.argsort(vals)][:, sparse.eigvec_indices]
    for x, lam in zip(X.T, sparse.eigenvalues):
        Z = V[:, np.abs(np.maximum(w, 0.0) - lam) <= 1e-8 * scale]
        assert np.linalg.norm(x - Z @ (Z.T @ x)) <= 1e-6
    return dense, sparse


class TestSpectralPartition:
    def test_disconnected_cycles_separate_exactly(self, monkeypatch):
        # Two directed rings of `size` nodes, of weights 1 and 2.  Above the
        # cutoff, k = 2 asks for c + k = 4 eigenpairs, which the 32-node
        # graph's paired eigenvalues split into 2 groups, then for 8, by
        # shift-invert; the 4-node one is dense either way.
        for size in (2, 16):
            edges = [(i, (i + 1) % size, 1.0) for i in range(size)]
            edges += [(size + i, size + (i + 1) % size, 2.0) for i in range(size)]
            g = DirectedGraph(2 * size, edges)
            if size == 2:
                parts = [spectral_partition(g, 2, seed=0)]
            else:
                parts = _sparse_matches_dense(monkeypatch, g, 2, shift_invert=True, requests=[4, 8])
            for part in parts:
                assert len(set(part.assignment[:size])) == len(set(part.assignment[size:])) == 1
                assert part.assignment[0] != part.assignment[size]

    def test_every_node_assigned_dense_ids(self, rng):
        g = strong_digraph(rng, 25)
        part = spectral_partition(g, 3, seed=1)
        assert part.assignment.shape == (25,)
        assert set(part.assignment) == {0, 1, 2}

    def test_k_exceeding_distinct_eigenvalues(self):
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        with pytest.raises(ValueError, match="only"):
            spectral_partition(g, 4)

    def test_k_validated(self, rng):
        with pytest.raises(ValueError, match="k"):
            spectral_partition(strong_digraph(rng, 6), 1)

    def test_graphs_with_fewer_nodes_than_k(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"k=2 clusters need at least 2 nodes, the graph has {n}"):
                spectral_partition(DirectedGraph(n, []), 2)
        with pytest.raises(ValueError, match="k=3 clusters need at least 3 nodes"):
            spectral_partition(DirectedGraph(2, [(0, 1, 1.0)]), 3)

    def test_two_nodes(self):
        part = spectral_partition(DirectedGraph(2, [(0, 1, 1.0)]), 2)
        assert list(part.assignment) == [0, 1]
        with pytest.raises(ValueError, match="only 1 are available"):
            spectral_partition(DirectedGraph(2, []), 2)

    def test_directed_vs_undirected_both_run(self, rng):
        # same node/edge set, directed vs both-orientations; results may differ
        g = strong_digraph(rng, 14)
        undirected = DirectedGraph(
            14, g.edges + [(h, t, w) for t, h, w in g.edges]
        )
        pd = spectral_partition(g, 3, seed=0)
        pu = spectral_partition(undirected, 3, seed=0)
        assert pd.assignment.shape == pu.assignment.shape

    def test_multiplicity_grouping_collapses(self, monkeypatch):
        # two disconnected 2-cycles: eigenvalue 0 has multiplicity 2 but is
        # one distinct value, so indices 0 and 1 are both used for k=2
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        for dense_cutoff in (2000, 0):
            monkeypatch.setattr(apps, "DENSE_CUTOFF", dense_cutoff)
            part = spectral_partition(g, 2, seed=0)
            assert part.eigvec_indices == [0, 1]
            np.testing.assert_allclose(part.eigenvalues, 0.0, atol=1e-9)

    def test_grouping_does_not_depend_on_the_values_returned(self, rng, monkeypatch):
        # Two eigenvalues 1e-5 apart group alike whether the eigensolve
        # returns 4 values ending at 0.868 (as ARPACK's few pairs) or all 6,
        # ending at 1258 (as the dense route): the band is fixed by L_u.
        g = strong_digraph(rng, 6)
        low = [0.0, 0.5, 0.5 + 1e-5, 0.868]
        outcomes = []
        for vals in (low, low + [600.0, 1258.0]):
            vecs = np.linalg.qr(rng.standard_normal((6, len(vals))))[0]
            monkeypatch.setattr(apps, "_low_eigenpairs", lambda *a, v=np.array(vals), q=vecs, **kw: (v, q))
            try:
                outcomes.append(spectral_partition(g, 2, seed=0).eigvec_indices)
            except ValueError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("scale, groups", [
        (0.868, [[0, 1], [2], [3], [4]]),  # a band of 8.7e-9
        (1258.0, [[0, 1], [2, 3], [4]]),  # a band of 1.3e-5
    ])
    def test_groups_within_the_band_of_the_scale_given(self, scale, groups):
        vals = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-5, 0.868])
        assert apps._distinct_groups(vals, scale) == groups
        # The values past them do not move the groups.
        assert apps._distinct_groups(np.append(vals, [600.0, 1258.0]), scale) == groups + [[5], [6]]

    def test_shift_invert_route_matches_dense_synth32(self, monkeypatch):
        # k = 2 asks for c + k = 3 eigenpairs, 3 distinct values.
        g = read_matrix_market(Path(__file__).parent / "data" / "synth32.mtx")
        dense, sparse = _sparse_matches_dense(monkeypatch, g, 2, shift_invert=True, requests=[3])
        assert adjusted_rand_index(dense.assignment, sparse.assignment) == 1.0

    def test_lanczos_route_matches_dense_on_dense_laplacian(self, rng, monkeypatch):
        g = strong_digraph(rng, 300, extra_factor=12)
        assert symmetrize(laplacian(g)).nnz > apps.SHIFT_INVERT_NNZ_PER_ROW * g.n
        dense, sparse = _sparse_matches_dense(monkeypatch, g, 4, shift_invert=False, requests=[5])
        assert adjusted_rand_index(dense.assignment, sparse.assignment) == 1.0

    def test_dense_input_partitions_in_one_lanczos_call(self, monkeypatch):
        # clustered_digraph's L_u is too dense to factor, so plain Lanczos
        # runs once, for c + k = 5 eigenpairs on a basis of 40 vectors.
        g = clustered_digraph(n=400, k=4, seed=5)
        assert symmetrize(laplacian(g)).nnz > apps.SHIFT_INVERT_NNZ_PER_ROW * g.n
        dense, sparse = _sparse_matches_dense(monkeypatch, g, 4, shift_invert=False, requests=[5])
        assert adjusted_rand_index(dense.assignment, sparse.assignment) == 1.0

    def test_paired_eigenvalues_grow_the_request(self, monkeypatch):
        # A bidirected 60-node cycle: past 0, every eigenvalue of L_u comes
        # in a pair.  k = 4 ends inside the second pair; ARPACK's c + k = 5
        # pairs hold only 3 groups, too few to show that, so the request
        # doubles to 10.  Both routes agree on every k.
        n = 60
        g = DirectedGraph(n, [(i, (i + d) % n, 1.0) for i in range(n) for d in (1, n - 1)])
        parts = {}
        calls = eigsh_spy(monkeypatch)
        for dense_cutoff in (2000, 0):
            monkeypatch.setattr(apps, "DENSE_CUTOFF", dense_cutoff)
            calls.clear()
            with pytest.raises(ValueError, match=r"k=4 would take 1 of the 2 eigenvectors"):
                spectral_partition(g, 4)
            assert [call.k for call in calls] == ([5, 10] if dense_cutoff == 0 else [])
            parts[dense_cutoff] = [spectral_partition(g, k, seed=0) for k in (3, 5)]
        for dense, sparse in zip(parts[2000], parts[0]):
            assert sparse.eigvec_indices == dense.eigvec_indices == list(range(dense.k))
            np.testing.assert_allclose(sparse.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dense_cutoff", [2000, 0])
    def test_requests_grow_past_a_whole_eigenspace(self, monkeypatch, dense_cutoff):
        # The bidirected 6-cube: L_u has the eigenvalues 4 i^2 with
        # multiplicity C(6, i), 7 distinct in all.  For k = 2, ARPACK's 3 and
        # then 6 pairs show only two groups, the second cut short; the 12 of
        # the third request show all 6 eigenvectors of eigenvalue 4.  k = 8
        # grows the request until it goes dense.
        d = 6
        g = DirectedGraph(2**d, [(i, i ^ (1 << b), 1.0) for i in range(2**d) for b in range(d)])
        monkeypatch.setattr(apps, "DENSE_CUTOFF", dense_cutoff)
        calls = eigsh_spy(monkeypatch)
        with pytest.raises(ValueError, match=r"k=2 would take 1 of the 6 eigenvectors"):
            spectral_partition(g, 2)
        assert [call.k for call in calls] == ([3, 6, 12] if dense_cutoff == 0 else [])
        assert spectral_partition(g, 7).eigvec_indices == list(range(7))
        calls.clear()
        with pytest.raises(ValueError, match=r"requested 8 distinct eigenvalues but only 7 are available"):
            spectral_partition(g, 8)
        assert [call.k for call in calls] == ([9, 18] if dense_cutoff == 0 else [])

    def test_multi_attractor_converges_by_shift_invert(self, monkeypatch):
        # Zero has multiplicity 20 here; plain Lanczos for the smallest
        # eigenvalues stalled on it (ArpackNoConvergence).  Any basis of the
        # null space is valid, and k-means on another basis clusters
        # differently, so only the eigenvalues and the subspace are compared.
        # k = 20 takes the whole null space.
        g = random_digraph(np.random.default_rng(3), 300)
        dense, _ = _sparse_matches_dense(monkeypatch, g, 20, shift_invert=True, requests=[40])
        assert dense.eigvec_indices == list(range(20))

    @pytest.mark.parametrize("want", [17, 20, 39, 60])
    def test_wide_requests_above_the_cutoff_go_dense(self, rng, monkeypatch, want):
        # Above the cutoff, ARPACK's default subspace of 2k + 1 vectors spans
        # every node once 2 min(want, n - 1) + 1 >= n; eigvalsh is then the
        # cheaper route.  Just below that, ARPACK still runs.
        g = strong_digraph(rng, 40)
        w = np.linalg.eigvalsh(symmetrize(laplacian(g)).toarray())
        calls = eigsh_spy(monkeypatch)
        monkeypatch.setattr(apps, "DENSE_CUTOFF", 0)
        vals, vecs = apps._low_eigenpairs(laplacian(g), want, seed=0, vectors=False)
        assert vecs is None
        k = min(want, g.n - 1)
        assert len(calls) == (2 * k + 1 < g.n)
        assert vals.size == (k if calls else g.n)
        np.testing.assert_allclose(vals, np.maximum(w[: vals.size], 0.0), rtol=0, atol=1e-10 * w[-1])

    @pytest.mark.parametrize("dense_cutoff", [2000, 0])
    def test_k_inside_an_eigenvalue_group_raises(self, monkeypatch, dense_cutoff):
        # k = 4 would take 4 of the 20 null vectors, and the split would
        # depend on which basis the eigensolver returns.  With 18 eigenpairs
        # (max(4k, 2k + 10)) shift-invert found only 10 of them; the request
        # of c + k = 24 finds all 20.
        g = random_digraph(np.random.default_rng(3), 300)
        monkeypatch.setattr(apps, "DENSE_CUTOFF", dense_cutoff)
        with pytest.raises(ValueError, match=r"would take 4 of the 20 eigenvectors"):
            spectral_partition(g, 4)

    def test_partial_null_space_raises(self, monkeypatch):
        # An eigensolver that returns fewer null vectors than g has sink
        # components (20 here) leaves the zero group incomplete.
        g = random_digraph(np.random.default_rng(3), 300)
        low = apps._low_eigenpairs

        def short(L, want, seed, **kwargs):
            vals, vecs = low(L, want, seed, **kwargs)
            return vals[1:], vecs[:, 1:]

        monkeypatch.setattr(apps, "_low_eigenpairs", short)
        with pytest.raises(RuntimeError, match="found 19 of the 20 null vectors"):
            spectral_partition(g, 20)


class TestKmeans:
    def test_separates_obvious_clusters(self, rng):
        X = np.vstack([rng.normal(0, 0.05, (20, 2)), rng.normal(5, 0.05, (20, 2))])
        labels = kmeans(X, 2, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_deterministic(self, rng):
        X = rng.standard_normal((40, 3))
        a = kmeans(X, 4, seed=9)
        b = kmeans(X, 4, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_k_validated(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.standard_normal((5, 2)), 6)

    @pytest.mark.parametrize("counts", [dict(restarts=0), dict(restarts=-1), dict(max_iters=0)])
    def test_counts_validated(self, rng, counts):
        # restarts=0 returned one label for six points; max_iters=0 failed
        # inside numpy
        with pytest.raises(ValueError, match="restarts and max_iters must be at least 1"):
            kmeans(rng.random((6, 2)), 2, **counts)
        assert kmeans(rng.random((6, 2)), 2, restarts=1, max_iters=1).shape == (6,)

    def test_labels_dense_in_order_of_first_appearance(self, rng):
        for k in (2, 3, 5, 8):
            X = rng.standard_normal((60, 2)) + rng.integers(0, k, (60, 1)) * 4.0
            labels = kmeans(X, k, seed=int(rng.integers(100)))
            values, first = np.unique(labels, return_index=True)
            assert labels.dtype == np.int64
            np.testing.assert_array_equal(values, np.arange(values.size))
            assert np.all(np.diff(first) > 0)


class TestAdjustedRandIndex:
    def test_identical_up_to_relabeling(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_single_cluster_each(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_independent_labelings_near_zero(self, rng):
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])
