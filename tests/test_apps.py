from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    SolveStats,
    SparsifyParams,
    SpsSolver,
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

from conftest import eigsh_spy, min_norm_error, random_digraph, strong_digraph


def gs_loop(L_G, y, b, sweeps):
    """Gauss-Seidel sweeps on L_Gu y = b, one node at a time, with
    L_Gu = L_G L_G^T never formed: the test oracle of ``directed_solve``'s
    smoothing.

    Maintains z = L_G^T y; row i of L_Gu applied to y is row_i(L_G) . z and
    its diagonal is ||row_i(L_G)||^2.  Nodes with a zero row keep their y_i.
    """
    L = sp.csr_array(L_G)
    indptr, indices, data = L.indptr, L.indices, L.data
    z = L.T @ y
    y = y.copy()
    row_sq = np.asarray(L.multiply(L).sum(axis=1)).ravel()
    for _ in range(sweeps):
        for i in range(L.shape[0]):
            d = row_sq[i]
            if d <= 0:
                continue
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            delta = (b[i] - vals @ z[cols]) / d
            y[i] += delta
            z[cols] += delta * vals
    return y


class RoughSolver:
    """Stands in for the L_Su solver and returns a fixed y."""

    def __init__(self, y):
        self.y = y

    def solve(self, b):
        return self.y.copy(), SolveStats(1, 0.0, True)


@st.composite
def graphs_with_isolated_and_sinks(draw):
    """``random_digraph`` with the out-edges of some nodes dropped (sink-only
    or isolated nodes) and a few isolated nodes appended."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    g = random_digraph(rng, n, extra_factor=draw(st.floats(0.3, 3.0)))
    keep = rng.random(n)[g.tails] >= draw(st.floats(0.0, 0.5))
    return DirectedGraph.from_arrays(n + draw(st.integers(0, 3)), g.tails[keep], g.heads[keep], g.weights[keep])


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


def pagerank_reference(g, alpha, pr, tol=1e-10, max_iters=1000):
    """The fixed-point loop with a new array for every intermediate."""
    M = apps._transition(g)
    p = pr.copy()
    for it in range(1, max_iters + 1):
        p_new = (1.0 - alpha) * (M @ p) + alpha * pr
        p_new /= p_new.sum()
        residual = float(np.abs(p_new - p).sum())
        p = p_new
        if residual <= tol:
            break
    return p, it, residual


class TestPageRankInPlace:
    def test_same_bits_as_the_allocating_loop(self, rng):
        for trial in range(20):
            n = int(rng.integers(1, 60))
            g = random_digraph(rng, n)  # dangling nodes included
            pr = None
            if trial % 2:
                pr = rng.uniform(0.0, 1.0, n)
                pr /= pr.sum()
            alpha = float(rng.choice([0.15, 0.5, 1.0]))
            res = pagerank(g, alpha, pr, max_iters=200)
            p, it, residual = pagerank_reference(g, alpha, np.full(n, 1.0 / n) if pr is None else pr, max_iters=200)
            np.testing.assert_array_equal(res.p, p)
            assert (res.iterations, res.residual) == (it, residual)

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
        raw, smoothed = pagerank_correlation(g, res, gs_sweeps=5)
        assert smoothed >= raw - 1e-9


class TestDirectedSolve:
    def test_exact_preconditioner_recovers_solution(self, rng):
        g = strong_digraph(rng, 30)
        x_true = rng.standard_normal(30)
        b = laplacian(g) @ x_true
        x, _ = directed_solve(g, g, b, gs_sweeps=0)
        assert min_norm_error(g, x, x_true) <= 1e-6

    def test_zero_rhs(self, rng):
        g = strong_digraph(rng, 12)
        x, _ = directed_solve(g, g, np.zeros(12), gs_sweeps=3)
        np.testing.assert_allclose(x, 0.0, atol=1e-12)

    def test_smoothing_reduces_error(self, rng):
        wins = 0
        for trial in range(5):
            n = int(rng.integers(30, 120))
            g = strong_digraph(rng, n)
            res = sparsify(g, SparsifyParams(iter_max=4, mu_limit=2.0, seed=trial, alpha_percent=10))
            x_true = rng.standard_normal(n)
            b = laplacian(g) @ x_true
            x0, _ = directed_solve(g, res, b, gs_sweeps=0)
            x5, _ = directed_solve(g, res, b, gs_sweeps=5)
            wins += min_norm_error(g, x5, x_true) < min_norm_error(g, x0, x_true)
        assert wins >= 4

    def test_accepts_plain_graph_as_sparsifier(self, rng):
        g = strong_digraph(rng, 15)
        sub = g.subgraph(list(range(g.num_edges - 2)))
        b = laplacian(g) @ rng.standard_normal(15)
        x, stats = directed_solve(g, sub, b, gs_sweeps=2)
        assert x.shape == (15,)
        assert isinstance(stats, SolveStats) and stats.converged and stats.residual <= 1e-8

    def test_inconsistent_rhs_on_nodes_without_edges(self):
        # Nodes without edges are zero rows of L_Su; b minus its mean must
        # vanish there, so a nonzero mean alone is projected away.
        g = DirectedGraph(3, [])
        with pytest.raises(ValueError, match="right-hand side is inconsistent on nodes without edges"):
            directed_solve(g, g, [0.0, 1.0, 2.0])
        x, stats = directed_solve(g, g, np.ones(3))
        np.testing.assert_array_equal(x, 0.0)
        assert stats.converged
        # Node 3 keeps its edge in G but has none in the sparsifier.
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)])
        b = laplacian(g) @ np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="right-hand side is inconsistent on nodes without edges"):
            directed_solve(g, g.subgraph([0, 1, 2]), b)

    @settings(max_examples=60, deadline=None)
    @given(g=graphs_with_isolated_and_sinks(), sweeps=st.sampled_from([0, 1, 5]), seed=st.integers(0, 2**32 - 1))
    @example(g=DirectedGraph(4, [(0, 1, 1.0)]), sweeps=5, seed=0)  # two isolated nodes and a sink
    @example(g=DirectedGraph(3, []), sweeps=1, seed=0)  # every node isolated
    def test_sweeps_match_the_per_node_loop(self, g, sweeps, seed):
        rng = np.random.default_rng(seed)
        L_G = laplacian(g)
        b = L_G @ rng.standard_normal(g.n)
        y0 = rng.standard_normal(g.n)
        # A rough L_Su solve, so that the sweeps have work to do.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(apps, "SpsSolver", lambda L, params: RoughSolver(y0))
            x, _ = directed_solve(g, g, b, gs_sweeps=sweeps)
        want = L_G.T @ (gs_loop(L_G, y0, b, sweeps) if sweeps else y0)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_sparsifier_size_mismatch(self, rng):
        g = strong_digraph(rng, 12)
        with pytest.raises(ValueError, match="sparsifier has 11 nodes, graph has 12"):
            directed_solve(g, DirectedGraph(11, []), np.zeros(12))

    def test_sparsifier_path_matches_the_per_node_loop(self, rng):
        g = strong_digraph(rng, 80)
        res = sparsify(g, SparsifyParams(iter_max=3, mu_limit=2.0, seed=0, alpha_percent=10))
        L_G = laplacian(g)
        b = L_G @ rng.standard_normal(g.n)
        y, _ = SpsSolver(symmetrize(laplacian(res.graph))).solve(b)
        for sweeps in (1, 5):
            x, _ = directed_solve(g, res, b, gs_sweeps=sweeps)
            want = L_G.T @ gs_loop(L_G, y, b, sweeps)
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
            assert np.linalg.norm(x - L_G.T @ y) > 1e-6 * np.linalg.norm(want)  # the sweeps moved x


def _sparse_matches_dense(monkeypatch, g, k, shift_invert):
    """Partition g through ARPACK (DENSE_CUTOFF = 0) and check it against eigh.

    The route taken must be the expected one, the eigenvalues and indices
    must agree, and each chosen eigenvector must lie in the dense eigenspace
    of its eigenvalue (any orthonormal basis of a repeated eigenvalue is
    valid, so the vectors themselves need not agree).  Returns both results.
    """
    dense = spectral_partition(g, k, seed=0)
    calls = eigsh_spy(monkeypatch)
    monkeypatch.setattr(apps, "DENSE_CUTOFF", 0)
    sparse = spectral_partition(g, k, seed=0)
    assert len(calls) == 1
    sigma, (vals, vecs) = calls[0]
    assert (sigma is not None) == shift_invert

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
        # cutoff, k = 2 asks for 14 eigenpairs: the 32-node graph takes
        # shift-invert, while the 4-node one is dense either way.
        for size in (2, 16):
            edges = [(i, (i + 1) % size, 1.0) for i in range(size)]
            edges += [(size + i, size + (i + 1) % size, 2.0) for i in range(size)]
            g = DirectedGraph(2 * size, edges)
            if size == 2:
                parts = [spectral_partition(g, 2, seed=0)]
            else:
                parts = _sparse_matches_dense(monkeypatch, g, 2, shift_invert=True)
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

    def test_shift_invert_route_matches_dense_synth32(self, monkeypatch):
        # k = 2 asks for 14 eigenpairs, few enough for ARPACK on 32 nodes;
        # k = 4 (18 of them) takes the dense route above the cutoff too.
        g = read_matrix_market(Path(__file__).parent / "data" / "synth32.mtx")
        dense, sparse = _sparse_matches_dense(monkeypatch, g, 2, shift_invert=True)
        assert adjusted_rand_index(dense.assignment, sparse.assignment) == 1.0

    def test_lanczos_route_matches_dense_on_dense_laplacian(self, rng, monkeypatch):
        g = strong_digraph(rng, 300, extra_factor=12)
        assert symmetrize(laplacian(g)).nnz > apps.SHIFT_INVERT_NNZ_PER_ROW * g.n
        dense, sparse = _sparse_matches_dense(monkeypatch, g, 4, shift_invert=False)
        assert adjusted_rand_index(dense.assignment, sparse.assignment) == 1.0

    def test_multi_attractor_converges_by_shift_invert(self, monkeypatch):
        # Zero has multiplicity 20 here; plain Lanczos for the smallest
        # eigenvalues stalled on it (ArpackNoConvergence).  Any basis of the
        # null space is valid, and k-means on another basis clusters
        # differently, so only the eigenvalues and the subspace are compared.
        # k = 20 takes the whole null space.
        g = random_digraph(np.random.default_rng(3), 300)
        dense, _ = _sparse_matches_dense(monkeypatch, g, 20, shift_invert=True)
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
