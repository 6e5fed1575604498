import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    build_seed,
    filter_similar_edges,
    laplacian,
    power_iterate,
    score_edges,
    symmetrize,
    symmetrized_operator,
)
from specsparse import sensitivity
from specsparse.solver import SpsSolver

from conftest import dense_pencil, strong_digraph


def seeded_case(rng, n):
    g = strong_digraph(rng, n)
    seed = build_seed(g)
    off = sorted(set(range(g.num_edges)) - set(seed.kept_edge_ids))
    return g, seed, off


class TestPowerIterate:
    def test_identity_when_subgraph_is_graph(self, rng):
        g = strong_digraph(rng, 12)
        Lu = symmetrize(laplacian(g))
        (mu,), _ = power_iterate(Lu, Lu, rng.uniform(-1, 1, (1, 12)), t=2, solver=SpsSolver(Lu))
        assert mu == pytest.approx(1.0, abs=1e-9)

    def test_planted_eigenvector_recovers_mu_max(self, rng):
        g, seed, _ = seeded_case(rng, 10)
        Lgu = symmetrize(laplacian(g))
        Lsu = symmetrize(laplacian(seed.graph))
        mu_true, v1 = dense_pencil(Lgu, Lsu)
        (mu,), _ = power_iterate(Lgu, Lsu, v1[None], t=3, solver=SpsSolver(Lsu))
        assert mu == pytest.approx(mu_true, rel=1e-6)

    def test_mu_within_factor_of_truth(self, rng):
        for _ in range(5):
            g, seed, _ = seeded_case(rng, 6)
            Lgu = symmetrize(laplacian(g))
            Lsu = symmetrize(laplacian(seed.graph))
            mu_true, _ = dense_pencil(Lgu, Lsu)
            (mu,), _ = power_iterate(Lgu, Lsu, rng.uniform(-1, 1, (1, 6)), t=3, solver=SpsSolver(Lsu))
            assert mu_true / 3 <= mu <= mu_true * (1 + 1e-9)

    def test_mu_at_least_one_for_subgraphs(self, rng):
        for _ in range(10):
            g, seed, _ = seeded_case(rng, int(rng.integers(5, 15)))
            Lgu = symmetrize(laplacian(g))
            Lsu = symmetrize(laplacian(seed.graph))
            (mu,), _ = power_iterate(Lgu, Lsu, rng.uniform(-1, 1, (1, g.n)), t=3, solver=SpsSolver(Lsu))
            mu_true, _ = dense_pencil(Lgu, Lsu)
            assert mu_true >= 1 - 1e-6
            assert mu <= mu_true * (1 + 1e-9)

    def test_zero_mean_output(self, rng):
        g, seed, _ = seeded_case(rng, 9)
        Lgu = symmetrize(laplacian(g))
        Lsu = symmetrize(laplacian(seed.graph))
        _, H = power_iterate(Lgu, Lsu, rng.uniform(-1, 1, (3, 9)), t=2, solver=SpsSolver(Lsu))
        np.testing.assert_array_less(np.abs(H.sum(axis=0)), 1e-9)

    def test_t_must_be_positive(self, rng):
        g = strong_digraph(rng, 5)
        Lu = symmetrize(laplacian(g))
        with pytest.raises(ValueError, match="t"):
            power_iterate(Lu, Lu, np.ones((1, 5)), t=0, solver=SpsSolver(Lu))

    def test_starts_are_rows(self, rng):
        g = strong_digraph(rng, 5)
        Lu = symmetrize(laplacian(g))
        with pytest.raises(ValueError, match="r x n"):
            power_iterate(Lu, Lu, np.ones(5), solver=SpsSolver(Lu))
        mu, H = power_iterate(Lu, Lu, np.ones((0, 5)), solver=SpsSolver(Lu))
        assert mu.shape == (0,) and H.shape == (5, 0)

    def test_block_of_estimates_and_iterates(self, rng):
        # One array of r estimates and one n x r block of unit columns that
        # owns its data: no view that keeps another buffer alive.
        g, seed, _ = seeded_case(rng, 12)
        Lgu = symmetrize(laplacian(g))
        Lsu = symmetrize(laplacian(seed.graph))
        mu, H = power_iterate(Lgu, Lsu, rng.uniform(-1, 1, (4, 12)), t=3, solver=SpsSolver(Lsu))
        assert isinstance(mu, np.ndarray) and mu.shape == (4,)
        assert H.shape == (12, 4) and H.flags.owndata
        np.testing.assert_allclose(np.linalg.norm(H, axis=0), 1.0, rtol=1e-12)


def score_one(H, g, eid, L_S, weight=None):
    """score_edges on the single edge eid of g: (sensitivity, embedding)."""
    w = g.weights[[eid]] if weight is None else np.array([weight])
    sens, emb = score_edges(H, L_S, g.tails[[eid]], g.heads[[eid]], w)
    return sens[0], emb[0]


class TestEdgeSensitivity:
    def test_allones_vector_gives_zero(self, rng):
        g, seed, off = seeded_case(rng, 8)
        L_S = laplacian(seed.graph)
        sens, _ = score_edges(np.ones((8, 1)), L_S, g.tails[off[:3]], g.heads[off[:3]], g.weights[off[:3]])
        np.testing.assert_array_equal(sens, 0.0)

    def test_matches_dense_assembly(self, rng):
        for _ in range(5):
            g, seed, off = seeded_case(rng, 7)
            L_S = laplacian(seed.graph)
            Ld = L_S.toarray()
            h = rng.standard_normal(7)
            h -= h.mean()
            got, _ = score_edges(h[:, None], L_S, g.tails[off], g.heads[off], g.weights[off])
            for i, eid in enumerate(off):
                p, q, w = int(g.tails[eid]), int(g.heads[eid]), g.weights[eid]
                e = np.zeros(7)
                e[p], e[q] = 1.0, -1.0
                dLs = w * np.outer(e, np.eye(7)[p])
                dLsu = dLs @ Ld.T + Ld @ dLs.T
                expected = h @ dLsu @ h
                assert got[i] == pytest.approx(expected, abs=1e-10 * max(1, abs(expected)))

    def test_linear_in_weight(self, rng):
        g, seed, off = seeded_case(rng, 8)
        L_S = laplacian(seed.graph)
        h = rng.standard_normal(8)
        s1, _ = score_one(h[:, None], g, off[0], L_S, weight=1.0)
        s2, _ = score_one(h[:, None], g, off[0], L_S, weight=2.0)
        assert s2 == pytest.approx(2 * s1)

    def test_mean_over_vectors(self, rng):
        g, seed, off = seeded_case(rng, 8)
        L_S = laplacian(seed.graph)
        H = np.column_stack([rng.standard_normal(8) for _ in range(4)])
        sens, emb = score_edges(H, L_S, g.tails[off], g.heads[off], g.weights[off])
        singles = []
        for k in range(4):
            single, single_emb = score_edges(H[:, [k]], L_S, g.tails[off], g.heads[off], g.weights[off])
            np.testing.assert_array_equal(single_emb[:, 0], emb[:, k])
            singles.append(single)
        np.testing.assert_allclose(sens, np.mean(singles, axis=0), rtol=1e-12, atol=1e-15)


class TestEdgeEmbedding:
    def test_no_outgoing_subgraph_edges_gives_zero(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        S = g.subgraph([2])  # only edge (1, 2): node 0 has no out-edge in S
        h = np.array([0.5, -0.2, -0.3])
        _, emb = score_one(h[:, None], g, 0, laplacian(S))  # edge (0, 1)
        np.testing.assert_array_equal(emb, [0.0])

    def test_single_shared_edge_formula(self):
        g = DirectedGraph(3, [(0, 1, 2.0), (0, 2, 1.0)])
        S = g.subgraph([0])  # keeps (0, 1, 2.0)
        h = np.array([0.7, -0.1, -0.6])
        _, emb = score_one(h[:, None], g, 1, laplacian(S))  # edge (0, 2)
        expected = 2 * 2.0 * (h[0] - h[2]) * (h[0] - h[1])
        assert emb[0] == pytest.approx(expected)

    def test_length_matches_vector_count(self, rng):
        g, seed, off = seeded_case(rng, 8)
        H = np.column_stack([rng.standard_normal(8) for _ in range(5)])
        _, emb = score_one(H, g, off[0], laplacian(seed.graph))
        assert emb.shape == (5,)


def rows(embeddings):
    return np.asarray(embeddings, dtype=float).reshape(len(embeddings), -1)


def no_tails(embeddings):
    return np.zeros(len(embeddings), dtype=np.int64)


# Out-degrees with node 0, the tail of every row of ``no_tails``, at 0: no
# candidate is excluded.
FREE = np.zeros(1, dtype=np.int64)


class TestFilterSimilarEdges:
    def test_identical_embeddings_keep_first(self):
        E = rows([[1.0, 2.0]] * 4)
        kept = filter_similar_edges(E, no_tails(E), epsilon=0.9, d_out=10, out_degrees=FREE)
        assert kept.tolist() == [0]

    def test_orthogonal_embeddings_keep_all(self):
        E = np.eye(4)
        kept = filter_similar_edges(E, no_tails(E), epsilon=0.9, d_out=10, out_degrees=FREE)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_single_candidate_kept(self):
        kept = filter_similar_edges(rows([[0.3, 0.4]]), [0], epsilon=0.5, d_out=1, out_degrees=FREE)
        assert kept.tolist() == [0]

    def test_empty_input(self):
        assert filter_similar_edges(np.empty((0, 3)), [], epsilon=0.9, d_out=5, out_degrees=FREE).size == 0
        assert filter_similar_edges([], [], epsilon=0.9, d_out=5, out_degrees=FREE).size == 0

    def test_out_degree_cap(self):
        kept = filter_similar_edges(np.eye(3), [0, 1, 0], epsilon=0.9, d_out=2, out_degrees=np.array([2, 0]))
        assert kept.tolist() == [1]

    def test_subset_in_input_order(self, rng):
        E = rng.standard_normal((10, 4))
        kept = filter_similar_edges(E, no_tails(E), epsilon=0.7, d_out=10, out_degrees=FREE)
        assert kept.tolist() == sorted(set(kept.tolist()))
        assert set(kept.tolist()) <= set(range(10))

    def test_idempotent(self, rng):
        E = rng.standard_normal((12, 3))
        once = filter_similar_edges(E, no_tails(E), epsilon=0.8, d_out=10, out_degrees=FREE)
        twice = filter_similar_edges(E[once], no_tails(once), epsilon=0.8, d_out=10, out_degrees=FREE)
        assert twice.tolist() == list(range(once.size))

    def test_epsilon_validated(self):
        with pytest.raises(ValueError, match="epsilon"):
            filter_similar_edges(np.empty((0, 1)), [], epsilon=1.5, d_out=3, out_degrees=FREE)


def filter_reference(E, tails, epsilon, d_out, out_degrees):
    """The filter as a loop over candidates that rebuilds the kept matrix for
    every candidate; returns the kept row indices."""
    pool = [i for i in range(len(E)) if out_degrees[tails[i]] < d_out]
    if not pool:
        return []
    kept = [pool[0]]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in pool[1:]:
            e = E[i]
            en = np.linalg.norm(e)
            M = E[kept]
            norms = np.array([np.linalg.norm(E[j]) for j in kept])
            denom = np.maximum(norms, en)
            dist = np.linalg.norm(M - e, axis=1)
            sims = np.where(denom > 0, 1.0 - dist / denom, 1.0)
            if np.all(sims < epsilon):
                kept.append(i)
    return kept


@contextmanager
def filter_buffer(size):
    """Run the filter with work buffers of ``size`` values (None: as shipped),
    so that small pools span several blocks and pieces."""
    saved = sensitivity.FILTER_BUFFER
    sensitivity.FILTER_BUFFER = saved if size is None else size
    try:
        yield
    finally:
        sensitivity.FILTER_BUFFER = saved


def clustered_rows(rng, m, r, decades):
    """m rows around a few centers whose norms span ``decades`` decades, so
    that similarities fall on both sides of every epsilon."""
    centers = rng.standard_normal((4, r)) * 10.0 ** rng.uniform(0, decades, (4, 1))
    pick = rng.integers(0, 4, m)
    scale = 1.0 + 0.2 * rng.standard_normal((m, 1))
    noise = rng.standard_normal((m, r)) * rng.uniform(0.0, 0.3, (m, 1))
    return centers[pick] * scale + noise * np.linalg.norm(centers[pick], axis=1, keepdims=True)


def edge_rows(rng, m, r, epsilon):
    """Rows in collinear pairs a, f a with f at epsilon and one ulp either
    side, so that similarities land on epsilon and the window's edges."""
    out = []
    while len(out) < m:
        a = rng.standard_normal(r) * 10.0 ** rng.uniform(-3, 3)
        f = epsilon * np.nextafter(1.0, [0.0, 1.0, 2.0])[rng.integers(0, 3)]
        out += [a, f * a] if rng.integers(0, 2) else [f * a, a]
    return rng.permutation(np.asarray(out[:m]))


def check_against_loop(E, tails, epsilon, d_out, out_degrees, buffer=None):
    with filter_buffer(buffer):
        got = filter_similar_edges(E, tails, epsilon, d_out, out_degrees)
    assert got.tolist() == filter_reference(E, tails, epsilon, d_out, out_degrees)


EPSILONS = [0.01, 0.1, 0.5, 0.75, 0.9, 0.999]


class TestFilterAgainstLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(0, 40),
        r=st.integers(1, 16),
        epsilon=st.sampled_from(EPSILONS),
        d_out=st.integers(1, 4),
        capped=st.booleans(),
        buffer=st.sampled_from([1, 16, 256, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_edges_as_the_loop(self, m, r, epsilon, d_out, capped, buffer, seed):
        # Small integer embeddings give zero rows, duplicates and similarities
        # exactly at epsilon (for example 1 - |(2, 0) - (1, 0)| / 2 = 0.5).
        rng = np.random.default_rng(seed)
        E = rng.integers(-2, 3, size=(m, r)).astype(float)
        tails = rng.integers(0, 6, m)
        out_degrees = rng.integers(0, d_out + 2, 6) if capped else np.zeros(6, dtype=np.int64)
        check_against_loop(E, tails, epsilon, d_out, out_degrees, buffer)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(100, 600),
        r=st.integers(1, 16),
        epsilon=st.sampled_from(EPSILONS),
        kind=st.sampled_from(["clustered", "edge"]),
        buffer=st.sampled_from([64, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_pools_over_several_blocks(self, m, r, epsilon, kind, buffer, seed):
        # r from 8 on sums each row in another order; at the shipped buffer a
        # block holds at most isqrt(2^16 / r) <= 256 candidates, so m >= 300
        # spans several blocks for every r.
        rng = np.random.default_rng(seed)
        E = clustered_rows(rng, m, r, 4) if kind == "clustered" else edge_rows(rng, m, r, epsilon)
        check_against_loop(E, np.zeros(m, dtype=np.int64), epsilon, 10, FREE, buffer)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize("buffer", [16, 64, None])
    def test_window_edges(self, epsilon, buffer):
        rng = np.random.default_rng(int(epsilon * 1000))
        for r in (2, 9, 16):
            E = edge_rows(rng, 400, r, epsilon)
            check_against_loop(E, np.zeros(400, dtype=np.int64), epsilon, 10, FREE, buffer)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_all_equal_norms(self, rng, epsilon):
        # Sign flips of one row: every norm is equal, so every pair is in
        # every window.
        v = rng.standard_normal(8)
        E = v * rng.choice([-1.0, 1.0], size=(500, 8))
        E[::7] = 0.0
        check_against_loop(E, np.zeros(500, dtype=np.int64), epsilon, 10, FREE)
        check_against_loop(E, np.zeros(500, dtype=np.int64), epsilon, 10, FREE, buffer=32)

    @pytest.mark.parametrize("scale", [1e-160, 1e-120, 1e120, 1e160, np.inf])
    def test_norms_outside_the_window_range(self, rng, scale):
        # No window for norms whose squares could underflow or overflow (or
        # a nan or inf row): every pair is compared, as the loop compares it.
        E = clustered_rows(rng, 300, 4, 2)
        E[rng.integers(0, 300, 30)] *= scale
        check_against_loop(E, np.zeros(300, dtype=np.int64), 0.9, 10, FREE)

    def test_epsilon_below_the_slack(self, rng):
        E = clustered_rows(rng, 300, 3, 2)
        check_against_loop(E, np.zeros(300, dtype=np.int64), 1e-12, 10, FREE)

    def test_equal_norms_keep_the_buffers_bounded(self, rng):
        # 2000 rows of (nearly) one norm, all kept: every pair is in the
        # window, yet the work buffers stay at the module's bound instead of
        # growing with candidates x kept rows (about 8 MB per block of 64).
        E = rng.standard_normal((2000, 8))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            kept = filter_similar_edges(E, np.zeros(2000, dtype=np.int64), 0.999, 10, FREE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept.size == 2000
        assert peak < 4 * 8 * sensitivity.FILTER_BUFFER + 4 * E.nbytes

    def test_tie_at_epsilon_is_dropped(self):
        E = rows([[2.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        kept = filter_similar_edges(E, no_tails(E), epsilon=0.5, d_out=10, out_degrees=FREE)
        assert kept.tolist() == [0, 2] == filter_reference(E, no_tails(E), 0.5, 10, FREE)

    def test_fully_excluded_pool(self):
        assert filter_similar_edges(np.eye(3), [0, 1, 2], epsilon=0.9, d_out=2, out_degrees=[2, 3, 5]).size == 0


class TestRankingAgainstExactOracle:
    def test_approximate_ranking_finds_true_top_edge(self, rng):
        hits = trials = 0
        for _ in range(30):
            while True:
                g, seed, off = seeded_case(rng, int(rng.integers(6, 11)))
                if len(off) >= 5:
                    break
            Lgu = symmetrize(laplacian(g))
            Lsu = symmetrize(laplacian(seed.graph))
            _, v1 = dense_pencil(Lgu, Lsu)
            Ld = laplacian(seed.graph).toarray()
            exact = {}
            for eid in off:
                p, q, w = int(g.tails[eid]), int(g.heads[eid]), g.weights[eid]
                e = np.zeros(g.n)
                e[p], e[q] = 1.0, -1.0
                dLs = w * np.outer(e, np.eye(g.n)[p])
                exact[eid] = v1 @ (dLs @ Ld.T + Ld @ dLs.T) @ v1
            true_top = max(exact, key=lambda e: exact[e])

            solver = SpsSolver(Lsu)
            starts = rng.uniform(-1, 1, size=(8, g.n))
            _, H = power_iterate(symmetrized_operator(laplacian(g)), Lsu, starts, t=3, solver=solver)
            approx, _ = score_edges(H, laplacian(seed.graph), g.tails[off], g.heads[off], g.weights[off])
            rank = np.argsort(-approx)
            pos = int(np.nonzero(np.array(off)[rank] == true_top)[0][0])
            trials += 1
            hits += pos < int(np.ceil(0.3 * len(off)))
        assert hits >= 0.8 * trials
