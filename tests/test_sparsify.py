import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    read_matrix_market,
    SparsifyParams,
    SpsSolver,
    build_seed,
    estimate_mu,
    laplacian,
    sparsify,
    symmetrize,
)
from specsparse.sparsify import _off_ids
from specsparse.synth import banded_digraph

from conftest import dense_pencil, random_digraph, strong_digraph

# The package attribute ``specsparse.sparsify`` is the function; the spies
# below patch globals of the module.
sparsify_module = importlib.import_module("specsparse.sparsify")


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparsifyParams(alpha_percent=0)
        with pytest.raises(ValueError):
            SparsifyParams(alpha_percent=101)
        with pytest.raises(ValueError):
            SparsifyParams(epsilon=1.0)
        with pytest.raises(ValueError):
            SparsifyParams(d_out=0)

    def test_r_default_clamped(self):
        p = SparsifyParams()
        assert p.resolve_r(4) == 4
        assert p.resolve_r(100) == 7
        assert p.resolve_r(10**6) == 16
        assert SparsifyParams(r=3).resolve_r(10**6) == 3


class TestOffIds:
    def test_matches_loop_reference(self, rng):
        for m in (0, 1, 7, 200):
            for _ in range(5):
                kept = {int(i) for i in rng.integers(0, m, size=m // 2)} if m else set()
                blacklist = {int(i) for i in rng.integers(0, m, size=m // 4)} if m else set()
                expected = np.array(
                    [i for i in range(m) if i not in kept and i not in blacklist], dtype=np.int64
                )
                got = _off_ids(m, kept, blacklist)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, expected)


class TestSparsify:
    def test_tree_returns_itself(self):
        g = DirectedGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 1.5)])
        res = sparsify(g, SparsifyParams(iter_max=5))
        assert res.graph == g
        assert res.mu_initial == res.mu_final == 1.0
        assert len(res.iterations) == 1
        assert res.edge_ratio == 1.0

    def test_empty_graph(self):
        res = sparsify(DirectedGraph(3, []), SparsifyParams())
        assert res.graph.num_edges == 0

    def test_mu_decreases_and_subset(self, rng):
        g = strong_digraph(rng, 40)
        res = sparsify(g, SparsifyParams(iter_max=6, mu_limit=1.0, seed=1, alpha_percent=10))
        assert res.mu_final <= res.mu_initial
        assert res.edge_ratio <= 1.0
        orig = {(t, h): w for t, h, w in g.edges}
        for t, h, w in res.graph.edges:
            assert orig[(t, h)] == w

    def test_monotone_accepted_mu(self, rng):
        g = strong_digraph(rng, 35)
        res = sparsify(g, SparsifyParams(iter_max=8, mu_limit=1.0, seed=2, alpha_percent=10))
        mus = [r.mu_max for r in res.iterations]
        for prev, row in zip(res.iterations, res.iterations[1:]):
            if row.edges_added > 0:
                assert row.mu_max < prev.mu_max
            else:
                assert row.mu_max == prev.mu_max

    def test_seed_edges_never_removed(self, rng):
        from specsparse import build_seed

        g = strong_digraph(rng, 30)
        seed_ids = set(build_seed(g).kept_edge_ids)
        res = sparsify(g, SparsifyParams(iter_max=4, mu_limit=1.0, seed=0))
        assert seed_ids <= set(res.kept_edge_ids)

    def test_edge_ratio_accounting(self, rng):
        g = strong_digraph(rng, 30)
        res = sparsify(g, SparsifyParams(iter_max=4, mu_limit=1.0, seed=0))
        assert res.edge_ratio == pytest.approx(len(res.kept_edge_ids) / g.num_edges)
        assert res.graph.num_edges == len(res.kept_edge_ids)
        ratios = [r.edge_ratio for r in res.iterations]
        assert all(a <= b + 1e-15 for a, b in zip(ratios, ratios[1:]))

    def test_iterations_strictly_increasing(self, rng):
        g = strong_digraph(rng, 25)
        res = sparsify(g, SparsifyParams(iter_max=5, mu_limit=1.0, seed=3))
        its = [r.iteration for r in res.iterations]
        assert its == sorted(set(its))

    def test_deterministic_under_seed(self, rng):
        g = strong_digraph(rng, 35)
        p = SparsifyParams(iter_max=5, mu_limit=1.0, seed=42, alpha_percent=10)
        a = sparsify(g, p)
        b = sparsify(g, p)
        assert a.kept_edge_ids == b.kept_edge_ids
        assert [r.mu_max for r in a.iterations] == [r.mu_max for r in b.iterations]

    def test_disconnected_components_supported(self):
        edges = []
        for base in (0, 6):
            for i in range(5):
                edges.append((base + i, base + (i + 1) % 6, 1.0 + 0.1 * i))
            edges.append((base + 5, base, 0.7))
            edges += [(base, base + 2, 0.5), (base + 1, base + 3, 0.4), (base + 2, base + 4, 0.9)]
        g = DirectedGraph(12, edges)
        res = sparsify(g, SparsifyParams(iter_max=3, mu_limit=1.0, seed=0, alpha_percent=50))
        assert res.mu_final <= res.mu_initial
        assert res.graph.num_edges <= g.num_edges

    def test_mu_limit_stops_loop(self, rng):
        g = strong_digraph(rng, 30)
        res = sparsify(g, SparsifyParams(iter_max=50, mu_limit=1e12, seed=0))
        assert len(res.iterations) == 1  # seed already below the target

    def test_zero_iterations_returns_seed(self, rng):
        from specsparse import build_seed

        g = strong_digraph(rng, 25)
        res = sparsify(g, SparsifyParams(iter_max=0, mu_limit=1.0, seed=0))
        assert res.kept_edge_ids == build_seed(g).kept_edge_ids
        assert res.mu_final == res.mu_initial

    def test_blacklisted_edges_not_retried(self, rng):
        g = strong_digraph(rng, 40)
        res = sparsify(g, SparsifyParams(iter_max=10, mu_limit=1.0, seed=5, alpha_percent=5))
        rejected_rows = [r for r in res.iterations if r.edges_rejected > 0]
        added = sum(r.edges_added for r in res.iterations[1:])
        assert len(res.kept_edge_ids) == res.iterations[0].edges_added + added

    def test_multi_attractor_graph_degrades_to_seed(self, rng):
        # several sink nodes inside one component make the generalized pair
        # structurally ill-posed for any subgraph; the loop must hand back
        # the seed instead of crashing
        from specsparse import build_seed

        core = 30
        n = core + 3
        edges = {}
        for i in range(core):
            edges[(i, (i + 1) % core)] = float(rng.uniform(0.5, 2))
        for _ in range(60):
            t, h = rng.integers(0, core, 2)
            if t != h:
                edges[(int(t), int(h))] = float(rng.uniform(0.5, 2))
        for s in (core, core + 1, core + 2):
            edges[(int(rng.integers(0, core)), s)] = 1.0
            edges[(int(rng.integers(0, core)), s)] = 1.0
        g = DirectedGraph(n, [(t, h, w) for (t, h), w in edges.items()])

        res = sparsify(g, SparsifyParams(iter_max=5, mu_limit=2.0, seed=0))
        assert res.kept_edge_ids == build_seed(g).kept_edge_ids
        assert np.isinf(res.mu_initial) and np.isinf(res.mu_final)

    def test_mu_estimate_tracks_oracle(self, rng):
        g = strong_digraph(rng, 25)
        res = sparsify(g, SparsifyParams(iter_max=5, mu_limit=1.0, seed=7, alpha_percent=15))
        Lgu = symmetrize(laplacian(g))
        Lsu = symmetrize(laplacian(res.graph))
        mu_true, _ = dense_pencil(Lgu, Lsu)
        assert res.mu_final <= mu_true * (1 + 1e-6)
        assert res.mu_final >= mu_true / 5


    def test_banded_115_reduction(self):
        # the bundled 115-node stand-in reaches a large reduction with the
        # documented parameters (full strength asserted in the acceptance suite)
        g = banded_digraph(n=115, avg_out=3.7, seed=7)
        res = sparsify(g, SparsifyParams(iter_max=10, mu_limit=1.0, seed=0, alpha_percent=10))
        assert res.mu_final < res.mu_initial / 50

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), graph_seed=st.integers(0, 2**32 - 1))
    def test_original_laplacian_never_symmetrized(self, n, graph_seed):
        g = random_digraph(np.random.default_rng(graph_seed), n)
        original_laplacians, symmetrized = [], []

        def laplacian_spy(graph):
            L = laplacian(graph)
            if graph is g:
                original_laplacians.append(L)
            return L

        def symmetrize_spy(L):
            symmetrized.append(L)
            return symmetrize(L)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(sparsify_module, "laplacian", laplacian_spy)
            m.setattr(sparsify_module, "symmetrize", symmetrize_spy)
            sparsify(g, SparsifyParams(iter_max=3, mu_limit=1.0, seed=0, alpha_percent=20))
        assert bool(original_laplacians) == (len(build_seed(g).kept_edge_ids) < g.num_edges)
        assert bool(symmetrized) == bool(original_laplacians)
        assert not any(L is L_G for L in symmetrized for L_G in original_laplacians)


class TestEstimateMu:
    def test_identity_case(self, rng):
        g = strong_digraph(rng, 15)
        L = laplacian(g)
        Lu = symmetrize(L)
        pairs = estimate_mu(L, Lu, rng.uniform(-1, 1, size=(8, g.n)), 3, SpsSolver(Lu))
        assert len(pairs) == 8
        for pair in pairs:
            assert pair.mu == pytest.approx(1.0, abs=1e-9)

    def test_one_bounded_estimate_per_start(self, rng, monkeypatch):
        # All starts go through one power_iterate call as one block; each
        # column matches the same start run alone.
        g = strong_digraph(rng, 15)
        seed = build_seed(g)
        Lgu = symmetrize(laplacian(g))
        Lsu = symmetrize(laplacian(seed.graph))
        mu_true, _ = dense_pencil(Lgu, Lsu)
        calls = []
        power_iterate = sparsify_module.power_iterate

        def power_iterate_spy(*args, **kwargs):
            calls.append(args)
            return power_iterate(*args, **kwargs)

        monkeypatch.setattr(sparsify_module, "power_iterate", power_iterate_spy)
        starts = rng.uniform(-1, 1, size=(5, g.n))
        pairs = estimate_mu(laplacian(g), Lsu, starts, 3, SpsSolver(Lsu))
        assert len(calls) == 1 and len(pairs) == 5
        assert np.array_equal(calls[0][2], starts)
        for start, pair in zip(starts, pairs):
            [alone] = power_iterate(Lgu, Lsu, start[None], t=3, solver=SpsSolver(Lsu))
            assert pair.t == alone.t == 3 and pair.h.shape == (g.n,)
            np.testing.assert_allclose(pair.h, alone.h, rtol=0, atol=1e-10 * np.linalg.norm(alone.h))
            assert pair.mu == pytest.approx(alone.mu, rel=1e-10)
            assert 1 - 1e-9 <= pair.mu <= mu_true * (1 + 1e-9)


DATA = Path(__file__).parent / "data"


def disagreements(g, params, monkeypatch):
    """(decisions, decisions that disagree with the dense pencil) of one run.

    A batch is accepted when the estimated mu drops; the oracle accepts it
    when the exact mu of the pencil (L_Gu, L_Su) drops.
    """
    Lgu = symmetrize(laplacian(g))
    exact = []
    estimate_mu = sparsify_module.estimate_mu

    def estimate_mu_spy(L_G, L_Su, *args, **kwargs):
        exact.append(dense_pencil(Lgu, L_Su)[0])
        return estimate_mu(L_G, L_Su, *args, **kwargs)

    monkeypatch.setattr(sparsify_module, "estimate_mu", estimate_mu_spy)
    res = sparsify(g, params)
    monkeypatch.undo()
    current, tried = exact[0], iter(exact[1:])
    decisions = wrong = 0
    for row in res.iterations[1:]:
        if row.edges_added == row.edges_rejected == 0:
            continue  # stopped before evaluating a batch
        mu_new = next(tried)
        accepted = row.edges_added > 0
        decisions += 1
        wrong += accepted != (mu_new < current)
        if accepted:
            current = mu_new
    assert next(tried, None) is None
    return decisions, wrong


class TestDecisionOracle:
    """How many accept/reject decisions the estimator gets wrong, pinned.

    The counts are those of the per-start power iteration that preceded the
    block one; a change that moves them changes the loop's decisions.
    """

    def test_synth115_acceptance_parameters(self, monkeypatch):
        g = read_matrix_market(DATA / "synth115.mtx")
        params = dict(d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9, r=16, t=5)
        counts = [disagreements(g, SparsifyParams(seed=seed, **params), monkeypatch) for seed in range(4)]
        assert counts == [(15, 0), (15, 1), (15, 0), (16, 0)]

    def test_synth32_criterion_8_parameters(self, monkeypatch):
        g = read_matrix_market(DATA / "synth32.mtx")
        params = SparsifyParams(iter_max=20, mu_limit=1.0, seed=0, alpha_percent=15)
        assert disagreements(g, params, monkeypatch) == (20, 6)
