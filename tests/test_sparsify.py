import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from specsparse import (
    DirectedGraph,
    read_matrix_market,
    SparsifyParams,
    SpsSolver,
    build_seed,
    laplacian,
    power_iterate,
    sparsify,
    symmetrize,
    symmetrized_operator,
)
from specsparse.synth import banded_digraph

from conftest import dense_pencil, multi_attractor_digraph, pinv_mu, random_digraph, sink_components, strong_digraph

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

    def test_nan_mu_limit_rejected(self):
        # mu > nan is false: the loop ran no iteration.
        with pytest.raises(ValueError, match="mu_limit must be a number, got nan"):
            SparsifyParams(mu_limit=float("nan"))

    @pytest.mark.parametrize("r", [0, -2])
    def test_r_below_one_rejected(self, r):
        with pytest.raises(ValueError, match=f"r must be >= 1, got {r}"):
            SparsifyParams(r=r)

    def test_r_default_clamped(self):
        p = SparsifyParams()
        assert p.resolve_r(4) == 4
        assert p.resolve_r(100) == 7
        assert p.resolve_r(10**6) == 16
        assert SparsifyParams(r=3).resolve_r(10**6) == 3


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

    def test_multi_attractor_graph_sparsifies(self, rng):
        # Three sink nodes fed by one strongly connected core: null(L_Su)
        # has three dimensions, which the grounded solve handles.
        g = multi_attractor_digraph(rng)
        res = sparsify(g, SparsifyParams(iter_max=5, mu_limit=2.0, seed=0))
        assert sum(row.edges_added for row in res.iterations[1:]) > 0
        assert sink_components(res.graph) == sink_components(g) and len(sink_components(g)) == 3
        Lgu = symmetrize(laplacian(g))
        assert np.isfinite(res.mu_initial) and np.isfinite(res.mu_final)
        assert res.mu_final <= pinv_mu(Lgu, symmetrize(laplacian(res.graph))) * (1 + 1e-6)
        seed_mu = pinv_mu(Lgu, symmetrize(laplacian(build_seed(g).graph)))
        assert res.mu_initial <= seed_mu * (1 + 1e-6)

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
    def test_never_symmetrizes(self, n, graph_seed):
        # The loop solves through a factor of the directed L_S and applies
        # L_Gu as an operator: no symmetrized Laplacian is formed.
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
        assert symmetrized == []


class TestEstimateMu:
    """``power_iterate`` on the pencil of ``symmetrized_operator(L_G)`` and
    L_Su, as ``sparsify`` runs it."""

    def test_identity_case(self, rng):
        g = strong_digraph(rng, 15)
        L = laplacian(g)
        Lu = symmetrize(L)
        starts = rng.uniform(-1, 1, size=(8, g.n))
        mu, H = power_iterate(symmetrized_operator(L), Lu, starts, t=3, solver=SpsSolver(Lu))
        assert mu.shape == (8,) and H.shape == (g.n, 8)
        np.testing.assert_allclose(mu, 1.0, rtol=0, atol=1e-9)

    def test_one_bounded_estimate_per_start(self, rng):
        # All starts run as one block; each column matches the same start
        # run alone against the formed L_Gu.
        g = strong_digraph(rng, 15)
        seed = build_seed(g)
        Lgu = symmetrize(laplacian(g))
        Lsu = symmetrize(laplacian(seed.graph))
        mu_true, _ = dense_pencil(Lgu, Lsu)
        starts = rng.uniform(-1, 1, size=(5, g.n))
        mu, H = power_iterate(symmetrized_operator(laplacian(g)), Lsu, starts, t=3, solver=SpsSolver(Lsu))
        assert mu.shape == (5,) and H.shape == (g.n, 5) and H.flags.owndata
        for j, start in enumerate(starts):
            (alone_mu,), alone_H = power_iterate(Lgu, Lsu, start[None], t=3, solver=SpsSolver(Lsu))
            np.testing.assert_allclose(H[:, j], alone_H[:, 0], rtol=0, atol=1e-10 * np.linalg.norm(alone_H))
            assert mu[j] == pytest.approx(alone_mu, rel=1e-10)
            assert 1 - 1e-9 <= mu[j] <= mu_true * (1 + 1e-9)


DATA = Path(__file__).parent / "data"


def disagreements(g, params, monkeypatch):
    """(decisions, decisions that disagree with the dense pencil) of one run.

    A batch is accepted when the estimated mu drops; the oracle accepts it
    when the exact mu of the pencil (L_Gu, L_Su) drops.
    """
    Lgu = symmetrize(laplacian(g))
    exact = []
    power_iterate = sparsify_module.power_iterate

    def power_iterate_spy(L_Gu, L_Su, *args, solver, **kwargs):
        # L_Su is an operator; the solver holds the subgraph's L_S.
        exact.append(dense_pencil(Lgu, symmetrize(solver.L))[0])
        return power_iterate(L_Gu, L_Su, *args, solver=solver, **kwargs)

    monkeypatch.setattr(sparsify_module, "power_iterate", power_iterate_spy)
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


def kept_digest(res):
    """sha256 of the kept edge ids, written as comma-separated decimals."""
    return hashlib.sha256(",".join(map(str, res.kept_edge_ids)).encode()).hexdigest()


class TestPinnedOutputs:
    """Kept edges and final mu of the bundled runs, pinned: a change meant to
    give the same outputs must keep them."""

    def test_synth115_acceptance_parameters(self):
        g = read_matrix_market(DATA / "synth115.mtx")
        params = dict(d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9, r=16, t=5)
        pins = [
            ("c8bc3ad1d370cf8cbd27e8d40e0925ffc09e28a51f67951b3b938c1306ebfd12", 5.715440990006702),
            ("289a328fd2ac225f65b08dedefa1bce681e9e850212fcc8320ee3a129a18ea4d", 5.895052103068488),
            ("d1a202701da1502a585c82061d91a8538db9c90b123e9f04fd81572a629477da", 5.273625259871175),
            ("2bb73c1eead9925b7ab0c59a08946fbb01cb257176d6912efc7c6d1351037b7f", 5.485638669146115),
        ]
        for seed, (digest, mu_final) in enumerate(pins):
            res = sparsify(g, SparsifyParams(seed=seed, **params))
            assert kept_digest(res) == digest
            assert res.mu_final == pytest.approx(mu_final, rel=1e-9)

    def test_synth32_criterion_8_parameters(self):
        g = read_matrix_market(DATA / "synth32.mtx")
        res = sparsify(g, SparsifyParams(iter_max=20, mu_limit=1.0, seed=0, alpha_percent=15))
        assert kept_digest(res) == "81890f562eb9452ef6df7d441ea8b8544bc353c243755f5b0e2446793e47481d"
        assert res.mu_final == pytest.approx(16.475346553586927, rel=1e-9)


class TestCostGuards:
    """Work counts that do not depend on the hardware."""

    def test_bundled_run_makes_no_dense_eigendecomposition(self, monkeypatch):
        # Systems of up to DENSE_MAX nodes are solved through a dense LU
        # factor: no eigh, and no pinv (an eigh inside).
        calls = []
        for name in ("eigh", "pinv"):
            real = getattr(np.linalg, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        g = read_matrix_market(DATA / "synth115.mtx")
        params = dict(d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9, r=16, t=5)
        res = sparsify(g, SparsifyParams(seed=0, **params))
        assert len(res.iterations) > 1
        assert calls == []

    def test_one_dense_factor_per_evaluation(self, monkeypatch):
        # Every evaluation factors its grounded L_S once, densely: no
        # SuperLU factor and no SpsSolver.  Its block solves are one factor
        # solve and one transposed solve of the block (no explicit inverse,
        # whose factor solve would be n columns wide), and its one sink
        # component takes one more solve of one column.
        evaluations, factors, splus, sps_solvers, widths = [], [], [], [], []
        real_power_iterate = sparsify_module.power_iterate
        real_getrf, real_getrs, real_splu = lapack.dgetrf, lapack.dgetrs, spla.splu
        real_sps_init = SpsSolver.__init__

        def power_iterate_spy(*args, **kwargs):
            evaluations.append(args)
            return real_power_iterate(*args, **kwargs)

        def getrf_spy(a, *args, **kwargs):
            factors.append(a.shape)
            return real_getrf(a, *args, **kwargs)

        def getrs_spy(lu, piv, b, *args, **kwargs):
            widths.append(b.shape[1] if b.ndim == 2 else 1)
            return real_getrs(lu, piv, b, *args, **kwargs)

        def splu_spy(*args, **kwargs):
            splus.append(args)
            return real_splu(*args, **kwargs)

        def sps_init_spy(self, *args, **kwargs):
            sps_solvers.append(args)
            real_sps_init(self, *args, **kwargs)

        monkeypatch.setattr(sparsify_module, "power_iterate", power_iterate_spy)
        monkeypatch.setattr(lapack, "dgetrf", getrf_spy)
        monkeypatch.setattr(lapack, "dgetrs", getrs_spy)
        monkeypatch.setattr(spla, "splu", splu_spy)
        monkeypatch.setattr(SpsSolver, "__init__", sps_init_spy)
        g = read_matrix_market(DATA / "synth115.mtx")
        params = dict(d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9, r=16, t=5)
        res = sparsify(g, SparsifyParams(seed=0, **params))
        assert len(res.iterations) > 1
        assert len(factors) == len(evaluations) > 1 and set(factors) == {(g.n, g.n)}
        assert splus == [] and sps_solvers == []
        assert widths.count(16) == 2 * params["t"] * len(evaluations)
        assert widths.count(1) == len(evaluations) and len(widths) == (2 * params["t"] + 1) * len(evaluations)

    def test_one_symmetrized_operator_per_call(self, monkeypatch):
        # L_Gu is the same operator in every evaluation: it is built once.
        # (Each evaluation builds one of its subgraph's L_S as well.)
        calls, original = [], []
        real, real_laplacian = sparsify_module.symmetrized_operator, sparsify_module.laplacian
        g = read_matrix_market(DATA / "synth115.mtx")

        def spy(L):
            calls.append(L)
            return real(L)

        def laplacian_spy(graph):
            L = real_laplacian(graph)
            if graph is g:
                original.append(L)
            return L

        monkeypatch.setattr(sparsify_module, "symmetrized_operator", spy)
        monkeypatch.setattr(sparsify_module, "laplacian", laplacian_spy)
        params = dict(d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9, r=16, t=5)
        res = sparsify(g, SparsifyParams(seed=0, **params))
        assert len(res.iterations) > 2
        assert len(original) == 1
        assert sum(L is original[0] for L in calls) == 1
