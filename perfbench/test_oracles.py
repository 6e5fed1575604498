"""Quick tests of the benchmark's oracles: python3 -m pytest perfbench -q"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import specsparse as ss  # noqa: E402


def edges(g):
    return g.tails, g.heads, g.weights


def random_graph(rng, n, m):
    pairs = {(int(t), int(h)) for t, h in rng.integers(0, n, (m, 2)) if t != h}
    return ss.DirectedGraph(n, [(t, h, float(rng.uniform(0.5, 2.0))) for t, h in pairs])


@pytest.fixture(scope="module")
def synth115():
    g = ss.read_matrix_market(ROOT / "tests" / "data" / "synth115.mtx")
    return g, ss.sparsify(g, ss.SparsifyParams(iter_max=3, mu_limit=6.0, seed=0, r=8, t=3))


def test_grounded_pencil_agrees_with_dense(synth115):
    g, res = synth115
    dense = oracles.mu_dense(g.n, edges(g), edges(res.graph))
    grounded = oracles.mu_grounded(g.n, edges(g), edges(res.graph))
    assert grounded == pytest.approx(dense, rel=1e-8)
    assert res.mu_final <= dense * (1 + 1e-9)


def test_pencil_of_a_graph_with_itself_is_one(synth115):
    g, _ = synth115
    assert oracles.mu_dense(g.n, edges(g), edges(g)) == pytest.approx(1.0, rel=1e-9)


def test_sink_components_is_the_nullity_of_the_symmetrized_laplacian():
    rng = np.random.default_rng(3)
    counts = set()
    for _ in range(30):
        n = int(rng.integers(3, 25))
        g = random_graph(rng, n, int(rng.integers(1, 2 * n)))
        L = oracles.directed_laplacian(n, *edges(g)).toarray()
        w = np.linalg.eigvalsh(L @ L.T)
        nullity = int((w <= 1e-9 * max(w.max(), 1.0)).sum())
        assert oracles.sink_components(n, g.tails, g.heads) == nullity
        counts.add(nullity)
    assert len(counts) > 2


def test_laplacian_matvec_matches_the_matrix():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 40, 120)
    L = oracles.directed_laplacian(g.n, *edges(g))
    x = rng.standard_normal(g.n)
    assert np.allclose(oracles.laplacian_matvec(g.n, *edges(g), x), L @ x, rtol=0, atol=1e-12)
    assert np.allclose(np.ones(g.n) @ L, 0.0, atol=1e-12)


def test_pagerank_reference_solves_the_fixed_point_system(synth115):
    g, _ = synth115
    pr = np.zeros(g.n)
    pr[[3, 50, 90]] = 1.0 / 3.0
    p = oracles.pagerank_reference(g.n, *edges(g), pr)
    A = np.zeros((g.n, g.n))
    A[g.tails, g.heads] = g.weights
    P = (A / A.sum(axis=1, keepdims=True)).T
    dense = np.linalg.solve(np.eye(g.n) - 0.85 * P, 0.15 * pr)
    assert np.abs(p - dense / dense.sum()).sum() <= 1e-12
    assert np.abs(p - ss.pagerank(g, personalization=pr).p).sum() <= 1e-7


def test_adjusted_rand_against_pair_counting():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        a, b = rng.integers(0, 3, n), rng.integers(0, 4, n)
        same_a = [a[i] == a[j] for i, j in itertools.combinations(range(n), 2)]
        same_b = [b[i] == b[j] for i, j in itertools.combinations(range(n), 2)]
        both = sum(x and y for x, y in zip(same_a, same_b))
        pairs = n * (n - 1) / 2
        expected = sum(same_a) * sum(same_b) / pairs
        top = (sum(same_a) + sum(same_b)) / 2
        ref = 1.0 if top == expected else (both - expected) / (top - expected)
        assert oracles.adjusted_rand(a, b) == pytest.approx(ref, abs=1e-12)
    labels = rng.integers(0, 4, 50)
    assert oracles.adjusted_rand(labels, (labels + 1) % 4) == 1.0


def test_planted_blocks_follow_array_split():
    for n, k in ((32, 4), (4000, 8), (10, 3)):
        expect = np.concatenate([np.full(len(b), i) for i, b in enumerate(np.array_split(np.arange(n), k))])
        assert np.array_equal(oracles.planted_blocks(n, k), expect)
