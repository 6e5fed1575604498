import numpy as np
import pytest

from specsparse import (
    DirectedGraph,
    build_seed,
    laplacian,
    maximum_spanning_structure,
    symmetrize,
    symmetrized_transition,
)

from conftest import nullity, random_digraph


class TestSymmetrizedTransition:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1, 3.0)])
        np.testing.assert_array_equal(
            symmetrized_transition(g).toarray(), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_three_node_rows(self):
        g = DirectedGraph(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0)])
        P = symmetrized_transition(g).toarray()
        np.testing.assert_allclose(P[0], [0.0, 2 / 3, 1 / 3])
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_isolated_nodes_zero_rows(self):
        P = symmetrized_transition(DirectedGraph(2, []))
        assert P.nnz == 0

    def test_row_stochastic_random(self, rng):
        g = random_digraph(rng, 20)
        P = symmetrized_transition(g)
        sums = np.asarray(P.sum(axis=1)).ravel()
        touched = np.zeros(20, dtype=bool)
        touched[g.tails] = True
        touched[g.heads] = True
        np.testing.assert_allclose(sums[touched], 1.0)
        np.testing.assert_allclose(sums[~touched], 0.0)


class TestMaximumSpanningStructure:
    def test_path_kept(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        forest = maximum_spanning_structure(symmetrized_transition(g))
        assert sorted(forest) == [(0, 1), (1, 2)]

    def test_triangle_drops_lightest(self):
        # undirected triangle with pair weights 3, 2, 1 keeps the 3 and 2
        import scipy.sparse as sp

        P = sp.csr_array(np.array([[0, 3.0, 1.0], [3.0, 0, 2.0], [1.0, 2.0, 0]]) / 10)
        forest = maximum_spanning_structure(P)
        assert sorted(forest) == [(0, 1), (1, 2)]

    def test_brute_force_maximum(self, rng):
        # exhaustive check against all spanning trees of a 5-node graph
        import itertools
        import scipy.sparse as sp

        n = 5
        W = np.triu(rng.uniform(0.1, 1.0, (n, n)), k=1)
        P = sp.csr_array(W + W.T)
        forest = set(maximum_spanning_structure(P))
        got = sum(W[i, j] for i, j in forest)

        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        best = 0.0
        for combo in itertools.combinations(pairs, n - 1):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for i, j in combo:
                ri, rj = find(i), find(j)
                if ri == rj:
                    ok = False
                    break
                parent[ri] = rj
            if ok:
                best = max(best, sum(W[i, j] for i, j in combo))
        assert got == pytest.approx(best)

    def test_forest_per_component(self):
        g = DirectedGraph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
        forest = maximum_spanning_structure(symmetrized_transition(g))
        assert sorted(forest) == [(0, 1), (2, 3)]

    def test_edge_count_is_n_minus_components(self, rng):
        from scipy.sparse import csgraph

        for _ in range(15):
            g = random_digraph(rng, int(rng.integers(2, 30)))
            P = symmetrized_transition(g)
            n_comp, _ = csgraph.connected_components(P, directed=False)
            forest = maximum_spanning_structure(P)
            assert len(forest) == g.n - n_comp


class TestBuildSeed:
    def test_tree_kept_whole(self):
        g = DirectedGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 1.0)])
        seed = build_seed(g)
        assert seed.kept_edge_ids == [0, 1, 2]
        assert seed.graph == g

    def test_two_cycle_keeps_both_orientations(self):
        g = DirectedGraph(2, [(0, 1, 1.5), (1, 0, 1.5)])
        seed = build_seed(g)
        assert seed.graph == g

    def test_star_all_kept(self):
        g = DirectedGraph(6, [(0, i, float(i)) for i in range(1, 6)])
        seed = build_seed(g)
        assert seed.graph == g

    def test_edges_subset_with_same_weights(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(3, 25)))
            seed = build_seed(g)
            orig = {(t, h): w for t, h, w in g.edges}
            for t, h, w in seed.graph.edges:
                assert orig[(t, h)] == w

    def test_out_edges_preserved(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(3, 25)))
            seed = build_seed(g)
            has_out_g = np.zeros(g.n, dtype=bool)
            has_out_g[g.tails] = True
            has_out_s = np.zeros(g.n, dtype=bool)
            has_out_s[seed.graph.tails] = True
            assert np.all(has_out_s[has_out_g])

    def test_edge_budget(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(3, 40)))
            seed = build_seed(g)
            assert seed.graph.num_edges <= 3 * g.n

    def test_rank_and_nullity_match(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 13))
            g = random_digraph(rng, n)
            seed = build_seed(g)
            a = nullity(symmetrize(laplacian(g)))
            b = nullity(symmetrize(laplacian(seed.graph)))
            assert a == b

    def test_deterministic(self, rng):
        g = random_digraph(rng, 30)
        a = build_seed(g)
        b = build_seed(g)
        assert a.kept_edge_ids == b.kept_edge_ids
        assert a.added_for_dangling == b.added_for_dangling
        assert a.added_for_rank == b.added_for_rank


def tied_digraph(rng, n):
    """Random digraph with integer weights 1-3, so pair weights and heaviest
    out-edges tie often."""
    edges = {}
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        t, h = rng.integers(0, n, 2)
        if t != h:
            edges[(int(t), int(h))] = float(rng.integers(1, 4))
    return DirectedGraph(n, [(t, h, w) for (t, h), w in edges.items()])


def forest_loop_reference(P):
    """The per-entry dict merge and sort that maximum_spanning_structure
    vectorizes, followed by the same Kruskal pass."""
    import scipy.sparse as sp

    C = sp.coo_array(P)
    pair_weights = {}
    for i, j, v in zip(C.row, C.col, C.data):
        if i == j or v == 0:
            continue
        key = (min(i, j), max(i, j))
        pair_weights[key] = pair_weights.get(key, 0.0) + float(v)
    ranked = sorted(pair_weights.items(), key=lambda kv: (-kv[1], kv[0]))
    parent = list(range(P.shape[0]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = []
    for (i, j), _ in ranked:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
            forest.append((int(i), int(j)))
    return forest


def seed_loop_reference(g, forest):
    """The per-edge loops that build_seed vectorizes: edges on the forest,
    then the heaviest out-edge (smaller head on ties) of each tail left
    without one."""
    forest = set(forest)
    kept = []
    for eid in range(g.num_edges):
        t, h = int(g.tails[eid]), int(g.heads[eid])
        if (min(t, h), max(t, h)) in forest:
            kept.append(eid)
    has_out = np.zeros(g.n, dtype=bool)
    for eid in kept:
        has_out[g.tails[eid]] = True
    best = {}
    for eid in range(g.num_edges):
        t = int(g.tails[eid])
        if has_out[t]:
            continue
        cur = best.get(t)
        if cur is None or (g.weights[eid], -g.heads[eid]) > (g.weights[cur], -g.heads[cur]):
            best[t] = eid
    return kept, sorted(best.values())


class TestVectorizedAgainstLoops:
    def test_forest_matches_loop(self, rng):
        import scipy.sparse as sp

        for _ in range(60):
            g = tied_digraph(rng, int(rng.integers(1, 40)))
            P = symmetrized_transition(g)
            assert maximum_spanning_structure(P) == forest_loop_reference(P)
        # n = 0 and 1, and several components of tied weights side by side
        for n in (0, 1):
            P = symmetrized_transition(DirectedGraph(n, []))
            assert maximum_spanning_structure(P) == forest_loop_reference(P) == []
        for _ in range(20):
            parts = [tied_digraph(rng, int(rng.integers(1, 12))) for _ in range(int(rng.integers(2, 5)))]
            edges, base = [], 0
            for part in parts:
                edges += [(t + base, h + base, w) for t, h, w in part.edges]
                base += part.n
            P = symmetrized_transition(DirectedGraph(base, edges))
            assert maximum_spanning_structure(P) == forest_loop_reference(P)
        # asymmetric P with tied pair sums and explicit zeros
        for _ in range(20):
            n = int(rng.integers(2, 15))
            M = rng.integers(0, 3, size=(n, n)).astype(float)
            P = sp.csr_array(M)
            P.data[::3] = 0.0
            assert maximum_spanning_structure(P) == forest_loop_reference(P)

    def test_seed_matches_loop(self, rng):
        for trial in range(80):
            n = int(rng.integers(1, 40))
            g = tied_digraph(rng, n) if trial % 2 else random_digraph(rng, n)
            seed = build_seed(g)
            kept, dangling = seed_loop_reference(g, forest_loop_reference(symmetrized_transition(g)))
            assert seed.added_for_dangling == dangling
            assert seed.kept_edge_ids == sorted(set(kept) | set(dangling) | set(seed.added_for_rank))
