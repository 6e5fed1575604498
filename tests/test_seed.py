from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specsparse.seed as seed_mod
from specsparse import (
    DirectedGraph,
    build_seed,
    laplacian,
    maximum_spanning_structure,
    symmetrize,
    symmetrized_transition,
)
from specsparse.mmio import read_matrix_market
from specsparse.seed import _heaviest_per_group, _run_starts, _scc_labels, _sink_flags
from specsparse.synth import clustered_digraph

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


def pair_list(forest):
    """The (lo, hi) arrays of maximum_spanning_structure as a list of pairs."""
    lo, hi = forest
    return list(zip(lo.tolist(), hi.tolist()))


class TestMaximumSpanningStructure:
    def test_two_int64_arrays_also_when_empty(self):
        for n in (0, 1, 5):
            lo, hi = maximum_spanning_structure(symmetrized_transition(DirectedGraph(n, [])))
            assert lo.shape == hi.shape == (0,) and lo.dtype == hi.dtype == np.int64
        lo, hi = maximum_spanning_structure(symmetrized_transition(DirectedGraph(2, [(1, 0, 1.0)])))
        assert lo.dtype == hi.dtype == np.int64 and pair_list((lo, hi)) == [(0, 1)]

    def test_path_kept(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        forest = pair_list(maximum_spanning_structure(symmetrized_transition(g)))
        assert sorted(forest) == [(0, 1), (1, 2)]

    def test_triangle_drops_lightest(self):
        # undirected triangle with pair weights 3, 2, 1 keeps the 3 and 2
        import scipy.sparse as sp

        P = sp.csr_array(np.array([[0, 3.0, 1.0], [3.0, 0, 2.0], [1.0, 2.0, 0]]) / 10)
        forest = pair_list(maximum_spanning_structure(P))
        assert sorted(forest) == [(0, 1), (1, 2)]

    def test_brute_force_maximum(self, rng):
        # exhaustive check against all spanning trees of a 5-node graph
        import itertools
        import scipy.sparse as sp

        n = 5
        W = np.triu(rng.uniform(0.1, 1.0, (n, n)), k=1)
        P = sp.csr_array(W + W.T)
        forest = set(pair_list(maximum_spanning_structure(P)))
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
        forest = pair_list(maximum_spanning_structure(symmetrized_transition(g)))
        assert sorted(forest) == [(0, 1), (2, 3)]

    def test_edge_count_is_n_minus_components(self, rng):
        from scipy.sparse import csgraph

        for _ in range(15):
            g = random_digraph(rng, int(rng.integers(2, 30)))
            P = symmetrized_transition(g)
            n_comp, _ = csgraph.connected_components(P, directed=False)
            lo, hi = maximum_spanning_structure(P)
            assert lo.size == hi.size == g.n - n_comp


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
            assert pair_list(maximum_spanning_structure(P)) == forest_loop_reference(P)
        # n = 0 and 1, and several components of tied weights side by side
        for n in (0, 1):
            P = symmetrized_transition(DirectedGraph(n, []))
            assert pair_list(maximum_spanning_structure(P)) == forest_loop_reference(P) == []
        for _ in range(20):
            parts = [tied_digraph(rng, int(rng.integers(1, 12))) for _ in range(int(rng.integers(2, 5)))]
            edges, base = [], 0
            for part in parts:
                edges += [(t + base, h + base, w) for t, h, w in part.edges]
                base += part.n
            P = symmetrized_transition(DirectedGraph(base, edges))
            assert pair_list(maximum_spanning_structure(P)) == forest_loop_reference(P)
        # asymmetric P with tied pair sums and explicit zeros
        for _ in range(20):
            n = int(rng.integers(2, 15))
            M = rng.integers(0, 3, size=(n, n)).astype(float)
            P = sp.csr_array(M)
            P.data[::3] = 0.0
            assert pair_list(maximum_spanning_structure(P)) == forest_loop_reference(P)

    def test_seed_matches_loop(self, rng):
        for trial in range(80):
            n = int(rng.integers(1, 40))
            g = tied_digraph(rng, n) if trial % 2 else random_digraph(rng, n)
            seed = build_seed(g)
            kept, dangling = seed_loop_reference(g, forest_loop_reference(symmetrized_transition(g)))
            assert seed.added_for_dangling == dangling
            assert seed.kept_edge_ids == sorted(set(kept) | set(dangling) | set(seed.added_for_rank))


def rank_repair_loop_reference(g, in_seed):
    """The round loop ``seed._rank_repair`` replaced: one SCC pass over the
    whole seed per round, and every spurious sink of that round given its
    heaviest exit edge not in the seed."""
    n = g.n
    ng, lab_g = _scc_labels(n, g.tails, g.heads)
    sink_g = _sink_flags(ng, lab_g, g.tails, g.heads)

    before = in_seed.copy()
    for _ in range(n):
        ids = np.nonzero(in_seed)[0]
        ns, lab_s = _scc_labels(n, g.tails[ids], g.heads[ids])
        sink_s = _sink_flags(ns, lab_s, g.tails[ids], g.heads[ids])

        comp_min = np.full(ns, n, dtype=np.int64)
        np.minimum.at(comp_min, lab_s, np.arange(n))
        gcomp = lab_g[comp_min]  # seed SCCs never straddle original SCCs

        spurious = sink_s & ~sink_g[gcomp]
        # Inside each original sink component, keep one anchor seed sink
        # (smallest node id) and drain the rest.
        sink_ids = np.nonzero(sink_s & sink_g[gcomp])[0]
        sink_ids = sink_ids[np.lexsort((comp_min[sink_ids], gcomp[sink_ids]))]
        spurious[sink_ids[~_run_starts(gcomp[sink_ids])]] = True
        if not spurious.any():
            break

        cand = (
            spurious[lab_s[g.tails]]
            & (lab_s[g.tails] != lab_s[g.heads])
            & ~in_seed
        )
        cand_ids = np.nonzero(cand)[0]
        if cand_ids.size == 0:
            break
        chosen = _heaviest_per_group(g, cand_ids, lab_s[g.tails[cand_ids]])
        in_seed[chosen] = True
    return np.flatnonzero(in_seed & ~before)


def assert_repair_matches_loop(g):
    """Run ``build_seed`` and check its rank repair against the round loop,
    started from the same mask."""
    seen = {}
    real = seed_mod._rank_repair

    def spy(g_, in_seed):
        seen["start"] = in_seed.copy()
        seen["ids"] = real(g_, in_seed)
        seen["end"] = in_seed.copy()
        return seen["ids"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seed_mod, "_rank_repair", spy)
        seed = build_seed(g)
    mask = seen["start"].copy()
    ids = rank_repair_loop_reference(g, mask)
    np.testing.assert_array_equal(seen["ids"], ids)
    np.testing.assert_array_equal(seen["end"], mask)
    assert seed.added_for_rank == ids.tolist()
    return ids


def disjoint_union(parts):
    edges, base = [], 0
    for part in parts:
        edges += [(t + base, h + base, w) for t, h, w in part.edges]
        base += part.n
    return DirectedGraph(base, edges)


DATA = Path(__file__).parent / "data"


class TestRankRepairAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.booleans(), st.integers(1, 60), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_and_tied_graphs(self, parts):
        # Tied integer weights exercise the (-w, tail, head) order; a union
        # of parts has several sink components in g, each with its anchor.
        graphs = []
        for tied, n, s in parts:
            rng = np.random.default_rng(s)
            graphs.append(tied_digraph(rng, n) if tied else random_digraph(rng, n))
        assert_repair_matches_loop(disjoint_union(graphs))

    def test_clustered_needs_many_rounds(self):
        # 474 edges over about 150 rounds, almost all after the first
        ids = assert_repair_matches_loop(clustered_digraph(n=4000, k=8, seed=11))
        assert ids.size > 400

    def test_merged_sink_takes_over_the_anchor(self):
        # g's one sink component is {0, 3, ..., 9}; a cycle closed after the
        # first round is a new seed sink there holding a smaller node id than
        # the anchor, which then becomes spurious in its turn
        g = DirectedGraph(10, [
            (0, 9, 1.7231018609893884), (1, 5, 1.2174596827190638), (1, 7, 1.514164509138078),
            (2, 6, 1.4883484244423204), (2, 9, 0.9490728691255238), (3, 0, 0.670100120986519),
            (3, 4, 1.4913160048815508), (3, 8, 0.8772973589085873), (4, 0, 1.8956853740343977),
            (4, 5, 1.8239067530176674), (4, 9, 1.8854718147718708), (5, 8, 1.8273201908765577),
            (6, 4, 0.6668234625846532), (6, 5, 1.322784681486), (6, 8, 1.0250889606536697),
            (7, 0, 0.1864644038613458), (7, 4, 1.7219680974001776), (7, 9, 1.4089076116760295),
            (8, 6, 0.1512576784989958), (9, 3, 0.8142651306336879), (9, 7, 0.47804427187806),
        ])
        assert assert_repair_matches_loop(g).size > 0

    @pytest.mark.parametrize("name", ["synth115.mtx", "synth32.mtx"])
    def test_bundled_inputs(self, name):
        assert_repair_matches_loop(read_matrix_market(DATA / name))

    def test_scc_passes_do_not_grow_with_rounds(self, monkeypatch):
        # the loop made one pass per round (36 here); one for g and two for
        # the seed remain
        calls = []
        real = seed_mod._scc_labels

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(seed_mod, "_scc_labels", counting)
        seed = build_seed(clustered_digraph(n=400, k=4, seed=11))
        assert seed.added_for_rank
        assert len(calls) <= 3
