import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    adjacency,
    incidence_factorization,
    laplacian,
    symmetrize,
    symmetrized_operator,
)

from conftest import random_digraph


class TestDirectedGraph:
    def test_duplicates_merge_by_sum(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (0, 1, 2.5), (1, 2, 1.0)])
        assert g.edges == [(0, 1, 3.5), (1, 2, 1.0)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(2, [(0, 0, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            DirectedGraph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="weight"):
            DirectedGraph(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize(
        "edges, edge",
        [
            ([(0, 1, 1.0), (1, 0, np.inf)], "(1, 0)"),
            ([(1, 0, 1.0), (0, 1, 1e308), (0, 1, 1e308)], "(0, 1)"),  # merges to inf
        ],
    )
    def test_non_finite_weight_rejected(self, edges, edge):
        for build in (DirectedGraph, TestFromArrays.from_arrays):
            with pytest.raises(ValueError, match=rf"^edge {re.escape(edge)} has non-finite weight inf$"):
                build(2, edges)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(2, [(0, 2, 1.0)])

    def test_subgraph_keeps_weights(self):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        s = g.subgraph([0, 2])
        assert s.edges == [(0, 1, 1.0), (2, 0, 3.0)]

    def test_subgraph_keeps_repeated_id_once(self, rng):
        g = DirectedGraph(3, [(0, 1, 1.5), (1, 2, 2.0)])
        assert g.subgraph([0, 0]).edges == [(0, 1, 1.5)]
        for _ in range(10):
            g = random_digraph(rng, int(rng.integers(1, 30)))
            ids = rng.integers(0, max(g.num_edges, 1), size=g.num_edges).tolist() if g.num_edges else []
            rebuilt = DirectedGraph(g.n, [g.edges[i] for i in set(ids)])
            assert g.subgraph(ids) == rebuilt
            assert g.subgraph(iter(set(ids))) == rebuilt
            assert g.subgraph(np.array(ids, dtype=np.int64)) == rebuilt

    @pytest.mark.parametrize("ids", [[-1], [0, -3], [3], [0, 1, 2, 7]])
    def test_subgraph_rejects_out_of_range_ids(self, ids):
        # a negative id would otherwise wrap around to an edge from the end
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        bad = min(ids) if min(ids) < 0 else max(ids)
        with pytest.raises(ValueError, match=rf"^edge id {bad} out of range for m=3$"):
            g.subgraph(ids)
        with pytest.raises(ValueError, match="out of range"):
            g.subgraph(np.array(ids, dtype=np.int64))
        assert g.subgraph([]).num_edges == 0


def loop_reference(n, edges):
    """The per-edge dict loop ``DirectedGraph`` used to merge edges with."""
    merged = {}
    for tail, head, weight in edges:
        tail = int(tail)
        head = int(head)
        if not (0 <= tail < n and 0 <= head < n):
            raise ValueError(f"edge ({tail}, {head}) out of range for n={n}")
        if tail == head:
            raise ValueError(f"self-loop at node {tail} not allowed")
        if not weight > 0:
            raise ValueError(f"edge ({tail}, {head}) has non-positive weight {weight}")
        key = (tail, head)
        merged[key] = merged.get(key, 0.0) + float(weight)
    return [(t, h, w) for (t, h), w in sorted(merged.items())]


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return "ValueError", str(exc)


class TestVectorizedAgainstLoops:
    @staticmethod
    def merged(n, edges):
        return DirectedGraph(n, edges).edges

    def test_empty_and_zero_nodes(self):
        for n, edges in [(0, []), (0, ()), (5, []), (0, [(0, 0, 1.0)]), (0, [(0, 1, 1.0)])]:
            assert outcome(self.merged, n, edges) == outcome(loop_reference, n, edges)
        g = DirectedGraph(0, iter([]))
        assert g.tails.dtype == g.heads.dtype == np.int64 and g.weights.dtype == np.float64

    def test_duplicates_sum_in_input_order(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, 40))
            # weights far apart in magnitude make the summation order visible
            edges = [
                (int(rng.integers(n)), int(rng.integers(n)), float(10.0 ** rng.integers(-16, 17) * rng.uniform(0.5, 2.0)))
                for _ in range(m)
            ]
            edges = [e for e in edges if e[0] != e[1]]
            assert self.merged(n, edges) == loop_reference(n, edges)

    def test_node_ids_beyond_the_square_root_of_int64(self):
        # tail * n + head would wrap in int64 here
        n = 2**40
        edges = [(n - 1, 3, 1.0), (5, n - 2, 2.0), (n - 1, 3, 0.5), (n - 1, 2, 4.0), (5, n - 3, 1.0)]
        assert self.merged(n, edges) == loop_reference(n, edges)

    def test_node_ids_beyond_float64_precision(self):
        g = DirectedGraph(2**60, [(2**53 + 1, 0, 1.0)])
        assert g == DirectedGraph.from_arrays(2**60, [2**53 + 1], [0], [1.0])
        assert g.edges == [(2**53 + 1, 0, 1.0)]
        edges = [(2**62 + 3, 2**62 + 1, 2.0), (2**53 + 1, 2**53, 1.0), (2**62 + 3, 2**62 + 1, 0.5)]
        assert self.merged(2**63 - 1, edges) == loop_reference(2**63 - 1, edges)

    def test_node_ids_beyond_int64_are_out_of_range(self):
        for edge in [(2**64, 0, 1.0), (0, 2**63, 1.0), (1, -(2**70), 1.0)]:
            want = outcome(loop_reference, 5, [edge])
            assert want[0] == "ValueError" and "out of range" in want[1]
            assert outcome(self.merged, 5, [(0, 1, 1.0), edge]) == want

    @pytest.mark.parametrize(
        "bad",
        [(3, 1, 1.0), (1, -1, 1.0), (2, 2, 1.0), (0, 1, 0.0), (0, 2, -1), (1, 2, float("nan")), (5, 5, -2.0)],
    )
    def test_first_bad_edge_in_input_order(self, rng, bad):
        n = 3
        good = [(0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0)]
        for at in range(len(good) + 1):
            later = [(2, 2, 1.0), (0, 7, 1.0), (1, 0, -3.0)][at % 3]
            edges = good[:at] + [bad] + good[at:] + [later]
            want = outcome(loop_reference, n, edges)
            assert want[0] == "ValueError"
            assert outcome(self.merged, n, edges) == want


class TestFromArrays:
    @staticmethod
    def from_arrays(n, edges):
        arrays = [[e[k] for e in edges] for k in range(3)]
        return DirectedGraph.from_arrays(n, *arrays).edges

    def test_same_graph_or_error_as_the_constructor(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 8))
            m = int(rng.integers(0, 30))
            edges = [
                (int(rng.integers(-1, n + 1)), int(rng.integers(-1, n + 1)), float(rng.choice([-1.0, 0.0, 1.0, 2.5])))
                for _ in range(m)
            ]
            if rng.random() < 0.5:
                edges = [(t, h, w) for t, h, w in edges if 0 <= t < n and 0 <= h < n and w > 0]
            if rng.random() < 0.3:
                edges.sort()
            want = outcome(loop_reference, n, edges)
            assert outcome(self.from_arrays, n, edges) == want
            assert outcome(TestVectorizedAgainstLoops.merged, n, edges) == want

    def test_canonical_arrays_skip_the_sort(self, rng, monkeypatch):
        g = random_digraph(rng, 50)

        def no_sort(*args):
            raise AssertionError("canonical arrays were sorted")

        monkeypatch.setattr(np, "lexsort", no_sort)
        h = DirectedGraph.from_arrays(g.n, g.tails, g.heads, g.weights)
        assert h == g and h.weights.dtype == np.float64
        with pytest.raises(AssertionError, match="sorted"):
            DirectedGraph.from_arrays(g.n, g.tails[::-1], g.heads[::-1], g.weights[::-1])

    def test_keeps_its_own_arrays(self):
        tails, heads, weights = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0])
        g = DirectedGraph.from_arrays(2, tails, heads, weights)
        tails[0], weights[0] = 1, 5.0
        assert g.edges == [(0, 1, 1.0), (1, 0, 2.0)]

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="1-D of one length"):
            DirectedGraph.from_arrays(3, [0, 1], [1], [1.0, 1.0])
        with pytest.raises(ValueError, match="node count"):
            DirectedGraph.from_arrays(-1, [], [], [])


class TestAdjacency:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1, 1.0)])
        A = adjacency(g).toarray()
        assert A[0, 1] == 1.0 and A.sum() == 1.0

    def test_empty(self):
        A = adjacency(DirectedGraph(3, []))
        assert A.shape == (3, 3) and A.nnz == 0

    def test_three_node(self):
        g = DirectedGraph(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0)])
        expected = np.zeros((3, 3))
        expected[0, 1], expected[0, 2], expected[1, 2] = 2.0, 1.0, 3.0
        np.testing.assert_array_equal(adjacency(g).toarray(), expected)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        drop=st.floats(0.0, 0.6),
        isolated=st.integers(0, 3),
    )
    @example(seed=0, n=1, drop=0.0, isolated=2)  # no edge at all
    def test_same_arrays_as_the_coo_route(self, seed, n, drop, isolated):
        # Dangling nodes (out-edges of some tails dropped) and isolated ones.
        rng = np.random.default_rng(seed)
        g = random_digraph(rng, n)
        keep = rng.random(n)[g.tails] >= drop
        g = DirectedGraph.from_arrays(n + isolated, g.tails[keep], g.heads[keep], g.weights[keep])
        A = adjacency(g)
        want = sp.coo_array((g.weights, (g.tails, g.heads)), shape=(g.n, g.n)).tocsr()
        for attr in ("indptr", "indices", "data"):
            got, ref = getattr(A, attr), getattr(want, attr)
            if g.num_edges:
                assert got.tobytes() == ref.tobytes()
            else:  # scipy's conversion picks int32 for an empty matrix
                assert np.array_equal(got, ref)
        assert A.has_canonical_format
        weights, heads = g.weights.copy(), g.heads.copy()
        A.data[:] = -1.0
        A.indices[:] = 0
        assert np.array_equal(g.weights, weights) and np.array_equal(g.heads, heads)


class TestLaplacian:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1, 4.0)])
        np.testing.assert_array_equal(laplacian(g).toarray(), [[4.0, 0.0], [-4.0, 0.0]])

    def test_three_node_hand_value(self):
        g = DirectedGraph(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0)])
        expected = np.array([[3.0, 0, 0], [-2.0, 3.0, 0], [-1.0, -3.0, 0]])
        np.testing.assert_array_equal(laplacian(g).toarray(), expected)

    def test_symmetric_pair(self):
        g = DirectedGraph(2, [(0, 1, 2.0), (1, 0, 2.0)])
        np.testing.assert_array_equal(laplacian(g).toarray(), [[2.0, -2.0], [-2.0, 2.0]])

    def test_matches_dense_construction(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 30)))
            A = adjacency(g).toarray()
            D = np.diag(A.sum(axis=1))
            np.testing.assert_allclose(laplacian(g).toarray(), D - A.T, atol=0)

    def test_column_sums_zero(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 40)))
            cols = np.asarray(laplacian(g).sum(axis=0)).ravel()
            np.testing.assert_allclose(cols, 0, atol=1e-12)

    def test_offdiagonals_nonpositive(self, rng):
        g = random_digraph(rng, 25)
        L = laplacian(g).toarray()
        off = L - np.diag(np.diag(L))
        assert off.max() <= 0


def averaged_symmetrize(L):
    """L L^T averaged with its transpose, in canonical CSR: the construction
    from before the product was known to be exactly symmetric."""
    Lu = (L @ L.T).tocsr()
    out = ((Lu + Lu.T) * 0.5).tocsr()
    out.sum_duplicates()
    return out


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for attr in ("indptr", "indices", "data"):
        assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes(), attr


class TestSymmetrize:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1, 3.0)])
        np.testing.assert_array_equal(
            symmetrize(laplacian(g)).toarray(), [[9.0, -9.0], [-9.0, 9.0]]
        )

    def test_matches_dense_product(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 40)))
            L = laplacian(g)
            dense = L.toarray() @ L.toarray().T
            got = symmetrize(L).toarray()
            scale = max(np.abs(dense).max(), 1e-30)
            np.testing.assert_allclose(got, dense, atol=1e-12 * scale)

    def test_row_sums_zero(self, rng):
        g = random_digraph(rng, 30)
        Lu = symmetrize(laplacian(g))
        np.testing.assert_allclose(np.asarray(Lu.sum(axis=1)).ravel(), 0, atol=1e-10)

    def test_star_heads_form_clique(self):
        # one tail with four outgoing edges couples every pair of heads
        g = DirectedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
        Lu = symmetrize(laplacian(g)).toarray()
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    assert Lu[i, j] != 0

    def test_positive_offdiagonals_possible(self):
        g = DirectedGraph(5, [(0, i, 1.0) for i in range(1, 5)])
        Lu = symmetrize(laplacian(g)).toarray()
        off = Lu - np.diag(np.diag(Lu))
        assert off.max() > 0

    def test_sps_quadratic_form(self, rng):
        for _ in range(10):
            g = random_digraph(rng, int(rng.integers(2, 30)))
            Lu = symmetrize(laplacian(g))
            X = rng.standard_normal((g.n, 100))
            quad = np.einsum("ij,ij->j", X, Lu @ X)
            assert quad.min() >= -1e-12 * max(1.0, np.abs(quad).max())

    def test_symmetry_exact(self, rng):
        g = random_digraph(rng, 35)
        Lu = symmetrize(laplacian(g))
        diff = (Lu - Lu.T).toarray()
        assert np.abs(diff).max() <= 1e-12 * np.abs(Lu.toarray()).max()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 60), extra=st.floats(0.5, 8.0), seed=st.integers(0, 2**32 - 1))
    def test_bits_match_the_averaged_construction(self, n, extra, seed):
        L = laplacian(random_digraph(np.random.default_rng(seed), n, extra))
        Lu = symmetrize(L)
        assert_same_csr(Lu, averaged_symmetrize(L))
        dense = Lu.toarray()
        assert np.array_equal(dense, dense.T)
        # The same L with each row's entries stored in descending column order.
        rows = np.repeat(np.arange(n), np.diff(L.indptr))
        order = np.lexsort((-L.indices, rows))
        unsorted = sp.csr_array((L.data[order], L.indices[order], L.indptr), shape=L.shape)
        assert_same_csr(symmetrize(unsorted), Lu)

    def test_exact_cancellation_not_stored(self):
        # Rows 0 and 1 of L are (1, 0, -1) and (-1, 0, -1): their products
        # meet in column 0 (-1) and column 2 (+1), so (L L^T)[0, 1] sums to
        # exactly 0, and neither it nor (1, 0) is stored.
        g = DirectedGraph(3, [(0, 1, 1.0), (2, 0, 1.0), (2, 1, 1.0)])
        Lu = symmetrize(laplacian(g))
        np.testing.assert_array_equal(Lu.toarray(), [[2.0, 0.0, -2.0], [0.0, 2.0, -2.0], [-2.0, -2.0, 4.0]])
        assert Lu.nnz == 7 and Lu.has_canonical_format

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(sp.csr_array(np.ones((2, 3))))


def assert_operator_matches(L, V):
    """symmetrized_operator(L) @ V against symmetrize(L) @ V and the dense
    L L^T V, relative to the magnitude |L| |L|^T |V| of the terms summed."""
    Ld = L.toarray()
    got = symmetrized_operator(L) @ V
    assert got.shape == V.shape
    tol = 1e-12 * max((np.abs(Ld) @ (np.abs(Ld).T @ np.abs(V))).max(), 1e-300)
    assert np.abs(got - symmetrize(L) @ V).max() <= tol
    assert np.abs(got - (Ld @ Ld.T) @ V).max() <= tol


class TestSymmetrizedOperator:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 50), graph_seed=st.integers(0, 2**32 - 1), block=st.integers(0, 3))
    @example(n=1, graph_seed=0, block=0)
    @example(n=2, graph_seed=0, block=0)
    @example(n=2, graph_seed=1, block=2)
    def test_matches_formed_and_dense_product(self, n, graph_seed, block):
        rng = np.random.default_rng(graph_seed)
        g = random_digraph(rng, n)
        V = rng.standard_normal(n if block == 0 else (n, block))
        assert_operator_matches(laplacian(g), V)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 50), graph_seed=st.integers(0, 2**32 - 1), block=st.sampled_from([0, 1, 16]))
    def test_same_bits_as_a_transposed_copy(self, n, graph_seed, block):
        rng = np.random.default_rng(graph_seed)
        L = laplacian(random_digraph(rng, n))
        V = rng.standard_normal(n if block == 0 else (n, block))
        np.testing.assert_array_equal(symmetrized_operator(L) @ V, L @ (L.T.tocsr() @ V))

    def test_hub_with_2000_out_edges(self, rng):
        d = 2000
        edges = [(0, i, float(w)) for i, w in enumerate(rng.uniform(0.1, 2.0, d), start=1)]
        edges += [(i, i + 1, 1.0) for i in range(1, d)]
        L = laplacian(DirectedGraph(d + 1, edges))
        assert_operator_matches(L, rng.standard_normal(d + 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            symmetrized_operator(sp.csr_array(np.ones((2, 3))))


class TestIncidenceFactorization:
    def test_single_edge(self):
        g = DirectedGraph(2, [(0, 1, 5.0)])
        B, C, W = incidence_factorization(g)
        np.testing.assert_array_equal(B.toarray(), [[1.0, -1.0]])
        np.testing.assert_array_equal(C.toarray(), [[1.0, 0.0]])
        np.testing.assert_array_equal(W.toarray(), [[5.0]])
        np.testing.assert_array_equal((B.T @ W @ C).toarray(), laplacian(g).toarray())

    def test_two_cycle(self):
        g = DirectedGraph(2, [(0, 1, 2.0), (1, 0, 2.0)])
        B, C, W = incidence_factorization(g)
        np.testing.assert_array_equal(
            (B.T @ W @ C).toarray(), [[2.0, -2.0], [-2.0, 2.0]]
        )

    def test_empty(self):
        B, C, W = incidence_factorization(DirectedGraph(3, []))
        assert (B.T @ W @ C).shape == (3, 3)
        assert (B.T @ W @ C).nnz == 0

    def test_exact_on_integer_weights(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            edges = {}
            for _ in range(3 * n):
                t, h = rng.integers(0, n, 2)
                if t != h:
                    edges[(int(t), int(h))] = float(rng.integers(1, 10))
            if not edges:
                continue
            g = DirectedGraph(n, [(t, h, w) for (t, h), w in edges.items()])
            B, C, W = incidence_factorization(g)
            diff = ((B.T @ W @ C) - laplacian(g)).toarray()
            assert np.abs(diff).max() == 0.0
