"""Directed graph container, Laplacians, symmetrization and incidence factors.

The directed Laplacian used throughout is L = D - A^T with D holding weighted
out-degrees, so every *column* of L sums to zero.  Symmetrizing it as
L_u = L L^T yields a symmetric positive semidefinite matrix with the all-ones
vector in its null space; L_u behaves like an undirected Laplacian except that
off-diagonals may turn positive (negative undirected edge weights) when the
out-edges of a shared tail couple.  ``symmetrize`` forms L_u as one sparse
product, which stores no entry whose sum is exactly zero and keeps every
other entry as computed, rounding-level residues of near-cancellations
included.  ``symmetrized_operator`` applies L_u as two products with L
instead, for L_u that are only ever multiplied.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

__all__ = [
    "DirectedGraph",
    "adjacency",
    "laplacian",
    "symmetrize",
    "symmetrized_operator",
    "incidence_factorization",
]

_INT64_MAX = np.iinfo(np.int64).max


def _node_count(n):
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    return int(n)


class DirectedGraph:
    """Weighted directed graph with 0-based node ids.

    Edges are canonicalized at construction: duplicates of the same
    (tail, head) pair merge by weight summation, the list is sorted by
    (tail, head), all weights must be strictly positive and finite (also
    after the merge) and self-loops are rejected.  ``from_arrays`` builds the
    same graph from parallel arrays in place of an edge list.  Instances are
    treated as immutable.
    """

    __slots__ = ("n", "tails", "heads", "weights")

    def __init__(self, n, edges):
        self.n = _node_count(n)
        edges = list(edges)
        arr = np.array(edges, dtype=np.float64).reshape(len(edges), 3)
        ids = arr[:, :2]
        if ids.size and np.abs(ids).max() >= 2.0**53:
            # float64 rounds ids from 2**53 up: take them from the tuples.  An
            # id beyond int64 is out of range; clamped, it still fails the check.
            ids = np.array([[min(max(int(v), -1), _INT64_MAX) for v in e[:2]] for e in edges])
        tails, heads = ids[:, 0].astype(np.int64), ids[:, 1].astype(np.int64)
        self._canonicalize(tails, heads, arr[:, 2].copy(), edges)

    @classmethod
    def from_arrays(cls, n, tails, heads, weights):
        """Graph from parallel tail, head and weight arrays, validated and
        canonicalized as the constructor does it with an edge list."""
        g = cls.__new__(cls)
        g.n = _node_count(n)
        tails = np.array(tails, dtype=np.int64)
        heads = np.array(heads, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        if not (tails.ndim == 1 and tails.shape == heads.shape == weights.shape):
            raise ValueError(
                f"tails, heads and weights must be 1-D of one length, got shapes "
                f"{tails.shape}, {heads.shape} and {weights.shape}"
            )
        g._canonicalize(tails, heads, weights, None)
        return g

    def _canonicalize(self, tails, heads, weights, edges):
        """Validate the edge arrays and store them merged and sorted.  A bad
        edge's message quotes ``edges`` (the caller's tuples) when given."""
        bad = (tails < 0) | (tails >= self.n) | (heads < 0) | (heads >= self.n)
        bad |= ~(weights > 0) | (tails == heads)
        if bad.any():
            k = int(np.argmax(bad))
            tail, head, weight = edges[k] if edges is not None else (tails[k], heads[k], float(weights[k]))
            tail, head = int(tail), int(head)
            if not (0 <= tail < self.n and 0 <= head < self.n):
                raise ValueError(f"edge ({tail}, {head}) out of range for n={self.n}")
            if tail == head:
                raise ValueError(f"self-loop at node {tail} not allowed")
            raise ValueError(f"edge ({tail}, {head}) has non-positive weight {weight}")

        # Arrays already canonical, as every file write_matrix_market writes
        # is, are kept as they stand.
        if not np.all((tails[1:] > tails[:-1]) | ((tails[1:] == tails[:-1]) & (heads[1:] > heads[:-1]))):
            # A stable sort by (tail, head), without a tail * n + head key that
            # could wrap; bincount sums each pair's weights in input order (and
            # returns int64 when there are none, hence the cast).
            order = np.lexsort((heads, tails))
            tails, heads = tails[order], heads[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
            pair = np.empty(order.size, dtype=np.int64)
            pair[order] = np.cumsum(first) - 1
            tails, heads = tails[first], heads[first]
            weights = np.bincount(pair, weights=weights).astype(np.float64, copy=False)
        # Checked on the merged weights: two finite ones can sum to inf.
        if not np.isfinite(weights).all():
            k = int(np.argmax(np.isinf(weights)))
            raise ValueError(f"edge ({int(tails[k])}, {int(heads[k])}) has non-finite weight {weights[k]}")
        self.tails, self.heads, self.weights = tails, heads, weights

    @property
    def num_edges(self):
        return self.tails.size

    @property
    def edges(self):
        """Edge list as (tail, head, weight) tuples in canonical order."""
        return [
            (int(t), int(h), float(w))
            for t, h, w in zip(self.tails, self.heads, self.weights)
        ]

    def subgraph(self, edge_ids):
        """Graph on the same node set keeping the given edge ids (an array or
        any iterable), each once; canonical arrays under a mask stay canonical."""
        if not isinstance(edge_ids, np.ndarray):
            edge_ids = np.fromiter(edge_ids, dtype=np.int64)
        if edge_ids.size:
            lo, hi = edge_ids.min(), edge_ids.max()
            if lo < 0 or hi >= self.num_edges:
                bad = lo if lo < 0 else hi
                raise ValueError(f"edge id {bad} out of range for m={self.num_edges}")
        keep = np.zeros(self.num_edges, dtype=bool)
        keep[edge_ids] = True
        sub = DirectedGraph(self.n, ())
        sub.tails, sub.heads, sub.weights = self.tails[keep], self.heads[keep], self.weights[keep]
        return sub

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.n, self.tails.tobytes(), self.heads.tobytes(), self.weights.tobytes()))

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.num_edges})"


def _row_starts(n, tails):
    """CSR row pointer of edges sorted by tail: node v's out-edges are
    ``starts[v]:starts[v + 1]``."""
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=starts[1:])
    return starts


def _scc_labels(n, tails, heads):
    """Strongly connected component labels of the edge set, whose
    (tail, head) pairs must ascend as in a canonical graph: they are then
    the CSR arrays of its adjacency as they stand."""
    A = sp.csr_array(
        (np.ones(len(tails), dtype=np.int8), heads, _row_starts(n, tails)), shape=(n, n)
    )
    n_comp, labels = csgraph.connected_components(A, directed=True, connection="strong")
    return n_comp, labels


def _sink_flags(n_comp, labels, tails, heads):
    """Per component: does no edge leave it (True = sink)."""
    has_exit = np.zeros(n_comp, dtype=bool)
    cross = labels[tails] != labels[heads]
    has_exit[labels[tails[cross]]] = True
    return ~has_exit


def adjacency(g: DirectedGraph) -> sp.csr_array:
    """Adjacency matrix A with A[i, j] = w for each directed edge (i, j).

    The graph's (tail, head)-sorted arrays are A's canonical CSR arrays:
    only the row pointer is computed, and no COO entry is sorted.  A holds
    copies, so changing it in place leaves the graph as it was."""
    return sp.csr_array((g.weights.copy(), g.heads.copy(), _row_starts(g.n, g.tails)), shape=(g.n, g.n))


def laplacian(g: DirectedGraph) -> sp.csr_array:
    """Directed Laplacian L = D - A^T (D = diagonal of weighted out-degrees).

    Every column of L sums to zero and off-diagonals are non-positive.  Row
    sums vanish only when in- and out-degrees agree, so only the column-sum
    property is guaranteed.  L, like ``adjacency`` and the factors of
    ``incidence_factorization``, is canonical CSR as built: a
    DirectedGraph has no duplicate pairs, no self-loops and only positive
    weights, so no entry repeats or sums to zero.
    """
    rows = np.concatenate([g.tails, g.heads])
    cols = np.concatenate([g.tails, g.tails])
    vals = np.concatenate([g.weights, -g.weights])
    return sp.coo_array((vals, (rows, cols)), shape=(g.n, g.n)).tocsr()


def symmetrize(L: sp.sparray) -> sp.csr_array:
    """Symmetrized Laplacian L_u = L L^T as one sparse product, with sorted
    indices.

    The result is SPS with the all-ones vector in its null space, and exactly
    symmetric: with L's column indices sorted, the product sums (i, j) and
    (j, i) over the same k in the same order.  An entry whose sum is exactly
    zero is not stored; a near-cancellation leaves its rounding-level residue
    stored as computed.
    """
    L = sp.csr_array(L)
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected square matrix, got {L.shape}")
    if not L.has_sorted_indices:
        L = L.sorted_indices()
    Lu = L @ L.T
    Lu.sort_indices()
    return Lu


def symmetrized_operator(L: sp.sparray) -> spla.LinearOperator:
    """L_u = L L^T as the operator v -> L (L^T v) on vectors and n x k
    blocks; L^T is L's transposed view, which copies nothing."""
    L = sp.csr_array(L)
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected square matrix, got {L.shape}")
    LT = L.T

    def apply(v):
        return L @ (LT @ v)

    return spla.LinearOperator(L.shape, matvec=apply, matmat=apply, dtype=np.float64)


def incidence_factorization(g: DirectedGraph):
    """Factor the directed Laplacian as L = B^T W C.

    For the i-th edge (tail, head):

      B[i, tail] = +1,  B[i, head] = -1
      C[i, tail] = +1
      W[i, i]    = weight

    This orientation is the one for which B^T W C reproduces D - A^T exactly
    (putting the +1 of both factors on the head does not).
    """
    m = g.num_edges
    ids = np.arange(m)
    B = sp.coo_array(
        (
            np.concatenate([np.ones(m), -np.ones(m)]),
            (np.concatenate([ids, ids]), np.concatenate([g.tails, g.heads])),
        ),
        shape=(m, g.n),
    ).tocsr()
    C = sp.coo_array((np.ones(m), (ids, g.tails)), shape=(m, g.n)).tocsr()
    W = sp.dia_array((g.weights[np.newaxis, :], [0]), shape=(m, m)).tocsr()
    return B, C, W
