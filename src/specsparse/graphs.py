"""Directed graph container, Laplacians, symmetrization and incidence factors.

The directed Laplacian used throughout is L = D - A^T with D holding weighted
out-degrees, so every *column* of L sums to zero.  Symmetrizing it as
L_u = L L^T yields a symmetric positive semidefinite matrix with the all-ones
vector in its null space; L_u behaves like an undirected Laplacian except that
off-diagonals may turn positive (negative undirected edge weights) when the
out-edges of a shared tail couple.  ``symmetrized_operator`` applies L_u as
two products with L instead, for L_u that are only ever multiplied.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "DirectedGraph",
    "adjacency",
    "laplacian",
    "symmetrize",
    "symmetrized_operator",
    "incidence_factorization",
]

# Relative cutoff below which symmetrization entries are treated as exact
# cancellations and dropped.
CANCEL_TOL = 1e-14

_INT64_MAX = np.iinfo(np.int64).max


def _node_count(n):
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    return int(n)


class DirectedGraph:
    """Weighted directed graph with 0-based node ids.

    Edges are canonicalized at construction: duplicates of the same
    (tail, head) pair merge by weight summation, the list is sorted by
    (tail, head), all weights must be strictly positive and self-loops are
    rejected.  ``from_arrays`` builds the same graph from parallel arrays in
    place of an edge list.  Instances are treated as immutable.
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

        if np.all((tails[1:] > tails[:-1]) | ((tails[1:] == tails[:-1]) & (heads[1:] > heads[:-1]))):
            # Already canonical, as every file write_matrix_market writes is.
            self.tails, self.heads, self.weights = tails, heads, weights
            return
        # A stable sort by (tail, head), without a tail * n + head key that
        # could wrap; bincount sums each pair's weights in input order (and
        # returns int64 when there are none, hence the cast).
        order = np.lexsort((heads, tails))
        tails, heads = tails[order], heads[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
        pair = np.empty(order.size, dtype=np.int64)
        pair[order] = np.cumsum(first) - 1
        self.tails, self.heads = tails[first], heads[first]
        self.weights = np.bincount(pair, weights=weights).astype(np.float64, copy=False)

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


def adjacency(g: DirectedGraph) -> sp.csr_array:
    """Adjacency matrix A with A[i, j] = w for each directed edge (i, j)."""
    A = sp.coo_array((g.weights, (g.tails, g.heads)), shape=(g.n, g.n))
    A = A.tocsr()
    A.sum_duplicates()
    return A


def laplacian(g: DirectedGraph) -> sp.csr_array:
    """Directed Laplacian L = D - A^T (D = diagonal of weighted out-degrees).

    Every column of L sums to zero and off-diagonals are non-positive.  Row
    sums vanish only when in- and out-degrees agree, so only the column-sum
    property is guaranteed.
    """
    rows = np.concatenate([g.tails, g.heads])
    cols = np.concatenate([g.tails, g.tails])
    vals = np.concatenate([g.weights, -g.weights])
    L = sp.coo_array((vals, (rows, cols)), shape=(g.n, g.n)).tocsr()
    L.sum_duplicates()
    L.eliminate_zeros()
    return L


def symmetrize(L: sp.sparray) -> sp.csr_array:
    """Symmetrized Laplacian L_u = L L^T, computed sparsely.

    The result is SPS with the all-ones vector in its null space.  Entries
    whose magnitude falls below CANCEL_TOL times both touching diagonals are
    treated as exact cancellations and dropped (the pattern stays symmetric
    because the cutoff is applied symmetrically).
    """
    L = sp.csr_array(L)
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected square matrix, got {L.shape}")
    Lu = (L @ L.T).tocsr()
    # Sparse products accumulate (i,j) and (j,i) in different orders; average
    # to make the result exactly symmetric.
    Lu = ((Lu + Lu.T) * 0.5).tocoo()

    diag = np.zeros(Lu.shape[0])
    on_diag = Lu.row == Lu.col
    diag[Lu.row[on_diag]] = Lu.data[on_diag]

    cut = CANCEL_TOL * np.maximum(diag[Lu.row], diag[Lu.col])
    keep = on_diag | (np.abs(Lu.data) >= cut)
    out = sp.coo_array(
        (Lu.data[keep], (Lu.row[keep], Lu.col[keep])), shape=Lu.shape
    ).tocsr()
    out.eliminate_zeros()
    return out


def symmetrized_operator(L: sp.sparray) -> spla.LinearOperator:
    """L_u = L L^T as the operator v -> L (L^T v) on vectors and n x k
    blocks; L^T is built once.  Not formed, so no cancellation is dropped."""
    L = sp.csr_array(L)
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected square matrix, got {L.shape}")
    LT = L.T.tocsr()

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
    B.sum_duplicates()
    B.eliminate_zeros()  # self-loops cancel to an all-zero row
    C = sp.coo_array((np.ones(m), (ids, g.tails)), shape=(m, g.n)).tocsr()
    W = sp.dia_array((g.weights[np.newaxis, :], [0]), shape=(m, m)).tocsr()
    return B, C, W
