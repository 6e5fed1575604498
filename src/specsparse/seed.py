"""Initial subgraph construction from a maximum spanning structure.

The seed sparsifier is built in four steps: form the symmetrized transition
matrix P = D_sym^-1 (A + A^T), treat P as the adjacency of an undirected
graph, take a maximum-weight spanning forest of it, keep every directed edge
whose endpoint pair lies on the forest, and finally give every node that has
outgoing edges in the original graph but none in the seed its heaviest
outgoing edge back.  The result has the same rank and nullity as the original
symmetrized Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graphs import DirectedGraph, adjacency

__all__ = ["SeedSubgraph", "symmetrized_transition", "maximum_spanning_structure", "build_seed"]


@dataclass
class SeedSubgraph:
    """Seed sparsifier plus provenance into the original edge list."""

    graph: DirectedGraph
    kept_edge_ids: list[int]
    added_for_dangling: list[int] = field(default_factory=list)
    added_for_rank: list[int] = field(default_factory=list)


def symmetrized_transition(g: DirectedGraph) -> sp.csr_array:
    """Row-stochastic transition matrix of A + A^T.

    Rows of isolated nodes stay all-zero instead of dividing by zero.
    """
    A = adjacency(g)
    A_sym = (A + A.T).tocsr()
    deg = np.asarray(A_sym.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    P = sp.dia_array((inv[np.newaxis, :], [0]), shape=(g.n, g.n)) @ A_sym
    return P.tocsr()


def maximum_spanning_structure(P: sp.sparray) -> list[tuple[int, int]]:
    """Maximum-weight spanning forest of the undirected graph behind P.

    P is interpreted as the adjacency of an undirected graph where the pair
    {i, j} carries weight P[i, j] + P[j, i] (P itself may be asymmetric).
    The forest is Kruskal's: pairs ranked by weight, ties broken on (smaller
    tail id, smaller head id), each taken unless it closes a cycle.  With the
    ranks as distinct weights that forest is the unique minimum spanning
    forest, which ``csgraph.minimum_spanning_tree`` finds.  Returns one tree
    per connected component, i.e. exactly n - #components edges as (i, j)
    pairs with i < j, in rank order.
    """
    n = P.shape[0]
    C = sp.coo_array(P)
    keep = (C.row != C.col) & (C.data != 0)
    lo = np.minimum(C.row, C.col)[keep].astype(np.int64)
    hi = np.maximum(C.row, C.col)[keep].astype(np.int64)
    # A canonical P holds at most two entries per pair, P[i, j] and P[j, i],
    # and a sum of two does not depend on their order.
    keys, inverse = np.unique(lo * n + hi, return_inverse=True)
    weights = np.bincount(inverse, weights=C.data[keep], minlength=keys.size)
    if keys.size == 0:
        return []
    lo, hi = np.divmod(keys, n)

    # Keys are unique and ascending, so a stable sort breaks ties on (lo, hi).
    ranked = np.argsort(-weights, kind="stable")
    # Rank k (from 1: a zero entry is no edge) as the weight of pair ranked[k - 1].
    rank = np.arange(1, keys.size + 1, dtype=np.float64)
    R = sp.csr_array((rank, (lo[ranked], hi[ranked])), shape=(n, n))
    taken = np.sort(csgraph.minimum_spanning_tree(R).data).astype(np.int64) - 1
    pairs = ranked[taken]
    return list(zip(lo[pairs].tolist(), hi[pairs].tolist()))


def _scc_labels(n, tails, heads):
    """Strongly connected component labels of the edge set."""
    A = sp.coo_array(
        (np.ones(len(tails), dtype=np.int8), (tails, heads)), shape=(n, n)
    ).tocsr()
    n_comp, labels = csgraph.connected_components(A, directed=True, connection="strong")
    return n_comp, labels


def _sink_flags(n_comp, labels, tails, heads):
    """Per component: does no edge leave it (True = sink)."""
    has_exit = np.zeros(n_comp, dtype=bool)
    cross = labels[tails] != labels[heads]
    has_exit[labels[tails[cross]]] = True
    return ~has_exit


def _run_starts(sorted_values):
    """Mask of the first entry of each run of equal values."""
    first = np.ones(sorted_values.size, dtype=bool)
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return first


def _heaviest_per_group(g, ids, groups):
    """Per group (``groups`` labels ``ids``), in group order, the heaviest
    edge id; ties go to the smaller tail, then the smaller head."""
    pick = np.lexsort((g.heads[ids], g.tails[ids], -g.weights[ids], groups))
    return ids[pick[_run_starts(groups[pick])]]


def _rank_repair(g, kept_set):
    """Edges to add so the seed's sink components match the original's count.

    The null space dimension of the symmetrized Laplacian equals the number
    of sink strongly-connected components, so parity there gives matching
    rank and nullity.  Every seed sink lying in a non-sink component of g,
    and every seed sink beyond the first inside one sink component of g,
    gets its maximum-weight unused exit edge; repeated until each original
    sink component hosts exactly one seed sink and no others remain.
    """
    n = g.n
    ng, lab_g = _scc_labels(n, g.tails, g.heads)
    sink_g = _sink_flags(ng, lab_g, g.tails, g.heads)

    in_seed = np.zeros(g.num_edges, dtype=bool)
    in_seed[list(kept_set)] = True
    added = []
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
        added.extend(int(e) for e in chosen)
    return added


def build_seed(g: DirectedGraph) -> SeedSubgraph:
    """Construct the initial seed sparsifier of g.

    Every directed edge of g between the endpoints of a forest edge is kept
    (both orientations when both exist), then two repairs run so the
    symmetrized Laplacians of seed and original share rank and nullity:
    nodes left without any outgoing edge get their maximum-weight one back,
    and spurious sink components are drained through their heaviest exit
    edges until the sink-component counts coincide.
    """
    P = symmetrized_transition(g)
    forest = np.array(maximum_spanning_structure(P), dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(g.tails, g.heads)
    hi = np.maximum(g.tails, g.heads)
    on_forest = np.isin(lo * g.n + hi, forest[:, 0] * g.n + forest[:, 1])
    kept = np.flatnonzero(on_forest).tolist()

    has_out = np.zeros(g.n, dtype=bool)
    has_out[g.tails[on_forest]] = True
    bare = np.flatnonzero(~has_out[g.tails])
    dangling = np.sort(_heaviest_per_group(g, bare, g.tails[bare])).tolist()
    kept_set = set(kept) | set(dangling)
    rank_fix = [] if g.num_edges == 0 else _rank_repair(g, kept_set)
    kept_set.update(rank_fix)

    kept_all = sorted(kept_set)
    return SeedSubgraph(
        graph=g.subgraph(kept_all),
        kept_edge_ids=kept_all,
        added_for_dangling=dangling,
        added_for_rank=sorted(rank_fix),
    )
