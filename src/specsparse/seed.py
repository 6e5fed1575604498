"""Initial subgraph construction from a maximum spanning structure.

The seed sparsifier is built in four steps: form the symmetrized transition
matrix P = D_sym^-1 (A + A^T), treat P as the adjacency of an undirected
graph, take a maximum-weight spanning forest of it (Kruskal's, ties going to
the smaller pair, which is the order of canonical CSR and of the graph's
edges), keep every directed edge whose endpoint pair lies on the forest, and
finally give every node that has outgoing edges in the original graph but
none in the seed its heaviest outgoing edge back.  A rank repair then
drains the seed's spurious sink components through their heaviest exit
edges, in synchronous rounds, so that the result has the same rank and
nullity as the original symmetrized Laplacian.  Only the first round looks
at every node: the later ones track the seed's strongly connected
components on its condensation, with a union-find, and touch only the
components that a round's new edges reach.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graphs import DirectedGraph, _row_starts, _scc_labels, _sink_flags, adjacency

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


def maximum_spanning_structure(P: sp.sparray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-weight spanning forest of the undirected graph behind P.

    P is interpreted as the adjacency of an undirected graph where the pair
    {i, j} carries weight P[i, j] + P[j, i] (P itself may be asymmetric).
    The forest is Kruskal's: pairs ranked by weight, ties broken on (smaller
    tail id, smaller head id), each taken unless it closes a cycle.  With the
    ranks as distinct weights that forest is the unique minimum spanning
    forest, which ``csgraph.minimum_spanning_tree`` finds.  Returns one tree
    per connected component, i.e. exactly n - #components pairs, as two
    int64 arrays ``(lo, hi)`` with lo < hi, in rank order.
    """
    # In canonical CSR, W holds one entry per pair, its weight, and stores
    # the pairs in (lo, hi) order: a stable sort breaks ties in that order.
    W = sp.triu(P + P.T, k=1, format="csr")
    ranked = np.argsort(-W.data, kind="stable")
    # Rank k (from 1: a zero entry is no edge) as the weight of pair ranked[k - 1].
    rank = np.empty(W.nnz)
    rank[ranked] = np.arange(1, W.nnz + 1)
    R = sp.csr_array((rank, W.indices, W.indptr), shape=W.shape)
    pairs = ranked[np.sort(csgraph.minimum_spanning_tree(R).data).astype(np.int64) - 1]
    lo = np.searchsorted(W.indptr, pairs, side="right") - 1
    return lo.astype(np.int64), W.indices[pairs].astype(np.int64)


def _run_starts(sorted_values):
    """Mask of the first entry of each run of equal values."""
    first = np.ones(sorted_values.size, dtype=bool)
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return first


def _heaviest_per_group(g, ids, groups):
    """Per group (``groups`` labels ``ids``), in group order, the heaviest
    edge id; ties go to the smaller tail, then the smaller head.  ``ids``
    must ascend, so that a stable sort breaks the ties: ids ascend with
    (tail, head)."""
    pick = np.lexsort((-g.weights[ids], groups))
    return ids[pick[_run_starts(groups[pick])]]


def _seed_components(g, in_seed, lab_g, sink_g):
    """One SCC pass over the seed edges ``in_seed``.

    Returns per node its seed component, and per component its smallest node
    id, its component in g (seed components never straddle those of g), and
    two masks: sink, and spurious sink.  Inside each sink component of g the
    seed sink with the smallest node id is the anchor and every other seed
    sink is spurious; so is every seed sink in a non-sink component of g.
    """
    n = g.n
    ids = np.flatnonzero(in_seed)
    ns, lab_s = _scc_labels(n, g.tails[ids], g.heads[ids])
    sink_s = _sink_flags(ns, lab_s, g.tails[ids], g.heads[ids])

    comp_min = np.full(ns, n, dtype=np.int64)
    np.minimum.at(comp_min, lab_s, np.arange(n))
    gcomp = lab_g[comp_min]

    spurious = sink_s & ~sink_g[gcomp]
    sink_ids = np.nonzero(sink_s & sink_g[gcomp])[0]
    sink_ids = sink_ids[np.lexsort((comp_min[sink_ids], gcomp[sink_ids]))]
    spurious[sink_ids[~_run_starts(gcomp[sink_ids])]] = True
    return lab_s, comp_min, gcomp, sink_s, spurious


def _split(values, groups, n_groups):
    """Python lists of ``values`` per group; ``groups`` must be sorted."""
    bounds = np.searchsorted(groups, np.arange(n_groups + 1)).tolist()
    values = values.tolist()
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _new_cycles(roots, succ):
    """Strongly connected components of more than one node among those
    reachable from ``roots`` through ``succ`` (iterative Tarjan)."""
    index, low, stack, on_stack, cycles = {}, {}, [], set(), []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    on_stack.difference_update(members)
                    if len(members) > 1:
                        cycles.append(members)
    return cycles


def _rank_repair(g, in_seed):
    """Add edges to the seed mask ``in_seed``, in place, until the seed's
    sink components match the original's count; returns the added ids,
    ascending.

    The null space dimension of the symmetrized Laplacian equals the number
    of sink strongly-connected components, so parity there gives matching
    rank and nullity.  In synchronous rounds, every spurious seed sink (see
    ``_seed_components``) gets its heaviest exit edge not yet in the seed,
    ties going to the smaller tail, then the smaller head; repeated until
    each original sink component hosts exactly one seed sink and no others
    remain.

    The first round runs on arrays after one SCC pass of the seed.  After a
    second pass, the later rounds run on the condensation of the seed, with
    a union-find over its components, and make no pass over all nodes:

    - a round's picks depend only on the components at its start: a sink
      has no exit edge, so it cannot join a cycle before it adds its own;
    - only a round's new edges can close a cycle, so only components
      reachable from its new heads can merge;
    - components only grow, so an edge inside one stays inside: each
      component keeps the components its seed edges enter (sifted when it
      merges) and, from when it is first a spurious sink, a heap of its
      other edges that leave it, which skips the entries that have fallen
      inside it as they come up.
    """
    ng, lab_g = _scc_labels(g.n, g.tails, g.heads)
    sink_g = _sink_flags(ng, lab_g, g.tails, g.heads)

    before = in_seed.copy()
    lab, comp_min, gcomp, sink, spurious = _seed_components(g, in_seed, lab_g, sink_g)
    if not spurious.any():
        return np.flatnonzero(in_seed & ~before)
    ct, ch = lab[g.tails], lab[g.heads]
    cand_ids = np.flatnonzero(spurious[ct] & (ct != ch) & ~in_seed)
    in_seed[_heaviest_per_group(g, cand_ids, ct[cand_ids])] = True

    lab, comp_min, gcomp, sink, spurious = _seed_components(g, in_seed, lab_g, sink_g)
    if not spurious.any():
        return np.flatnonzero(in_seed & ~before)
    ns = comp_min.size
    ct, ch = lab[g.tails], lab[g.heads]
    # Per component: its nodes, ...
    by_comp = np.argsort(lab, kind="stable")
    node_bounds = np.searchsorted(lab[by_comp], np.arange(ns + 1)).tolist()
    # ... the components that the seed edges leaving it enter, ...
    ex = np.flatnonzero(in_seed & (ct != ch))
    ex = ex[np.argsort(ct[ex], kind="stable")]
    exits = _split(ch[ex], ct[ex], ns)
    # ... and its other edges leaving it, as (-weight, id, head's component)
    # in a heap: _heaviest_per_group's order, since ids ascend with
    # (tail, head).  The out-edges of the nodes in ``pending`` (by default
    # all of the component's) are not in its heap yet.
    leaving = ~in_seed & (ct != ch)
    row_starts = _row_starts(g.n, g.tails)
    heaps, pending, none_left = {}, {}, by_comp[:0]
    parent = list(range(ns))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def pending_of(c):
        got = pending.get(c)
        return by_comp[node_bounds[c]:node_bounds[c + 1]] if got is None else got

    def succ(c):
        return (find(h) for h in exits[c])

    cmin, gc, sink_gl = comp_min.tolist(), gcomp.tolist(), sink_g.tolist()
    anchors = np.flatnonzero(sink & ~spurious & sink_g[gcomp])
    anchor = dict(zip(gcomp[anchors].tolist(), anchors.tolist()))
    spur = np.flatnonzero(spurious).tolist()
    while spur:
        sets = [pending_of(c) for c in spur]
        nodes = np.concatenate(sets)
        if nodes.size:
            starts, stops = row_starts[nodes], row_starts[nodes + 1]
            counts = stops - starts
            ids = np.repeat(stops - np.cumsum(counts), counts) + np.arange(counts.sum())
            groups = np.repeat(np.repeat(np.arange(len(spur)), [s.size for s in sets]), counts)
            keep = leaving[ids]
            ids, groups = ids[keep], groups[keep]
            bounds = np.searchsorted(groups, np.arange(len(spur) + 1)).tolist()
            entries = list(zip((-g.weights[ids]).tolist(), ids.tolist(), ch[ids].tolist()))
            for c, a, b in zip(spur, bounds[:-1], bounds[1:]):
                pending[c] = none_left
                _push_all(heaps, c, entries[a:b])

        heads, picked = [], []
        for c in spur:
            heap = heaps.get(c, ())
            while heap:
                _, e, h = heapq.heappop(heap)
                h = find(h)
                if h != c:
                    exits[c].append(h)
                    heads.append(h)
                    picked.append(e)
                    break
        in_seed[picked] = True

        spur = []
        for cycle in _new_cycles(heads, succ):
            # The member with the largest heap takes in the others'.
            cycle.sort(key=lambda c: -len(heaps.get(c, ())))
            root = cycle[0]
            for c in cycle[1:]:
                parent[c] = root
            exits[root] = [h for c in cycle for h in exits[c] if find(h) != root]
            pending[root] = np.concatenate([pending_of(c) for c in cycle])
            cmin[root] = min(cmin[c] for c in cycle)
            for c in cycle[1:]:
                exits[c] = None
                pending.pop(c, None)
                if c in heaps:
                    _push_all(heaps, root, heaps.pop(c))
            if exits[root]:
                continue
            # A merged sink: spurious, unless it holds the smallest node id
            # among the sinks of a sink component of g.
            x = gc[root]
            if sink_gl[x] and cmin[root] < cmin[anchor[x]]:
                root, anchor[x] = anchor[x], root
            spur.append(root)
    return np.flatnonzero(in_seed & ~before)


def _push_all(heaps, c, entries):
    """Add ``entries`` to the heap of component c."""
    heap = heaps.setdefault(c, [])
    if len(entries) > len(heap):
        heap += entries
        heapq.heapify(heap)
    else:
        for entry in entries:
            heapq.heappush(heap, entry)


def build_seed(g: DirectedGraph) -> SeedSubgraph:
    """Construct the initial seed sparsifier of g.

    Every directed edge of g between the endpoints of a forest pair is kept
    (both orientations when both exist), then two repairs run so the
    symmetrized Laplacians of seed and original share rank and nullity:
    nodes left without any outgoing edge get their maximum-weight one back,
    and spurious sink components are drained through their heaviest exit
    edges until the sink-component counts coincide.
    """
    forest_lo, forest_hi = maximum_spanning_structure(symmetrized_transition(g))
    lo = np.minimum(g.tails, g.heads)
    hi = np.maximum(g.tails, g.heads)
    in_seed = np.isin(lo * g.n + hi, forest_lo * g.n + forest_hi)

    has_out = np.zeros(g.n, dtype=bool)
    has_out[g.tails[in_seed]] = True
    bare = np.flatnonzero(~has_out[g.tails])
    # Picked per tail in ascending tail order, so the ids ascend.
    dangling = _heaviest_per_group(g, bare, g.tails[bare])
    in_seed[dangling] = True
    rank_fix = _rank_repair(g, in_seed)

    kept = np.flatnonzero(in_seed)
    return SeedSubgraph(
        graph=g.subgraph(kept),
        kept_edge_ids=kept.tolist(),
        added_for_dangling=dangling.tolist(),
        added_for_rank=rank_fix.tolist(),
    )
