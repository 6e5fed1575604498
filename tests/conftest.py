import inspect

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from specsparse import DirectedGraph, laplacian
from specsparse.synth import clustered_digraph


def random_digraph(rng, n, extra_factor=2.5):
    """Random directed graph; may be disconnected or multi-attractor."""
    edges = {}
    for _ in range(int(extra_factor * n)):
        t, h = rng.integers(0, n, 2)
        if t != h:
            edges[(int(t), int(h))] = float(rng.uniform(0.1, 2.0))
    if not edges:
        edges[(0, min(1, n - 1))] = 1.0 if n > 1 else None
        edges = {k: v for k, v in edges.items() if v is not None}
    return DirectedGraph(n, [(t, h, w) for (t, h), w in edges.items()])


def strong_digraph(rng, n, extra_factor=2.0):
    """Random strongly connected digraph (directed ring plus chords)."""
    edges = {}
    for i in range(n):
        edges[(i, (i + 1) % n)] = float(rng.uniform(0.2, 2.0))
    for _ in range(int(extra_factor * n)):
        t, h = rng.integers(0, n, 2)
        if t != h and (int(t), int(h)) not in edges:
            edges[(int(t), int(h))] = float(rng.uniform(0.2, 2.0))
    return DirectedGraph(n, [(t, h, w) for (t, h), w in edges.items()])


def multi_attractor_digraph(rng, core=30):
    """A strongly connected core of ``core`` nodes (a ring plus random
    chords) with three sink nodes, each entered by up to two core edges."""
    edges = {}
    for i in range(core):
        edges[(i, (i + 1) % core)] = float(rng.uniform(0.5, 2))
    for _ in range(2 * core):
        t, h = rng.integers(0, core, 2)
        if t != h:
            edges[(int(t), int(h))] = float(rng.uniform(0.5, 2))
    for s in (core, core + 1, core + 2):
        edges[(int(rng.integers(0, core)), s)] = 1.0
        edges[(int(rng.integers(0, core)), s)] = 1.0
    return DirectedGraph(core + 3, [(t, h, w) for (t, h), w in edges.items()])


def several_sink_digraph():
    """``clustered_digraph(2000, 4, seed=11)`` (4 planted blocks of 500
    nodes, one sink component, 40 nonzeros per row of L_u) with 3 isolated
    nodes appended: 2003 nodes, 4 sink components."""
    g = clustered_digraph(2000, 4, seed=11)
    return DirectedGraph.from_arrays(g.n + 3, g.tails, g.heads, g.weights)


def sink_components(g):
    """The sink strongly connected components of g, as a set of frozensets."""
    A = scipy.sparse.coo_array((np.ones(g.num_edges), (g.tails, g.heads)), shape=(g.n, g.n))
    _, labels = csgraph.connected_components(A, directed=True, connection="strong")
    exits = set(labels[g.tails[labels[g.tails] != labels[g.heads]]].tolist())
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in set(labels.tolist()) - exits}


def pinv_mu(L_Gu, L_Su):
    """Largest eigenvalue of pinv(L_Su) L_Gu, dense."""
    A = L_Gu.toarray() if hasattr(L_Gu, "toarray") else np.asarray(L_Gu)
    B = L_Su.toarray() if hasattr(L_Su, "toarray") else np.asarray(L_Su)
    return float(np.linalg.eigvals(np.linalg.pinv(B) @ A).real.max())


def dense_pencil(L_Gu, L_Su, tol=1e-9):
    """Exact (mu_max, v1) of the generalized pair restricted off the null space."""
    A = L_Gu.toarray() if hasattr(L_Gu, "toarray") else np.asarray(L_Gu)
    B = L_Su.toarray() if hasattr(L_Su, "toarray") else np.asarray(L_Su)
    w, V = np.linalg.eigh(B)
    keep = w > tol * max(w.max(), 1e-30)
    Z = V[:, keep]
    wa, Va = scipy.linalg.eigh(Z.T @ A @ Z, Z.T @ B @ Z)
    return wa[-1], Z @ Va[:, -1]


def nullity(M, tol=1e-9):
    M = M.toarray() if hasattr(M, "toarray") else np.asarray(M)
    w = np.linalg.eigvalsh(M)
    return int((w < tol * max(w.max(), 1e-30)).sum())


def min_norm_error(g, x, x_true):
    """Relative error of x against the min-norm solution of L_G x = L_G x_true.

    That solution is the projection of x_true on the row space of L_G, which
    is what any solution of the singular system can recover: x is projected
    there too, since its component in the null space of L_G is free.  Dense:
    for test-sized graphs only.
    """
    dense = laplacian(g).toarray()
    pinv = np.linalg.pinv(dense)
    x_ref = pinv @ (dense @ np.asarray(x_true, dtype=np.float64))
    denom = np.linalg.norm(x_ref)
    x_row = pinv @ (dense @ np.asarray(x, dtype=np.float64))
    return float(np.linalg.norm(x_row - x_ref) / denom) if denom > 0 else float(np.linalg.norm(x_row))


class EigshCall(tuple):
    """(which, output) of one ``eigsh`` call, with the ``k`` and ``ncv`` it
    was given as attributes (ncv None when left to ARPACK's default)."""

    def __new__(cls, which, out, k, ncv):
        call = super().__new__(cls, (which, out))
        call.k, call.ncv = k, ncv
        return call


def eigsh_spy(monkeypatch):
    """Record an ``EigshCall`` for every ``scipy.sparse.linalg.eigsh`` call."""
    calls = []
    real = spla.eigsh
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        given = signature.bind(*args, **kwargs)
        given.apply_defaults()
        out = real(*args, **kwargs)
        calls.append(EigshCall(given.arguments["which"], out, given.arguments["k"], given.arguments["ncv"]))
        return out

    monkeypatch.setattr(spla, "eigsh", spy)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
