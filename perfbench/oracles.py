"""Reference computations the benchmark checks the program against.

Nothing here imports ``specsparse``.  Every function takes plain edge arrays
(tails, heads, weights) and rebuilds what it needs with numpy and scipy, so a
fault in the program's graph, solver or app code cannot also hide in the
value it is compared with.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

# Graphs up to this many nodes get the dense pencil; larger ones the
# grounded sparse pencil.
DENSE_LIMIT = 2000


def directed_laplacian(n, tails, heads, weights):
    """L = D - A^T with D the weighted out-degrees (columns sum to zero)."""
    deg = np.bincount(tails, weights=weights, minlength=n)
    off = sp.coo_array((-weights, (heads, tails)), shape=(n, n))
    return (sp.diags_array(deg, dtype=np.float64) + off).tocsr()


def laplacian_matvec(n, tails, heads, weights, x):
    """(D - A^T) x from the edge list alone, without forming a matrix."""
    deg = np.bincount(tails, weights=weights, minlength=n)
    return deg * x - np.bincount(heads, weights=weights * x[tails], minlength=n)


def relative_residual(n, tails, heads, weights, x, b):
    """||b - L_G x|| / ||b||."""
    r = b - laplacian_matvec(n, tails, heads, weights, x)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def sink_components(n, tails, heads):
    """Number of strongly connected components with no edge leaving them.

    This is the nullity of L L^T: a null vector of L^T = D - A is constant on
    each sink component and fixed elsewhere by averaging over out-edges.
    """
    adj = sp.coo_array((np.ones(tails.size), (tails, heads)), shape=(n, n)).tocsr()
    count, label = csgraph.connected_components(adj, directed=True, connection="strong")
    leaves = np.ones(count, dtype=bool)
    cross = label[tails] != label[heads]
    leaves[label[tails[cross]]] = False
    return int(leaves.sum())


def _pencil(n, g_edges, s_edges):
    LG = directed_laplacian(n, *g_edges)
    LS = directed_laplacian(n, *s_edges)
    return (LG @ LG.T).tocsr(), (LS @ LS.T).tocsr()


def mu_dense(n, g_edges, s_edges, tol=1e-9):
    """Largest generalized eigenvalue of (L_Gu, L_Su) off the null space of L_Su."""
    A, B = (M.toarray() for M in _pencil(n, g_edges, s_edges))
    w, V = np.linalg.eigh(B)
    Z = V[:, w > tol * w.max()]
    top = scipy.linalg.eigh(Z.T @ A @ Z, Z.T @ B @ Z, eigvals_only=True)
    return float(top[-1])


def mu_grounded(n, g_edges, s_edges, ground=0):
    """Same value for large graphs, by Lanczos on the pencil grounded at one node.

    Both Laplacians annihilate the all-ones vector and nothing else (checked
    here), so any vector off the null space can be shifted to vanish at the
    ground node; removing that row and column leaves a definite B.
    """
    for edges in (g_edges, s_edges):
        if sink_components(n, edges[0], edges[1]) != 1:
            raise ValueError("grounded pencil needs a single sink component")
    A, B = _pencil(n, g_edges, s_edges)
    keep = np.delete(np.arange(n), ground)
    A = A[keep][:, keep].tocsc()
    B = B[keep][:, keep].tocsc()
    lu = spla.splu(B)
    Minv = spla.LinearOperator(B.shape, matvec=lu.solve, dtype=np.float64)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=n - 1)
    vals = spla.eigsh(A, k=1, M=B, Minv=Minv, which="LA", v0=v0, tol=1e-10,
                      return_eigenvectors=False)
    return float(vals[0])


def mu_true(n, g_edges, s_edges):
    """Dominant eigenvalue of the pencil: dense up to DENSE_LIMIT nodes, else grounded."""
    if n <= DENSE_LIMIT:
        return mu_dense(n, g_edges, s_edges)
    return mu_grounded(n, g_edges, s_edges)


def pagerank_reference(n, tails, heads, weights, personalization, alpha=0.15):
    """Solve (I - (1 - alpha) A^T D^-1) p = alpha * pr as one linear system.

    GMRES rather than a sparse LU: the long-range edges of the banded graph
    fill its LU factors with 16-29 million entries (17-24 s for n = 12000 on
    a 2-vCPU VM), while the system, whose 1-norm condition number is at most
    (2 - alpha) / alpha, converges to a relative residual of 1e-13 in a few
    dozen iterations.
    Needs every node to have an out-edge; the workloads have no dangling node.
    """
    deg = np.bincount(tails, weights=weights, minlength=n)
    if np.any(deg <= 0):
        raise ValueError("graph has a node without out-edges")
    P = sp.coo_array((weights / deg[tails], (heads, tails)), shape=(n, n)).tocsc()
    M = (sp.eye_array(n, format="csc") - (1.0 - alpha) * P).tocsc()
    b = alpha * np.asarray(personalization, dtype=np.float64)
    p, info = spla.gmres(M, b, rtol=1e-13, atol=0.0, restart=50, maxiter=200)
    if info != 0 or np.linalg.norm(b - M @ p) > 1e-12 * np.linalg.norm(b):
        raise RuntimeError(f"reference PageRank solve did not converge (info {info})")
    return p / p.sum()


def pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


def adjusted_rand(a, b):
    """Hubert-Arabie adjusted Rand index of two labelings of the same items."""
    a = np.asarray(a)
    b = np.asarray(b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(x):
        return float((x * (x - 1.0) / 2.0).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([a.size], dtype=float))
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def planted_blocks(n, k):
    """Labels of k contiguous, near-equal index blocks (numpy's array_split)."""
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    return np.repeat(np.arange(k), sizes)
