"""Graphs of 0, 1 and 2 nodes, and Matrix Market files that hold only
self-loops, through ``sparsify``, the apps and the CLI.

Each call gives a result or fails as documented: ``ValueError`` in the
library, exit code 2 (data error) with one ``specsparse: error:`` line in the
CLI.  No call may raise a RuntimeWarning or a UserWarning.  Active systems of 1 and 2 nodes take the solver's
dense Cholesky route.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from specsparse import (
    DirectedGraph,
    SparsifyParams,
    directed_solve,
    laplacian,
    pagerank,
    read_matrix_market,
    sparsify,
    spectral_partition,
    write_matrix_market,
)
from specsparse.cli import main

from conftest import random_digraph

# random_digraph never gives two nodes without an edge, so those are drawn too.
tiny_graphs = st.one_of(
    st.builds(
        lambda n, seed, extra: random_digraph(np.random.default_rng(seed), n, extra),
        n=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        extra=st.floats(0.0, 4.0),
    ),
    st.integers(0, 2).map(lambda n: DirectedGraph(n, [])),
)


def partition_error(g):
    """The documented error of ``spectral_partition(g, 2)``, or None."""
    if g.n < 2:
        return f"k=2 clusters need at least 2 nodes, the graph has {g.n}"
    if g.num_edges == 0:
        return "requested 2 distinct eigenvalues but only 1 are available"
    return None


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_rhs(path, b):
    path.write_text("".join(f"{v:.17g}\n" for v in b))
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
@settings(max_examples=60, deadline=None)
@given(g=tiny_graphs, seed=st.integers(0, 2**32 - 1))
def test_library(g, seed):
    res = sparsify(g, SparsifyParams(seed=seed % 4))
    # A graph this small is its own seed subgraph.
    assert res.kept_edge_ids == list(range(g.num_edges)) and res.graph == g
    assert (res.mu_initial, res.mu_final, res.edge_ratio) == (1.0, 1.0, 1.0)

    if g.n == 0:
        with pytest.raises(ValueError, match="PageRank needs a graph with at least one node"):
            pagerank(g)
    else:
        pr = pagerank(g)
        assert pr.converged and pr.p.min() >= 0 and pr.p.sum() == pytest.approx(1.0)

    L = laplacian(g)
    b = L @ np.random.default_rng(seed).standard_normal(g.n)
    for s in (g, res):
        x, _ = directed_solve(g, s, b)
        assert x.shape == (g.n,)
        assert np.linalg.norm(L @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-300)

    error = partition_error(g)
    if error:
        with pytest.raises(ValueError, match=error):
            spectral_partition(g, 2, seed=seed)
    else:
        assert list(spectral_partition(g, 2, seed=seed).assignment) == [0, 1]


def check_cli(capsys, g, path, tmp):
    """Every command on the graph g written at ``path``: exit 0 with its
    output, or exit 2 with the documented message."""
    out = tmp / "out.csv"

    def data_error(argv, message):
        assert run(capsys, *argv) == (2, "", f"specsparse: error: {message}\n")

    s = tmp / "s.mtx"
    code, stdout, _ = run(capsys, "sparsify", "--input", path, "--output", s, "--report", out, "--no-timing")
    assert code == 0 and stdout.startswith(f"kept {g.num_edges}/{g.num_edges} edges (ratio 1.000)")
    assert read_matrix_market(s) == g
    header = "iteration,mu_max,edge_ratio,wall_time_seconds,edges_added,edges_rejected"
    assert out.read_text() == f"{header}\n0,1,1,0,{g.num_edges},0\n"

    if g.n == 0:
        for extra in ([], ["--sparsifier", path]):
            data_error(["pagerank", "--input", path, *extra], "PageRank needs a graph with at least one node")
    else:
        assert run(capsys, "pagerank", "--input", path, "--output", out) == (0, "", "")
        assert len(out.read_text().splitlines()) == g.n + 1

    b = laplacian(g) @ np.arange(1.0, g.n + 1)
    rhs = write_rhs(tmp / "b.txt", b)
    assert run(capsys, "solve", "--input", path, "--sparsifier", s, "--rhs", rhs, "--output", out) == (0, "", "")
    x = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    assert np.linalg.norm(laplacian(g) @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-300)

    error = partition_error(g)
    if error:
        data_error(["partition", "--input", path, "-k", 2], error)
    else:
        assert run(capsys, "partition", "--input", path, "-k", 2) == (0, "node,cluster\n1,0\n2,1\n", "")

    code, stdout, _ = run(capsys, "spectrum", "--input", path, "--top", 3)
    vals = [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]
    assert code == 0 and len(vals) == min(3, g.n) and vals == sorted(vals)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in vals[:1])
    if g.num_edges == 0:
        message = "sparsifier has no edges: the generalized eigenvalues are undefined"
        data_error(["spectrum", "--input", path, "--sparsifier", path, "--top", 3], message)
    else:
        code, stdout, _ = run(capsys, "spectrum", "--input", path, "--sparsifier", path, "--top", 3)
        mus = [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]
        assert code == 0 and len(mus) == 3 and all(mu == pytest.approx(1.0) for mu in mus)


@pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=tiny_graphs)
def test_cli(capsys, g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.mtx"
        write_matrix_market(g, path)
        check_cli(capsys, g, path, Path(tmp))


@pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 3),
    data=st.data(),
    field=st.sampled_from(["real", "integer", "pattern"]),
    symmetry=st.sampled_from(["general", "symmetric"]),
)
def test_self_loops_only(capsys, n, data, field, symmetry):
    # Diagonal entries are dropped: the file reads as n nodes and no edge.
    loops = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=2 * n))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(loops), max_size=len(loops)))
    lines = [f"{i} {i}" if field == "pattern" else f"{i} {i} {w}" for i, w in zip(loops, weights)]
    text = f"%%MatrixMarket matrix coordinate {field} {symmetry}\n{n} {n} {len(lines)}\n" + "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loops.mtx"
        path.write_text(text)
        g = read_matrix_market(path)
        assert g == DirectedGraph(n, [])
        check_cli(capsys, g, path, Path(tmp))
        # Every node is without edges, so b minus its mean must vanish: a
        # right-hand side off the (all-constant) range is a data error, and
        # a constant one gives x = 0.
        if n > 1:
            rhs = write_rhs(Path(tmp) / "off.txt", np.arange(n, dtype=float))
            code, stdout, err = run(capsys, "solve", "--input", path, "--rhs", rhs)
            message = "specsparse: error: right-hand side is inconsistent on nodes without edges"
            assert (code, stdout) == (2, "") and err.startswith(message)
        rhs = write_rhs(Path(tmp) / "ones.txt", np.ones(n))
        out = Path(tmp) / "x.csv"
        assert run(capsys, "solve", "--input", path, "--rhs", rhs, "--output", out) == (0, "", "")
        assert out.read_text() == "node,x\n" + "".join(f"{i},0\n" for i in range(1, n + 1))
