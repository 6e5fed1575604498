"""Acceptance suite: one test per shipped criterion, each printing a verdict.

The public-collection graphs (gre_115, ibm32, pesa) are not fetchable from
this environment, so the bundled seeded stand-ins in tests/data are used with
the documented substitute thresholds; every criterion that depends only on
synthesized inputs runs in its original form.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import specsparse as ss
from specsparse.cli import main as cli_main
from specsparse.solver import SpsSolver

from conftest import dense_pencil, min_norm_error, random_digraph, strong_digraph

DATA = Path(__file__).parent / "data"

# Documented parameters for the 115-node pipeline (criteria 4, 7, 10).
PIPELINE_115 = dict(
    d_out=10, iter_max=60, mu_limit=6.0, alpha_percent=10.0, epsilon=0.9,
    seed=0, r=16, t=5,
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def graph115():
    return ss.read_matrix_market(DATA / "synth115.mtx")


@pytest.fixture(scope="module")
def sparsified115(graph115):
    return ss.sparsify(graph115, ss.SparsifyParams(**PIPELINE_115))


def test_criterion_01_symmetrization_identities():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(100):
        g = random_digraph(rng, int(rng.integers(2, 51)))
        L = ss.laplacian(g)
        Lu = ss.symmetrize(L)
        dense = L.toarray() @ L.toarray().T
        scale = max(np.abs(dense).max(), 1e-30)
        assert np.abs(Lu.toarray() - dense).max() <= 1e-12 * scale
        assert np.abs(Lu @ np.ones(g.n)).max() <= 1e-10 * max(scale, 1.0)
        X = rng.standard_normal((g.n, 100))
        quad = np.einsum("ij,ij->j", X, Lu @ X)
        assert quad.min() >= -1e-12 * max(1.0, np.abs(quad).max())
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0, f"100 graphs: L_Gu = L L^T to 1e-12, L_Gu 1 = 0, SPS; {elapsed:.1f}s < 10s")


def test_criterion_02_incidence_identity():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 40))
        edges = {}
        for _ in range(3 * n):
            t, h = rng.integers(0, n, 2)
            if t != h:
                edges[(int(t), int(h))] = float(rng.integers(1, 10))
        if not edges:
            continue
        g = ss.DirectedGraph(n, [(t, h, w) for (t, h), w in edges.items()])
        B, C, W = ss.incidence_factorization(g)
        diff = ((B.T @ W @ C) - ss.laplacian(g)).toarray()
        assert np.abs(diff).max() == 0.0
        checked += 1
    report(2, checked >= 50, f"B^T W C == L exactly on {checked} integer-weight graphs")


def test_criterion_03_eigen_oracle_equivalence():
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    hits = trials = 0
    while trials < 30:
        n = int(rng.integers(6, 11))
        g = strong_digraph(rng, n)
        seed = ss.build_seed(g)
        off = sorted(set(range(g.num_edges)) - set(seed.kept_edge_ids))
        if len(off) < 5:
            continue
        Lgu = ss.symmetrize(ss.laplacian(g))
        Lsu = ss.symmetrize(ss.laplacian(seed.graph))
        _, v1 = dense_pencil(Lgu, Lsu)
        Ld = ss.laplacian(seed.graph).toarray()
        exact = {}
        for eid in off:
            p, q, w = int(g.tails[eid]), int(g.heads[eid]), g.weights[eid]
            e = np.zeros(n)
            e[p], e[q] = 1.0, -1.0
            dLs = w * np.outer(e, np.eye(n)[p])
            exact[eid] = v1 @ (dLs @ Ld.T + Ld @ dLs.T) @ v1
        true_top = max(exact, key=lambda e: exact[e])

        solver = SpsSolver(Lsu)
        starts = rng.uniform(-1, 1, size=(8, n))
        _, H = ss.power_iterate(ss.symmetrized_operator(ss.laplacian(g)), Lsu, starts, t=3, solver=solver)
        approx, _ = ss.score_edges(H, ss.laplacian(seed.graph), g.tails[off], g.heads[off], g.weights[off])
        rank = np.argsort(-approx)
        pos = int(np.nonzero(np.array(off)[rank] == true_top)[0][0])
        trials += 1
        hits += pos < int(np.ceil(0.3 * len(off)))
    elapsed = time.monotonic() - t0
    report(
        3,
        hits >= 0.8 * trials and elapsed < 60.0,
        f"true top edge in approximate top-30% in {hits}/{trials} trials; {elapsed:.1f}s < 60s",
    )


def test_criterion_04_sparsification_effectiveness(graph115, sparsified115):
    # gre_115 is not fetchable here: the bundled 115-node synthetic applies,
    # with the property criterion mu_final < mu_initial / 100.  The stronger
    # form (reduction >= 1e3 at edge ratio <= 0.85) is asserted too, with the
    # reduction confirmed by the dense generalized eigen oracle.
    res = sparsified115
    Lgu = ss.symmetrize(ss.laplacian(graph115))
    seed = ss.build_seed(graph115)
    mu_seed, _ = dense_pencil(Lgu, ss.symmetrize(ss.laplacian(seed.graph)))
    mu_final, _ = dense_pencil(Lgu, ss.symmetrize(ss.laplacian(res.graph)))
    oracle_ratio = mu_seed / mu_final
    ok = (
        res.mu_final < res.mu_initial / 100
        and oracle_ratio >= 1e3
        and res.edge_ratio <= 0.85
    )
    report(
        4,
        ok,
        "115-node stand-in (gre_115 not fetchable): "
        f"mu {res.mu_initial:.3g}->{res.mu_final:.3g} (estimate), "
        f"oracle reduction {oracle_ratio:.3g}x >= 1e3 at edge ratio {res.edge_ratio:.3f} <= 0.85",
    )


def test_criterion_05_monotone_acceptance(sparsified115, graph115):
    rng = np.random.default_rng(105)
    runs = [(graph115, sparsified115)]
    for trial in range(4):
        g = strong_digraph(rng, int(rng.integers(20, 60)))
        runs.append((g, ss.sparsify(g, ss.SparsifyParams(iter_max=6, mu_limit=1.0, seed=trial))))
    checked = 0
    for g, res in runs:
        orig = {(t, h): w for t, h, w in g.edges}
        for t, h, w in res.graph.edges:
            assert orig[(t, h)] == w
        for prev, row in zip(res.iterations, res.iterations[1:]):
            if row.edges_added > 0:
                assert row.mu_max < prev.mu_max
            else:
                assert row.mu_max == prev.mu_max
        checked += 1
    report(5, checked == 5, f"accepted mu strictly decreases, E_S subset of E_G with unchanged weights ({checked} runs)")


def sparsifier_solve(g, s, b):
    """The solve through the sparsifier alone: x = L_G^T y with L_Su y = b."""
    y, _ = SpsSolver(ss.symmetrize(ss.laplacian(s.graph))).solve(b)
    return ss.laplacian(g).T @ y


def test_criterion_06_directed_solver(graph115, sparsified115):
    rng = np.random.default_rng(106)
    wins = 0
    for trial in range(20):
        n = int(rng.integers(30, 201))
        g = strong_digraph(rng, n)
        res = ss.sparsify(g, ss.SparsifyParams(iter_max=4, mu_limit=2.0, seed=trial, alpha_percent=10))
        x_true = rng.standard_normal(n)
        b = ss.laplacian(g) @ x_true
        x, _ = ss.directed_solve(g, res, b)
        wins += min_norm_error(g, x, x_true) < min_norm_error(g, sparsifier_solve(g, res, b), x_true)

    g = strong_digraph(rng, 60)
    x_true = rng.standard_normal(60)
    b = ss.laplacian(g) @ x_true
    exact_err = min_norm_error(g, ss.directed_solve(g, g, b)[0], x_true)

    # The <= 0.15 reproduction clause binds only on the real gre_115, which
    # is not fetchable here; the stand-in numbers are reported for reference.
    x_true = rng.standard_normal(graph115.n)
    b = ss.laplacian(graph115) @ x_true
    raw115 = min_norm_error(graph115, sparsifier_solve(graph115, sparsified115, b), x_true)
    solved115 = min_norm_error(graph115, ss.directed_solve(graph115, sparsified115, b)[0], x_true)

    ok = wins >= 18 and exact_err <= 1e-6 and solved115 < raw115
    report(
        6,
        ok,
        f"BiCGSTAB beat the sparsifier solve on {wins}/20 systems (need 18); s=g error {exact_err:.2e} <= 1e-6; "
        f"115-node stand-in error {raw115:.2f} -> {solved115:.2e} "
        "(gre_115 <= 0.15 clause skipped: dataset not fetchable)",
    )


def test_criterion_07_pagerank_fidelity(graph115, sparsified115):
    rng = np.random.default_rng(107)
    pr = np.zeros(graph115.n)
    pr[rng.choice(graph115.n, 5, replace=False)] = 0.2
    raw, smoothed = ss.pagerank_correlation(graph115, sparsified115, personalization=pr)
    identity_raw, _ = ss.pagerank_correlation(graph115, graph115, personalization=pr)
    ok = raw >= 0.9 and identity_raw == 1.0
    report(
        7,
        ok,
        f"personalized PageRank correlation {raw:.3f} >= 0.9 on the 115-node stand-in "
        f"(smoothed {smoothed:.3f}); s=g correlation == 1.0",
    )


def test_criterion_08_partitioning_similarity():
    g = ss.read_matrix_market(DATA / "synth32.mtx")
    res = ss.sparsify(g, ss.SparsifyParams(iter_max=20, mu_limit=1.0, seed=0, alpha_percent=15))
    pa = ss.spectral_partition(g, 4, seed=0)
    pb = ss.spectral_partition(res.graph, 4, seed=0)
    ari = ss.adjusted_rand_index(pa.assignment, pb.assignment)
    report(
        8,
        ari >= 0.7,
        f"32-node stand-in (ibm32 not fetchable): ARI {ari:.3f} >= 0.7 at edge ratio {res.edge_ratio:.3f}",
    )


def test_criterion_09_sps_solver_correctness():
    rng = np.random.default_rng(109)
    tol = 1e-9
    pos_offdiag = 0
    for _ in range(50):
        n = int(rng.integers(4, 51))
        Lu = ss.symmetrize(ss.laplacian(strong_digraph(rng, n)))
        co = Lu.tocoo()
        pos_offdiag += bool((co.data[co.row != co.col] > 0).any())
        b = Lu @ rng.standard_normal(n)
        b -= b.mean()
        x, stats = ss.SpsSolver(Lu, ss.SolverParams(tol=tol)).solve(b)
        assert stats.converged
        ref = np.linalg.pinv(Lu.toarray()) @ b
        ref -= ref.mean()
        err = np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300)
        assert err <= 10 * tol
    report(
        9,
        pos_offdiag >= 25,
        f"50 systems within 10*tol of the pseudoinverse oracle ({pos_offdiag} had positive off-diagonals)",
    )


def test_criterion_10_determinism(tmp_path):
    argv = [
        "sparsify", "--input", str(DATA / "synth115.mtx"),
        "--dout", "10", "--epsilon", "0.9", "--alpha-percent", "10",
        "--mu-limit", "6.0", "--max-iters", "60", "--seed", "0",
        "--r", "16", "--t", "5", "--no-timing",
    ]
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"s_{tag}.mtx"
        rep = tmp_path / f"r_{tag}.csv"
        code = cli_main(argv + ["--output", str(out), "--report", str(rep)])
        assert code == 0
        outputs.append((out.read_bytes(), rep.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(10, ok, "two consecutive seeded CLI runs produced byte-identical reports and sparsifiers")


def test_desk_scale_pipeline_under_five_minutes():
    # Absolute runtimes are hardware-bound; the portable requirement is that
    # a pesa-class run (n = 1.2e4) finishes in under five minutes end to end.
    t0 = time.monotonic()
    g = ss.banded_digraph(n=12000, avg_out=6.7, band=12, long_range=0.1, seed=21)
    params = ss.SparsifyParams(
        iter_max=5, mu_limit=10.0, seed=0, alpha_percent=10, r=6, t=3,
        solver=ss.SolverParams(tol=1e-6),
    )
    res = ss.sparsify(g, params)
    raw, smoothed = ss.pagerank_correlation(g, res)
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0 and res.mu_final < res.mu_initial
    report(
        11,
        ok,
        f"pesa-class pipeline (n=12000, m={g.num_edges}): {elapsed:.0f}s < 300s, "
        f"mu {res.mu_initial:.3g}->{res.mu_final:.3g}, edge ratio {res.edge_ratio:.3f}, "
        f"pagerank corr {raw:.2f}/{smoothed:.2f}",
    )
