import numpy as np
import pytest

from specsparse import DirectedGraph, apps, build_seed, laplacian, read_matrix_market, symmetrize, write_matrix_market
from specsparse.cli import main
from specsparse.synth import banded_digraph

from conftest import eigsh_spy, multi_attractor_digraph, pinv_mu, strong_digraph


@pytest.fixture
def graph_file(tmp_path):
    g = banded_digraph(n=40, avg_out=3.5, seed=5)
    path = tmp_path / "g.mtx"
    write_matrix_market(g, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "sparsify" in out

    def test_unknown_flag(self, capsys, graph_file):
        code, _, err = run(capsys, "sparsify", "--input", graph_file, "--bogus")
        assert code == 1
        assert "usage" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "sparsify")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


class TestDataErrors:
    def test_nonexistent_file(self, capsys):
        code, _, err = run(capsys, "pagerank", "--input", "/does/not/exist.mtx")
        assert code == 2
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix market file\n")
        code, _, err = run(capsys, "pagerank", "--input", bad)
        assert code == 2

    @pytest.mark.parametrize(
        "block, line",
        [
            ("1 2 1.0\n2 x 1.0\n", 4),  # non-integer index
            ("1 2 1.0\n2 3\n", 4),  # too few fields
            ("1 2 1.0\n2 41 1.0\n", 4),  # index out of range
            ("1 2 1.0\n2 3 abc\n", 4),  # non-numeric value
            ("1 2 1.0\n2 3 1.0\n3 4 1.0\n", 5),  # one entry too many
            ("1 2 1.0\n", 3),  # one entry too few
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["sparsify", "--input", "{bad}"],
            ["pagerank", "--input", "{bad}"],
            ["solve", "--input", "{bad}", "--rhs", "{rhs}"],
            ["partition", "--input", "{bad}", "-k", "2"],
            ["spectrum", "--input", "{bad}"],
            ["pagerank", "--input", "{good}", "--sparsifier", "{bad}"],
            ["spectrum", "--input", "{good}", "--sparsifier", "{bad}"],
        ],
    )
    def test_malformed_entry_line(self, capsys, graph_file, tmp_path, block, line, argv):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n40 40 2\n" + block)
        rhs = tmp_path / "b.txt"
        rhs.write_text("0.0\n" * 40)
        code, _, err = run(capsys, *(a.format(bad=bad, good=graph_file, rhs=rhs) for a in argv))
        assert code == 2
        assert f"{bad}:{line}:" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rhs(self, capsys, graph_file, tmp_path, value):
        rhs = tmp_path / "b.txt"
        rhs.write_text(f"{value}\n" + "1.0\n" * 39)
        code, stdout, err = run(capsys, "solve", "--input", graph_file, "--rhs", rhs)
        assert (code, stdout) == (2, "")
        assert err == "specsparse: error: right-hand side must be finite\n"

    @pytest.mark.parametrize("value", ["1e999", "inf"])
    def test_infinite_weight(self, capsys, tmp_path, value):
        bad = tmp_path / "bad.mtx"
        bad.write_text(f"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 3 {value}\n3 1 1.0\n")
        code, stdout, err = run(capsys, "pagerank", "--input", bad)
        assert (code, stdout) == (2, "")
        assert err == "specsparse: error: edge (1, 2) has non-finite weight inf\n"

    def test_nan_mu_limit(self, capsys, graph_file):
        code, stdout, err = run(capsys, "sparsify", "--input", graph_file, "--mu-limit", "nan")
        assert (code, stdout) == (2, "")
        assert err == "specsparse: error: mu_limit must be a number, got nan\n"

    def test_rhs_size_mismatch(self, capsys, graph_file, tmp_path):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n2.0\n")
        code, _, err = run(capsys, "solve", "--input", graph_file, "--rhs", rhs)
        assert code == 2

    @pytest.mark.parametrize("command", ["pagerank", "spectrum"])
    def test_sparsifier_size_mismatch(self, capsys, graph_file, tmp_path, command):
        small = tmp_path / "small.mtx"
        write_matrix_market(DirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]), small)
        code, stdout, err = run(capsys, command, "--input", graph_file, "--sparsifier", small)
        assert (code, stdout) == (2, "")
        assert err == "specsparse: error: sparsifier has 3 nodes, graph has 40\n"


class TestSparsifyCommand:
    def test_creates_output_and_report(self, capsys, graph_file, tmp_path):
        out = tmp_path / "s.mtx"
        report = tmp_path / "r.csv"
        code, stdout, _ = run(
            capsys,
            "sparsify", "--input", graph_file, "--output", out, "--report", report,
            "--max-iters", 3, "--mu-limit", "1.0", "--seed", 0,
        )
        assert code == 0
        assert out.exists() and report.exists()
        lines = report.read_text().splitlines()
        assert lines[0] == "iteration,mu_max,edge_ratio,wall_time_seconds,edges_added,edges_rejected"
        assert len(lines) >= 2
        s = read_matrix_market(out)
        g = read_matrix_market(graph_file)
        assert s.num_edges <= g.num_edges
        assert "mu" in stdout

    def test_report_iterations_increase(self, capsys, graph_file, tmp_path):
        report = tmp_path / "r.csv"
        run(capsys, "sparsify", "--input", graph_file, "--report", report,
            "--max-iters", 3, "--mu-limit", "1.0")
        rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
        its = [int(r[0]) for r in rows]
        assert its == sorted(set(its))
        ratios = [float(r[2]) for r in rows]
        assert all(a <= b + 1e-15 for a, b in zip(ratios, ratios[1:]))

    def test_deterministic_reports_with_no_timing(self, capsys, graph_file, tmp_path):
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for r in (r1, r2):
            code, _, _ = run(
                capsys,
                "sparsify", "--input", graph_file, "--report", r,
                "--max-iters", 3, "--mu-limit", "1.0", "--seed", 7, "--no-timing",
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--r", "0", "r must be >= 1, got 0"), ("--r", "-2", "r must be >= 1, got -2"),
         ("--t", "0", "d_out and t must be >= 1")],
    )
    def test_counts_below_one_are_data_errors(self, capsys, graph_file, flag, value, message):
        code, stdout, err = run(capsys, "sparsify", "--input", graph_file, flag, value)
        assert (code, stdout) == (2, "")
        assert err == f"specsparse: error: {message}\n"

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_nonpositive_solver_tol_is_data_error(self, capsys, graph_file, tol):
        # --solver-tol is gone: the loop's subgraph solves are direct.
        code, stdout, err = run(capsys, "sparsify", "--input", graph_file, "--solver-tol", tol)
        assert (code, stdout) == (1, "")
        assert "usage" in err and "--solver-tol" in err

    def test_multi_attractor_graph_reports_no_nan(self, capsys, tmp_path):
        # Three sink components: the run sparsifies and reports finite mu.
        path = tmp_path / "g.mtx"
        write_matrix_market(multi_attractor_digraph(np.random.default_rng(12345)), path)
        report = tmp_path / "r.csv"
        code, out, err = run(capsys, "sparsify", "--input", path, "--report", report,
                             "--max-iters", 5, "--mu-limit", 2.0, "--no-timing")
        assert (code, err) == (0, "")
        assert "nan" not in out and "inf" not in out
        assert "nan" not in report.read_text() and "inf" not in report.read_text()


class TestPagerankCommand:
    def test_plain(self, capsys, graph_file, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "pagerank", "--input", graph_file, "--output", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,score"
        scores = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert abs(scores.sum() - 1.0) < 1e-8

    def test_with_sparsifier_reports_correlation(self, capsys, graph_file, tmp_path):
        s = tmp_path / "s.mtx"
        run(capsys, "sparsify", "--input", graph_file, "--output", s,
            "--max-iters", 3, "--mu-limit", "1.0")
        out = tmp_path / "p.csv"
        code, stdout, _ = run(
            capsys, "pagerank", "--input", graph_file, "--sparsifier", s, "--output", out
        )
        assert code == 0
        assert "correlation" in stdout
        assert out.read_text().splitlines()[0] == "node,score,score_sparsifier"

    def test_with_sparsifier_solves_each_vector_once(self, capsys, graph_file, tmp_path, monkeypatch):
        from specsparse import apps, cli, pagerank, pagerank_correlation

        s = tmp_path / "s.mtx"
        run(capsys, "sparsify", "--input", graph_file, "--output", s, "--max-iters", 3, "--mu-limit", "1.0")
        g, sg = read_matrix_market(graph_file), read_matrix_market(s)
        pr = np.zeros(g.n)
        pr[[0, 6]] = 0.5
        # The output as the command wrote it when it called pagerank twice
        # and pagerank_correlation once.
        full, sparse_ = pagerank(g, alpha=0.2, personalization=pr), pagerank(sg, alpha=0.2, personalization=pr)
        raw, smoothed = pagerank_correlation(g, sg, alpha=0.2, personalization=pr, smoothing_steps=4)
        want_csv = "node,score,score_sparsifier\n" + "".join(
            f"{i + 1},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(zip(full.p, sparse_.p))
        )
        want_out = f"correlation raw {raw:.17g}, smoothed {smoothed:.17g}\n"

        calls = []

        def spy(h, *args, **kwargs):
            calls.append(h)
            return pagerank(h, *args, **kwargs)

        monkeypatch.setattr(apps, "pagerank", spy)
        monkeypatch.setattr(cli, "pagerank", spy)
        out = tmp_path / "p.csv"
        code, stdout, _ = run(
            capsys, "pagerank", "--input", graph_file, "--sparsifier", s, "--alpha", 0.2,
            "--personalize", "1,7", "--smoothing-steps", 4, "--output", out,
        )
        assert code == 0
        assert out.read_bytes() == want_csv.encode("ascii")
        assert stdout == want_out
        assert calls == [g, sg]

    def test_personalization(self, capsys, graph_file, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "pagerank", "--input", graph_file, "--personalize", "1,5", "--output", out
        )
        assert code == 0

    def test_bad_personalization(self, capsys, graph_file):
        code, _, _ = run(capsys, "pagerank", "--input", graph_file, "--personalize", "0")
        assert code == 2

    def test_negative_smoothing_steps_is_usage_error(self, capsys, graph_file):
        code, out, err = run(
            capsys, "pagerank", "--input", graph_file, "--sparsifier", graph_file, "--smoothing-steps", -2
        )
        assert code == 1
        assert "usage" in err and "--smoothing-steps" in err
        assert out == ""

    def test_zero_smoothing_steps_reports_the_raw_correlation(self, capsys, graph_file, tmp_path):
        s = tmp_path / "s.mtx"
        run(capsys, "sparsify", "--input", graph_file, "--output", s, "--max-iters", 3, "--mu-limit", "1.0")
        raw, _ = apps.pagerank_correlation(read_matrix_market(graph_file), read_matrix_market(s))
        code, stdout, _ = run(capsys, "pagerank", "--input", graph_file, "--sparsifier", s, "--smoothing-steps", 0)
        assert code == 0
        assert stdout.endswith(f"\ncorrelation raw {raw:.17g}, smoothed {raw:.17g}\n")

    def test_constant_pagerank_is_data_error(self, capsys, tmp_path):
        # The directed 4-cycle has the uniform PageRank, whose correlation
        # with any other vector is undefined.
        cyc, path = tmp_path / "cyc.mtx", tmp_path / "path.mtx"
        write_matrix_market(DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]), cyc)
        write_matrix_market(DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]), path)
        code, stdout, err = run(capsys, "pagerank", "--input", cyc, "--sparsifier", path)
        assert (code, stdout) == (2, "")
        assert err == "specsparse: error: the graph's PageRank vector is constant: its correlation is undefined\n"


class TestTinyGraphs:
    """Graphs of 0, 1 and 2 nodes: a result, or a data error (exit 2)."""

    @staticmethod
    def graph(tmp_path, n, edges):
        path = tmp_path / f"tiny{n}.mtx"
        write_matrix_market(DirectedGraph(n, edges), path)
        return path

    def test_no_nodes(self, capsys, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        for argv, message in [
            (["pagerank"], "PageRank needs a graph with at least one node"),
            (["pagerank", "--sparsifier", path], "PageRank needs a graph with at least one node"),
            (["partition", "-k", 2], "k=2 clusters need at least 2 nodes, the graph has 0"),
        ]:
            code, stdout, err = run(capsys, *argv, "--input", path)
            assert (code, stdout) == (2, "")
            assert err == f"specsparse: error: {message}\n"

    def test_one_node(self, capsys, tmp_path):
        path = self.graph(tmp_path, 1, [])
        assert run(capsys, "pagerank", "--input", path) == (0, "node,score\n1,1\n", "")
        code, _, err = run(capsys, "partition", "--input", path, "-k", 2)
        assert code == 2 and "the graph has 1" in err

    def test_two_nodes(self, capsys, tmp_path):
        path = self.graph(tmp_path, 2, [(0, 1, 1.0)])
        code, stdout, _ = run(capsys, "pagerank", "--input", path, "--sparsifier", path)
        assert code == 0 and stdout.endswith("\ncorrelation raw 1, smoothed 1\n")
        assert run(capsys, "partition", "--input", path, "-k", 2) == (0, "node,cluster\n1,0\n2,1\n", "")
        code, _, err = run(capsys, "partition", "--input", self.graph(tmp_path, 2, []), "-k", 2)
        assert code == 2 and "only 1 are available" in err


class TestSolveCommand:
    def test_solve_roundtrip(self, capsys, graph_file, tmp_path):
        g = read_matrix_market(graph_file)
        rng = np.random.default_rng(0)
        from specsparse import laplacian

        b = laplacian(g) @ rng.standard_normal(g.n)
        rhs = tmp_path / "b.txt"
        rhs.write_text("\n".join(format(v, ".17g") for v in b) + "\n")
        out = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "solve", "--input", graph_file, "--rhs", rhs, "--output", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,x"
        assert len(lines) == g.n + 1
        x = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.linalg.norm(laplacian(g) @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_inconsistent_rhs_is_data_error(self, capsys, tmp_path):
        # Node 4 has no edges: L_G's row there is zero, and b minus its mean
        # is not.
        path = tmp_path / "g.mtx"
        write_matrix_market(DirectedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]), path)
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n-1.0\n0.0\n3.0\n")
        code, stdout, err = run(capsys, "solve", "--input", path, "--rhs", rhs)
        assert (code, stdout) == (2, "")
        assert err.startswith("specsparse: error: right-hand side is inconsistent on nodes without edges")

    @pytest.mark.parametrize("flag", [["--gs-sweeps", "2"], ["--sparsifier", "s.mtx"]])
    def test_removed_options_are_usage_errors(self, capsys, graph_file, tmp_path, flag):
        rhs = tmp_path / "b.txt"
        rhs.write_text("0.0\n" * 40)
        code, out, err = run(capsys, "solve", "--input", graph_file, "--rhs", rhs, *flag)
        assert code == 1
        assert "usage" in err and flag[0] in err
        assert out == ""


class TestPartitionCommand:
    def test_partition(self, capsys, tmp_path):
        from specsparse.synth import clustered_digraph

        g = clustered_digraph(n=32, k=4, seed=11)
        path = tmp_path / "c.mtx"
        write_matrix_market(g, path)
        out = tmp_path / "part.csv"
        code, _, _ = run(capsys, "partition", "--input", path, "-k", 4, "--output", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,cluster"
        clusters = {int(l.split(",")[1]) for l in lines[1:]}
        assert clusters == {0, 1, 2, 3}


class TestSpectrumCommand:
    def test_eigenvalues(self, capsys, graph_file, tmp_path):
        out = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--input", graph_file, "--top", 5, "--output", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(vals) == 5
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(0.0, abs=1e-9)

    def test_generalized_estimates(self, capsys, graph_file, tmp_path):
        s = tmp_path / "s.mtx"
        run(capsys, "sparsify", "--input", graph_file, "--output", s,
            "--max-iters", 2, "--mu-limit", "1.0")
        out = tmp_path / "spec.csv"
        code, _, _ = run(
            capsys, "spectrum", "--input", graph_file, "--sparsifier", s, "--top", 4,
            "--output", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,mu_estimate"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals == sorted(vals, reverse=True)
        assert all(v >= 1 - 1e-6 for v in vals)

    def test_multi_attractor_seed_as_sparsifier(self, capsys, tmp_path):
        # null(L_Su) has three dimensions; the grounded solve handles them.
        g = multi_attractor_digraph(np.random.default_rng(12345))
        seed = build_seed(g).graph
        graph, sparsifier, out = tmp_path / "g.mtx", tmp_path / "s.mtx", tmp_path / "spec.csv"
        write_matrix_market(g, graph)
        write_matrix_market(seed, sparsifier)
        code, _, err = run(capsys, "spectrum", "--input", graph, "--sparsifier", sparsifier,
                           "--top", 4, "--output", out)
        assert (code, err) == (0, "")
        vals = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        oracle = pinv_mu(symmetrize(laplacian(g)), symmetrize(laplacian(seed)))
        assert len(vals) == 4 and 1 - 1e-6 <= vals[0] <= oracle * (1 + 1e-6)

    @pytest.mark.parametrize("with_sparsifier", [False, True])
    def test_zero_top_writes_only_the_header(self, capsys, graph_file, tmp_path, monkeypatch, with_sparsifier):
        extra = ["--sparsifier", graph_file] if with_sparsifier else []
        out = tmp_path / "spec.csv"
        # Below and above the dense cutoff (the 40-node graph is above 0).
        for cutoff in (apps.DENSE_CUTOFF, 0):
            monkeypatch.setattr(apps, "DENSE_CUTOFF", cutoff)
            code, _, _ = run(capsys, "spectrum", "--input", graph_file, "--top", 0, "--output", out, *extra)
            assert code == 0
            header = "index,mu_estimate" if with_sparsifier else "index,eigenvalue"
            assert out.read_text().splitlines() == [header]

    @pytest.mark.parametrize("route", ["shift-invert", "lanczos"])
    def test_above_the_cutoff_matches_dense(self, capsys, graph_file, tmp_path, monkeypatch, route):
        # A sparsifier's L_u is sparse enough to factor for shift-invert; a
        # graph with 12 n extra edges is not, and takes plain Lanczos.
        path = tmp_path / "in.mtx"
        if route == "shift-invert":
            run(capsys, "sparsify", "--input", graph_file, "--output", path, "--max-iters", 2, "--mu-limit", "1.0")
        else:
            write_matrix_market(strong_digraph(np.random.default_rng(4), 300, extra_factor=12), path)
        g = read_matrix_market(path)
        Lu = symmetrize(laplacian(g))
        assert (Lu.nnz <= apps.SHIFT_INVERT_NNZ_PER_ROW * g.n) == (route == "shift-invert")
        calls = eigsh_spy(monkeypatch)
        monkeypatch.setattr(apps, "DENSE_CUTOFF", 0)
        out = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--input", path, "--top", 6, "--output", out)
        assert code == 0
        assert len(calls) == 1 and (calls[0][0] is not None) == (route == "shift-invert")
        lines = out.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        w = np.linalg.eigvalsh(Lu.toarray())
        np.testing.assert_allclose(got, np.maximum(w[:6], 0.0), rtol=0, atol=1e-10 * w[-1])

    @pytest.mark.parametrize("with_sparsifier", [False, True])
    def test_negative_top_is_usage_error(self, capsys, graph_file, with_sparsifier):
        extra = ["--sparsifier", graph_file] if with_sparsifier else []
        code, out, err = run(capsys, "spectrum", "--input", graph_file, "--top", -1, *extra)
        assert code == 1
        assert "usage" in err and "--top" in err
        assert out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 3])
    def test_sparsifier_without_edges_is_data_error(self, capsys, tmp_path, n):
        graph = tmp_path / "g.mtx"
        write_matrix_market(DirectedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]), graph)
        empty = tmp_path / "empty.mtx"
        empty.write_text(f"%%MatrixMarket matrix coordinate real general\n{n} {n} 0\n")
        for g in (graph, empty):
            code, stdout, err = run(capsys, "spectrum", "--input", g, "--sparsifier", empty, "--top", 3)
            assert (code, stdout) == (2, "")
            assert err == "specsparse: error: sparsifier has no edges: the generalized eigenvalues are undefined\n"
