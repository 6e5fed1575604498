import numpy as np
import pytest

from specsparse import DirectedGraph, read_matrix_market, write_matrix_market
from specsparse.cli import main
from specsparse.synth import banded_digraph


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
            ["solve", "--input", "{good}", "--sparsifier", "{bad}", "--rhs", "{rhs}"],
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

    def test_rhs_size_mismatch(self, capsys, graph_file, tmp_path):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\n2.0\n")
        code, _, err = run(capsys, "solve", "--input", graph_file, "--rhs", rhs)
        assert code == 2


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

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_nonpositive_solver_tol_is_data_error(self, capsys, graph_file, tol):
        code, stdout, err = run(capsys, "sparsify", "--input", graph_file, "--solver-tol", tol)
        assert (code, stdout) == (2, "")
        assert err == f"specsparse: error: tol must be positive, got {float(tol)}\n"


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
        raw, smoothed = pagerank_correlation(g, sg, alpha=0.2, personalization=pr, gs_sweeps=4)
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
            "--personalize", "1,7", "--gs-sweeps", 4, "--output", out,
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
            capsys, "solve", "--input", graph_file, "--rhs", rhs,
            "--gs-sweeps", 2, "--output", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,x"
        assert len(lines) == g.n + 1


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

    @pytest.mark.parametrize("with_sparsifier", [False, True])
    def test_zero_top_writes_only_the_header(self, capsys, graph_file, tmp_path, with_sparsifier):
        extra = ["--sparsifier", graph_file] if with_sparsifier else []
        out = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "--input", graph_file, "--top", 0, "--output", out, *extra)
        assert code == 0
        header = "index,mu_estimate" if with_sparsifier else "index,eigenvalue"
        assert out.read_text().splitlines() == [header]

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
