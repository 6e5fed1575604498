import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specsparse import DirectedGraph, ParseError, banded_digraph, mmio, read_matrix_market, write_matrix_market

from conftest import random_digraph

DATA = Path(__file__).parent / "data"


def write(tmp_path, text, name="g.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRead:
    def test_basic_entry(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0\n")
        g = read_matrix_market(p)
        assert g.n == 2 and g.edges == [(0, 1, 3.0)]

    def test_pattern_entry(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n")
        g = read_matrix_market(p)
        assert g.edges == [(1, 0, 1.0)]

    def test_integer_field(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n")
        assert read_matrix_market(p).edges == [(0, 1, 7.0)]

    def test_duplicates_merge(self, tmp_path):
        p = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n1 2 1.0\n",
        )
        assert read_matrix_market(p).edges == [(0, 1, 2.0)]

    def test_symmetric_expands(self, tmp_path):
        p = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 4.0\n",
        )
        assert read_matrix_market(p).edges == [(0, 1, 4.0), (1, 0, 4.0)]

    def test_diagonal_dropped(self, tmp_path):
        p = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 9.0\n1 2 1.0\n",
        )
        assert read_matrix_market(p).edges == [(0, 1, 1.0)]

    def test_negative_weight_abs_with_warning(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -3.0\n")
        with pytest.warns(UserWarning, match="negative"):
            g = read_matrix_market(p)
        assert g.edges == [(0, 1, 3.0)]

    def test_comments_and_blank_lines(self, tmp_path):
        p = write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n% a comment\n\n2 2 1\n1 2 1.0\n",
        )
        assert read_matrix_market(p).n == 2


class TestReadErrors:
    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "%%NotMatrixMarket hello\n")
        with pytest.raises(ParseError, match=":1:"):
            read_matrix_market(p)

    def test_unsupported_field(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate complex general\n2 2 0\n")
        with pytest.raises(ParseError, match="complex"):
            read_matrix_market(p)

    def test_index_out_of_bounds_reports_line(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n")
        with pytest.raises(ParseError, match=":3:"):
            read_matrix_market(p)

    def test_non_numeric_value(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 abc\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_matrix_market(p)

    def test_entry_count_mismatch(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n")
        with pytest.raises(ParseError, match="declared 2"):
            read_matrix_market(p)

    def test_node_count_beyond_int64(self, tmp_path):
        p = write(tmp_path, f"%%MatrixMarket matrix coordinate real general\n{2**63} {2**63} 1\n{2**63 - 1} 1 1.0\n")
        with pytest.raises(ParseError, match=":2: .* exceed the int64 node ids"):
            read_matrix_market(p)
        p = write(tmp_path, f"%%MatrixMarket matrix coordinate real general\n{2**63 - 1} {2**63 - 1} 1\n{2**63 - 1} 1 1.0\n")
        assert read_matrix_market(p).edges == [(2**63 - 2, 0, 1.0)]

    def test_non_square(self, tmp_path):
        p = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with pytest.raises(ParseError, match="square"):
            read_matrix_market(p)


class TestWrite:
    def test_round_trip_random(self, tmp_path, rng):
        for i in range(10):
            g = random_digraph(rng, int(rng.integers(2, 30)))
            path = tmp_path / f"g{i}.mtx"
            write_matrix_market(g, path)
            assert read_matrix_market(path) == g

    def test_round_trip_is_stable(self, tmp_path, rng):
        g = random_digraph(rng, 20)
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix_market(g, p1)
        write_matrix_market(read_matrix_market(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.mtx"
        write_matrix_market(DirectedGraph(4, []), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "4 4 0" and len(lines) == 2
        assert read_matrix_market(path) == DirectedGraph(4, [])

    def test_data_line_count(self, tmp_path):
        g = DirectedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        path = tmp_path / "t.mtx"
        write_matrix_market(g, path)
        assert len(path.read_text().splitlines()) == 2 + 3


def loop_reader(path):
    """The line-by-line reader ``read_matrix_market`` used to be, kept as the
    oracle of the array parse."""
    path = str(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(path, 1, f"bad header {lines[0]!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(path, 1, f"only 'matrix coordinate' is supported, got {obj!r} {fmt!r}")
    if field not in ("real", "integer", "pattern"):
        raise ParseError(path, 1, f"unsupported field {field!r} (expected one of {('real', 'integer', 'pattern')})")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r} (expected one of {('general', 'symmetric')})")
    pattern = field == "pattern"

    lineno = 1
    size = None
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size = stripped.split()
        break
    if size is None:
        raise ParseError(path, lineno, "missing size line")
    if len(size) != 3:
        raise ParseError(path, lineno, f"size line must be 'nrows ncols nnz', got {line!r}")
    try:
        nrows, ncols, nnz = (int(tok) for tok in size)
    except ValueError:
        raise ParseError(path, lineno, f"non-integer size line {line!r}") from None
    if nrows != ncols:
        raise ParseError(path, lineno, f"graph matrices must be square, got {nrows}x{ncols}")

    edges = []
    seen = 0
    negatives = 0
    want = 2 if pattern else 3
    for lineno, line in enumerate(lines[lineno:], start=lineno + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        toks = stripped.split()
        if len(toks) < want:
            raise ParseError(path, lineno, f"expected {want} fields, got {len(toks)}")
        try:
            i = int(toks[0])
            j = int(toks[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer index in {stripped!r}") from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise ParseError(path, lineno, f"index ({i}, {j}) outside declared {nrows}x{ncols}")
        if pattern:
            w = 1.0
        else:
            try:
                w = float(toks[2])
            except ValueError:
                raise ParseError(path, lineno, f"non-numeric value in {stripped!r}") from None
        seen += 1
        if seen > nnz:
            raise ParseError(path, lineno, f"more than the declared {nnz} entries")
        if i == j:
            continue
        if w < 0:
            negatives += 1
            w = -w
        if w == 0:
            continue
        edges.append((i - 1, j - 1, w))
        if symmetry == "symmetric" and i != j:
            edges.append((j - 1, i - 1, w))
    if seen != nnz:
        raise ParseError(path, lineno, f"declared {nnz} entries but found {seen}")
    if negatives:
        warnings.warn(f"{path}: {negatives} negative weights folded to absolute value", stacklevel=2)
    return DirectedGraph(nrows, edges)


def per_edge_writer(g, path):
    """The writer ``write_matrix_market`` used to be: one write per edge."""
    with open(str(path), "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{g.n} {g.n} {g.num_edges}\n")
        for t, h, w in g.edges:
            fh.write(f"{t + 1} {h + 1} {w:.17g}\n")


def read_outcome(read, path):
    """The graph, or the error's type and text, and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = read(path)
        except ValueError as exc:
            got = (type(exc).__name__, str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


def assert_reads_as_loop(path):
    got, want = read_outcome(read_matrix_market, path), read_outcome(loop_reader, path)
    assert got == want
    return got


@st.composite
def digraphs(draw):
    """conftest.random_digraph graphs with weights from 1e-300 to 1e300."""
    g = random_digraph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(0, 30)))
    weights = draw(st.lists(st.floats(1e-300, 1e300), min_size=g.num_edges, max_size=g.num_edges))
    return DirectedGraph.from_arrays(g.n, g.tails, g.heads, weights)


PINNED = [
    DirectedGraph(0, []),
    DirectedGraph(1, []),
    DirectedGraph(2, [(0, 1, 1e-300), (1, 0, 1e300)]),
    DirectedGraph(2, [(0, 1, 0.1 + 0.2), (1, 0, 1.0000000000000002)]),  # 17 significant digits each
]


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(g=digraphs())
    @example(g=PINNED[0])
    @example(g=PINNED[1])
    @example(g=PINNED[2])
    @example(g=PINNED[3])
    def test_write_then_read_gives_the_graph(self, tmp_path_factory, g):
        base = tmp_path_factory.getbasetemp()
        write_matrix_market(g, base / "bulk.mtx")
        assert read_matrix_market(base / "bulk.mtx") == g
        per_edge_writer(g, base / "per_edge.mtx")
        assert (base / "bulk.mtx").read_bytes() == (base / "per_edge.mtx").read_bytes()

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_all_diagonal_reads_as_no_edges(self, tmp_path, symmetry):
        p = write(tmp_path, f"%%MatrixMarket matrix coordinate real {symmetry}\n3 3 3\n1 1 2.0\n2 2 -1.0\n3 3 5.0\n")
        assert read_matrix_market(p) == DirectedGraph(3, [])
        assert_reads_as_loop(p)


class TestLineLoopRoute:
    def test_written_files_never_reach_the_loop(self, tmp_path, monkeypatch, rng):
        def loop(*args):
            raise AssertionError("the line loop read a file write_matrix_market wrote")

        monkeypatch.setattr(mmio, "_parse_lines", loop)
        graphs = [random_digraph(rng, n) for n in (0, 1, 2, 30)] + PINNED
        graphs += [banded_digraph(n=300, avg_out=4.0, seed=3)]
        for k, g in enumerate(graphs):
            path = tmp_path / f"g{k}.mtx"
            write_matrix_market(g, path)
            assert read_matrix_market(path) == g
        for path in sorted(DATA.glob("*.mtx")):
            assert read_matrix_market(path) == loop_reader(path)

    @pytest.mark.parametrize(
        "block",
        ["1 2 1.0\n% comment\n2 1 1.0\n", "1 2 1.0\n\n2 1 1.0\n", "1 2 1_0\n2 1 1.0\n", "1 2 nan\n2 1 1.0\n",
         "1 2 1.0 7\n2 1 1.0\n", "1 2 1.0\x0c2 1 1.0\n", "1 2\n2 1 1.0\n"],
    )
    def test_other_blocks_take_the_loop(self, tmp_path, monkeypatch, block):
        calls = []
        loop = mmio._parse_lines
        monkeypatch.setattr(mmio, "_parse_lines", lambda *args: calls.append(1) or loop(*args))
        p = write(tmp_path, f"%%MatrixMarket matrix coordinate real general\n2 2 2\n{block}")
        assert_reads_as_loop(p)
        assert calls == [1]


HEADERS = [
    f"%%MatrixMarket matrix coordinate {field} {symmetry}"
    for field in ("real", "integer", "pattern")
    for symmetry in ("general", "symmetric")
]
MUTATIONS = ["insert", "drop_field", "extra_field", "index", "odd_value", "break"]
# Tokens on which int(), float() and np.loadtxt may disagree, or that fail.
ODD_TOKENS = ["+1", "1_0", "nan", "-nan", "inf", "-0", "0", "-2.5", "1e3", ".5", "5.", "1.0", "x", "abc", "0x1", "1,5", "--1"]


@st.composite
def mm_texts(draw):
    """Matrix Market text, valid or mutated in its entry block."""
    header = draw(st.sampled_from(HEADERS))
    pattern = "pattern" in header
    n = draw(st.integers(0, 5))
    index = st.one_of(st.integers(1, max(n, 1)), st.sampled_from([0, -1, n + 1, 10**20]))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-3, 3).map(str),
        st.sampled_from(ODD_TOKENS),
    )
    sep = st.sampled_from([" ", " ", " ", "  ", "\t", " \t "])
    block = []
    for _ in range(draw(st.integers(0, 8))):
        toks = [str(draw(st.integers(1, max(n, 1)))), str(draw(st.integers(1, max(n, 1))))]
        if not pattern:
            toks.append(draw(value) if draw(st.booleans()) else repr(draw(st.floats(-10, 10))))
        block.append(toks)
    declared = len(block) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))

    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        at = draw(st.integers(0, len(block)))
        if mutation == "insert":
            block.insert(at, [draw(st.sampled_from(["% note", "%", "", "   ", "\t", " % x"]))])
        elif at < len(block) and block[at]:
            toks = block[at]
            if mutation == "drop_field":
                toks.pop()
            elif mutation == "extra_field":
                toks.append(draw(st.sampled_from(["7", "x", "% c"])))
            elif mutation == "index":
                toks[draw(st.integers(0, 1)) % len(toks)] = str(draw(index)) if draw(st.booleans()) else draw(st.sampled_from(ODD_TOKENS))
            elif mutation == "odd_value":
                toks[-1] = draw(st.sampled_from(ODD_TOKENS))
            elif mutation == "break":
                toks.insert(1, draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00"])))
    lines = [header, f"{n} {n} {declared}"]
    lines += [draw(st.sampled_from(["", " ", "\t"])) + draw(sep).join(toks) + draw(st.sampled_from(["", " "])) for toks in block]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


class TestReadAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(text=mm_texts())
    def test_same_graph_warning_or_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.mtx"
        path.write_bytes(text.encode("ascii"))
        assert_reads_as_loop(path)

    @pytest.mark.parametrize("header", HEADERS)
    @pytest.mark.parametrize(
        "block",
        [
            "1 2 3.5\n2 3 -1\n3 1 0\n",  # negative and zero weights
            "1 2 +1\n2 3 1_0\n3 1 2\n",
            "1 2 nan\n2 3 1\n3 1 2\n",
            "1 2 1.0\r\n2 3 1.0\r\n3 1 1.0\r\n",
            "1\t2\t1.0\n2 3\t1.0\n3 1 1.0 9 9\n",
            "1 2 1.0\n% c\n\n2 3 1.0\n  \n3 1 1.0",
            "1 2 1.0\n2 3\n3 1 1.0\n",  # too few fields (pattern reads it)
            "1 x 1.0\n2 3 1.0\n3 1 1.0\n",
            "1 2 1.0\n2.0 3 1.0\n3 1 1.0\n",
            "1 2 1.0\n2 3 abc\n3 1 1.0\n",
            "1 2 1.0\n2 4 1.0\n3 1 1.0\n",  # out of range
            "1 2 1.0\n2 3 1.0\n3 1 1.0\n1 3 1.0\n",  # one entry too many
            "1 2 1.0\n2 3 1.0\n",  # one too few
            "2 2 1.0\n1 1 1.0\n3 3 -2\n",  # all diagonal
        ],
    )
    def test_named_cases(self, tmp_path, header, block):
        p = write(tmp_path, f"{header}\n3 3 3\n{block}")
        assert_reads_as_loop(p)

    def test_error_lines(self, tmp_path):
        head = "%%MatrixMarket matrix coordinate real general\n% c\n3 3 2\n"
        for block, where in [
            ("1 2 1.0\n2 4 1.0\n", ":5: index (2, 4)"),
            ("1 2 1.0\n2 3 1.0\n3 1 1.0\n", ":6: more than the declared 2"),
            ("1 2 1.0\n3 9 1.0\n3 1 1.0\n", ":5: index (3, 9)"),
            ("1 2 1.0\n\n", ":5: declared 2 entries but found 1"),
            ("1 2 1.0\n", ":4: declared 2 entries but found 1"),
        ]:
            p = write(tmp_path, head + block)
            with pytest.raises(ParseError, match=re.escape(where)):
                read_matrix_market(p)
            assert_reads_as_loop(p)
