"""Matrix Market ingestion and serialization of directed graphs.

Coordinate files are read as weighted edge lists: entry (i, j, w) becomes the
directed edge i -> j (1-based in files, 0-based internally).  Diagonal entries
are dropped, duplicates merge by weight summation, negative weights are folded
to their absolute value with a warning, and symmetric-header files expand to
both orientations.

The entry block is parsed by one ``np.loadtxt`` call when every line of it
holds exactly one entry written in plain decimal numerals, as in every file
``write_matrix_market`` writes.  Any other block (comment or blank lines among
the entries, extra fields, tokens such as ``nan`` or ``1_0``, malformed
lines) is read line by line, with the same graph, warning or error as a
result.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graphs import DirectedGraph

__all__ = ["ParseError", "read_matrix_market", "write_matrix_market"]

_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric")

# Bytes of an entry block that np.loadtxt reads as str.splitlines, int() and
# float() read them line by line.  Outside this set the two differ: loadtxt
# takes "\v", "\f" and "\x1c" to "\x1e" for spaces where str.splitlines
# breaks the line, and letters and "_" spell tokens (nan, 1_0) that the two
# parsers need not read alike.
_NUMERAL_BYTES = b" \t\n0123456789.eE+-"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_PATTERN_ENTRY = np.dtype([("i", np.int64), ("j", np.int64)])
_MAX_NODES = np.iinfo(np.int64).max


class ParseError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def read_matrix_market(path) -> DirectedGraph:
    """Read a Matrix Market coordinate file as a directed graph."""
    path = str(path)
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    n, nnz, pattern, symmetric, lineno = _parse_head(path, lines)
    entries = _parse_block(path, text, lines, lineno, n, nnz, pattern, symmetric)
    if entries is None:
        entries = _parse_lines(path, lines, lineno, n, nnz, pattern, symmetric)
    tails, heads, weights, negatives = entries
    if negatives:
        warnings.warn(
            f"{path}: {negatives} negative weights folded to absolute value",
            stacklevel=2,
        )
    return DirectedGraph.from_arrays(n, tails, heads, weights)


def _parse_head(path, lines):
    """Check the header line and read the size line.

    Returns (n, nnz, pattern, symmetric, line number of the size line)."""
    if not lines:
        raise ParseError(path, 1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(path, 1, f"bad header {lines[0]!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(path, 1, f"only 'matrix coordinate' is supported, got {obj!r} {fmt!r}")
    if field not in _FIELDS:
        raise ParseError(path, 1, f"unsupported field {field!r} (expected one of {_FIELDS})")
    if symmetry not in _SYMMETRIES:
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r} (expected one of {_SYMMETRIES})")

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
    if nrows > _MAX_NODES:
        raise ParseError(path, lineno, f"{nrows} nodes exceed the int64 node ids ({_MAX_NODES})")
    return nrows, nnz, field == "pattern", symmetry == "symmetric", lineno


def _parse_block(path, text, lines, lineno, n, nnz, pattern, symmetric):
    """The entries of lines[lineno:] from one np.loadtxt call, checked as
    ``_parse_lines`` checks them, or None if the block holds other bytes
    than _NUMERAL_BYTES, or a line that is blank or does not hold exactly
    the fields of one entry.

    Returns (tails, heads, weights, number of negative weights folded)."""
    # Text mode turned every line break into one character, so the block
    # starts one character past each line before it.
    block_text = text[sum(len(line) + 1 for line in lines[:lineno]):]
    if block_text.encode("ascii").translate(None, _NUMERAL_BYTES) or block_text.isspace():
        return None  # loadtxt would warn on a block of blank lines alone
    block = lines[lineno:]
    dtype = _PATTERN_ENTRY if pattern else _ENTRY
    try:
        entries = np.loadtxt(block, dtype=dtype, comments=None, ndmin=1) if block else np.empty(0, dtype)
    except ValueError:
        return None
    rows = entries.size
    if rows != len(block):  # loadtxt skips blank lines, which would shift line numbers
        return None

    i, j = entries["i"], entries["j"]
    bad = (i < 1) | (i > n) | (j < 1) | (j > n)
    first_bad = int(np.argmax(bad)) if bad.any() else rows
    # The loop checks an entry's indices, then whether it is one too many.
    over = max(nnz, 0) if rows > nnz else rows
    if first_bad <= over and first_bad < rows:
        raise ParseError(
            path, lineno + 1 + first_bad, f"index ({i[first_bad]}, {j[first_bad]}) outside declared {n}x{n}"
        )
    if over < rows:
        raise ParseError(path, lineno + 1 + over, f"more than the declared {nnz} entries")
    if rows != nnz:
        raise ParseError(path, len(lines), f"declared {nnz} entries but found {rows}")

    w = np.ones(rows) if pattern else entries["w"]
    off = i != j
    i, j, w = i[off] - 1, j[off] - 1, w[off]
    negative = w < 0
    w = np.where(negative, -w, w)
    nonzero = w != 0
    i, j, w = i[nonzero], j[nonzero], w[nonzero]
    if symmetric:
        # Each entry followed by its mirror, the order the loop appends them.
        i, j, w = np.column_stack((i, j)).ravel(), np.column_stack((j, i)).ravel(), np.repeat(w, 2)
    return i, j, w, int(np.count_nonzero(negative))


def _parse_lines(path, lines, lineno, n, nnz, pattern, symmetric):
    """The entries of lines[lineno:], read one line at a time; takes every
    block that ``_parse_block`` does not.  Returns what it returns."""
    tails, heads, weights = [], [], []
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
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(path, lineno, f"index ({i}, {j}) outside declared {n}x{n}")
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
        tails.append(i - 1)
        heads.append(j - 1)
        weights.append(w)
        if symmetric:
            tails.append(j - 1)
            heads.append(i - 1)
            weights.append(w)
    if seen != nnz:
        raise ParseError(path, lineno, f"declared {nnz} entries but found {seen}")
    return tails, heads, weights, negatives


def write_matrix_market(g: DirectedGraph, path) -> None:
    """Write a graph as 'coordinate real general', 1-based, sorted by (row, col)."""
    with open(str(path), "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{g.n} {g.n} {g.num_edges}\n")
        fh.writelines(
            map("{} {} {:.17g}\n".format, (g.tails + 1).tolist(), (g.heads + 1).tolist(), g.weights.tolist())
        )
