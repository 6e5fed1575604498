"""Command-line front end: sparsify, pagerank, solve, partition, spectrum.

All reports are comma-separated text with a header row; floats carry 17
significant digits so seeded runs reproduce byte-identically (pass
--no-timing to zero the wall-clock column, which is the one inherently
non-deterministic field).  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .apps import _low_eigenpairs, _pagerank_comparison, directed_solve, pagerank, spectral_partition
from .graphs import laplacian, symmetrized_operator
from .mmio import ParseError, read_matrix_market, write_matrix_market
from .sensitivity import power_iterate
from .solver import GroundedSolver
from .sparsify import SparsifyParams, sparsify

__all__ = ["main", "console_main"]


def _fmt(x):
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _count(text):
    """argparse type for a count: an int that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="specsparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify", help="spectrally sparsify a directed graph")
    p.add_argument("--input", required=True, help="Matrix Market graph file")
    p.add_argument("--output", help="write the sparsified graph here (.mtx)")
    p.add_argument("--report", help="write the per-iteration CSV report here")
    p.add_argument("--dout", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.9)
    p.add_argument("--alpha-percent", type=float, default=5.0)
    p.add_argument("--mu-limit", type=float, default=100.0)
    p.add_argument("--max-iters", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--no-timing", action="store_true", help="zero the wall-time column for reproducible reports")

    p = sub.add_parser("pagerank", help="PageRank on a graph and optionally its sparsifier")
    p.add_argument("--input", required=True)
    p.add_argument("--sparsifier", help="Matrix Market file of a sparsified version")
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--personalize", help="comma-separated node ids (1-based) sharing the restart mass")
    p.add_argument("--smoothing-steps", type=_count, default=10)
    p.add_argument("--output", help="CSV destination (default stdout)")

    p = sub.add_parser("solve", help="solve L_G x = b by Jacobi-preconditioned BiCGSTAB")
    p.add_argument("--input", required=True)
    p.add_argument("--rhs", required=True, help="text file, one value per line")
    p.add_argument("--output", help="CSV destination (default stdout)")

    p = sub.add_parser("partition", help="spectral partitioning of the symmetrized Laplacian")
    p.add_argument("--input", required=True)
    p.add_argument("-k", type=int, required=True, help="number of clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="CSV destination (default stdout)")

    p = sub.add_parser("spectrum", help="leading eigenvalue estimates for plotting")
    p.add_argument("--input", required=True)
    p.add_argument("--top", type=_count, default=10)
    p.add_argument("--sparsifier", help="report generalized eigenvalue estimates against this subgraph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="CSV destination (default stdout)")
    return parser


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_sparsify(args):
    g = read_matrix_market(args.input)
    params = SparsifyParams(
        d_out=args.dout,
        iter_max=args.max_iters,
        mu_limit=args.mu_limit,
        alpha_percent=args.alpha_percent,
        epsilon=args.epsilon,
        t=args.t,
        r=args.r,
        seed=args.seed,
    )
    result = sparsify(g, params)
    if args.output:
        write_matrix_market(result.graph, args.output)
    lines = ["iteration,mu_max,edge_ratio,wall_time_seconds,edges_added,edges_rejected"]
    for row in result.iterations:
        wall = 0.0 if args.no_timing else row.wall_time_seconds
        lines.append(
            f"{row.iteration},{_fmt(row.mu_max)},{_fmt(row.edge_ratio)},"
            f"{_fmt(wall)},{row.edges_added},{row.edges_rejected}"
        )
    if args.report:
        _write_lines(args.report, lines)
    ratio = result.mu_initial / result.mu_final if result.mu_final > 0 else float("inf")
    print(
        f"kept {result.graph.num_edges}/{g.num_edges} edges"
        f" (ratio {result.edge_ratio:.3f}),"
        f" mu {_fmt(result.mu_initial)} -> {_fmt(result.mu_final)}"
        f" ({ratio:.3g}x reduction)"
    )
    return 0


def _personalization(arg, n):
    if arg is None:
        return None
    ids = sorted({int(tok) - 1 for tok in arg.split(",") if tok.strip()})
    if not ids or any(not 0 <= i < n for i in ids):
        raise ValueError(f"personalization ids must lie in 1..{n}")
    pr = np.zeros(n)
    pr[ids] = 1.0 / len(ids)
    return pr


def _cmd_pagerank(args):
    g = read_matrix_market(args.input)
    pr = _personalization(args.personalize, g.n)
    if args.sparsifier:
        s = read_matrix_market(args.sparsifier)
        full, sparse_, raw, smoothed = _pagerank_comparison(g, s, args.alpha, pr, args.smoothing_steps)
        lines = ["node,score,score_sparsifier"]
        for i in range(g.n):
            lines.append(f"{i + 1},{_fmt(full.p[i])},{_fmt(sparse_.p[i])}")
        _write_lines(args.output, lines)
        print(f"correlation raw {_fmt(raw)}, smoothed {_fmt(smoothed)}")
    else:
        full = pagerank(g, alpha=args.alpha, personalization=pr)
        lines = ["node,score"]
        for i in range(g.n):
            lines.append(f"{i + 1},{_fmt(full.p[i])}")
        _write_lines(args.output, lines)
    return 0


def _cmd_solve(args):
    g = read_matrix_market(args.input)
    with open(args.rhs, "r", encoding="ascii") as fh:
        b = np.array([float(line) for line in fh if line.strip()])
    x, _ = directed_solve(g, g, b)
    lines = ["node,x"]
    for i in range(g.n):
        lines.append(f"{i + 1},{_fmt(x[i])}")
    _write_lines(args.output, lines)
    return 0


def _cmd_partition(args):
    g = read_matrix_market(args.input)
    part = spectral_partition(g, args.k, seed=args.seed)
    lines = ["node,cluster"]
    for i in range(g.n):
        lines.append(f"{i + 1},{part.assignment[i]}")
    _write_lines(args.output, lines)
    return 0


def _cmd_spectrum(args):
    g = read_matrix_market(args.input)
    L = laplacian(g)
    lines = []
    if args.sparsifier:
        s = read_matrix_market(args.sparsifier)
        if s.n != g.n:
            raise ValueError(f"sparsifier has {s.n} nodes, graph has {g.n}")
        if s.num_edges == 0:
            raise ValueError("sparsifier has no edges: the generalized eigenvalues are undefined")
        L_S = laplacian(s)
        starts = np.random.default_rng(args.seed).uniform(-1, 1, size=(args.top, g.n))
        mu, _ = power_iterate(
            symmetrized_operator(L), symmetrized_operator(L_S), starts, t=3, solver=GroundedSolver(L_S)
        )
        lines.append("index,mu_estimate")
        for i, value in enumerate(sorted(mu.tolist(), reverse=True)):
            lines.append(f"{i},{_fmt(value)}")
    else:
        vals, _ = _low_eigenpairs(L, args.top, args.seed, vectors=False)
        lines.append("index,eigenvalue")
        for i, ev in enumerate(vals[: args.top]):
            lines.append(f"{i},{_fmt(ev)}")
    _write_lines(args.output, lines)
    return 0


_COMMANDS = {
    "sparsify": _cmd_sparsify,
    "pagerank": _cmd_pagerank,
    "solve": _cmd_solve,
    "partition": _cmd_partition,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"specsparse: error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())
