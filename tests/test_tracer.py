"""Guard for the benchmark's tracer: every span it reads must still fire.

``perfbench/tracer.py`` wraps module globals and methods by name from the
outside, so a call that bypasses them (a renamed global, a function bound
under another name) silently turns that per-layer metric into 0.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import specsparse as ss

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
DATA = Path(__file__).parent / "data"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_originals(tracer_module):
    owners = [
        (importlib.import_module(module), attr) for module, attr, _ in tracer_module.FUNCTIONS
    ]
    owners += [(ss.DirectedGraph, "subgraph"), (ss.SpsSolver, "__init__"), (ss.SpsSolver, "solve")]
    return [(owner, attr, getattr(owner, attr)) for owner, attr in owners]


def test_tracer_spans_fire_and_uninstall_restores():
    tracer_module = load_tracer()
    originals = patched_originals(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        g = ss.read_matrix_market(DATA / "synth32.mtx")
        res = ss.sparsify(g, ss.SparsifyParams(mu_limit=1.0, iter_max=3, seed=0))
        ss.pagerank_correlation(g, res)
        ss.spectral_partition(res.graph, 4)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    totals = {}
    for name, start, end, _ in tracer.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    for name in (
        "sensitivity.power_iterate",
        "sensitivity.filter",
        "graphs.symmetrize",
        "graphs.subgraph",
        "seed.build",
        "solver.solve",
        "solver.hierarchy",
    ):
        assert totals.get(name, 0.0) > 0.0, name
    assert tracer.counters["solves"] > 0
    # The tracer counts len(args[0]) as candidates and len(result) as kept
    # edges, so the filter's first argument must hold one row per candidate
    # and its result one entry per kept edge.
    assert 0 < tracer.counters["filter_kept"] <= tracer.counters["filter_candidates"]
    # The tracer adds and compares SolveStats fields as numbers, so the
    # stats of a block solve must stay scalar.
    assert tracer.counters["pcg_iters"] > 0
    max_residual = tracer.counters["max_residual"]
    assert isinstance(max_residual, float) and math.isfinite(max_residual)
