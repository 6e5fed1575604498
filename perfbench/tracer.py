"""Spans and counters around the public calls into each specsparse module.

The tracer patches functions from the outside: module globals that the
program looks up at call time (``sparsify`` binds ``build_seed``,
``symmetrize``, ``power_iterate`` and ``filter_similar_edges`` as globals of
its own module), methods of ``DirectedGraph`` and ``SpsSolver``, and the
package attributes the benchmark itself calls.  Nothing in ``src/`` changes.
Spans (name, start, end, parent) and counters stay in memory until
``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import specsparse

# (module, attribute, span name); "specsparse.sparsify" is the module here,
# since the package attribute of that name is the function.
FUNCTIONS = [
    ("specsparse", "read_matrix_market", "mmio.read"),
    ("specsparse", "sparsify", "sparsify"),
    ("specsparse", "pagerank_correlation", "apps.pagerank_correlation"),
    ("specsparse", "directed_solve", "apps.dsolve"),
    ("specsparse", "spectral_partition", "apps.partition"),
    ("specsparse.sparsify", "build_seed", "seed.build"),
    ("specsparse.sparsify", "laplacian", "graphs.laplacian"),
    ("specsparse.sparsify", "symmetrize", "graphs.symmetrize"),
    ("specsparse.sparsify", "power_iterate", "sensitivity.power_iterate"),
    ("specsparse.sparsify", "filter_similar_edges", "sensitivity.filter"),
    ("specsparse.solver", "build_hierarchy", "solver.hierarchy"),
    ("specsparse.apps", "laplacian", "graphs.laplacian"),
    ("specsparse.apps", "symmetrize", "graphs.symmetrize"),
    ("specsparse.apps", "pagerank", "apps.pagerank"),
    ("specsparse.apps", "kmeans", "apps.kmeans"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        c = self.counters

        def on_filter(args, kwargs, kept):
            c["filter_candidates"] += len(args[0])
            c["filter_kept"] += len(kept)

        def on_pagerank(args, kwargs, result):
            c["pagerank_iters"] += result.iterations

        def on_sparsify(args, kwargs, result):
            loop = result.iterations[1:]
            c["sparsify_iterations"] += len(loop)
            c["sparsify_accepted"] += sum(1 for rep in loop if rep.edges_added > 0)

        after = {"sensitivity.filter": on_filter, "apps.pagerank": on_pagerank, "sparsify": on_sparsify}
        for module, attr, name in FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._span(name, getattr(owner, attr), after.get(name)))

        self._patch(specsparse.DirectedGraph, "subgraph",
                    self._span("graphs.subgraph", specsparse.DirectedGraph.subgraph))
        solver_cls = specsparse.SpsSolver
        self._patch(solver_cls, "__init__", self._span("solver.build", solver_cls.__init__))
        solve = solver_cls.solve

        def counted_solve(solver, *args, **kwargs):
            had_lu = getattr(solver, "_lu", None) is not None
            x, stats = solve(solver, *args, **kwargs)
            c["solves"] += 1
            c["pcg_iters"] += stats.iterations
            c["max_residual"] = max(c["max_residual"], stats.residual)
            if not had_lu and getattr(solver, "_lu", None) is not None:
                c["lu_fallbacks"] += 1
            return x, stats

        self._patch(solver_cls, "solve", self._span("solver.solve", functools.wraps(solve)(counted_solve)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def mark(self):
        """Position to pass to ``layer_metrics`` for the spans recorded after now.

        The largest solver residual is not a sum, so it starts afresh here.
        """
        self.counters["max_residual"] = 0.0
        return len(self.spans), dict(self.counters)

    def layer_metrics(self, since):
        """Per-layer totals over the spans and counter increments after ``since``."""
        first, counters_then = since
        spans = self.spans[first:]
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent >= first and self.spans[parent][0] == "sparsify":
                child["sparsify"] += end - start
        c = {k: v - counters_then.get(k, 0.0) for k, v in self.counters.items()}

        def ratio(num, den):
            return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

        return {
            "solver.solve_s": total["solver.solve"],
            "solver.build_s": total["solver.build"],
            "solver.hierarchy_s": total["solver.hierarchy"],
            "solver.solves": c.get("solves", 0.0),
            "solver.pcg_iters": c.get("pcg_iters", 0.0),
            "solver.lu_fallbacks": c.get("lu_fallbacks", 0.0),
            "solver.max_residual": c.get("max_residual", 0.0),
            "sensitivity.power_iterate_s": total["sensitivity.power_iterate"],
            "sensitivity.filter_s": total["sensitivity.filter"],
            "sensitivity.filter_kept_ratio": ratio("filter_kept", "filter_candidates"),
            "seed.build_s": total["seed.build"],
            "graphs.symmetrize_s": total["graphs.symmetrize"],
            "graphs.subgraph_s": total["graphs.subgraph"],
            "sparsify.self_s": total["sparsify"] - child["sparsify"],
            "sparsify.iterations": c.get("sparsify_iterations", 0.0),
            "sparsify.accept_ratio": ratio("sparsify_accepted", "sparsify_iterations"),
            "mmio.read_s": total["mmio.read"],
            "apps.pagerank_s": total["apps.pagerank"],
            "apps.pagerank_iters": c.get("pagerank_iters", 0.0),
            "apps.dsolve_s": total["apps.dsolve"],
            "apps.partition_s": total["apps.partition"],
        }

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
