"""Benchmark of specsparse: sparsification, the SPS solver and the apps.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  Set-up reads the workload's input
graphs from Matrix Market files several times; then whole rounds of the
workload's sparsifications and queries repeat until ``--seconds`` have
passed.  Timings are medians over the set-ups and over the rounds.  After the
timed part every output is checked against ``oracles``; a failed check makes
``correct`` false and the exit code 1.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the same rounds run
under the ``tracer`` and the object holds the per-layer metrics instead, and
the spans go to ``perfbench/out/``.
"""

import os

# One BLAS thread: with two, outputs differ at ulp level and the timings of
# a 2-vCPU machine depend on what else runs on it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A directed solve whose residual is not below that of x = 0 counts as failed.
DSOLVE_FAIL = 1.0
# Lowest ARI against the planted blocks for partitions of G and of S.
ARI_G = 0.9
ARI_S = 0.7


def geomean(values):
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


class Checks:
    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def edge_arrays(g):
    return g.tails, g.heads, g.weights


def run_query(ss, q, graphs, results, rhs):
    G = graphs[q.graph]
    S = results[q.job].graph if q.job else None
    if q.kind == "pagerank":
        raw, _ = ss.pagerank_correlation(G, S, personalization=q.personalization)
        return raw
    if q.kind == "dsolve":
        x, _ = ss.directed_solve(G, S, rhs[q.key], solver_params=ss.SolverParams(**q.solver))
        return x
    return ss.spectral_partition(S if S is not None else G, q.k).assignment


def schedule(wl, rng):
    """One round's operations: each sparsification, in shuffled order, followed
    by the queries on its result, then the queries on input graphs alone."""
    order = []
    for i in rng.permutation(len(wl.jobs)):
        job = wl.jobs[i]
        mine = [q for q in wl.queries if q.job == job.key]
        order += [job] + [mine[j] for j in rng.permutation(len(mine))]
    rest = [q for q in wl.queries if q.job is None]
    return order + [rest[j] for j in rng.permutation(len(rest))]


def same_output(a, b):
    if hasattr(a, "kept_edge_ids"):
        return a.kept_edge_ids == b.kept_edge_ids and a.mu_final == b.mu_final
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def check_sparsifier(oracles, checks, key, G, res):
    S = res.graph
    n = G.n
    ids = res.kept_edge_ids
    gkey = G.tails * n + G.heads
    order = gkey.argsort()
    skey = S.tails * n + S.heads
    pos = order[gkey[order].searchsorted(skey).clip(0, gkey.size - 1)]
    checks.require(
        S.n == n and S.num_edges == len(ids) and len(set(ids)) == len(ids)
        and bool((gkey[pos] == skey).all()) and bool((G.weights[pos] == S.weights).all()),
        f"{key}: sparsifier edges are input edges with identical weights",
    )
    checks.require(
        oracles.sink_components(n, S.tails, S.heads) == oracles.sink_components(n, G.tails, G.heads),
        f"{key}: L_Su has the nullity of L_Gu",
    )
    accepted = [res.iterations[0].mu_max]
    monotone = True
    for rep in res.iterations[1:]:
        if rep.edges_added > 0:
            monotone &= rep.mu_max < accepted[-1]
            accepted.append(rep.mu_max)
        else:
            monotone &= rep.mu_max == accepted[-1]
    checks.require(monotone and res.mu_final == accepted[-1], f"{key}: accepted mu strictly decreases")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specsparse" / "__init__.py").is_file():
        print(f"perfbench: no specsparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy as np

    import oracles
    import specsparse as ss
    from tracer import Tracer
    from workloads import WORKLOADS, Job

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](OUT)
    checks = Checks()

    # Inputs that are generated get written before anything is timed.
    generated = {}
    for name, make in wl.generators.items():
        generated[name] = make()
        OUT.mkdir(parents=True, exist_ok=True)
        ss.write_matrix_market(generated[name], wl.files[name])

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    setup_times, read_times = [], []
    for _ in range(wl.setup_reps):
        mark = tracer.mark() if tracer else None
        t0 = time.perf_counter()
        graphs = {name: ss.read_matrix_market(path) for name, path in wl.files.items()}
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            read_times.append(tracer.layer_metrics(mark)["mmio.read_s"])
    for name, g in generated.items():
        checks.require(
            graphs[name].n == g.n
            and all(np.array_equal(a, b) for a, b in zip(edge_arrays(graphs[name]), edge_arrays(g))),
            f"{name}: Matrix Market round trip",
        )

    rhs = {
        q.key: oracles.laplacian_matvec(graphs[q.graph].n, *edge_arrays(graphs[q.graph]), q.x_true)
        for q in wl.queries if q.kind == "dsolve"
    }

    order_rng = np.random.default_rng(args.seed)
    rounds = []  # per round: (sparsify seconds, apps seconds, layer metrics)
    first = None
    start = time.perf_counter()
    while True:
        mark = tracer.mark() if tracer else None
        t_round = time.perf_counter()
        results, outputs = {}, {}
        sparsify_s = apps_s = 0.0
        for op in schedule(wl, order_rng):
            t0 = time.perf_counter()
            if isinstance(op, Job):
                results[op.key] = ss.sparsify(graphs[op.graph], op.sparsify_params())
                sparsify_s += time.perf_counter() - t0
            else:
                outputs[op.key] = run_query(ss, op, graphs, results, rhs)
                apps_s += time.perf_counter() - t0
        layers = None
        if tracer:
            layers = tracer.layer_metrics(mark)
            layers["trace.round_s"] = time.perf_counter() - t_round
        rounds.append((sparsify_s, apps_s, layers))
        if first is None:
            first = (results, outputs)
        else:
            checks.require(
                all(same_output(first[0][k], v) for k, v in results.items())
                and all(same_output(first[1][k], v) for k, v in outputs.items()),
                "every round repeats the first round's outputs",
            )
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")

    # Everything below is untimed: oracles and checks.
    results, outputs = first
    mu_true, mu_est, kept, total = {}, [], 0, 0
    for job in wl.jobs:
        G, res = graphs[job.graph], results[job.key]
        check_sparsifier(oracles, checks, job.key, G, res)
        mu_true[job.key] = oracles.mu_true(G.n, edge_arrays(G), edge_arrays(res.graph))
        checks.require(res.mu_final <= mu_true[job.key] * (1 + 1e-6),
                       f"{job.key}: mu_final {res.mu_final:.6g} <= mu_true {mu_true[job.key]:.6g}")
        mu_est.append(res.mu_final / mu_true[job.key])
        kept += res.graph.num_edges
        total += G.num_edges

    corr, relres, failed_per_round = [], [], 0
    for q in wl.queries:
        G = graphs[q.graph]
        out = outputs[q.key]
        if q.kind == "pagerank":
            S = results[q.job].graph
            p_g = oracles.pagerank_reference(G.n, *edge_arrays(G), q.personalization)
            p_s = oracles.pagerank_reference(S.n, *edge_arrays(S), q.personalization)
            for name, h, ref in (("G", G, p_g), ("S", S, p_s)):
                p = ss.pagerank(h, personalization=q.personalization).p
                checks.require(float(np.abs(p - ref).sum()) <= 1e-7,
                               f"{q.key}: PageRank on {name} matches the reference solve")
            checks.require(abs(out - oracles.pearson(p_g, p_s)) <= 1e-6,
                           f"{q.key}: PageRank correlation matches the reference solves")
            corr.append(out)
        elif q.kind == "dsolve":
            r = oracles.relative_residual(G.n, *edge_arrays(G), out, rhs[q.key])
            checks.require(math.isfinite(r), f"{q.key}: directed solve residual is finite")
            relres.append(r)
            failed_per_round += r >= DSOLVE_FAIL
        else:
            ari = oracles.adjusted_rand(out, oracles.planted_blocks(G.n, q.k))
            floor = ARI_S if q.job else ARI_G
            checks.require(ari >= floor, f"{q.key}: partition ARI {ari:.3f} >= {floor}")

    if args.trace:
        metrics = {
            name: statistics.median(r[2][name] for r in rounds)
            for name in rounds[0][2]
        }
        metrics["mmio.read_s"] = statistics.median(read_times)
        metrics["sparsify.mu_est_ratio"] = geomean(mu_est)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "sparsify_s": statistics.median(r[0] for r in rounds),
            "apps_s": statistics.median(r[1] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
            "edge_ratio": kept / total,
            "mu_true": geomean(list(mu_true.values())),
            "pagerank_corr": math.fsum(corr) / len(corr),
            "dsolve_relres": geomean(relres),
        }
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")

    ops = len(wl.jobs) + len(wl.queries)
    report = {
        "correct": not checks.failures,
        "attempted": ops * len(rounds),
        "failed": int(failed_per_round) * len(rounds),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(f"{wl.name}: {len(rounds)} rounds of {ops} operations, seed {args.seed}, trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<32} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
