"""Steadiness check: two sets of benchmark runs of one checkout, compared.

    python3 perfbench/steady.py --runs 10

Each run is ``perfbench/run.py`` in a process of its own, one at a time, each
with another ``--seed`` and the run length of BENCHMARK.json.  For every
(workload, end-to-end metric) it prints each set's median and quartiles, the
spread (interquartile distance over the median) and whether the two sets
agree within the metric's bound from BENCHMARK.json:

- each set's spread is within the bound, except that of ``setup_s``, whose
  spread is printed but not bounded (README.md says why);
- the second set's median differs from the first's by at most the bound,
  better or worse;
- the quality metrics read exactly the same in every run;
- the share of failed operations is the same in every run.

One traced run per workload gives the tracing overhead: the traced round
time over the untraced sparsify_s + apps_s.  Everything goes to
``BENCH_steady.json`` as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
FIRST_SEED = 1
# Metrics that depend only on the fixed inputs, not on the machine's speed.
QUALITY = ("edge_ratio", "mu_true", "pagerank_corr", "dsolve_relres")
# The one metric whose spread goes unbounded: reading a file is pure Python,
# and its speed follows the host's state by more than the largest bound.
UNBOUNDED_SPREAD = "setup_s"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    print(f"  {workload} seed {seed} trace {trace}: {out['attempted']} ops, {out['failed']} failed, "
          f"{wall:.1f} s", flush=True)
    return out


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        for _ in range(args.runs):
            for w in workloads:
                runs[w][s].append(run_once(w, seed, seconds, 0))
                seed += 1
    traced = {w: run_once(w, seed + i, seconds, 1) for i, w in enumerate(workloads)}

    report = {"runs": runs, "traced": traced, "summary": {}}
    all_ok = True
    print(f"\n{'workload':<12} {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  ok")
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for rs in runs[w] for r in rs}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in runs[w]]
            sets = [summarize(v) for v in values]
            change = abs(sets[1]["median"] / sets[0]["median"] - 1.0)
            for i, st in enumerate(sets):
                ok = name == UNBOUNDED_SPREAD or st["spread"] <= bound
                ok &= change <= bound
                if name in QUALITY:
                    ok &= len({v for vs in values for v in vs}) == 1
                all_ok &= ok
                note = "  (spread not bounded)" if name == UNBOUNDED_SPREAD else ""
                print(f"{w:<12} {name:<14} {i + 1:>3} {st['median']:>12.6g} {st['q1']:>12.6g} "
                      f"{st['q3']:>12.6g} {st['spread']:>7.4f} {bound:>6}  {'yes' if ok else 'NO'}{note}")
            report["summary"][f"{w}/{name}"] = sets
        all_ok &= len(shares) == 1
        print(f"{w:<12} failed share {', '.join(map(str, sorted(shares)))} {'same in every run' if len(shares) == 1 else 'DIFFERS'}")
        untraced = statistics.median(
            r["metrics"]["sparsify_s"]["value"] + r["metrics"]["apps_s"]["value"] for rs in runs[w] for r in rs)
        round_s = traced[w]["metrics"]["trace.round_s"]["value"]
        overhead = round_s / untraced - 1.0
        report["summary"][f"{w}/trace_overhead"] = overhead
        print(f"{w:<12} tracing overhead {100 * overhead:+.1f}% (traced round {round_s:.3f} s, "
              f"untraced {untraced:.3f} s)")
    (ROOT / "BENCH_steady.json").write_text(json.dumps(report, indent=1))
    print("\nall sets agree within the bounds" if all_ok else "\nsome sets do NOT agree within the bounds")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
