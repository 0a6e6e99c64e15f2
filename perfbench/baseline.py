"""Run the benchmark over several seeds and record a baseline.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Every workload in BENCHMARK.json gets three sets of runs, made one after
another with nothing in parallel:

* cross-seed: one untraced run (run.py --trace 0) for each of SEEDS;
* same-seed: REPEATS untraced runs of SEEDS[0];
* one traced run (--trace 1) at SEEDS[0].

Runs of a set go round-robin over the workloads, so a slow spell of the
host falls on all of them alike. For each end-to-end metric the file holds
the median, the quartiles and the spread (quartile distance over median) of
both sets, apart: the cross-seed spread mixes input variation with host
noise, the same-seed spread is host noise alone. A metric whose same-seed
spread exceeds its bound is marked unresolved: the bound cannot tell a
regression of that size from noise. The file also records the traced run's
per-layer metrics, the machine, and the `src/` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = tuple(range(1, 11))
REPEATS = 10

# which end-to-end metric each layer's per-layer metrics should move, and on
# which workload (a faster layer saves at most its share of the deck's time)
LAYER_TABLE = {
    "setup": "setup_s, all workloads",
    "cli": "call_p50_rel on exact_mix",
    "lab.experiments": "wall_rel on both orbit workloads (small share)",
    "flows": "wall_rel on both orbit workloads (small share)",
    "lab.grids": "wall_rel, call_p50_rel and peak_rss_mb on orbit_n3; zero elsewhere",
    "lab.reduction": "wall_rel and call_p50_rel on orbit_reduce; zero on orbit_n3; "
                     "small on exact_mix (descent)",
    "dioph": "call_p90_ms and wall_rel on exact_mix",
    "exact": "wall_rel and call_p50_rel on exact_mix",
    "wedge": "wall_rel on exact_mix",
    "instability": "call_p50_rel on exact_mix",
    "rootsys": "call_p90_ms on exact_mix",
    "lab.descent / lab.symplectic / lab.kfield": "wall_rel on exact_mix",
}


def bench(workload: str, seed: int, trace: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, json.dumps(result)[:200], flush=True)
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": values}


def machine() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def round_robin(workloads, seeds, trace, seconds) -> dict:
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(bench(w, seed, trace, seconds))
    return runs


def spreads(spec, runs) -> dict:
    return {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    cross = round_robin(workloads, SEEDS, 0, seconds)
    same = round_robin(workloads, [SEEDS[0]] * REPEATS, 0, seconds)
    traced = round_robin(workloads, SEEDS[:1], 1, seconds)
    out = {"machine": machine(), "src_lines": src_lines(), "seeds": list(SEEDS),
           "repeats": REPEATS, "run_seconds": seconds, "layers": LAYER_TABLE,
           "workloads": {}}
    for w in workloads:
        runs = cross[w] + same[w]
        same_seed = spreads(spec, same[w])
        out["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "cross_seed": spreads(spec, cross[w]),
            "same_seed": same_seed,
            "unresolved": sorted(m for m, s in same_seed.items() if s["spread"] > bounds[m]),
            "per_layer": {k: v["value"] for k, v in traced[w][0]["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, data in out["workloads"].items():
        for name in bounds:
            c, r = data["cross_seed"][name], data["same_seed"][name]
            print(f"{w:13} {name:12} cross-seed median {c['median']:.6g} spread "
                  f"{c['spread']:.3f} | same-seed median {r['median']:.6g} spread "
                  f"{r['spread']:.3f} | bound {bounds[name]}")
        print(f"{w:13} failed {data['failed']} of {data['attempted']}; unresolved: "
              f"{', '.join(data['unresolved']) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
