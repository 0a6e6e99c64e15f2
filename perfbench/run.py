"""latflow benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload orbit_n3 --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds `src/latflow` and
`tests/oracles.py`; it reads and writes only inside that checkout (scratch
files go to `.perfbench_work/`, removed at exit).

A run is a closed loop of passes, one client: each pass is a fresh
interpreter (worker.py) that imports latflow, builds the workload's inputs
from the seed and runs the workload's fixed call list once. Passes repeat,
one at a time, until --seconds have gone by (at least MIN_PASSES). The
first pass verifies every output (checks.py); every later pass must
reproduce the first pass's outputs byte for byte.

--trace 0 prints the end-to-end metrics: median set-up time, the deck's
wall time and median call latency in units of a calibration loop timed
around each call (unit `calib`; worker.calibrate), and median peak RSS. It
also prints, outside the result line, the same times in seconds, the p90
call latency on decks long enough for it and the failure fraction. --trace 1 alternates untraced and traced passes
and prints the per-layer metrics of the traced ones (tracing.py), the import
times of a fresh interpreter from `-X importtime`, and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]  # tests/ holds oracles.py

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1  # the seed the reference outputs were recorded with
MIN_PASSES = 3
IMPORTTIME_RUNS = 3
PASS_TIMEOUT_S = 45.0
RUN_CAP_S = 120.0  # no pass starts after this, so a run ends within 180 s
P90_MIN_BEYOND = 10  # p90 is printed when MIN_PASSES passes put this many calls beyond it

END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "calib", "call_p50_rel": "calib",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _import_stmt(src: str) -> str:
    return f"import sys; sys.path.insert(0, {src!r}); import latflow.cli"


def import_times(src: str) -> dict:
    """Cumulative import time of latflow, numpy and sympy in a fresh
    interpreter, from `python -X importtime` (seconds)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _import_stmt(src)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60, check=True)
    out = {"latflow": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip())) - 1
        if name.split(".")[0] == "latflow" and depth == 0:
            out["latflow"] += cumulative
        elif name in ("numpy", "sympy") and name not in out:
            out[name] = cumulative
    return {"setup.import.latflow_s": out["latflow"],
            "setup.import.numpy_s": out.get("numpy", 0.0),
            "setup.import.sympy_s": out.get("sympy", 0.0)}


class Run:
    """The passes of one benchmark run and their outputs."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.passes = []

    def run_pass(self, trace: bool) -> dict:
        i = len(self.passes)
        pass_dir = os.path.join(self.workdir, f"pass{i}")
        os.mkdir(pass_dir)
        result = os.path.join(self.workdir, f"pass{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", pass_dir, "--result", result]
        if trace:
            cmd.append("--trace")
        if i == 0:
            cmd.append("--verify")
        spawned = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"pass {i} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result) as fh:
            data = json.load(fh)
        data["setup_s"] = data["setup_done"] - spawned
        data["traced"] = trace
        data["outputs"] = {}
        for rec in data["calls"]:
            for name in rec["outputs"]:
                path = os.path.join(pass_dir, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        data["outputs"][name] = fh.read()
        shutil.rmtree(pass_dir)
        os.remove(result)
        self._judge(data)
        self.passes.append(data)
        return data

    def _judge(self, data: dict) -> None:
        """Mark each call failed or not: its own error or verification
        problem, or, after the first pass, outputs that differ from it."""
        first = self.passes[0] if self.passes else None
        for j, rec in enumerate(data["calls"]):
            rec["failed"] = rec["error"] is not None
            if first is None:
                continue
            ref = first["calls"][j]
            if ref["failed"]:
                rec["failed"] = True
                rec["error"] = rec["error"] or "failed in the first pass"
            elif any(data["outputs"].get(n) != first["outputs"].get(n) for n in rec["outputs"]):
                rec["failed"] = True
                rec["error"] = rec["error"] or "output differs from the first pass"

    def compare_reference(self, reference: dict) -> None:
        import checks

        first = self.passes[0]
        texts = {n: b.decode() for n, b in first["outputs"].items()}
        problems = checks.compare_reference(reference["outputs"], texts)
        for p in self.passes:
            for rec in p["calls"]:
                hits = [msg for n in rec["outputs"] for msg in problems.get(n, [])]
                if hits or "*" in problems:
                    rec["failed"] = True
                    rec["error"] = rec["error"] or "; ".join((hits or problems["*"])[:3])

    def calls(self):
        return [rec for p in self.passes for rec in p["calls"]]


def relative_call_times(passes) -> list:
    """Each deck call's median, over the passes, of its latency divided by
    the mean of the calibration loops timed just before and after it. The
    host's speed drifts by up to 2x within minutes (see README.md); the
    loop slows with it and the ratio does not."""
    rel = [[rec["s"] * 2 / (p["calib_s"][j] + p["calib_s"][j + 1])
            for j, rec in enumerate(p["calls"])] for p in passes]
    return [statistics.median(r[j] for r in rel) for j in range(len(rel[0]))]


def end_to_end(run: Run) -> tuple:
    passes = run.passes
    lat = [rec["s"] for rec in run.calls()]
    rel = relative_call_times(passes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_rel": sum(rel),
        "call_p50_rel": statistics.median(rel),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # the same times in seconds, which follow the host's drift
    extra = {"wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
             "call_p50_ms": (statistics.median(lat) * 1e3, "ms")}
    # decided by the deck, not by how many passes fit in the run
    if len(passes[0]["calls"]) * MIN_PASSES >= 10 * P90_MIN_BEYOND:
        extra["call_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms")
    return metrics, extra


def per_layer(run: Run, src: str) -> dict:
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    metrics = tracing.median_metrics(
        [tracing.pass_metrics(p["spans"], p["counts"]) for p in traced])
    imports = [import_times(src) for _ in range(IMPORTTIME_RUNS)]
    metrics.update(tracing.median_metrics(imports))
    metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    # each traced pass against the untraced pass just before it: back-to-back
    # passes share the host's state, separate medians do not
    metrics["trace.overhead_s"] = statistics.median(
        b["wall_s"] - a["wall_s"] for a, b in zip(run.passes, run.passes[1:]) if b["traced"])
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def record_reference(run: Run) -> int:
    run.run_pass(trace=False)
    bad = [r for r in run.calls() if r["failed"]]
    if bad:
        print(f"not recording: {len(bad)} calls failed: {bad[0]['error']}", file=sys.stderr)
        return 1
    path = os.path.join(HERE, "reference", f"{run.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    outputs = {n: b.decode() for n, b in sorted(run.passes[0]["outputs"].items())}
    with open(path, "w") as fh:
        json.dump({"workload": run.workload, "seed": run.seed, "outputs": outputs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="run one verified pass and store its outputs as the "
                         "reference for this seed")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    for need in (os.path.join(src, "latflow", "cli.py"),
                 os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run inside a "
                  "latflow checkout", file=sys.stderr)
            return 2

    # a terminated run unwinds: subprocess.run kills the running pass and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.record_reference:
            return record_reference(run)
        # compile and cache the package once, so no pass pays for bytecode
        subprocess.run([sys.executable, "-c", _import_stmt(src)], timeout=60, check=True,
                       stdout=subprocess.DEVNULL)
        started = time.monotonic()
        while (len(run.passes) < MIN_PASSES
               or time.monotonic() - started < args.seconds) \
                and time.monotonic() - started < RUN_CAP_S:
            run.run_pass(trace=bool(args.trace) and len(run.passes) % 2 == 1)
        ref_path = os.path.join(HERE, "reference", f"{args.workload}.json")
        if os.path.exists(ref_path):
            import checks

            reference = checks.load_reference(ref_path)
            if reference["seed"] == args.seed:
                run.compare_reference(reference)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    calls = run.calls()
    failed = [rec for rec in calls if rec["failed"]]
    for rec in failed[:5]:
        print(f"FAILED {rec['name']}: {rec['error']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(run.passes)} passes, "
          f"{len(calls)} calls, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(calls):.4f})")
    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in per_layer(run, src).items()}
        wall = metrics["trace.wall_s"][0]
        for layer in tracing.LAYERS:
            share = metrics[f"{layer}.self_s"][0] / wall
            print(f"  share of traced wall_s  {layer:<18} {share:7.1%}")
    else:
        e2e, extra = end_to_end(run)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        for name, (value, unit) in extra.items():
            print(f"  {name:<28} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
