"""One pass of a workload, in a fresh interpreter.

    python3 worker.py --root CHECKOUT --workload NAME --seed N --workdir DIR
                      --result FILE [--trace] [--verify]

Set-up imports `latflow.cli` from CHECKOUT/src and builds the inputs in DIR.
The timed phase then runs the deck once, one call after another, with no
warm-up, so each call pays what a command-line user pays. Untraced passes
time a fixed calibration loop before the first call and after each call;
run.py divides each call's latency by the mean of the two loops around it,
which takes out the host's speed at that moment. After it the worker
records its peak RSS, writes library results to DIR, optionally
verifies every output, and writes FILE (JSON). With --trace, spans are
recorded during the timed phase only and written into FILE.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def _run_call(cli, call) -> dict:
    start = time.perf_counter()
    error = None
    result = None
    try:
        if call.kind == "cli":
            rc = cli.main(call.argv)
            if rc != 0:
                error = f"exit code {rc}"
        else:
            result = call.fn(*call.args)
    except SystemExit as exc:  # argparse usage errors
        error = f"exit code {exc.code}"
    except Exception as exc:  # a failing call is counted, the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    return {"name": call.name, "s": time.perf_counter() - start,
            "error": error, "result": result}


def calibrate() -> float:
    """Seconds for a fixed loop of the kinds of work latflow does: Python
    integers, Fractions and small numpy products (about 5 ms on a 2-CPU
    Xeon VM at its fast state). The collector is off, so the program's live
    heap does not change the loop's cost."""
    from fractions import Fraction

    import numpy as np

    gc.disable()
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    frac = Fraction(0)
    for i in range(1, 400):
        frac += Fraction(1, i)
    m = np.arange(64.0).reshape(8, 8)
    for _ in range(100):
        m = m @ m.T / 1e3
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def verify(call, texts) -> list:
    """Problems with one call's outputs; a malformed output is a problem
    of that call, not a crash of the pass."""
    import checks

    try:
        return checks.check_call(call, texts)
    except Exception as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--verify", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import latflow.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"latflow was imported from {cli.__file__}, not {src}")
    import workloads

    calls = workloads.build(args.workload, args.seed, args.workdir, cli)
    setup_done = time.monotonic()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("call", _run_call)
    else:
        run = _run_call

    calib = []
    start = time.perf_counter()
    if tracer:
        records = [run(cli, call) for call in calls]
    else:
        calib.append(calibrate())
        records = []
        for call in calls:
            records.append(run(cli, call))
            calib.append(calibrate())
    wall = time.perf_counter() - start - sum(calib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = list(tracer.spans) if tracer else None
    counts = dict(tracer.counts) if tracer else None

    for call, rec in zip(calls, records):
        if call.kind == "lib" and rec["error"] is None:
            with open(os.path.join(args.workdir, call.outputs[0]), "w") as fh:
                json.dump(rec["result"], fh, sort_keys=True)
                fh.write("\n")
        del rec["result"]
        rec["outputs"] = call.outputs

    if args.verify:
        sys.path.insert(0, os.path.join(args.root, "tests"))  # oracles.py
        for call, rec in zip(calls, records):
            if rec["error"] is not None:
                continue
            texts = []
            for name in call.outputs:
                with open(os.path.join(args.workdir, name)) as fh:
                    texts.append(fh.read())
            problems = verify(call, texts)
            if problems:
                rec["error"] = "; ".join(problems[:3])

    payload = {"setup_done": setup_done, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
               "calls": records, "calib_s": calib, "spans": spans, "counts": counts}
    with open(args.result, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
