"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Each test runs real passes (fresh interpreters) of a workload, so the file
takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def bench_run(tmp_path):
    def make(workload, seed=run.DEFAULT_SEED):
        return run.Run(workload, seed, str(tmp_path))
    return make


def _bump_first_count(csv_bytes: bytes, by: int) -> bytes:
    lines = csv_bytes.decode().splitlines()
    fields = lines[1].split(",")
    fields[4] = str(int(fields[4]) + by)
    lines[1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def test_corrupted_output_counts_as_failed_call(bench_run):
    r = bench_run("orbit_n3")
    first = r.run_pass(trace=False)
    assert not [c for c in r.calls() if c["failed"]]
    csv_name = first["calls"][0]["outputs"][0]

    # an odd siegel_count breaks the v / -v pairing: the seed-independent
    # check catches it
    odd = _bump_first_count(first["outputs"][csv_name], 1).decode()
    call = workloads.build("orbit_n3", run.DEFAULT_SEED, r.workdir, cli=None)[0]
    agg = first["outputs"][first["calls"][0]["outputs"][1]].decode()
    assert any("siegel_count" in p for p in checks.check_translate(call.meta, odd, agg))

    # an even flip keeps the parity; a later pass is still judged against the
    # first one, and the reference comparison flags it at the default seed
    later = copy.deepcopy(first)
    later["outputs"][csv_name] = _bump_first_count(first["outputs"][csv_name], 2)
    r._judge(later)
    assert [c["failed"] for c in later["calls"]] == [True] + [False] * (len(later["calls"]) - 1)
    reference = checks.load_reference(checks.reference_path(HERE, "orbit_n3"))
    texts = {n: b.decode() for n, b in later["outputs"].items()}
    assert csv_name in checks.compare_reference(reference["outputs"], texts)
    texts = {n: b.decode() for n, b in first["outputs"].items()}
    assert checks.compare_reference(reference["outputs"], texts) == {}


def test_malformed_output_is_a_failed_call_not_a_crash(tmp_path):
    call = workloads.build("orbit_n3", run.DEFAULT_SEED, str(tmp_path), cli=None)[0]
    header = "sample_index,s,t,lambda1,siegel_count,below_eps\n"
    for texts in ([header, '{"aggregates": [{"t": 6.0}]}'],
                  [header + "0,x,6.0,1.0,0,0\n", "[]"],
                  ["", ""]):
        problems = worker.verify(call, texts)
        assert problems and all(isinstance(p, str) for p in problems)


def test_approx_check_allows_rounding_of_a_cancelling_residual():
    # exact_mix, seed 1754279591: at q = (13, -37) the terms of a.q + p are
    # about 25 and cancel to 1.2e-6, so the walk and the brute-force scan
    # differ by 1.5e-9 relative; the exact residual lies between them
    meta = {"target": ["0.633032959129028", "0.465660196238880"], "qmax": 60}
    text = (checks.APPROX_HEADER + "\n"
            "1,1;1,-1,0.09869315536790801,0.09869315536790801\n"
            "2,0;2,-1,0.06867960752224,0.27471843008896\n"
            "3,1;3,-2,0.030013547845667787,0.2701219306110101\n"
            "4,4;1,-3,0.0022079672450079357,0.03532747592012697\n"
            "10,10;-5,-4,0.002028610095879735,0.20286100958797348\n"
            "14,14;-4,-7,0.0001793571491273127,0.03515400122895329\n"
            "37,13;-37,9,1.207838803196637e-06,0.001653531321576196\n")
    assert checks.check_approx(meta, text) == []
    # a residual off by far more than rounding is still caught
    wrong = text.replace("1.207838803196637e-06,", "1.2078e-06,")
    assert checks.check_approx(meta, wrong)


def test_same_seed_gives_byte_identical_outputs(bench_run):
    r = bench_run("exact_mix")
    a = r.run_pass(trace=False)
    b = r.run_pass(trace=False)
    assert a["outputs"] and a["outputs"] == b["outputs"]
    assert not [c for c in r.calls() if c["failed"]]


def test_span_self_times_add_up_to_traced_wall(bench_run):
    r = bench_run("exact_mix")
    r.run_pass(trace=False)
    traced = r.run_pass(trace=True)
    assert not [c for c in r.calls() if c["failed"]]  # tracing changes no output
    spans = traced["spans"]
    roots = sum(s[3] - s[2] for s in spans if s[1] < 0)
    metrics = tracing.pass_metrics(spans, traced["counts"])
    assert metrics["trace.self_sum_s"] == pytest.approx(roots, rel=1e-9)
    # the harness loop between calls is the only time outside the root spans
    assert 0.95 * traced["wall_s"] <= metrics["trace.self_sum_s"] <= traced["wall_s"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(metrics["trace.self_sum_s"], rel=1e-9)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_bypass_predictions(bench_run, workload):
    r = bench_run(workload)
    r.run_pass(trace=False)
    traced = r.run_pass(trace=True)
    m = tracing.pass_metrics(traced["spans"], traced["counts"])
    grids = m["lab.grids.self_s"] / traced["wall_s"]
    reduction = m["lab.reduction.self_s"] / traced["wall_s"]
    if workload == "orbit_n3":
        assert grids > 0.5 and m["lab.reduction.reduce_embedded.calls"] == 0
    elif workload == "orbit_reduce":
        assert reduction > 0.5 and m["lab.grids.build.calls"] == 0
    else:  # only descent touches reduction
        assert m["lab.grids.build.calls"] == 0 and reduction < 0.05
        assert m["lab.reduction.reduce_embedded.calls"] == 0


def test_importtime_parse():
    t = run.import_times(os.path.join(run.ROOT, "src"))
    assert t["setup.import.latflow_s"] > t["setup.import.sympy_s"] > 0
    assert t["setup.import.latflow_s"] > t["setup.import.numpy_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit_n3",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not (tmp_path / ".perfbench_work").exists()


def test_benchmark_json_names_the_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(tracing.SPAN_METRICS) | set(tracing.COUNT_METRICS) | {
        f"{layer}.self_s" for layer in tracing.LAYERS} | {
        "lab.reduction.lll_sweeps", "trace.spans", "trace.self_sum_s", "trace.wall_s",
        "trace.untraced_wall_s", "trace.overhead_s", "setup.import.latflow_s",
        "setup.import.numpy_s", "setup.import.sympy_s"}
