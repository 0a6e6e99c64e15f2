"""Golden rows of `sim translate`: five frozen runs, recorded once.

Each case runs the CLI in process and compares its CSV and aggregates with
the files in tests/data/.  The integer columns (sample index, box count,
below-eps flag) and the sampled s and t must match exactly; lambda1 and the
aggregates built from it may differ by 1e-12 relative, because the flow
scales come from libm's exp.  A change to the lattice kernel that moves a
pivot, a candidate or a count fails here.

To re-record after an intended change of the rows:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import math
import os

import pytest

from latflow import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MOMENT_BALL = {"center": [0.5], "radius": 0.45}
# criterion 3's line phi(s) = (s, 1/2 + s/3)
RATIONAL_LINE = {"n": 3, "k": 1,
                 "coords": [{"monomials": [{"exps": [1], "coeff": "1"}]},
                            {"monomials": [{"exps": [0], "coeff": "1/2"},
                                           {"exps": [1], "coeff": "1/3"}]}],
                 "center": [0.0], "radius": 1.0}


def _curve(n, exps, center=(0.0,), radius=1.0):
    return {"n": n, "k": 1,
            "coords": [{"monomials": [{"exps": [e], "coeff": "1"}]} for e in exps],
            "center": list(center), "radius": radius}


# name -> (curve, t grid, box radius, samples), at seed 1 each; moment4_t16
# is a large t, reached in four warm-started steps of n Delta = 16 (at most
# 18 each), which keep the enumeration inside its node budget; most
# candidates of rational_line lie on the boundary of the box, where the
# enumeration's sup-box clip cuts
CASES = {
    "parabola": (_curve(3, [1, 2]), "2,6", "1.5", 6),
    "moment4": (_curve(4, [1, 2, 3], **MOMENT_BALL), "2,4,6,8", "1.0", 6),
    "moment6": (_curve(6, [1, 2, 3, 4, 5], **MOMENT_BALL), "1,2,3", "0.5", 6),
    "moment4_t16": (_curve(4, [1, 2, 3], **MOMENT_BALL), "16", "1.5", 10),
    "rational_line": (RATIONAL_LINE, "2,4,6", "1.5", 6),
}


def run_case(name, workdir):
    """(csv text, aggregates text) of one case, written under workdir."""
    curve, t_grid, radius, samples = CASES[name]
    curve_path = os.path.join(workdir, f"{name}.json")
    with open(curve_path, "w") as fh:
        json.dump(curve, fh)
    out = os.path.join(workdir, f"{name}.csv")
    agg = os.path.join(workdir, f"{name}.agg.json")
    code = cli.main(["sim", "translate", "--curve", curve_path, "--t", t_grid,
                     "--samples", str(samples), "--seed", "1", "--radius", radius,
                     "--out", out, "--aggregates", agg])
    assert code == 0
    with open(out) as fh_csv, open(agg) as fh_agg:
        return fh_csv.read(), fh_agg.read()


def _close(got, want):
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_translate_rows_match_the_recorded_run(name, tmp_path):
    csv_text, agg_text = run_case(name, str(tmp_path))
    with open(os.path.join(DATA, f"translate_{name}.csv")) as fh:
        want_rows = list(csv.DictReader(fh))
    got_rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(got_rows) == len(want_rows) > 0
    for got, want in zip(got_rows, want_rows):
        for key in ("sample_index", "s", "t", "siegel_count", "below_eps"):
            assert got[key] == want[key], (key, got, want)
        assert _close(float(got["lambda1"]), float(want["lambda1"])), (got, want)

    with open(os.path.join(DATA, f"translate_{name}.agg.json")) as fh:
        want_agg = json.load(fh)
    got_agg = json.loads(agg_text)
    assert got_agg["config"] == want_agg["config"]
    assert len(got_agg["aggregates"]) == len(want_agg["aggregates"])
    for got, want in zip(got_agg["aggregates"], want_agg["aggregates"]):
        assert got.keys() == want.keys()
        for key in got:
            if key in ("min_lambda1", "max_lambda1"):
                assert _close(got[key], want[key]), (key, got, want)
            else:  # built from t, the counts and the flags alone
                assert got[key] == want[key], (key, got, want)


# name -> (the least node budget that runs the case, the sample and t whose
# walk needs all of it); each walk counts every candidate it clips to, one
# node each, whether it scores them one at a time or a run of them at once
LEAST_BUDGETS = {
    "parabola": (25, 2, 6.0),
    "moment4": (36, 1, 6.0),
    "moment6": (105, 5, 1.0),
    "moment4_t16": (108, 5, 16.0),
    "rational_line": (103, 0, 6.0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_least_node_budget_of_each_case_is_pinned(name, tmp_path, capsys):
    """The case runs within its least budget, and one node less exits 3
    naming the walk that ran out."""
    curve, t_grid, radius, samples = CASES[name]
    budget, sample, t = LEAST_BUDGETS[name]
    curve_path = os.path.join(str(tmp_path), f"{name}.json")
    with open(curve_path, "w") as fh:
        json.dump(curve, fh)
    argv = ["sim", "translate", "--curve", curve_path, "--t", t_grid, "--samples", str(samples),
            "--seed", "1", "--radius", radius, "--out", os.path.join(str(tmp_path), "rows.csv")]
    assert cli.main(argv + ["--budget", str(budget)]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--budget", str(budget - 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: sample {sample}, t = {t!r} "), err
    assert err.rstrip().endswith(f"enumeration exceeded the node budget ({budget - 1})"), err


def test_moment4_at_large_t_is_near_haar(tmp_path):
    """Shah's theorem for the non-degenerate moment curve: at t = 16 the
    mean box count is within criterion 4's 15% of Haar, (2 R)^4 = 81."""
    (agg,) = json.loads(run_case("moment4_t16", str(tmp_path))[1])["aggregates"]
    assert agg["haar_ref"] == 81.0
    assert agg["rel_dev"] <= 0.15, agg


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for case in sorted(CASES):
        run_case(case, DATA)
        os.remove(os.path.join(DATA, f"{case}.json"))
        for suffix in (".csv", ".agg.json"):
            os.replace(os.path.join(DATA, f"{case}{suffix}"),
                       os.path.join(DATA, f"translate_{case}{suffix}"))
