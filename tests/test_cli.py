"""End-to-end command-line checks via subprocess: output contracts, exit
codes, config merging, dry runs, and byte-level reproducibility."""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from latflow import cli, dioph, rootsys

CMD = [sys.executable, "-m", "latflow"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, timeout=300
    )


def write_parabola(path):
    data = {
        "n": 3,
        "k": 1,
        "coords": [
            {"monomials": [{"exps": [1], "coeff": "1"}]},
            {"monomials": [{"exps": [2], "coeff": "1"}]},
        ],
        "center": [0.0],
        "radius": 1.0,
    }
    path.write_text(json.dumps(data))
    return str(path)


def test_ext_prints_the_frozen_column():
    res = run_cli("dioph", "ext", "--n", "4", "--a", "1,2;3,4")
    assert res.returncode == 0
    assert res.stdout.split() == ["-2", "1", "-4", "3", "2"]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli("dioph", "ext", "--n", "5", "--a", "1,2;3,4").returncode == 2
    assert run_cli("dioph", "approx").returncode == 2  # missing required --a
    assert run_cli("nonsense").returncode == 2
    assert run_cli("dioph", "probe", "--a", "0.5", "--r", "2", "--qmax", "100",
                   "--target", "X").returncode == 2
    # t, the box radius or the seed out of range: exit 2 naming the value, no traceback
    curve = write_parabola(tmp_path / "p.json")
    # t = 200 and -400: the scales are finite, but e^800 overflows and e^-800 is 0
    for argv, named in ((["--t=1e3"], "t = 1000.0"), (["--t=nan"], "t = nan"),
                        (["--t=200"], "t = 200.0 is out of range for n = 3"),
                        (["--t=-400"], "t = -400.0 is out of range for n = 3"),
                        (["--t", "1", "--radius=inf"], "radius"),
                        # (2R)^3 underflows to 0, and 3 R^2 overflows to inf
                        (["--t=1", "--radius=1e-200"], "R = 1e-200 is out of range for n = 3"),
                        (["--t=1", "--radius=1e300"], "R = 1e+300 is out of range for n = 3"),
                        (["--t=1", "--seed=-1"], "seed must be >= 0, got -1")):
        res = run_cli("sim", "translate", "--curve", curve, "--samples", "2",
                      "--seed", "1", *argv)
        assert res.returncode == 2, res.stderr
        assert named in res.stderr and "Traceback" not in res.stderr
    # a budget below 1 is a usage error, not an exhausted search, and the W
    # constant c must be finite and positive: exit 2 naming the value, in a dry run too
    commands = [["dioph", "approx", "--a", "0.41", "--qmax", "10"],
                ["dioph", "exponent", "--a", "0.41", "--qmax", "10"],
                ["dioph", "probe", "--a", "0.41", "--r", "2", "--qmax", "10"],
                ["dirichlet", "--x", "0.41", "--delta", "0.5", "--t", "2,3"],
                ["sim", "translate", "--curve", curve, "--t", "1", "--samples", "2",
                 "--seed", "1"]]
    for argv in commands:
        for budget, dry in (("0", []), ("-5", []), ("0", ["--dry-run"])):
            assert cli.main([*argv, f"--budget={budget}", *dry]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: budget must be >= 1, got {budget}\n"
            assert captured.out == ""
    for c in ("nan", "-1", "0", "inf", "-inf"):
        assert cli.main([*commands[2], f"--c={c}"]) == 2
        assert capsys.readouterr().err == f"error: c must be finite and > 0, got {float(c)}\n"
    assert cli.main([*commands[2], "--c=0.5"]) == 0
    capsys.readouterr()
    # a vect T whose T^n overflows a double: exit 2 naming T and n
    for x, t, named in (("0.3,0.4", "1e200", "T = 1e+200, n = 2"),
                        ("0.41,0.73", "2,1e300", "T = 1e+300, n = 2")):
        assert cli.main(["dirichlet", "--x", x, "--delta", "0.5", "--t", t]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: T^n overflows a double at {named}\n"
        assert captured.out == ""


def test_example_refuses_a_field_with_a_square_factor(capsys):
    """18 = 2 * 3^2 and 50 = 2 * 5^2 are not squarefree (the odd-factor
    scan), while 10 = 2 * 5 is."""
    for d in ("18", "50"):
        assert cli.main(["sim", "example", "--n", "4", "--r", "2", "--D", d]) == 2
        assert capsys.readouterr().err == f"error: D must be squarefree and >= 2, got {d}\n"
    assert cli.main(["sim", "example", "--n", "4", "--r", "2", "--D", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["D"] == 10


def test_radicands_obey_one_rule_in_every_command(capsys):
    """sim example and a radical target refuse the same D with the same line:
    r8 = 2r2 is not a second form of one field element."""
    assert cli.main(["dioph", "ext", "--n", "4", "--a=r8,1;r2,1"]) == 2
    assert capsys.readouterr().err == (
        "error: bad entry 'r8': D must be squarefree and >= 2, got 8\n")
    # a 19-digit prime is refused by its size at once, with no trial division
    res = subprocess.run(CMD + ["sim", "example", "--n", "4", "--r", "2",
                                "--D", "1000000000000000003"],
                         capture_output=True, text=True, timeout=20)
    assert res.returncode == 2
    assert res.stderr == ("error: D must be at most 1000000000000, "
                          "got 1000000000000000003\n")


PARABOLA_JSON = ('{"n": 3, "k": 1, "coords": [{"monomials": [{"exps": [1], "coeff": "1"}]}, '
                 '{"monomials": [{"exps": [2], "coeff": "1"}]}]%s}')


@pytest.mark.parametrize("text, named", [
    ("", "Expecting value"),
    ("{not json", "Expecting property name"),
    ('{"n": %s}' % ("1" * 5000), "value has 5000 digits"),
    (PARABOLA_JSON % ', "radius": 1e999', "radius must be positive and finite, got inf"),
    (PARABOLA_JSON % ', "center": [-1e999]', "center must be finite, got [-inf]"),
    (PARABOLA_JSON % ', "center": [NaN]', "center must be finite, got [nan]"),
    (PARABOLA_JSON % ', "center": [1e308], "radius": 1e308',
     "|center| + radius must be finite, got center [1e+308] and radius 1e+308"),
], ids=["empty", "not-json", "long-int", "inf-radius", "inf-center", "nan-center",
        "ball-beyond-doubles"])
@pytest.mark.parametrize("dry", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_a_bad_curve_file_exits_2_naming_it(text, named, dry, tmp_path, capsys):
    """A curve file that is no JSON, holds an integer beyond the int-string
    limit, gives a radius or center that is not finite, or a parameter ball
    that reaches beyond the doubles exits 2 with one line naming the file,
    before any sample and in a dry run too."""
    curve, out = tmp_path / "bad.json", tmp_path / "out.csv"
    curve.write_text(text)
    assert cli.main(["sim", "translate", "--curve", str(curve), "--t", "1", "--samples",
                     "2", "--seed", "1", "--out", str(out)] + dry) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: curve file {curve}: ") and named in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("entry", ["1" * 5000, "r" + "1" * 5000, "1/" + "3" * 5000],
                         ids=["integer", "radicand", "denominator"])
def test_an_entry_beyond_the_int_string_limit_exits_2(entry, tmp_path, capsys):
    """An entry with a number of more than 4300 digits exits 2 on one short
    line giving the digit count, from a flag and from a config file."""
    assert cli.main(["dioph", "ext", "--n", "4", "--a", f"{entry},1;2,3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad entry ") and "a number of 5000 digits" in err
    assert len(err) < 200
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 4, "a": [[%s, 1], [2, 3]]}' % ("1" * 5000))
    assert cli.main(["dioph", "ext", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: ") and "value has 5000 digits" in err


def test_translate_of_a_two_parameter_curve_reruns_byte_identically(tmp_path):
    """Samples of a k = 2 curve go through the rejection loop; a rerun with
    the same seed writes the same bytes."""
    one = {"exps": [1, 0], "coeff": "1"}
    curve = tmp_path / "surface.json"
    curve.write_text(json.dumps({
        "n": 3, "k": 2, "center": [0.5, -0.25], "radius": 0.3,
        "coords": [{"monomials": [one]},
                   {"monomials": [{"exps": [0, 1], "coeff": "1"},
                                  {"exps": [2, 0], "coeff": "1/3"}]}]}))
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert cli.main(["sim", "translate", "--curve", str(curve), "--t", "0,2",
                         "--samples", "6", "--seed", "11", "--out", str(out)]) == 0
    body = outs[0].read_bytes()
    assert body == outs[1].read_bytes()
    assert len(body.decode().splitlines()) == 1 + 6 * 2


def test_missing_config_file_exits_4(tmp_path):
    res = run_cli("dioph", "ext", "--config", str(tmp_path / "absent.json"))
    assert res.returncode == 4


def test_budget_exhaustion_exits_3(tmp_path):
    res = run_cli("dioph", "approx", "--a", "0.41421356", "--qmax", "100000000",
                  "--budget", "100")
    assert res.returncode == 3
    assert "budget" in res.stderr.lower()
    # the flow kernel says where it stopped: sample, t, the time its basis
    # was reduced from and the node budget
    curve = write_parabola(tmp_path / "p.json")
    res = run_cli("sim", "translate", "--curve", curve, "--t", "2,4", "--samples", "3",
                  "--seed", "1", "--budget", "5")
    assert res.returncode == 3
    assert "sample 0" in res.stderr and "t = 2.0" in res.stderr
    assert "(reduced from t = 0.0)" in res.stderr
    assert "node budget (5)" in res.stderr


@pytest.mark.parametrize("argv, size", [
    (["dirichlet", "--x", "0.41,0.73", "--form", "lf", "--delta", "1", "--t", "2,1e300"],
     "dirichlet lf at T = 1e+300: search needs 4.00e+600 points for qmax=1.00e+300"),
    (["dioph", "approx", "--a", "0.41,0.73", "--qmax", "100000000000000000000"],
     "search needs 4.00e+40 points for qmax=1.00e+20"),
])
def test_budget_error_gives_the_search_size_in_short(argv, size, capsys):
    """A search far beyond the budget exits 3 on one short line naming the
    budget, not with the hundreds of digits of its point count."""
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"error: {size}, budget={dioph.DEFAULT_ENUM_BUDGET}\n"
    assert len(err.encode()) < 200


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "a": "1,2;3,4", "radiu": 1.0}))
    res = run_cli("dioph", "ext", "--config", str(cfg))
    assert res.returncode == 2
    assert "radiu" in res.stderr


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run_cli("dioph", "ext", "--config", str(cfg)).returncode == 2


def test_dry_run_prints_plan_without_computing(tmp_path):
    curve = write_parabola(tmp_path / "p.json")
    out = tmp_path / "report.csv"
    res = run_cli(
        "sim", "translate", "--curve", curve, "--t", "0,1", "--samples", "5",
        "--seed", "7", "--out", str(out), "--dry-run",
    )
    assert res.returncode == 0
    plan = json.loads(res.stdout)
    assert plan["command"] == "sim translate"
    assert plan["plan"]["samples"] == 5
    assert plan["plan"]["seed"] == 7
    assert plan["plan"]["curve"] == {"path": curve, "n": 3, "k": 1}
    assert not out.exists()


def test_in_process_dry_runs_carry_nothing_over(capsys):
    """main parses with one parser per process; a plan holds only what its
    own call gave, whatever ran before it."""
    def plan(*argv):
        assert cli.main([*argv, "--dry-run"]) == 0
        return json.loads(capsys.readouterr().out)

    first = plan("dioph", "approx", "--a", "1/3", "--qmax", "9", "--budget", "7",
                 "--out", "x.csv")
    assert first["plan"]["budget"] == 7 and first["plan"]["out"] == "x.csv"
    second = plan("dirichlet", "--x", "0.5", "--delta", "1", "--t", "2")
    assert second == {"command": "dirichlet", "plan": {
        "x": [0.5], "form": "vect", "delta": [1.0], "t": [2.0],
        "budget": dioph.DEFAULT_ENUM_BUDGET, "out": None}}
    third = plan("dioph", "approx", "--a", "1/3", "--qmax", "9")
    assert third["plan"]["budget"] == dioph.DEFAULT_ENUM_BUDGET
    assert third["plan"]["out"] is None


def test_config_provides_and_flags_override(tmp_path):
    curve = write_parabola(tmp_path / "p.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "curve": curve, "t": [0.0], "samples": 2, "seed": 1, "radius": 1.5,
    }))
    res = run_cli("sim", "translate", "--config", str(cfg), "--samples", "3", "--dry-run")
    assert res.returncode == 0
    plan = json.loads(res.stdout)["plan"]
    assert plan["samples"] == 3  # flag wins
    assert plan["seed"] == 1  # config fills the rest


def test_translate_csv_shape_and_determinism(tmp_path):
    curve = write_parabola(tmp_path / "p.json")
    args = [
        "sim", "translate", "--curve", curve, "--t", "0,1", "--samples", "4",
        "--seed", "42", "--radius", "1.5", "--eps", "0.1",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    body1, body2 = out1.read_bytes(), out2.read_bytes()
    assert body1 == body2  # same config + seed -> identical bytes
    lines = body1.decode().strip().split("\n")
    assert len(lines) == 1 + 4 * 2  # header + samples x t-grid
    assert lines[0] == "sample_index,s,t,lambda1,siegel_count,below_eps"


def test_translate_rejects_repeated_t(tmp_path):
    curve = write_parabola(tmp_path / "p.json")
    out = tmp_path / "r.csv"
    res = run_cli("sim", "translate", "--curve", curve, "--t", "2,2", "--samples", "2",
                  "--seed", "1", "--out", str(out))
    assert res.returncode == 2
    assert "repeated t" in res.stderr
    assert not out.exists()


def test_translate_seed_required(tmp_path):
    curve = write_parabola(tmp_path / "p.json")
    res = run_cli("sim", "translate", "--curve", curve, "--t", "0", "--samples", "2")
    assert res.returncode == 2


def test_example_emits_a_loadable_curve(tmp_path):
    out = tmp_path / "line.json"
    res = run_cli("sim", "example", "--n", "4", "--r", "2", "--D", "2", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4 and data["span"]["d"] == 2
    # the emitted file doubles as a curve input for sim translate
    res2 = run_cli(
        "sim", "translate", "--curve", str(out), "--t", "0", "--samples", "2",
        "--seed", "3",
    )
    assert res2.returncode == 0
    assert "sample_index" in res2.stdout


def test_kempf_output():
    res = run_cli("kempf", "--v", "1,0", "--rep", "standard", "--n", "2")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["unstable"] is True
    assert data["b_squared"] == [1, 2]
    assert data["lambda_star"] == [1, -1]
    assert data["semistable"] is False
    res2 = run_cli("kempf", "--v", "1,1", "--rep", "standard", "--n", "2")
    assert json.loads(res2.stdout)["semistable"] is True


def test_roots_check_all():
    res = run_cli("roots", "check", "--all", "--max-rank", "3")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    passes = {tuple(entry) for entry in data["pass_set"]}
    assert ("A", 2, 1) in passes and ("C", 2, 1) in passes
    assert ("A", 3, 2) not in passes
    for report in data["reports"]:
        assert {"family", "rank", "weight_index", "phi1", "pi_descriptor", "witnesses"} <= set(report)


@pytest.mark.parametrize("max_rank", ["0", "5", "-1"])
def test_roots_check_all_rejects_a_max_rank_out_of_range(max_rank, monkeypatch, capsys):
    def build(family, rank):
        raise AssertionError(f"built {family}{rank}")

    monkeypatch.setattr(rootsys, "build_root_system", build)
    assert cli.main(["roots", "check", "--all", "--max-rank", max_rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max rank {max_rank} out of the supported range 1..4\n"


@pytest.mark.parametrize("single, named", [
    (["--family", "D", "--rank", "4", "--weight", "9"], "--family, --rank, --weight"),
    (["--weight", "1"], "--weight"),
], ids=["all-three", "weight"])
def test_roots_check_all_refuses_the_single_check_flags(single, named, capsys):
    """--all scans every minuscule weight, so a --family, --rank or --weight
    given with it would be ignored; it is refused by name instead."""
    assert cli.main(["roots", "check", "--all", "--max-rank", "1", *single]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: roots check --all scans every weight; drop {named}\n"


# times one in-process sim translate run of the curve in argv[1]
_TIMED_TRANSLATE = """
import contextlib, io, sys, time
from latflow import cli
err = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sim", "translate", "--curve", sys.argv[1], "--t", "1",
                     "--samples", "1", "--seed", "1"])
print(code, time.perf_counter() - start, err.getvalue(), sep="\\n", end="")
"""


@pytest.mark.parametrize("k", [11, 24])
def test_a_curve_with_too_many_parameters_exits_2_at_once(k, tmp_path):
    """The unit ball holds 9.2e-4 of the cube [-1, 1]^k at k = 11 and 1.2e-10
    at k = 24, so rejection sampling would take thousands to billions of
    draws a sample: the run is refused before the first draw. It runs in a
    child with a timeout, so a sampler that never ends fails the test."""
    curve = write_k_curve(tmp_path / "k.json", k)
    out = subprocess.run([sys.executable, "-c", _TIMED_TRANSLATE, curve], capture_output=True,
                         text=True, timeout=30, check=True).stdout
    code, seconds, err = out.split("\n", 2)
    assert code == "2" and float(seconds) < 1.0
    assert err.startswith(f"error: a curve with k = {k} parameters is refused: ")
    assert "below 0.001 (k <= 10)" in err


def test_a_ten_parameter_curve_still_samples(tmp_path, capsys):
    curve = write_k_curve(tmp_path / "k10.json", 10)
    assert cli.main(["sim", "translate", "--curve", curve, "--t", "1", "--samples", "3",
                     "--seed", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 and all(len(row.split(",")[1].split(";")) == 10 for row in rows)


@pytest.mark.parametrize("a", ["1,2;3", "0.1,0.2;0.3", "1;0.5,2", "0.5;x,1/0"])
@pytest.mark.parametrize("dry", [False, True])
def test_a_ragged_target_exits_2_before_its_entries_are_read(a, dry, capsys):
    """Exact and decimal targets share one row-length check, made before any
    entry is read, so a bad entry in a ragged target is not what is named,
    and a dry run refuses it too."""
    rows = [len(row.split(",")) for row in a.split(";")]
    argv = ["dioph", "approx", "--a", a, "--qmax", "3"] + ["--dry-run"] * dry
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"error: ragged target matrix: rows 1 and 2 have "
                                       f"{rows[0]} and {rows[1]} entries\n")


# one valid argv of each command in cli.COMMANDS; CURVE is the parabola
ONE_RUN = {
    "dioph approx": "--a 1/3,1-r2 --qmax 5",
    "dioph exponent": "--a 1/3,1-r2 --qmax 10",
    "dioph ext": "--n 4 --a 1,2;3,4",
    "dioph probe": "--a 0.41 --r 2 --qmax 3",
    "dirichlet": "--x 0.41,0.73 --form lf --delta 0.5,0.1 --t 2,3",
    "sim translate": "--curve CURVE --t 1,2 --samples 2 --seed 1",
    "sim example": "--n 4 --r 2 --D 2",
    "kempf": "--v 1,2,0,0,0,0 --rep wedge2 --n 4",
    "roots build": "--family C --rank 2",
    "roots check": "--family A --rank 2 --weight 1",
}


@pytest.mark.parametrize("command", [command for command, *_ in cli.COMMANDS])
def test_out_holds_the_bytes_stdout_would(command, tmp_path, capsys):
    """Every command writes its result through one writer: --out FILE gets
    the bytes the run prints without it, and stdout reads `wrote FILE`."""
    argv = command.split() + ONE_RUN[command].replace(
        "CURVE", write_parabola(tmp_path / "p.json")).split()
    out = tmp_path / "result"
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert printed
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_bytes() == printed.encode()


def test_aggregates_are_written_the_same_with_and_without_out(tmp_path, capsys):
    argv = ["sim", "translate", "--curve", write_parabola(tmp_path / "p.json"), "--t", "1,2",
            "--samples", "2", "--seed", "1"]
    out, agg, agg_with_out = tmp_path / "rows.csv", tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv) == 0
    csv = capsys.readouterr().out
    assert cli.main(argv + ["--aggregates", str(agg)]) == 0
    assert capsys.readouterr().out == f"{csv}wrote {agg}\n"
    assert cli.main(argv + ["--out", str(out), "--aggregates", str(agg_with_out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\nwrote {agg_with_out}\n"
    assert out.read_bytes() == csv.encode()
    assert agg.read_bytes() == agg_with_out.read_bytes()
    payload = json.loads(agg.read_text())
    assert agg.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Checks a command makes when it runs, which --dry-run leaves to the run;
# the cli docstring and README name each of them
RUN_TIME_CHECKS = [
    (["kempf", "--v", "0,1;0,0", "--rep", "wedge2", "--n", "2"],
     "representation wedge2 takes a flat vector"),
    (["dioph", "ext", "--n", "3", "--a", "1,2;3,4"], "n must be at least 4"),
    (["roots", "check", "--family", "A", "--rank", "2"],
     "roots check needs either --all or all three of --family, --rank, --weight"),
    (["roots", "check", "--all", "--family", "D"],
     "roots check --all scans every weight; drop --family"),
    (["sim", "translate", "--curve", "K11", "--t", "1", "--samples", "1", "--seed", "1"],
     "a curve with k = 11 parameters is refused: the unit ball holds 0.00092 of the "
     "cube [-1, 1]^11 that samples are drawn from, below 0.001 (k <= 10)"),
]


def write_k_curve(path, k):
    """The parabola in its first of k parameters."""
    first = [1] + [0] * (k - 1)
    path.write_text(json.dumps({"n": 3, "k": k, "coords": [
        {"monomials": [{"exps": first, "coeff": "1"}]},
        {"monomials": [{"exps": [2 * e for e in first], "coeff": "1"}]}]}))
    return str(path)


@pytest.mark.parametrize("argv, message", RUN_TIME_CHECKS,
                         ids=["kempf-wedge2-matrix", "dioph-ext-n3", "roots-check-no-weight",
                              "roots-check-all-family", "sim-translate-k11"])
def test_a_dry_run_leaves_the_run_time_checks_to_the_run(argv, message, tmp_path, capsys):
    """--dry-run checks each option's value alone: these plans pass it, and
    the run refuses them with exit 2."""
    argv = [write_k_curve(tmp_path / "k11.json", 11) if a == "K11" else a for a in argv]
    assert cli.main([*argv, "--dry-run"]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_roots_build():
    res = run_cli("roots", "build", "--family", "C", "--rank", "2")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["family"] == "C" and len(data["roots"]) == 8


def test_dirichlet_json():
    res = run_cli("dirichlet", "--x", "0.5", "--form", "vect", "--delta", "1",
                  "--t", "2,4")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["verdict"] == "improvable-evidence"
    assert [row["T"] for row in data["rows"]] == [2.0, 4.0]


def test_probe_json():
    res = run_cli("dioph", "probe", "--a", "0.41421356237309503", "--r", "2",
                  "--qmax", "10000")
    assert res.returncode == 0
    assert json.loads(res.stdout)["kind"] == "evidence-nonmember"


@pytest.mark.parametrize("target", ["W", "Wprime"])
def test_probe_of_a_tiny_rational_is_certified_with_quality_zero(target, capsys):
    """1e-200 is read exactly, so its certificate has qnorm 10^200; an exact
    zero has quality 0 without the power qnorm**r, which overflows."""
    argv = ["dioph", "probe", "--a", "1e-200", "--r", "2", "--qmax", "3", "--target", target]
    assert cli.main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "certified-member"
    [witness] = data["witnesses"]
    assert witness["qnorm"] == 10**200 and witness["quality"] == 0.0


# -- edges of the coerced options, in process ----------------------------------


@pytest.mark.parametrize("argv, entry", [
    (["dirichlet", "--x", "0.41", "--delta", "0.5", "--t", "2,,4"], "''"),
    (["dirichlet", "--x", "0.41,,0.73", "--delta", "0.5", "--t", "2,4"], "''"),
    (["dirichlet", "--x", "0.41", "--delta", "0.5,", "--t", "2,4"], "''"),
    (["dirichlet", "--x", "0.41", "--delta", "0.5", "--t", "2, ,4"], "' '"),
    (["sim", "translate", "--curve", "CURVE", "--t", "1,,2", "--samples", "2",
      "--seed", "1"], "''"),
])
def test_an_empty_entry_in_a_number_list_exits_2(argv, entry, edge_dir, capsys):
    """A number list refuses an empty entry by name, as a matrix option does,
    instead of dropping it; an empty option is still an empty list."""
    argv = [a.replace("CURVE", str(edge_dir / "p.json")) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: expected a number, got {entry}\n"
    assert captured.out == ""
    assert cli.main(["dirichlet", "--x=", "--delta", "0.5", "--t", "2"]) == 2
    assert capsys.readouterr().err == "error: empty number list\n"


@pytest.mark.parametrize("argv, named", [
    (["dioph", "ext", "--n", "4", "--a", "1/0,2;3,4"], "1/0"),
    (["dioph", "approx", "--a", "1/0", "--qmax", "3"], "1/0"),
    (["dioph", "approx", "--a", "0.5,1/0", "--qmax", "3"], "1/0"),
    (["dioph", "approx", "--a", "1e400", "--qmax", "3"], "1000000"),
    (["dioph", "exponent", "--a", "1e400", "--qmax", "10"], "1000000"),
    (["dirichlet", "--x", "0.5", "--delta", "1", "--t", "nan"], "nan"),
    (["dirichlet", "--x", "0.5", "--delta", "1", "--t", "2,inf"], "inf"),
    (["dirichlet", "--x", "nan,0.2", "--delta", "1", "--t", "2"], "nan"),
    # 0.0 ** -0.5 divides by zero
    (["dioph", "approx", "--a", "0.5", "--qmax", "0", "--r", "-0.5"], "qmax must be >= 1"),
])
def test_zero_denominators_and_non_finite_values_exit_2(argv, named, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv, config, named", [
    (["dioph", "ext"], {"n": 4, "a": [[math.nan, 1], [2, 3]]}, "nan"),
    (["dioph", "ext"], {"n": 4, "a": [[math.inf, 1], [2, 3]]}, "inf"),
    (["kempf"], {"v": [math.inf, 1, 0], "n": 3}, "inf"),
    (["dioph", "approx"], {"a": [[0.5, 10**400]], "qmax": 5}, str(10**400)),
    (["dirichlet"], {"x": [10**400], "delta": [1], "t": [2]}, str(10**400)),
], ids=["ext-nan", "ext-inf", "kempf-inf", "approx-int-beyond-double",
        "dirichlet-int-beyond-double"])
def test_non_finite_and_out_of_range_config_entries_exit_2(argv, config, named, tmp_path,
                                                            capsys):
    """A config entry that is no finite number, or an integer beyond the
    doubles in a float target, exits 2 naming the entry (not a traceback)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {named}" in err


EDGE_NUMBERS = ["0", "-1", "+2", "2.5", "-0.5", "1e1", "1E-3", "-2.5e1", "1/3", "-7/2",
                "1/0", "nan", "-inf", "inf", "1e400", "-1e400", "1.5e400", "1e-200", "1e300",
                "x"]
EDGE_INTS = ["0", "-1", "+2", "2.5", "1e3", "1/0", "nan", "inf", "1e400", "x"]
RADICALS = ["1+r2", "-1/2-3/4r2", "r5", "2r3", "1-1/0r2", "12r2"]
# JSON values a config may hold where a flag can only give a string
JSON_VALUES = [True, False, 3, -1, 2.5, float("inf"), float("nan"),
               [[1, 2], [3]], [1, [2]], [[True]], [], {},
               [[float("nan"), 1]], [float("inf"), 1, 0], [[0.5, 10**400]]]


def _joined(entries, sep, max_size):
    return st.lists(entries, min_size=1, max_size=max_size).map(sep.join)


NUMBER = st.sampled_from(EDGE_NUMBERS)
INT = st.sampled_from(EDGE_INTS)
NUMBER_LIST = _joined(NUMBER, ",", 3)
# mixed radicals and ragged rows
MATRIX = _joined(_joined(st.sampled_from(EDGE_NUMBERS + RADICALS), ",", 3), ";", 2)
NAME = st.sampled_from(["x", "E", "wedge9", ""])

# command -> {option: (a valid value, edge values)}; a flag is None when left
# off and True when set
COMMANDS = {
    ("dioph", "approx"): {"a": ("0.41,0.73", MATRIX), "qmax": ("3", INT),
                          "r": ("1", NUMBER), "budget": ("1000", INT)},
    ("dioph", "exponent"): {"a": ("1/3,1-r2", MATRIX), "qmax": ("10", INT)},
    ("dioph", "ext"): {"n": ("4", INT), "a": ("1,2;3,4", MATRIX)},
    ("dioph", "probe"): {"a": ("0.41", MATRIX), "r": ("2", NUMBER), "qmax": ("3", INT),
                         "target": ("W", NAME), "c": ("1", NUMBER)},
    ("dirichlet",): {"x": ("0.41,0.73", NUMBER_LIST), "form": ("lf", NAME),
                     "delta": ("0.5", NUMBER_LIST), "t": ("2,3", NUMBER_LIST)},
    ("kempf",): {"v": ("1,0", st.one_of(NUMBER_LIST, MATRIX)),
                 "rep": ("standard", NAME), "n": ("2", INT)},
    ("roots", "build"): {"family": ("C", NAME), "rank": ("2", INT)},
    ("roots", "check"): {"family": ("A", NAME), "rank": ("2", INT), "weight": ("1", INT),
                         "all": (None, st.just(True)), "max_rank": ("2", INT)},
    ("sim", "example"): {"n": ("4", INT), "r": ("2", INT), "D": ("2", INT)},
    ("sim", "translate"): {"curve": ("CURVE", st.just("CURVE")), "t": ("1,2", NUMBER_LIST),
                           "samples": ("2", INT), "seed": ("1", INT),
                           "radius": ("1.5", NUMBER), "eps": ("0.1", NUMBER),
                           "budget": ("100000", INT)},
}


@st.composite
def cli_calls(draw):
    """(argv, config, fails) for one command: each option keeps its valid
    value, takes an edge value, is left out, or moves to the config file with
    its string, a JSON value or a float. `fails` is set when an integer option
    reads a non-integral number from the config, which must exit 2."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, config, fails = list(command), {}, False
    for name, (valid, edges) in COMMANDS[command].items():
        where = draw(st.sampled_from(["valid", "valid", "edge", "config", "omit"]))
        value = draw(edges) if where == "edge" else valid
        if where == "omit" or value is None:
            continue
        if where == "config":
            got = draw(st.one_of(st.just(value), st.sampled_from(JSON_VALUES), st.floats()))
            config[name] = got
            fails = fails or (edges is INT and isinstance(got, float) and not got.is_integer())
        else:
            flag = "--" + name.replace("_", "-")
            argv.append(flag if value is True else f"{flag}={value}")
    return argv, config, fails


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges")
    write_parabola(path / "p.json")
    return path


@given(cli_calls())
@settings(max_examples=300)
def test_cli_input_edges_exit_cleanly(edge_dir, call):
    """No coerced option value ends in a traceback: every run exits 0, 2 or 3,
    and 2 when an integer option got a non-integral number."""
    argv, config, fails = call
    curve = str(edge_dir / "p.json")
    argv = [a.replace("CURVE", curve) for a in argv]
    if config:
        cfg = edge_dir / "cfg.json"
        cfg.write_text(json.dumps(config).replace("CURVE", curve))
        argv += ["--config", str(cfg)]
    assert cli.main(argv) in ((2,) if fails else (0, 2, 3))


def _valid_argv(command, left_out, edge_dir):
    """The command with every option but left_out at its valid value."""
    argv = list(command)
    for other, (valid, _) in COMMANDS[command].items():
        if other != left_out and valid is not None:
            argv.append(f"--{other.replace('_', '-')}={valid}")
    return [a.replace("CURVE", str(edge_dir / "p.json")) for a in argv]


# every integer option of the commands above, by command
INT_OPTIONS = [(command, opt.name) for command in sorted(COMMANDS)
               for opt in cli.build_parser().parse_args(list(command)).opts
               if opt.coerce in (cli._co_int, cli._co_budget)]


@pytest.mark.parametrize("command, name", INT_OPTIONS)
def test_non_integral_config_number_exits_2(command, name, edge_dir, capsys):
    """A JSON float from --config is not truncated to an integer option."""
    argv = _valid_argv(command, name, edge_dir)
    cfg = edge_dir / "int.json"
    cfg.write_text(json.dumps({name: 2.9}))
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: expected an integer, got 2.9\n"


# every float and float-list option of the commands above, by command
FLOAT_OPTIONS = [(command, opt.name, opt.coerce is cli._co_float_list)
                 for command in sorted(COMMANDS)
                 for opt in cli.build_parser().parse_args(list(command)).opts
                 if opt.coerce in (cli._co_float, cli._co_float_list)]


@pytest.mark.parametrize("command, name, listed", FLOAT_OPTIONS)
def test_boolean_config_number_exits_2(command, name, listed, edge_dir, capsys):
    """A JSON true from --config is not the number 1, alone or in a list."""
    argv = _valid_argv(command, name, edge_dir)
    cfg = edge_dir / "bool.json"
    cfg.write_text(json.dumps({name: [True] if listed else True}))
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: expected a number, got True\n"


def test_integral_config_number_is_an_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": "1/3", "qmax": 3.0}))
    assert cli.main(["dioph", "approx", "--config", str(cfg), "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["plan"]["qmax"] == 3
