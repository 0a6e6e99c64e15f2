"""Command-line front end.

Five command groups mirror the library: diophantine probes (dioph),
improvability tests for the pigeonhole inequalities (dirichlet), orbit
experiments on lattice space (sim), one-parameter instability optimizers
(kempf), and root-system scans (roots).

One table, COMMANDS, declares each command once: its name, help, options and
runner. build_parser builds every parser from it and gives each command
--out, --config and --dry-run. A runner returns its result, a text or a JSON
payload, and main writes it through the one writer, _emit: atomically to the
--out path, followed by a "wrote PATH" line on stdout, or to stdout itself.
sim translate alone writes its CSV through ExperimentReport.write_csv; its
--aggregates goes through _emit.

Every leaf command accepts --config pointing at a JSON file whose keys mirror
the flag names (dashes and underscores are interchangeable); explicit flags
override config values. --dry-run checks each option's value, prints the
fully resolved plan as JSON, and exits without computing anything. It leaves
the checks that a command makes when it runs to the run, which then exits 2:
a matrix --v for kempf --rep wedge2, dioph ext --n below 4, roots check
without --all or all of --family, --rank and --weight, roots check --all
with any of them, and a sim translate curve with more than 10 parameters.
Runs with the same resolved config and seed produce identical bytes.

Exit codes: 0 success, 2 bad usage or input, 3 search budget exhausted,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from . import dioph
from .errors import BudgetError, InputError, shown
from .exact import ExactMatrix, ExactScalar
from .flows import Curve, curve_to_json, load_curve
from .instability import kempf_optimum
from .lab.experiments import atomic_write_text, translate_experiment
from .lab.kfield import quadratic_subspace_example
from .lab.reduction import DEFAULT_NODE_BUDGET
from .rootsys import (
    build_root_system,
    classification_check,
    is_minuscule,
    minuscule_checks,
    saturate,
)

# -- option coercion ----------------------------------------------------------
#
# Flags arrive as strings, config values as whatever JSON gave us. Both go
# through the same coercer so a value behaves identically no matter where it
# came from.


def _co_int(raw) -> int:
    # a config file gives JSON numbers: 3.0 reads as 3, and 2.9 is refused, not truncated
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise InputError(f"expected an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"expected an integer, got {raw!r}")


def _co_budget(raw) -> int:
    # a budget below 1 admits no work, so it is a usage error, not an exhausted search
    budget = _co_int(raw)
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    return budget


def _co_float(raw) -> float:
    # a JSON true or false is not the number 1 or 0
    try:
        if not isinstance(raw, bool):
            return float(raw)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"expected a number, got {raw!r}")


def _co_str(raw) -> str:
    if not isinstance(raw, str):
        raise InputError(f"expected a string, got {raw!r}")
    return raw


def _co_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    raise InputError(f"expected a boolean, got {raw!r}")


def _co_float_list(raw) -> List[float]:
    if isinstance(raw, str):
        # an empty entry, "2,,4" or "2,", is refused by name as in a matrix
        parts = raw.split(",") if raw.strip() else []
    elif isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        raise InputError(f"expected a comma list of numbers, got {raw!r}")
    if not parts:
        raise InputError("empty number list")
    return [_co_float(p) for p in parts]


def _entry(e) -> ExactScalar:
    """One entry of a matrix, vector or target option, read exactly: an int,
    a finite float, or a string such as 3/7, 1-2r5 (1 - 2*sqrt(5)) or a
    decimal literal like 0.4142."""
    if isinstance(e, str):
        try:
            return ExactScalar.parse(e)
        except InputError as exc:
            try:
                return ExactScalar(Fraction(e))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"bad entry {shown(repr(e))}: {exc}") from None
    if (isinstance(e, int) and not isinstance(e, bool)
            or isinstance(e, float) and math.isfinite(e)):
        return ExactScalar(e)
    raise InputError(f"bad entry {e!r}: expected an integer, a finite number or a string")


def _grid(raw, expected: str):
    """(rows, written as rows) of a grid option. A string splits into rows at
    ';' and into stripped entries at ','; a config list is a list of rows or
    one flat row."""
    if isinstance(raw, str):
        return [[e.strip() for e in r.split(",")] for r in raw.split(";")], ";" in raw
    if isinstance(raw, (list, tuple)) and raw:
        if all(isinstance(r, (list, tuple)) for r in raw):
            return [list(r) for r in raw], True
        return [list(raw)], False
    raise InputError(f"expected {expected}, got {raw!r}")


def _co_matrix(raw) -> ExactMatrix:
    """Rows separated by ';', entries by ','; config files may also use
    nested JSON arrays. Each entry is read by _entry."""
    rows, _ = _grid(raw, "a matrix")
    return ExactMatrix([[_entry(e) for e in row] for row in rows])


def _target_matrix(raw):
    """Matrix coercion for approximation targets.

    Entries written as integers, fractions (3/7) or radical combinations
    (1-2r5) keep the exact path, with its zero-residual certificates; any
    entry carrying a decimal point turns the whole target into a float
    matrix, each entry the double nearest its exact value, and the search
    runs numerically. Rows of unequal length are refused before any entry
    is read.
    """
    grid, _ = _grid(raw, "a matrix")
    for i, row in enumerate(grid):
        if len(row) != len(grid[0]):
            raise InputError(f"ragged target matrix: rows 1 and {i + 1} have "
                             f"{len(grid[0])} and {len(row)} entries")
    if not any(isinstance(e, float) or (isinstance(e, str) and "." in e)
               for row in grid for e in row):
        return ExactMatrix([[_entry(e) for e in row] for row in grid])
    out = []
    for row in grid:
        out.append([])
        for e in row:
            try:
                out[-1].append(float(_entry(e)))
            except OverflowError:
                raise InputError(f"matrix entry {e!r} is not a finite double")
    return out


def _co_frac_rows(raw):
    """Vector or matrix of exact rationals. Returns a flat list for vector
    input and a list of rows when ';' (or nesting) splits it into rows."""
    grid, nested = _grid(raw, "a vector or matrix")
    rows = [[_entry(e).as_fraction() for e in row] for row in grid]
    return rows if nested else rows[0]


def _co_rep(raw):
    s = _co_str(raw)
    if s in ("standard", "adjoint"):
        return s
    m = re.fullmatch(r"wedge(\d+)", s)
    if m:
        return ("wedge", int(m.group(1)))
    raise InputError(f"unknown representation {s!r}; use standard, adjoint or wedgeK")


def _choice(name: str, *values: str, fold=str) -> Callable:
    """A coercer taking a string that, after fold, is one of values."""
    def coerce(raw) -> str:
        s = fold(_co_str(raw))
        if s not in values:
            raise InputError(f"{name} must be one of {', '.join(values)}, got {raw!r}")
        return s
    return coerce


@dataclass(frozen=True)
class _LoadedCurve:
    path: str
    curve: Curve


def _co_curve(raw) -> _LoadedCurve:
    path = _co_str(raw)
    return _LoadedCurve(path, load_curve(path))


# -- options and their resolution ---------------------------------------------


@dataclass(frozen=True)
class Opt:
    name: str
    coerce: Callable
    help: str
    required: bool = False
    default: object = None
    flag: bool = False


def _resolve(args, opts: Sequence[Opt], command: str):
    """Merge config file and flags (flags win) and coerce: the value of
    every option by name."""
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or an int beyond the digit limit
                raise InputError(f"config {args.config}: {exc}")
        if not isinstance(data, dict):
            raise InputError(f"config {args.config}: top level must be an object")
        cfg = {str(k).replace("-", "_"): v for k, v in data.items()}
        unknown = sorted(set(cfg) - {o.name for o in opts})
        if unknown:
            raise InputError(f"config keys not understood by '{command}': "
                             + ", ".join(unknown))
    values = {}
    for opt in opts:
        raw = getattr(args, opt.name, None)
        if raw is None:
            raw = cfg.get(opt.name)
        if raw is None:
            if opt.required:
                raise InputError(
                    f"{command}: --{opt.name.replace('_', '-')} is required "
                    "(flag or config)")
            value = opt.default
        else:
            value = opt.coerce(raw)
        values[opt.name] = value
    return values


# -- output -------------------------------------------------------------------


def _plain(value):
    """value as JSON: an exact matrix by its serialized rows, a Fraction as
    its string, a loaded curve by its path and shape, a ("wedge", k)
    representation as wedgeK, and lists and dicts entry by entry."""
    # JSON scalars first: they are most of a payload's entries
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, list):
        return [_plain(x) for x in value]
    if isinstance(value, dict):
        return {k: _plain(x) for k, x in value.items()}
    if isinstance(value, ExactMatrix):
        return [[x.serialize() for x in row] for row in value.rows]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, _LoadedCurve):
        return {"path": value.path, "n": value.curve.n, "k": value.curve.k}
    if isinstance(value, tuple) and value[:1] == ("wedge",):
        return f"wedge{value[1]}"
    return value


def _emit(result, out: Optional[str]) -> None:
    """Write a result, text as it is and a payload as JSON through _plain,
    atomically to out, or to stdout when out is None."""
    if not isinstance(result, str):
        result = json.dumps(_plain(result), indent=2, sort_keys=True) + "\n"
    if out:
        atomic_write_text(out, result)
        print(f"wrote {out}")
    else:
        sys.stdout.write(result)


# -- runners ------------------------------------------------------------------
#
# A runner takes the resolved option values and returns its result, a text or
# a JSON payload, which main writes to --out or stdout.


def _run_dioph_approx(v) -> str:
    a = v["a"]
    if v["r"] is not None:
        r = v["r"]
    elif isinstance(a, ExactMatrix):
        r = a.ncols / a.nrows
    else:
        r = len(a[0]) / len(a)
    dioph.check_exponent(r, v["qmax"])
    records = dioph.best_approximations(a, v["qmax"], budget=v["budget"])
    lines = ["qnorm,q,p,residual,quality"]
    for rec in records:
        lines.append(f"{rec.qnorm},{';'.join(map(str, rec.q))},{';'.join(map(str, rec.p))},"
                     f"{rec.residual!r},{rec.quality(r)!r}")
    return "\n".join(lines) + "\n"


def _run_dioph_exponent(v) -> dict:
    omega, infinite = dioph.exponent_estimate(v["a"], v["qmax"], budget=v["budget"])
    return {"omega_hat": omega, "infinite": infinite, "qmax": v["qmax"]}


def _run_dioph_ext(v) -> str:
    n, a = v["n"], v["a"]
    if n < 4:
        raise InputError("n must be at least 4")
    if a.nrows != 2 or a.ncols != n - 2:
        raise InputError(f"expected a 2x{n - 2} block for n={n}, "
                         f"got {a.nrows}x{a.ncols}")
    ext = dioph.a_ext(a)
    return "\n".join(",".join(x.serialize() for x in row) for row in ext.rows) + "\n"


def _run_dioph_probe(v) -> dict:
    return dioph.w_probe(v["a"], r=v["r"], qmax=v["qmax"], target=v["target"],
                         c=v["c"], budget=v["budget"]).to_json()


def _run_dirichlet(v) -> dict:
    reports, singular = dioph.probe_singular(v["x"], v["form"], v["delta"],
                                             v["t"], budget=v["budget"])
    if len(reports) == 1:
        return reports[0].to_json()
    return {
        "x": list(v["x"]),
        "form": v["form"],
        "deltas": list(v["delta"]),
        "reports": [rep.to_json() for rep in reports],
        "singular_evidence": singular,
    }


def _run_sim_translate(v) -> None:
    """Writes its CSV through ExperimentReport.write_csv itself, and the
    aggregates through _emit."""
    report = translate_experiment(v["curve"].curve, v["t"], v["samples"],
                                  v["eps"], v["radius"], v["seed"],
                                  node_budget=v["budget"])
    if v["out"]:
        report.write_csv(v["out"])
        print(f"wrote {v['out']}")
    else:
        sys.stdout.write(report.csv_text())
    if v["aggregates"]:
        _emit(report.aggregates_payload(), v["aggregates"])


def _run_sim_example(v) -> dict:
    ex = quadratic_subspace_example(v["n"], v["r"], v["D"])
    payload = curve_to_json(ex.curve)
    payload["r"] = ex.r
    payload["m"] = 2  # the field degree
    payload["D"] = ex.d_field
    payload["l0_inv"] = ex.l0_inv
    payload["l0"] = ex.l0
    payload["span"] = vars(ex.span)
    return payload


def _run_kempf(v) -> dict:
    rep, n, vec = v["rep"], v["n"], v["v"]
    nested = bool(vec) and isinstance(vec[0], list)
    if rep == "adjoint":
        if not nested:
            if len(vec) != n * n:
                raise InputError(f"adjoint needs an {n}x{n} matrix "
                                 "(';'-separated rows)")
            vec = [vec[i * n:(i + 1) * n] for i in range(n)]
    elif nested:
        raise InputError(f"representation {_plain(rep)} takes a flat vector")
    result = kempf_optimum(vec, rep, n)
    payload = result.to_json()
    payload["n"] = n
    payload["rep"] = rep
    payload["semistable"] = not result.unstable
    return payload


def _run_roots_build(v) -> dict:
    return build_root_system(v["family"], v["rank"]).to_json()


def _check_report(rs, i0: int, pi, witnesses, minuscule: bool) -> dict:
    fmt = rs.write_out
    return {
        "family": rs.family,
        "rank": rs.rank,
        "weight_index": i0 + 1,
        "minuscule": minuscule,
        "phi1": fmt(rs.fundamental[i0]),
        "pi_descriptor": {"size": len(pi), "weights": [fmt(w) for w in pi]},
        "witnesses": [fmt(w) for w in witnesses],
        "passes": bool(witnesses),
    }


def _run_roots_check(v) -> dict:
    if v["all"]:
        single = [f"--{k}" for k in ("family", "rank", "weight") if v[k] is not None]
        if single:
            raise InputError(f"roots check --all scans every weight; drop {', '.join(single)}")
        reports = [_check_report(rs, i, pi, witnesses, True)
                   for rs, i, pi, witnesses in minuscule_checks(v["max_rank"])]
        return {
            "max_rank": v["max_rank"],
            "reports": reports,
            "pass_set": [[r["family"], r["rank"], r["weight_index"]]
                         for r in reports if r["passes"]],
        }
    if v["family"] is None or v["rank"] is None or v["weight"] is None:
        raise InputError("roots check needs either --all or all three of "
                         "--family, --rank, --weight")
    rs = build_root_system(v["family"], v["rank"])
    if not 1 <= v["weight"] <= rs.rank:
        raise InputError(f"weight index must lie in 1..{rs.rank}")
    i0 = v["weight"] - 1
    omega = rs.fundamental[i0]
    pi = sorted(saturate([omega], rs))
    return _check_report(rs, i0, pi, classification_check(rs, pi), is_minuscule(omega, rs))


# -- the command table --------------------------------------------------------

_OUT = Opt("out", _co_str, "write the result to this path instead of stdout")
_TARGET = Opt("a", _target_matrix, "target matrix: rows ';'-separated, entries "
              "','-separated; decimal entries are searched as floats, p/q and rN "
              "forms exactly", required=True)
_BUDGET = Opt("budget", _co_budget, "enumeration budget",
              default=dioph.DEFAULT_ENUM_BUDGET)
_FAMILY = _choice("family", "A", "B", "C", "D", fold=str.upper)

# the help of each group that holds commands
_GROUPS = {
    "dioph": "diophantine approximation probes",
    "sim": "orbit experiments on lattice space",
    "roots": "root systems and weight scans",
}

# (command, help, options, runner) of every command, in the order --help
# lists them; each takes --out, --config and --dry-run as well
COMMANDS = [
    ("dioph approx", "best approximations of a target matrix", [
        _TARGET,
        Opt("qmax", _co_int, "largest sup norm of q searched", required=True),
        Opt("r", _co_float, "exponent for the quality column (default: cols/rows)"),
        _BUDGET,
    ], _run_dioph_approx),
    ("dioph exponent", "approximation-exponent estimate", [
        _TARGET,
        Opt("qmax", _co_int, "largest sup norm of q searched (>= 10)", required=True),
        _BUDGET,
    ], _run_dioph_exponent),
    ("dioph ext", "extended matrix of a 2-row block", [
        Opt("n", _co_int, "ambient dimension (the block has n-2 columns)",
            required=True),
        Opt("a", _co_matrix, "2 x (n-2) block: rows ';'-separated", required=True),
    ], _run_dioph_ext),
    ("dioph probe", "graded membership probe for W_r / W'_r", [
        _TARGET,
        Opt("r", _co_float, "approximation exponent of the set probed", required=True),
        Opt("qmax", _co_int, "largest sup norm of q searched", required=True),
        Opt("target", _choice("target", "W", "Wprime"),
            "W (fixed constant) or Wprime (arbitrarily small)", default="W"),
        Opt("c", _co_float, "constant for the W inequality (W only; Wprime "
            "ignores it)", default=1.0),
        _BUDGET,
    ], _run_dioph_probe),
    ("dirichlet", "improvability probe for the pigeonhole inequality", [
        Opt("x", _co_float_list, "target vector, comma separated", required=True),
        Opt("form", _choice("form", "vect", "lf"),
            "vect (scalar q, vector p) or lf (vector q, scalar p)", default="vect"),
        Opt("delta", _co_float_list,
            "improvement factor(s) in (0,1]; several run one probe per value",
            required=True),
        Opt("t", _co_float_list, "strictly increasing grid of thresholds T (> 1)",
            required=True),
        _BUDGET,
    ], _run_dirichlet),
    ("sim translate", "flow-translate samples of a curve and record shortest "
     "vectors and box counts", [
        Opt("curve", _co_curve, "path to a curve JSON file", required=True),
        Opt("t", _co_float_list, "comma list of flow times", required=True),
        Opt("samples", _co_int, "number of parameter samples", required=True),
        Opt("seed", _co_int, "RNG seed (required: runs are reproducible)",
            required=True),
        Opt("radius", _co_float, "half-width of the counting box", default=1.5),
        Opt("eps", _co_float, "smallness threshold for the shortest vector",
            default=0.1),
        Opt("budget", _co_budget, "lattice-point enumeration budget",
            default=DEFAULT_NODE_BUDGET),
        Opt("aggregates", _co_str, "also write per-time aggregates to this JSON path"),
    ], _run_sim_translate),
    ("sim example", "base change and trapped line for a real quadratic field", [
        Opt("n", _co_int, "ambient dimension (must equal 2r)", required=True),
        Opt("r", _co_int, "rank of the subspace over the field", required=True),
        Opt("D", _co_int, "squarefree integer in [2, 10^12] defining the field",
            required=True),
    ], _run_sim_example),
    ("kempf", "steepest destabilizing one-parameter subgroup", [
        Opt("v", _co_frac_rows,
            "the vector (comma list; ';' rows for the adjoint matrix)",
            required=True),
        Opt("rep", _co_rep, "standard, wedgeK (e.g. wedge2) or adjoint",
            default="standard"),
        Opt("n", _co_int, "rank parameter of the group", required=True),
    ], _run_kempf),
    ("roots build", "construct and verify a root system", [
        Opt("family", _FAMILY, "root system family: A, B, C or D", required=True),
        Opt("rank", _co_int, "rank of the system", required=True),
    ], _run_roots_build),
    ("roots check", "pairing-profile check for minuscule weight orbits", [
        Opt("family", _FAMILY, "root system family (single check)"),
        Opt("rank", _co_int, "rank (single check)"),
        Opt("weight", _co_int, "fundamental weight index, 1-based (single check)"),
        Opt("all", _co_bool, "scan every minuscule weight up to --max-rank",
            flag=True, default=False),
        Opt("max_rank", _co_int, "largest rank scanned with --all", default=3),
    ], _run_roots_check),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS, built once: parse_args keeps
    no state from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="latflow",
        description="Lattice laboratory for diagonal flows, diophantine "
                    "probes and instability certificates.")
    subs = {"": parser.add_subparsers(dest="group", metavar="GROUP")}
    for command, help_text, opts, runner in COMMANDS:
        group, _, name = command.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", metavar="CMD")
        p = subs[group].add_parser(name, help=help_text, description=help_text,
                                   allow_abbrev=False)
        opts = [*opts, _OUT]
        for opt in opts:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, default=None,
                           action="store_true" if opt.flag else "store", help=opt.help)
        p.add_argument("--config", default=None,
                       help="JSON file whose keys mirror the flags; flags override")
        p.add_argument("--dry-run", action="store_true", default=False,
                       help="validate and print the resolved plan, skip the run")
        p.set_defaults(opts=opts, runner=runner, command=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "runner"):
        parser.error("a subcommand is required")
    try:
        values = _resolve(args, args.opts, args.command)
        if args.dry_run:
            _emit({"command": args.command, "plan": values}, None)
        else:
            result = args.runner(values)
            if result is not None:  # None: sim translate wrote its own output
                _emit(result, values["out"])
        return 0
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
