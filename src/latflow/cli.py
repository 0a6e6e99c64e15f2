"""Command-line front end.

Five command groups mirror the library: diophantine probes (dioph),
improvability tests for the pigeonhole inequalities (dirichlet), orbit
experiments on lattice space (sim), one-parameter instability optimizers
(kempf), and root-system scans (roots).

Every leaf command accepts --config pointing at a JSON file whose keys mirror
the flag names (dashes and underscores are interchangeable); explicit flags
override config values. --dry-run validates the fully resolved plan, prints
it as JSON, and exits without computing anything. File outputs are written
atomically. Runs with the same resolved config and seed produce identical
bytes.

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
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
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
    runs numerically.
    """
    grid, _ = _grid(raw, "a matrix")
    numeric = any(
        isinstance(e, float) or (isinstance(e, str) and "." in e)
        for row in grid for e in row
    )
    if not numeric:
        return _co_matrix(raw)
    out = []
    for row in grid:
        out.append([])
        for e in row:
            try:
                out[-1].append(float(_entry(e)))
            except OverflowError:
                raise InputError(f"matrix entry {e!r} is not a finite double")
    if any(len(r) != len(out[0]) for r in out):
        raise InputError("ragged target matrix")
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


def _co_target(raw) -> str:
    s = _co_str(raw)
    if s not in ("W", "Wprime"):
        raise InputError(f"target must be W or Wprime, got {s!r}")
    return s


def _co_form(raw) -> str:
    s = _co_str(raw)
    if s not in ("vect", "lf"):
        raise InputError(f"form must be vect or lf, got {s!r}")
    return s


def _co_family(raw) -> str:
    s = _co_str(raw).upper()
    if s not in ("A", "B", "C", "D"):
        raise InputError(f"family must be one of A, B, C, D, got {raw!r}")
    return s


@dataclass(frozen=True)
class _LoadedCurve:
    path: str
    curve: Curve


def _co_curve(raw) -> _LoadedCurve:
    path = _co_str(raw)
    return _LoadedCurve(path, load_curve(path))


# -- option table and resolution ---------------------------------------------


@dataclass(frozen=True)
class Opt:
    name: str
    coerce: Callable
    help: str
    required: bool = False
    default: object = None
    flag: bool = False
    show: Optional[Callable] = None


def _show_matrix(m):
    if isinstance(m, ExactMatrix):
        return [[x.serialize() for x in row] for row in m.rows]
    return [[float(x) for x in row] for row in m]


def _show_fracs(v):
    if v and isinstance(v[0], list):
        return [[str(x) for x in row] for row in v]
    return [str(x) for x in v]


def _show_rep(rep):
    return rep if isinstance(rep, str) else f"wedge{rep[1]}"


def _show_curve(lc: _LoadedCurve):
    return {"path": lc.path, "n": lc.curve.n, "k": lc.curve.k}


_OUT = Opt("out", _co_str, "write the result to this path instead of stdout")
_TARGET = Opt("a", _target_matrix, "target matrix: rows ';'-separated, entries "
              "','-separated; decimal entries are searched as floats, p/q and rN "
              "forms exactly", required=True, show=_show_matrix)
_BUDGET = Opt("budget", _co_budget, "enumeration budget",
              default=dioph.DEFAULT_ENUM_BUDGET)


def _add_opt(parser: argparse.ArgumentParser, opt: Opt) -> None:
    flag = "--" + opt.name.replace("_", "-")
    if opt.flag:
        parser.add_argument(flag, dest=opt.name, action="store_true",
                            default=None, help=opt.help)
    else:
        parser.add_argument(flag, dest=opt.name, default=None, help=opt.help)


def _resolve(args, opts: Sequence[Opt], command: str):
    """Merge config file and flags (flags win), coerce, and build both the
    rich value dict and the JSON-safe plan used by --dry-run."""
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
    plan = {}
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
        if value is None:
            plan[opt.name] = None
        else:
            plan[opt.name] = opt.show(value) if opt.show else value
    return values, plan


# -- output helpers -----------------------------------------------------------


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        atomic_write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


# -- dioph --------------------------------------------------------------------

DIOPH_APPROX_OPTS = [
    _TARGET,
    Opt("qmax", _co_int, "largest sup norm of q searched", required=True),
    Opt("r", _co_float, "exponent for the quality column (default: cols/rows)"),
    _BUDGET,
    _OUT,
]


def _run_dioph_approx(v) -> int:
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
    for row in dioph.records_to_rows(records, r):
        lines.append(f"{row['qnorm']},{row['q']},{row['p']},"
                     f"{row['residual']!r},{row['quality']!r}")
    _emit_text("\n".join(lines) + "\n", v["out"])
    return 0


DIOPH_EXPONENT_OPTS = [
    _TARGET,
    Opt("qmax", _co_int, "largest sup norm of q searched (>= 10)", required=True),
    _BUDGET,
    _OUT,
]


def _run_dioph_exponent(v) -> int:
    omega, infinite = dioph.exponent_estimate(v["a"], v["qmax"], budget=v["budget"])
    _emit_json({"omega_hat": omega, "infinite": infinite, "qmax": v["qmax"]},
               v["out"])
    return 0


DIOPH_EXT_OPTS = [
    Opt("n", _co_int, "ambient dimension (the block has n-2 columns)",
        required=True),
    Opt("a", _co_matrix, "2 x (n-2) block: rows ';'-separated", required=True,
        show=_show_matrix),
    _OUT,
]


def _run_dioph_ext(v) -> int:
    n, a = v["n"], v["a"]
    if n < 4:
        raise InputError("n must be at least 4")
    if a.nrows != 2 or a.ncols != n - 2:
        raise InputError(f"expected a 2x{n - 2} block for n={n}, "
                         f"got {a.nrows}x{a.ncols}")
    ext = dioph.a_ext(a)
    text = "\n".join(",".join(x.serialize() for x in row) for row in ext.rows)
    _emit_text(text + "\n", v["out"])
    return 0


DIOPH_PROBE_OPTS = [
    _TARGET,
    Opt("r", _co_float, "approximation exponent of the set probed", required=True),
    Opt("qmax", _co_int, "largest sup norm of q searched", required=True),
    Opt("target", _co_target, "W (fixed constant) or Wprime (arbitrarily small)",
        default="W"),
    Opt("c", _co_float, "constant for the W inequality (W only; Wprime "
        "ignores it)", default=1.0),
    _BUDGET,
    _OUT,
]


def _run_dioph_probe(v) -> int:
    verdict = dioph.w_probe(v["a"], r=v["r"], qmax=v["qmax"], target=v["target"],
                            c=v["c"], budget=v["budget"])
    _emit_json(verdict.to_json(), v["out"])
    return 0


# -- dirichlet ----------------------------------------------------------------

DIRICHLET_OPTS = [
    Opt("x", _co_float_list, "target vector, comma separated", required=True),
    Opt("form", _co_form, "vect (scalar q, vector p) or lf (vector q, scalar p)",
        default="vect"),
    Opt("delta", _co_float_list,
        "improvement factor(s) in (0,1]; several run one probe per value",
        required=True),
    Opt("t", _co_float_list, "strictly increasing grid of thresholds T (> 1)",
        required=True),
    _BUDGET,
    _OUT,
]


def _run_dirichlet(v) -> int:
    reports, singular = dioph.probe_singular(v["x"], v["form"], v["delta"],
                                             v["t"], budget=v["budget"])
    if len(reports) == 1:
        payload = reports[0].to_json()
    else:
        payload = {
            "x": list(v["x"]),
            "form": v["form"],
            "deltas": list(v["delta"]),
            "reports": [rep.to_json() for rep in reports],
            "singular_evidence": singular,
        }
    _emit_json(payload, v["out"])
    return 0


# -- sim ----------------------------------------------------------------------

SIM_TRANSLATE_OPTS = [
    Opt("curve", _co_curve, "path to a curve JSON file", required=True,
        show=_show_curve),
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
    _OUT,
]


def _run_sim_translate(v) -> int:
    report = translate_experiment(v["curve"].curve, v["t"], v["samples"],
                                  v["eps"], v["radius"], v["seed"],
                                  node_budget=v["budget"])
    if v["out"]:
        report.write_csv(v["out"])
        print(f"wrote {v['out']}")
    else:
        sys.stdout.write(report.csv_text())
    if v["aggregates"]:
        report.write_aggregates(v["aggregates"])
        print(f"wrote {v['aggregates']}")
    return 0


SIM_EXAMPLE_OPTS = [
    Opt("n", _co_int, "ambient dimension (must equal r * m)", required=True),
    Opt("r", _co_int, "rank of the subspace over the field", required=True),
    Opt("m", _co_int, "field degree (only 2 is supported)", default=2),
    Opt("D", _co_int, "squarefree integer in [2, 10^12] defining the field", required=True),
    _OUT,
]


def _run_sim_example(v) -> int:
    ex = quadratic_subspace_example(v["n"], v["r"], v["m"], v["D"])
    payload = curve_to_json(ex.curve)
    payload["r"] = ex.r
    payload["m"] = v["m"]
    payload["D"] = ex.d_field
    payload["l0_inv"] = _show_matrix(ex.l0_inv)
    payload["l0"] = _show_matrix(ex.l0)
    payload["span"] = {
        "d": ex.span.d,
        "order": list(ex.span.order),
        "pivots": list(ex.span.pivots),
        "matrix": _show_matrix(ex.span.matrix) if ex.span.matrix is not None else None,
    }
    _emit_json(payload, v["out"])
    return 0


# -- kempf --------------------------------------------------------------------

KEMPF_OPTS = [
    Opt("v", _co_frac_rows,
        "the vector (comma list; ';' rows for the adjoint matrix)",
        required=True, show=_show_fracs),
    Opt("rep", _co_rep, "standard, wedgeK (e.g. wedge2) or adjoint",
        default="standard", show=_show_rep),
    Opt("n", _co_int, "rank parameter of the group", required=True),
    _OUT,
]


def _run_kempf(v) -> int:
    rep, n, vec = v["rep"], v["n"], v["v"]
    nested = bool(vec) and isinstance(vec[0], list)
    if rep == "adjoint":
        if not nested:
            if len(vec) != n * n:
                raise InputError(f"adjoint needs an {n}x{n} matrix "
                                 "(';'-separated rows)")
            vec = [vec[i * n:(i + 1) * n] for i in range(n)]
    elif nested:
        raise InputError(f"representation {_show_rep(rep)} takes a flat vector")
    result = kempf_optimum(vec, rep, n)
    payload = result.to_json()
    payload["n"] = n
    payload["rep"] = _show_rep(rep)
    payload["semistable"] = not result.unstable
    _emit_json(payload, v["out"])
    return 0


# -- roots --------------------------------------------------------------------

ROOTS_BUILD_OPTS = [
    Opt("family", _co_family, "root system family: A, B, C or D", required=True),
    Opt("rank", _co_int, "rank of the system", required=True),
    _OUT,
]


def _run_roots_build(v) -> int:
    rs = build_root_system(v["family"], v["rank"])
    _emit_json(rs.to_json(), v["out"])
    return 0


ROOTS_CHECK_OPTS = [
    Opt("family", _co_family, "root system family (single check)"),
    Opt("rank", _co_int, "rank (single check)"),
    Opt("weight", _co_int, "fundamental weight index, 1-based (single check)"),
    Opt("all", _co_bool, "scan every minuscule weight up to --max-rank",
        flag=True, default=False),
    Opt("max_rank", _co_int, "largest rank scanned with --all", default=3),
    _OUT,
]


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


def _run_roots_check(v) -> int:
    if v["all"]:
        reports = [_check_report(rs, i, pi, witnesses, True)
                   for rs, i, pi, witnesses in minuscule_checks(v["max_rank"])]
        payload = {
            "max_rank": v["max_rank"],
            "reports": reports,
            "pass_set": [[r["family"], r["rank"], r["weight_index"]]
                         for r in reports if r["passes"]],
        }
    else:
        if v["family"] is None or v["rank"] is None or v["weight"] is None:
            raise InputError("roots check needs either --all or all three of "
                             "--family, --rank, --weight")
        rs = build_root_system(v["family"], v["rank"])
        if not 1 <= v["weight"] <= rs.rank:
            raise InputError(f"weight index must lie in 1..{rs.rank}")
        i0 = v["weight"] - 1
        omega = rs.fundamental[i0]
        pi = sorted(saturate([omega], rs))
        payload = _check_report(rs, i0, pi, classification_check(rs, pi),
                                is_minuscule(omega, rs))
    _emit_json(payload, v["out"])
    return 0


# -- parser wiring ------------------------------------------------------------


def _leaf(sub, name: str, help_text: str, opts: Sequence[Opt], runner) -> None:
    p = sub.add_parser(name, help=help_text, description=help_text,
                       allow_abbrev=False)
    for opt in opts:
        _add_opt(p, opt)
    p.add_argument("--config", default=None,
                   help="JSON file whose keys mirror the flags; flags override")
    p.add_argument("--dry-run", action="store_true", default=False,
                   help="validate and print the resolved plan, skip the run")
    parent = p.prog.split()[-2] if len(p.prog.split()) > 2 else ""
    command = f"{parent} {name}".strip()
    p.set_defaults(opts=opts, runner=runner, command=command)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once: parse_args keeps no state
    from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="latflow",
        description="Lattice laboratory for diagonal flows, diophantine "
                    "probes and instability certificates.")
    top = parser.add_subparsers(dest="group", metavar="GROUP")

    dioph_p = top.add_parser("dioph", help="diophantine approximation probes")
    dsub = dioph_p.add_subparsers(dest="subcommand", metavar="CMD")
    _leaf(dsub, "approx", "best approximations of a target matrix",
          DIOPH_APPROX_OPTS, _run_dioph_approx)
    _leaf(dsub, "exponent", "approximation-exponent estimate",
          DIOPH_EXPONENT_OPTS, _run_dioph_exponent)
    _leaf(dsub, "ext", "extended matrix of a 2-row block",
          DIOPH_EXT_OPTS, _run_dioph_ext)
    _leaf(dsub, "probe", "graded membership probe for W_r / W'_r",
          DIOPH_PROBE_OPTS, _run_dioph_probe)

    _leaf(top, "dirichlet", "improvability probe for the pigeonhole inequality",
          DIRICHLET_OPTS, _run_dirichlet)

    sim_p = top.add_parser("sim", help="orbit experiments on lattice space")
    ssub = sim_p.add_subparsers(dest="subcommand", metavar="CMD")
    _leaf(ssub, "translate", "flow-translate samples of a curve and record "
          "shortest vectors and box counts", SIM_TRANSLATE_OPTS,
          _run_sim_translate)
    _leaf(ssub, "example", "base change and trapped line for a real quadratic "
          "field", SIM_EXAMPLE_OPTS, _run_sim_example)

    _leaf(top, "kempf", "steepest destabilizing one-parameter subgroup",
          KEMPF_OPTS, _run_kempf)

    roots_p = top.add_parser("roots", help="root systems and weight scans")
    rsub = roots_p.add_subparsers(dest="subcommand", metavar="CMD")
    _leaf(rsub, "build", "construct and verify a root system",
          ROOTS_BUILD_OPTS, _run_roots_build)
    _leaf(rsub, "check", "pairing-profile check for minuscule weight orbits",
          ROOTS_CHECK_OPTS, _run_roots_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "runner"):
        parser.error("a subcommand is required")
    try:
        values, plan = _resolve(args, args.opts, args.command)
        if args.dry_run:
            print(json.dumps({"command": args.command, "plan": plan},
                             indent=2, sort_keys=True))
            return 0
        return args.runner(values)
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
