"""Workload decks: the fixed call list of one pass, built from a seed.

A deck is a list of Call records. A `cli` call runs `latflow.cli.main(argv)`
in process with its outputs under the pass directory; a `lib` call runs one
of the functions below on seed-drawn inputs, for work that has no command.
Everything here is deterministic in (workload, seed): the same seed gives the
same argv lists, curve files and matrices.

Why these workloads:

* orbit_n3 - `sim translate` on the two frozen n = 3 acceptance curves. The
  grid path (`lab.grids`) does nearly all the work and `lab.reduction` none.
* orbit_reduce - `sim translate` at n = 4 and n = 6. LLL, enumeration and the
  Fraction head evaluation (`lab.reduction`) do the work and grids do none;
  a nearly empty box (R = 0.05) and a full one (R = 1.0, 0.5) use the
  enumeration in two ways.
* exact_mix - many short calls cycling through the exact and diophantine
  commands and library entry points. Flows and grids do no work here, so it
  bypasses every kernel the orbit workloads exercise, and they bypass it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

WORKLOADS = ("orbit_n3", "orbit_reduce", "exact_mix")

# Curves as (n, [coordinate polynomials]); a polynomial is a list of
# (exponent of s, exact coefficient string).
CURVES = {
    "parabola": (3, [[(1, "1")], [(2, "1")]]),
    "rational_line": (3, [[(1, "1")], [(0, "1/2"), (1, "1/3")]]),
    "moment4": (4, [[(1, "1")], [(2, "1")], [(3, "1")]]),
    "moment6": (6, [[(e, "1")] for e in range(1, 6)]),
}

# orbit_n3 calls alternate parabola / line; the parabola is criterion 4's
# scenario (t = 6, R = 1.5) and the line criterion 3's (t = 2, 4, 6,
# eps = 0.2). Five calls per pass so the median call is a parabola call.
ORBIT_N3_SAMPLES = 12
ORBIT_N3_ORDER = ("parabola", "rational_line", "parabola", "rational_line", "parabola")

# orbit_reduce: (curve, t grid, radius, eps, samples), one call each. Three
# of the five calls are n = 4 calls, so the median call is always one of them
# and does not jump from one kind of call to another between runs. The
# calls are short so that a run holds many passes (see run.best_call_times);
# the work of a sample is nearly fixed (LLL does most of it), so few samples
# per call still give every seed about the same work.
ORBIT_REDUCE_CALLS = (
    ("moment4", "2,4,6,8", "1.0", "0.1", 12),
    ("q2_line", "0,1,2,3,4,5,6,7,8", "0.05", "0.1", 12),
    ("moment4", "2,4,6,8", "1.0", "0.1", 12),
    ("moment6", "1,2,3", "0.5", "0.1", 20),
    ("moment4", "2,4,6,8", "1.0", "0.1", 12),
)

# The moment curves are sampled on s in [0.05, 0.95]. At integer s the curve
# meets SL(n, Z), the orbit runs deep into the cusp and a single sample's box
# holds up to ~1500 points; on the default ball [-1, 1] (three integers) a
# seed's work would depend on whether one of its points fell near one of them.
MOMENT_BALL = {"center": 0.5, "radius": 0.45}

EXACT_MIX_CYCLES = 2


@dataclass
class Call:
    """One timed call. `outputs` are file names under the pass directory;
    `meta` carries what verification needs to know about the inputs."""

    name: str
    kind: str  # "cli" or "lib"
    argv: List[str] = field(default_factory=list)
    fn: Optional[Callable] = None
    args: tuple = ()
    outputs: List[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def curve_json(n: int, polys, center: float = 0.0, radius: float = 1.0) -> dict:
    return {
        "n": n,
        "k": 1,
        "coords": [
            {"monomials": [{"exps": [e], "coeff": c} for e, c in poly]}
            for poly in polys
        ],
        "center": [center],
        "radius": radius,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def _rng(workload: str, seed: int, tag: str = "") -> random.Random:
    # string seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform
    return random.Random(f"{workload}:{seed}:{tag}")


def _polys(path: str):
    """Coordinate polynomials of a curve file, as in CURVES."""
    with open(path) as fh:
        data = json.load(fh)
    return [[(m["exps"][0], m["coeff"]) for m in entry["monomials"]]
            for entry in data["coords"]]


def _translate(name, curve_file, t, samples, seed, radius, eps, workdir, index, meta):
    out = f"{index:02d}_{name}.csv"
    agg = f"{index:02d}_{name}.agg.json"
    argv = ["sim", "translate", "--curve", os.path.join(workdir, curve_file),
            "--t", t, "--samples", str(samples), "--seed", str(seed),
            "--radius", radius, "--eps", eps,
            "--out", os.path.join(workdir, out),
            "--aggregates", os.path.join(workdir, agg)]
    meta = dict(meta, t=[float(x) for x in t.split(",")], samples=samples,
                radius=float(radius), eps=float(eps),
                polys=_polys(os.path.join(workdir, curve_file)))
    return Call(name=f"sim.translate.{name}", kind="cli", argv=argv,
                outputs=[out, agg], meta=meta)


def _orbit_n3(seed: int, workdir: str, cli) -> List[Call]:
    rng = _rng("orbit_n3", seed)
    for name in ("parabola", "rational_line"):
        _write_json(os.path.join(workdir, f"{name}.json"), curve_json(*CURVES[name]))
    calls = []
    for i, name in enumerate(ORBIT_N3_ORDER):
        if name == "parabola":
            t, eps = "6", "0.1"
        else:
            t, eps = "2,4,6", "0.2"
        calls.append(_translate(name, f"{name}.json", t, ORBIT_N3_SAMPLES,
                                rng.randrange(2**31), "1.5", eps, workdir, i,
                                {"curve": name, "n": 3}))
    return calls


def _orbit_reduce(seed: int, workdir: str, cli) -> List[Call]:
    rng = _rng("orbit_reduce", seed)
    q2 = os.path.join(workdir, "q2_line.json")
    rc = cli.main(["sim", "example", "--D", "2", "--n", "4", "--r", "2", "--out", q2])
    if rc != 0:
        raise RuntimeError(f"sim example exited {rc} while building inputs")
    for name in ("moment4", "moment6"):
        _write_json(os.path.join(workdir, f"{name}.json"),
                    curve_json(*CURVES[name], **MOMENT_BALL))
    n_of = {"q2_line": 4, "moment4": 4, "moment6": 6}
    calls = []
    for name, t, radius, eps, samples in ORBIT_REDUCE_CALLS:
        calls.append(_translate(name, f"{name}.json", t, samples,
                                rng.randrange(2**31), radius, eps, workdir,
                                len(calls), {"curve": name, "n": n_of[name]}))
    return calls


# -- exact_mix ----------------------------------------------------------------
#
# Library entry points are looked up through their modules at call time, so
# a traced run sees the wrapped functions.


def wedge_functoriality(a_rows, b_rows):
    from latflow import exact, wedge

    a, b = exact.ExactMatrix(a_rows), exact.ExactMatrix(b_rows)
    wab = wedge.wedge_matrix(a @ b, 2)
    wa, wb = wedge.wedge_matrix(a, 2), wedge.wedge_matrix(b, 2)
    return {"equal": wab == wa @ wb, "wedge_ab": _mat(wab), "wedge_a": _mat(wa)}


def pfaffian_case(rows):
    from latflow import exact, wedge

    return {"pfaffian": wedge.pfaffian(exact.ExactMatrix(rows)).serialize()}


def descent_case(w, n, k):
    from latflow.lab import descent

    return {"v": [int(x) for x in descent.descend_to_vector(w, n, k)]}


def residual_case(block, w):
    from latflow.lab import symplectic

    rep = symplectic.residual_check(block, w)
    return {"in_band": rep.in_band(), "ratio": rep.ratio, "band": rep.band,
            "pi1_norm": rep.pi1_norm, "residual_norm": rep.residual_norm}


def _mat(m):
    return [[x.serialize() for x in row] for row in m.rows]


def _decimal(rng: random.Random) -> str:
    # a decimal point makes the CLI take the float search path
    return f"{rng.uniform(0.05, 0.95):.15f}"


def _ints(rng, lo, hi, count):
    return [rng.randint(lo, hi) for _ in range(count)]


def _rows_arg(rows) -> str:
    # passed as --flag=value: a leading minus sign would read as an option
    return ";".join(",".join(map(str, r)) for r in rows)


def _nonzero_ints(rng, lo, hi, count):
    out = _ints(rng, lo, hi, count)
    if not any(out):
        out[0] = 1
    return out


def _exact_mix(seed: int, workdir: str, cli) -> List[Call]:
    from latflow import wedge

    calls: List[Call] = []

    def cli_call(name, argv, fmt, **meta):
        out = f"{len(calls):02d}_{name}.{fmt}"
        calls.append(Call(name=name, kind="cli",
                          argv=argv + ["--out", os.path.join(workdir, out)],
                          outputs=[out], meta=meta))

    def lib_call(name, fn, *args, **meta):
        out = f"{len(calls):02d}_{name}.json"
        calls.append(Call(name=name, kind="lib", fn=fn, args=args,
                          outputs=[out], meta=meta))

    for cycle in range(EXACT_MIX_CYCLES):
        rng = _rng("exact_mix", seed, str(cycle))
        a2 = [_decimal(rng) for _ in range(2)]
        a3 = [_decimal(rng) for _ in range(3)]
        a1 = _decimal(rng)
        cli_call("dioph.approx.float2", ["dioph", "approx", "--a", ",".join(a2),
                                         "--qmax", "60"], "csv",
                 target=a2, qmax=60)
        cli_call("dioph.approx.float3", ["dioph", "approx", "--a", ",".join(a3),
                                         "--qmax", "15"], "csv",
                 target=a3, qmax=15)
        cli_call("dioph.approx.float1", ["dioph", "approx", "--a", a1,
                                         "--qmax", "100000"], "csv",
                 target=[a1], qmax=100000)
        cli_call("dioph.approx.rational", ["dioph", "approx", "--a", "1/3",
                                           "--qmax", "1000"], "csv",
                 target=["1/3"], qmax=1000)
        probe = _decimal(rng)
        cli_call("dioph.probe", ["dioph", "probe", "--a", probe, "--target", "W",
                                 "--r", "1", "--qmax", "10000"], "json",
                 target=probe, r=1.0)
        block = [_ints(rng, -5, 5, 6), _ints(rng, -5, 5, 6)]
        cli_call("dioph.ext", ["dioph", "ext", "--n", "8", "--a=" + _rows_arg(block)],
                 "csv", n=8, block=block)
        cli_call("dioph.ext.frozen", ["dioph", "ext", "--n", "4", "--a=1,2;3,4"],
                 "csv", n=4, block=[[1, 2], [3, 4]])
        x = [_decimal(rng) for _ in range(2)]
        cli_call("dirichlet", ["dirichlet", "--x", ",".join(x), "--delta", "0.5",
                               "--t", "2,4,8"], "json",
                 x=x, delta=0.5, t=[2.0, 4.0, 8.0])
        v_std = _nonzero_ints(rng, -3, 3, 3)
        cli_call("kempf.standard", ["kempf", "--v=" + _rows_arg([v_std]),
                                    "--rep", "standard", "--n", "3"], "json",
                 rep="standard", v=v_std, n=3)
        v_w2 = _nonzero_ints(rng, -2, 2, 6)
        cli_call("kempf.wedge2", ["kempf", "--v=" + _rows_arg([v_w2]),
                                  "--rep", "wedge2", "--n", "4"], "json",
                 rep="wedge2", v=v_w2, n=4)
        v_adj = [_ints(rng, 0, 1, 3) for _ in range(3)]
        if not any(map(any, v_adj)):
            v_adj[0][1] = 1
        cli_call("kempf.adjoint", ["kempf", "--v=" + _rows_arg(v_adj), "--rep", "adjoint", "--n", "3"], "json",
                 rep="adjoint", v=v_adj, n=3)
        cli_call("roots.check.all", ["roots", "check", "--all", "--max-rank", "3"],
                 "json")
        cli_call("roots.build.C4", ["roots", "build", "--family", "C",
                                    "--rank", "4"], "json")
        d = rng.choice((2, 3, 5, 6, 7))
        cli_call("sim.example", ["sim", "example", "--n", "6", "--r", "3",
                                 "--D", str(d)], "json", D=d)
        a = [_ints(rng, -3, 3, 5) for _ in range(5)]
        b = [_ints(rng, -3, 3, 5) for _ in range(5)]
        lib_call("wedge.functoriality", wedge_functoriality, a, b, a=a, b=b)
        m = [_ints(rng, -4, 4, 6) for _ in range(6)]
        anti = [[m[i][j] - m[j][i] for j in range(6)] for i in range(6)]
        lib_call("wedge.pfaffian", pfaffian_case, anti, m=anti)
        while True:
            n, k = rng.choice(((4, 2), (5, 2), (5, 3)))
            vs = [_ints(rng, -7, 7, n) for _ in range(k)]
            w = [int(c.as_fraction()) for c in wedge.wedge_vector(vs)]
            if any(w):
                break
        lib_call("descent.descend", descent_case, w, n, k, w=w, n=n, k=k, vs=vs)
        blk = [_ints(rng, -6, 6, 2), _ints(rng, -6, 6, 2)]
        wv = _ints(rng, -20, 20, 6)
        lib_call("symplectic.residual", residual_case, blk, wv)
    return calls


_BUILDERS = {
    "orbit_n3": _orbit_n3,
    "orbit_reduce": _orbit_reduce,
    "exact_mix": _exact_mix,
}


def build(workload: str, seed: int, workdir: str, cli) -> List[Call]:
    """The pass's call list; writes the input files it needs into workdir."""
    return _BUILDERS[workload](seed, workdir, cli)
