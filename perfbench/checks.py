"""Output verification, run after the timed phase of a pass.

Two kinds of check:

* seed-independent checks on every output: invariants of the mathematics
  (Minkowski's bound lambda_1 <= 1, even box counts, empty boxes where no
  nonzero point fits, criterion 3's cap
  lambda_1 <= 6 e^{-t}, criterion 5's floor and Haar deviation, wedge
  functoriality, pf^2 = det), the independent oracles in `tests/oracles.py`,
  and brute-force searches (a dense tail scan for lambda_1 and box counts
  of the first sample of each call, the whole cube for `dioph approx`);
* at the default seed, a comparison against reference outputs recorded at
  the commit that introduced the benchmark (`reference/<workload>.json`).
  Integers, strings and structure must match exactly; other numbers within
  REL_TOL, wide enough for a kernel more accurate than the n = 3 grid path
  (about 1e-8 relative at t = 6), or within ABS_TOL, the float error of a
  small `dioph` residual.

Each check returns a list of problems; an empty list means the call passed.
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction
from itertools import combinations
from typing import Dict, List

import numpy as np

import oracles

REL_TOL = 1e-6
# a residual |a.q + p| computed in floats carries an absolute error of a few
# ulps of |a.q| (up to 1e5 in the deck), far above REL_TOL of a residual of
# 1e-6; a kernel computing it another way may differ by that much
ABS_TOL = 1e-10
RESIDUAL_ULPS = 1e-14  # allowed difference per unit of the terms that cancel
SCAN_CELLS = 2_000_000  # largest tail grid fiber_scan builds
ORACLE_SAMPLES = 3  # n = 3 samples per call checked by the naive lambda_1 scan
CSV_HEADER = "sample_index,s,t,lambda1,siegel_count,below_eps"
APPROX_HEADER = "qnorm,q,p,residual,quality"


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _residual_close(a: float, b: float, scale: float) -> bool:
    """Two float evaluations of a residual |a.q + p| whose terms have size
    `scale` (sum of |a_i q_i| and |p|). The cancellation leaves an absolute
    error of a few ulps of `scale`, which summing in another order moves; on
    a small residual that is far more than 1e-9 relative."""
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + RESIDUAL_ULPS * scale


def _term_scale(a, q, p) -> float:
    return float(sum(abs(x * c) for x, c in zip(a, q)) + abs(p))


def _frac(text: str) -> Fraction:
    return Fraction(text.strip())


# -- sim translate ------------------------------------------------------------


_COEFF = re.compile(r"^(?P<a>[-+]?\d+(?:/\d+)?)?"
                    r"(?:(?P<sign>[-+])?(?P<b>\d+(?:/\d+)?)?r(?P<d>\d+))?$")


def _coeff(text: str) -> float:
    """Value of a curve coefficient written as "a", "a+br D" or "rD"."""
    m = _COEFF.match(text.strip())
    value = float(Fraction(m.group("a") or 0))
    if m.group("d"):
        b = float(Fraction(m.group("b") or 1)) * math.sqrt(int(m.group("d")))
        value += -b if m.group("sign") == "-" else b
    return value


def _phi(polys, s: float) -> List[float]:
    """The curve point as floats; rational coefficients are summed exactly
    first, as latflow does before it rounds."""
    x = Fraction(s)
    if all("r" not in c for poly in polys for _, c in poly):
        return [float(sum(Fraction(c) * x**e for e, c in poly)) for poly in polys]
    return [sum(_coeff(c) * s**e for e, c in poly) for poly in polys]


def _tail_grid(k: int, dim: int) -> np.ndarray:
    axes = [np.arange(-k, k + 1, dtype=float)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def fiber_scan(v: List[float], n: int, t: float, radius: float):
    """(lambda_1, box count) of g_t u(v) Z^n by a dense scan of the tail
    coordinates z, with the best head integer a found by rounding, or None
    where the scan is too large. Independent of reduction and of Grid3.

    A point is (e^{(n-1)t} (a + v.z), e^{-t} z). lambda_1 <= 1 (Minkowski)
    bounds |z| by e^t; the box bounds it by R e^t.
    """
    head, tail = math.exp((n - 1) * t), math.exp(-t)
    k_lam = int(math.floor(math.exp(t))) + 1
    k_box = int(math.floor((radius + 1e-9) * math.exp(t)))
    if (2 * max(k_lam, k_box) + 1) ** (n - 1) > SCAN_CELLS:
        return None
    z = _tail_grid(k_lam, n - 1)
    y = z @ np.asarray(v, dtype=float)
    sup = np.maximum(head * np.abs(y - np.round(y)), tail * np.max(np.abs(z), axis=1))
    sup[~z.any(axis=1)] = head  # z = 0: the nearest nonzero point has |a| = 1
    z = _tail_grid(k_box, n - 1)
    y = z @ np.asarray(v, dtype=float)
    w = (radius + 1e-9) / head
    count = np.maximum(np.floor(w - y) - np.ceil(-w - y) + 1.0, 0.0)
    return float(sup.min()), int(round(float(count.sum()))) - 1  # minus the origin


def check_translate(meta: dict, csv_text: str, agg_text: str) -> List[str]:
    bad: List[str] = []
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs"]
    t_grid, eps, radius, n = meta["t"], meta["eps"], meta["radius"], meta["n"]
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 6:
            return [f"CSV row has {len(f)} fields"]
        rows.append((int(f[0]), float(f[1]), float(f[2]), float(f[3]), int(f[4]), int(f[5])))
    if len(rows) != meta["samples"] * len(t_grid):
        return [f"{len(rows)} rows, expected {meta['samples'] * len(t_grid)}"]
    oracle_left = {}
    for i, (idx, s, t, lam, count, below) in enumerate(rows):
        where = f"row {i}"
        if idx != i // len(t_grid) or t != t_grid[i % len(t_grid)]:
            bad.append(f"{where}: out of sample-major order")
        if not abs(s) <= 1.0:
            bad.append(f"{where}: s outside the parameter ball")
        if not (math.isfinite(lam) and 0.0 < lam <= 1.0 + 1e-9):
            bad.append(f"{where}: lambda1 {lam!r} breaks 0 < lambda1 <= 1 (Minkowski)")
        if count < 0 or count % 2:
            bad.append(f"{where}: siegel_count {count} is not even and >= 0")
        if below != int(lam < eps):
            bad.append(f"{where}: below_eps disagrees with lambda1")
        if meta["curve"] == "rational_line" and lam > 6.0 * math.exp(-t) + 1e-9:
            bad.append(f"{where}: lambda1 above criterion 3's cap 6 e^-t")
        if radius * math.exp(t) < 1.0 and radius * math.exp(-(n - 1) * t) < 1.0 and count:
            bad.append(f"{where}: nonzero box count where no nonzero point fits")
        scan = fiber_scan(_phi(meta["polys"], s), n, t, radius) if idx == 0 else None
        if scan is not None and not (_close(lam, scan[0], REL_TOL) and count == scan[1]):
            bad.append(f"{where}: ({lam!r}, {count}) vs dense tail scan {scan}")
        if n == 3 and t <= 4.0 and oracle_left.setdefault(t, ORACLE_SAMPLES) > 0:
            oracle_left[t] -= 1
            v1, v2 = _phi(meta["polys"], s)
            ref = oracles.lambda1_sup_naive_n3(t, v1, v2)
            if not _close(lam, ref, REL_TOL):
                bad.append(f"{where}: lambda1 {lam!r} vs naive scan {ref!r}")
    bad += _check_aggregates(meta, rows, json.loads(agg_text))
    return bad


def _check_aggregates(meta: dict, rows, payload: dict) -> List[str]:
    bad = []
    aggs = payload["aggregates"]
    if [a["t"] for a in aggs] != meta["t"]:
        return ["aggregate t grid differs from the request"]
    haar = (2.0 * meta["radius"]) ** meta["n"]
    for agg in aggs:
        sub = [r for r in rows if r[2] == agg["t"]]
        mean = sum(r[4] for r in sub) / len(sub)
        expect = {
            "mean_siegel": mean,
            "haar_ref": haar,
            "rel_dev": abs(mean - haar) / haar,
            "frac_below_eps": sum(r[5] for r in sub) / len(sub),
            "min_lambda1": min(r[3] for r in sub),
            "max_lambda1": max(r[3] for r in sub),
        }
        for key, value in expect.items():
            if not _close(agg[key], value, 1e-12):
                bad.append(f"aggregate {key} at t={agg['t']} disagrees with the rows")
        if meta["curve"] == "q2_line":
            if not agg["min_lambda1"] > 0.0:
                bad.append(f"criterion 5: lambda1 floor not positive at t={agg['t']}")
            if agg["t"] >= 4.0 and agg["rel_dev"] < 0.25:
                bad.append(f"criterion 5: box count within 25% of Haar at t={agg['t']}")
    return bad


# -- dioph --------------------------------------------------------------------


def _brute_records(a: np.ndarray, qmax: int):
    """(shell, residual) of the strict running minima over sup-norm shells of
    q, by scanning the whole cube; residual = max |A q - round(A q)|."""
    ell = a.shape[0]
    if ell == 1:
        qs = np.arange(1, qmax + 1, dtype=float)[:, None]
    else:
        axes = [np.arange(-qmax, qmax + 1, dtype=float)] * ell
        qs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ell)
    vals = qs @ a
    res = np.abs(vals - np.round(vals))
    shells = np.max(np.abs(qs), axis=1).astype(np.int64)
    best_in_shell = np.full(qmax + 1, np.inf)
    np.minimum.at(best_in_shell, shells, res)
    out, best = [], math.inf
    for h in range(1, qmax + 1):
        if best_in_shell[h] < best:
            best = float(best_in_shell[h])
            out.append((h, best))
    return out


def check_approx(meta: dict, text: str) -> List[str]:
    lines = text.splitlines()
    if not lines or lines[0] != APPROX_HEADER:
        return ["CSV header differs"]
    target = meta["target"]
    exact = all("." not in x for x in target)
    a_frac = [_frac(x) for x in target]
    a = np.array([float(x) for x in a_frac])
    ell = len(target)
    bad = []
    recs = []
    for line in lines[1:]:
        qn, q, p, res, qual = line.split(",")
        recs.append((int(qn), tuple(int(x) for x in q.split(";")),
                     tuple(int(x) for x in p.split(";")), float(res), float(qual)))
    if not recs:
        return ["no records"]
    for i, (qn, q, p, res, qual) in enumerate(recs):
        if max(abs(x) for x in q) != qn or next(x for x in q if x) < 0:
            bad.append(f"record {i}: q does not match its shell")
        if exact:
            err = abs(float(sum(c * x for c, x in zip(a_frac, q)) + p[0]))
        else:
            err = abs(float(a @ np.array(q, dtype=float)) + p[0])
        if not _residual_close(res, err, _term_scale(a, q, p[0])):
            bad.append(f"record {i}: residual {res!r} vs recomputed {err!r}")
        if not _close(qual, res * qn ** float(ell), 1e-12):
            bad.append(f"record {i}: quality is not residual * qnorm^r")
        if i and not (qn > recs[i - 1][0] and res < recs[i - 1][3]):
            bad.append(f"record {i}: not a strict improvement")
    walk = [(r[0], r[3], _term_scale(a, r[1], r[2][0])) for r in recs]
    if exact:
        qn, q, p = recs[-1][:3]
        if sum(c * x for c, x in zip(a_frac, q)) + p[0] != 0:
            bad.append("rational target: last record is not an exact zero")
        walk = walk[:-1]
        shells = qn - 1
    else:
        shells = meta["qmax"]
    brute = _brute_records(a, shells)
    if [w[0] for w in walk] != [h for h, _ in brute] or not all(
            _residual_close(r, b, scale) for (_, r, scale), (_, b) in zip(walk, brute)):
        bad.append("records differ from the brute-force shell scan")
    return bad


def check_probe(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    bad = []
    kinds = ("certified-member", "evidence-member", "evidence-nonmember", "inconclusive")
    if out["kind"] not in kinds or out["target"] != "W_r":
        bad.append(f"unexpected verdict {out['kind']!r} / {out['target']!r}")
    a = float(_frac(meta["target"]))
    for w in out["witnesses"]:
        err = abs(a * w["q"][0] + w["p"][0])
        if not _residual_close(w["residual"], err, _term_scale([a], w["q"], w["p"][0])):
            bad.append("witness residual disagrees with its (q, p)")
        if not _close(w["quality"], w["residual"] * w["qnorm"] ** meta["r"], 1e-12):
            bad.append("witness quality is not residual * qnorm^r")
    if out["kind"] == "evidence-member":
        good = [w for w in out["witnesses"] if w["quality"] < 1.0]
        if len(good) < 3:
            bad.append("evidence-member with fewer than 3 witnesses below c")
    return bad


def _a_ext_spec(block) -> List[List[int]]:
    """The extended matrix written out from its definition (X; Y; Z)."""
    arow, brow = block
    w = len(arow)
    pairs = list(combinations(range(w), 2))
    xs = [[0] * len(pairs) for _ in range(w)]
    ys = [[0] * len(pairs) for _ in range(w)]
    zs = []
    for col, (i, j) in enumerate(pairs):
        xs[i][col], xs[j][col] = -arow[j], arow[i]
        ys[i][col], ys[j][col] = -brow[j], brow[i]
        zs.append(arow[j] * brow[i] - arow[i] * brow[j])
    return xs + ys + [zs]


def check_ext(meta: dict, text: str) -> List[str]:
    rows = [[_frac(x) for x in line.split(",")] for line in text.splitlines()]
    n = meta["n"]
    if len(rows) != 2 * n - 3 or any(len(r) != math.comb(n - 2, 2) for r in rows):
        return ["extended matrix has the wrong shape"]
    if rows != [[Fraction(x) for x in r] for r in _a_ext_spec(meta["block"])]:
        return ["extended matrix differs from its definition"]
    if n == 4 and [r[0] for r in rows] != [-2, 1, -4, 3, 2]:
        return ["criterion 2's frozen column differs"]
    return []


def check_dirichlet(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    x = [float(_frac(v)) for v in meta["x"]]
    bad = []
    if [row["T"] for row in out["rows"]] != meta["t"]:
        return ["T grid differs from the request"]
    for row in out["rows"]:
        q = oracles.dirichlet_vect_naive(x, meta["delta"], row["T"])
        if row["solvable"] != (q is not None) or (q is not None and row["q"] != [q]):
            bad.append(f"T={row['T']}: disagrees with the naive search ({q})")
    return bad


# -- kempf: weights written out independently of instability.weight_support


def _weights(rep: str, v, n: int):
    out = set()
    if rep == "standard":
        for i, c in enumerate(v):
            if c:
                out.add(tuple(int(j == i) for j in range(n)))
    elif rep == "wedge2":
        for c, (i, j) in zip(v, combinations(range(n), 2)):
            if c:
                out.add(tuple(int(k in (i, j)) for k in range(n)))
    else:
        for i in range(n):
            for j in range(n):
                if v[i][j]:
                    out.add(tuple(int(k == i) - int(k == j) for k in range(n)))
    return [tuple(Fraction(c) - Fraction(sum(w), n) for c in w) for w in sorted(out)]


def check_kempf(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    b2 = oracles.min_norm_point_subsets(_weights(meta["rep"], meta["v"], meta["n"]))
    got = Fraction(*out["b_squared"])
    bad = []
    if got != b2:
        bad.append(f"B^2 = {got} but the subset hull oracle gives {b2}")
    if out["unstable"] != (b2 > 0) or out["semistable"] == out["unstable"]:
        bad.append("stability flags disagree with B^2")
    if out["unstable"]:
        lam = out["lambda_star"]
        m = Fraction(*out["m_star"])
        if sum(lam) != 0 or m * m != got * sum(c * c for c in lam):
            bad.append("lambda_star fails the ratio check m^2 = B^2 |lambda|^2")
    return bad


# -- roots and sim example ----------------------------------------------------

# criterion 8: rank <= 3 pass set, with the B2 = C2 and D3 = A3 coincidences
ROOTS_PASS_SET = sorted(
    [["A", r, i] for r in (1, 2, 3) for i in sorted({1, r})]
    + [["C", 2, 1], ["C", 3, 1], ["B", 2, 2], ["D", 3, 2], ["D", 3, 3]]
)


def check_roots_check(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    if sorted(out["pass_set"]) != ROOTS_PASS_SET:
        return [f"pass set {out['pass_set']} differs from criterion 8"]
    return []


def check_roots_build(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    n = out["rank"]
    expect = set()
    for i in range(n):
        for j in range(n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i] += si
                    v[j] += sj
                    if i != j or si == sj:
                        expect.add(tuple(str(c) for c in v))
    if out["family"] != "C" or {tuple(r) for r in out["roots"]} != expect:
        return ["C4 roots differ from {+-e_i +- e_j, +-2 e_i}"]
    return []


def check_example(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    if out["n"] != 6 or out["D"] != meta["D"] or len(out["coords"]) != 5:
        return ["example curve has the wrong shape"]
    return []


# -- library calls ------------------------------------------------------------


def check_wedge(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    a, b = meta["a"], meta["b"]
    ab = [[sum(a[i][k] * b[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    bad = []
    if out["equal"] is not True:
        bad.append("wedge(AB) != wedge(A) wedge(B)")
    for key, m in (("wedge_ab", ab), ("wedge_a", a)):
        if [[_frac(x) for x in r] for r in out[key]] != oracles.minors_matrix(m, 2):
            bad.append(f"{key} differs from the minors oracle")
    return bad


def check_pfaffian(meta: dict, text: str) -> List[str]:
    pf = _frac(json.loads(text)["pfaffian"])
    if pf * pf != oracles.det_by_permutations(meta["m"]):
        return ["pf^2 != det"]
    if pf != oracles.pfaffian_by_matchings(meta["m"]):
        return ["pfaffian differs from the matching oracle"]
    return []


def check_descent(meta: dict, text: str) -> List[str]:
    v = json.loads(text)["v"]
    w, k, vs = meta["w"], meta["k"], meta["vs"]
    norm2, content = oracles.wedge_norm_content(w)
    vv = sum(x * x for x in v)
    bad = []
    if not vv > 0 or vv**k * content**2 > k**k * norm2:
        bad.append("descended vector breaks the Minkowski bound (criterion 10)")
    rows = vs + [v]
    for cols in combinations(range(meta["n"]), k + 1):
        if oracles.det_by_permutations([[r[c] for c in cols] for r in rows]):
            bad.append("descended vector is not in the span")
            break
    return bad


def check_residual(meta: dict, text: str) -> List[str]:
    out = json.loads(text)
    if not out["in_band"] or not (
            out["pi1_norm"] == out["residual_norm"] == 0.0
            or 1.0 / out["band"] <= out["ratio"] <= out["band"]):
        return ["wedge residual outside the certified band (criterion 6)"]
    return []


CHECKS = {
    "dioph.approx.float2": check_approx,
    "dioph.approx.float3": check_approx,
    "dioph.approx.float1": check_approx,
    "dioph.approx.rational": check_approx,
    "dioph.probe": check_probe,
    "dioph.ext": check_ext,
    "dioph.ext.frozen": check_ext,
    "dirichlet": check_dirichlet,
    "kempf.standard": check_kempf,
    "kempf.wedge2": check_kempf,
    "kempf.adjoint": check_kempf,
    "roots.check.all": check_roots_check,
    "roots.build.C4": check_roots_build,
    "sim.example": check_example,
    "wedge.functoriality": check_wedge,
    "wedge.pfaffian": check_pfaffian,
    "descent.descend": check_descent,
    "symplectic.residual": check_residual,
}


def check_call(call, texts: List[str]) -> List[str]:
    """Seed-independent checks of one call's outputs."""
    if call.name.startswith("sim.translate."):
        return check_translate(call.meta, *texts)
    return CHECKS[call.name](call.meta, texts[0])


# -- reference outputs --------------------------------------------------------


def _fields(text: str):
    try:
        return "json", json.loads(text)
    except ValueError:
        return "csv", [line.split(",") for line in text.splitlines()]


def _same(ref, got, path: str, bad: List[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            bad.append(f"{path}: keys differ")
            return
        for key in ref:
            _same(ref[key], got[key], f"{path}.{key}", bad)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            bad.append(f"{path}: length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _same(r, g, f"{path}[{i}]", bad)
    elif isinstance(ref, str):
        _same_scalar(ref, got, path, bad)
    elif isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not _close(ref, float(got), REL_TOL) and abs(ref - got) > ABS_TOL:
            bad.append(f"{path}: {got!r} vs reference {ref!r}")
    elif ref != got or type(ref) is not type(got):
        bad.append(f"{path}: {got!r} vs reference {ref!r}")


def _same_scalar(ref: str, got, path: str, bad: List[str]) -> None:
    """CSV cells and JSON strings: integers and words exactly, decimals
    within REL_TOL or ABS_TOL."""
    if ref == got:
        return
    try:
        int(ref)
        exact = True
    except ValueError:
        exact = False
    try:
        if not exact and isinstance(got, str) and (
                _close(float(ref), float(got), REL_TOL)
                or abs(float(ref) - float(got)) <= ABS_TOL):
            return
    except ValueError:
        pass
    bad.append(f"{path}: {got!r} vs reference {ref!r}")


def compare_reference(reference: Dict[str, str], outputs: Dict[str, str]) -> Dict[str, List[str]]:
    """Problems per output file name, against the recorded reference."""
    problems = {}
    if sorted(reference) != sorted(outputs):
        return {"*": ["output file set differs from the reference"]}
    for name, ref_text in reference.items():
        kind, ref = _fields(ref_text)
        got_kind, got = _fields(outputs[name])
        bad: List[str] = []
        if kind != got_kind:
            bad.append("output format differs")
        else:
            _same(ref, got, name, bad)
        if bad:
            problems[name] = bad
    return problems


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_path(here: str, workload: str) -> str:
    return os.path.join(here, "reference", f"{workload}.json")
