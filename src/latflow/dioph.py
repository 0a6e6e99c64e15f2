"""Diophantine approximation probes.

Membership in the approximation sets W_r / W'_r (inhomogeneous form
||A q + p|| <= C ||q||^(-r), sup norms) can only be certified exactly for
rational targets; everything else is graded evidence from finite searches.
Float targets are ranked in floats and rational targets on exact integer
residuals; exact arithmetic confirms certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetError, InputError, shown
from .exact import ExactMatrix, ExactScalar

DEFAULT_ENUM_BUDGET = 4_000_000


@dataclass(frozen=True)
class ApproxRecord:
    """One best-approximation witness: p is the nearest-integer vector, so the
    residual is at most 1/2 in every coordinate."""

    qnorm: int
    q: Tuple[int, ...]
    p: Tuple[int, ...]
    residual: float
    exact_zero: bool = False

    def quality(self, r: float) -> float:
        # an exact zero has quality 0 for every r, however large qnorm**r is
        return self.residual * self.qnorm**r if self.residual else 0.0


def _finite_float(x) -> float:
    """A target entry as a double; nan, infinities and rationals beyond the
    double range are refused."""
    try:
        f = x if isinstance(x, float) else float(ExactScalar.coerce(x))
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        text = x.serialize() if isinstance(x, ExactScalar) else repr(x)
        raise InputError(f"target entry {shown(text)} is not a finite double")
    return f


def _read_target(a):
    """A target as (af, form): af the checked float matrix, and form = (N, L)
    the integer form of an all-rational target, N = L A with L the lcm of
    the denominators, so the residual of q is dist(N q, L Z) / L exactly;
    form is None when an entry is a float or irrational."""
    rows = a.rows if isinstance(a, ExactMatrix) else [list(row) for row in a]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise InputError("target must be a matrix (m >= 1 rows of one length l >= 1)")
    af = np.array([[_finite_float(x) for x in row] for row in rows])
    try:
        fracs = [[ExactScalar.coerce(x).as_fraction() for x in row] for row in rows]
    except InputError:
        return af, None
    den = math.lcm(*(f.denominator for row in fracs for f in row))
    return af, ([[int(f * den) for f in row] for row in fracs], den)


def _short(n: int) -> str:
    """n in full below 10^12, else to three digits; float(n) would overflow
    on the search size of a T near the double range."""
    return str(n) if n < 10**12 else f"{Decimal(n):.3g}"


def best_approximations(
    a,
    qmax: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> List[ApproxRecord]:
    """Successive minima of q -> min_p ||A q + p|| over sup-norm shells of q.

    Shells are walked in increasing sup norm, each ranked whole, one q of each
    +-q pair. A shell's minimum is a record when its residual strictly beats
    every smaller shell; within a shell a tie goes to the lexicographically
    first q with its first nonzero coordinate positive. Rational input is
    ranked on exact residuals, so exact ties are ties; float input in floats.
    For exact rational input the denominator-clearing zero certificate is
    spliced in at its own shell, so the list always ends with an exact zero
    when one is in range.
    """
    af, form = _read_target(a)
    return _search(af, form, qmax, budget)


def _search(af, form, qmax: int, budget: int) -> List[ApproxRecord]:
    """best_approximations of a target read by _read_target."""
    ell = af.shape[1]
    if qmax < 1:
        raise InputError("qmax must be >= 1")
    cert = rational_certificate(form)
    # a certificate in range ends the walk one shell below its own
    walk_to = qmax if cert is None or cert.qnorm > qmax else cert.qnorm - 1
    # the one-column walk ranks q = 1..qmax, the shell walk one q of each
    # +-q pair in the cube, counted here as the whole cube
    points = walk_to if ell == 1 else (2 * walk_to + 1) ** ell
    if points > budget:
        raise BudgetError(f"search needs {_short(points)} points for "
                          f"qmax={_short(walk_to)}, budget={budget}")
    walk = _best_approx_1d if ell == 1 else _shell_walk
    records = walk(af, form, walk_to)
    if walk_to < qmax and not any(r.residual == 0.0 for r in records):
        records.append(cert)
    return records


def _shell_walk(af, form, qmax) -> List[ApproxRecord]:
    ell = af.shape[1]
    scaled = _scaled_target(form, qmax, ell)
    records: List[ApproxRecord] = []
    best = math.inf
    for h in range(1, qmax + 1):
        qs = _shell_points(h, ell)
        keys = _residual_keys(qs, af, scaled)
        low = keys.min()
        if low < best:
            best = low
            q = min(_sign_normalized(c) for c in qs[keys == low].tolist())
            records.append(_record(af, scaled, h, q, low))
            if records[-1].exact_zero:
                break
    return records


def _shell_points(h: int, ell: int) -> np.ndarray:
    """One q of each +-q pair with sup norm h, as a (k, ell) int array.

    Face j holds q_j = h with the earlier coordinates in (-h, h) and the later
    ones in [-h, h], so each pair appears once, as the member whose first
    coordinate of absolute value h is positive.
    """
    inner, full = np.arange(1 - h, h), np.arange(-h, h + 1)
    faces = [
        np.stack(
            np.meshgrid(*[inner] * j, [h], *[full] * (ell - 1 - j), indexing="ij"),
            axis=-1,
        ).reshape(-1, ell)
        for j in range(ell)
    ]
    return np.concatenate(faces)


def _sign_normalized(q: Sequence[int]) -> Tuple[int, ...]:
    """The member of +-q whose first nonzero coordinate is positive."""
    first = next(c for c in q if c)
    return tuple(q) if first > 0 else tuple(-c for c in q)


def _scaled_target(form, qmax: int, ell: int):
    """form with N as an array: int64 while |N q| + L stays below 2^62 for
    every q up to qmax (and N itself when qmax is 0), and Python ints
    (object dtype) beyond; None for a float target."""
    if form is None:
        return None
    nums, den = form
    bound = den + max(abs(v) for row in nums for v in row) * max(qmax, 1) * ell
    return np.array(nums, dtype=np.int64 if bound < 2**62 else object), den


def _residual_keys(qs: np.ndarray, af: np.ndarray, scaled) -> np.ndarray:
    """Rank key of max_i |A q + p|_i (p nearest) for each row q of qs: the
    float residual, or for a rational target its exact numerator over L."""
    mat, den = scaled if scaled is not None else (af, None)
    # products laid out (m, k), so the max over the m rows runs across whole
    # rows rather than along a short axis; one column is an outer product
    if qs.shape[1] == 1:
        prods = mat * qs[:, 0]
    else:
        prods = (qs @ mat.T).T
    if den is None:
        return np.max(np.abs(prods - np.round(prods)), axis=0)
    rem = prods % den
    return np.max(np.minimum(rem, den - rem), axis=0)


def _best_approx_1d(af, form, qmax) -> List[ApproxRecord]:
    scaled = _scaled_target(form, qmax, 1)
    records: List[ApproxRecord] = []
    best = math.inf
    chunk = 1 << 20
    for lo in range(1, qmax + 1, chunk):
        qs = np.arange(lo, min(lo + chunk, qmax + 1))[:, None]
        res = _residual_keys(qs, af, scaled)
        run = np.minimum.accumulate(res)
        # index 0 and the strict running minima of the chunk; best filters them
        for i in [0, *(np.flatnonzero(res[1:] < run[:-1]) + 1)]:
            if res[i] < best:
                best = res[i]
                records.append(_record(af, scaled, int(qs[i, 0]), qs[i], res[i]))
                if records[-1].exact_zero:
                    return records
    return records


def _record(af, scaled, h, q, key) -> ApproxRecord:
    """The record of q at sup norm h, from the walk's rank key of q. p is
    -round(A q), halves to even, in the arithmetic the walk ranks in. A
    rational target's key is the exact residual numerator over L, so the
    residual is key / L correctly rounded and the record is an exact zero
    when the key is 0. A float target's residual is evaluated again in one
    product, as the batched key may differ from it in the last bits."""
    q = tuple(int(c) for c in q)
    if scaled is not None:
        nums, den = scaled
        p = tuple(-round(Fraction(sum(int(n) * c for n, c in zip(row, q)), den))
                  for row in nums)
        return ApproxRecord(qnorm=h, q=q, p=p, residual=int(key) / den, exact_zero=not key)
    vals = af @ np.asarray(q, dtype=float)
    p = -np.round(vals)
    return ApproxRecord(qnorm=h, q=q, p=tuple(int(x) for x in p),
                        residual=float(np.max(np.abs(vals + p))))


def check_exponent(r: float, qmax: int) -> None:
    """Refuse a qmax below 1, an exponent r that is not finite, or one for
    which the quality residual * qnorm**r of a record up to qmax would
    overflow a double."""
    if qmax < 1:
        raise InputError("qmax must be >= 1")
    if not math.isfinite(r):
        raise InputError(f"r = {r} is not a finite number")
    try:
        float(qmax) ** r
    except OverflowError:
        raise InputError(f"r = {r} is out of range for qmax = {qmax}: "
                         "qmax**r overflows a double") from None


def records_to_rows(records: Sequence[ApproxRecord], r: float) -> List[dict]:
    return [
        {
            "qnorm": rec.qnorm,
            "q": ";".join(str(c) for c in rec.q),
            "p": ";".join(str(c) for c in rec.p),
            "residual": rec.residual,
            "quality": rec.quality(r),
        }
        for rec in records
    ]


def exponent_fit(records: Sequence[ApproxRecord]):
    """Slope of -log(residual) against log ||q|| over the successive minima.

    Returns (omega_hat, infinite_flag): an exact zero residual means the
    exponent is infinite, and the zero is excluded from the fit.
    """
    infinite = any(rec.exact_zero or rec.residual == 0.0 for rec in records)
    pts = [
        (math.log(rec.qnorm), -math.log(rec.residual))
        for rec in records
        if rec.residual > 0.0 and rec.qnorm >= 1
    ]
    if len({x for x, _ in pts}) < 2:
        return None, infinite
    # the least-squares slope, each sum correctly rounded by fsum
    mx = math.fsum(x for x, _ in pts) / len(pts)
    my = math.fsum(y for _, y in pts) / len(pts)
    sxy = math.fsum((x - mx) * (y - my) for x, y in pts)
    return sxy / math.fsum((x - mx) ** 2 for x, _ in pts), infinite


def exponent_estimate(a, qmax: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Approximation-exponent estimate for a target matrix: run the
    successive-minima search and fit. qmax below 10 gives too little range."""
    if qmax < 10:
        raise InputError("qmax must be >= 10 for an exponent fit")
    return exponent_fit(best_approximations(a, qmax, budget=budget))


def rational_certificate(form) -> Optional[ApproxRecord]:
    """For the integer form (N, L) of a rational A (from _read_target): the
    exact-zero record of integer (q, p) with A q + p = 0, q = q0 e_1 with
    q0 = L / gcd(L, column 0 of N), the lcm of the denominators of A's first
    column. None for a target with a float or irrational entry (form None)."""
    if form is None:
        return None
    nums, den = form
    g = math.gcd(den, *(row[0] for row in nums))
    return ApproxRecord(qnorm=den // g, q=(den // g,) + (0,) * (len(nums[0]) - 1),
                        p=tuple(-(row[0] // g) for row in nums), residual=0.0,
                        exact_zero=True)


def a_ext(a: ExactMatrix) -> ExactMatrix:
    """Extended matrix of a 2 x (n-2) block: stacked (X; Y; Z) with columns
    indexed by pairs i < j of the n-2 original columns (lex order).

    X[k,(i,j)] = -a_j if k == i, a_i if k == j, else 0; Y likewise with the
    second row; Z[(i,j)] = a_j b_i - a_i b_j. Shape (2n-3) x C(n-2, 2).
    """
    if a.nrows != 2:
        raise InputError("a_ext expects a 2-row matrix")
    w = a.ncols
    if w < 2:
        raise InputError("a_ext needs at least two columns")
    pairs = [(i, j) for i in range(w) for j in range(i + 1, w)]
    arow, brow = a.rows[0], a.rows[1]
    zero = ExactScalar(0)
    xs = [[zero] * len(pairs) for _ in range(w)]
    ys = [[zero] * len(pairs) for _ in range(w)]
    zs = [zero] * len(pairs)
    for col, (i, j) in enumerate(pairs):
        xs[i][col] = -arow[j]
        xs[j][col] = arow[i]
        ys[i][col] = -brow[j]
        ys[j][col] = brow[i]
        zs[col] = arow[j] * brow[i] - arow[i] * brow[j]
    return ExactMatrix(xs + ys + [zs])


CERTIFIED_MEMBER = "certified-member"
EVIDENCE_MEMBER = "evidence-member"
EVIDENCE_NONMEMBER = "evidence-nonmember"
INCONCLUSIVE = "inconclusive"


@dataclass
class DiophVerdict:
    kind: str
    target: str
    r: float
    qmax: int
    witnesses: List[ApproxRecord] = field(default_factory=list)
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "r": self.r,
            "qmax": self.qmax,
            "witnesses": [
                {
                    "qnorm": w.qnorm,
                    "q": list(w.q),
                    "p": list(w.p),
                    "residual": w.residual,
                    "quality": w.quality(self.r),
                    "exact_zero": w.exact_zero,
                }
                for w in self.witnesses
            ],
            "notes": self.notes,
        }


def w_probe(
    a,
    r: float,
    qmax: int,
    target: str = "W",
    c: float = 1.0,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> DiophVerdict:
    """Graded membership probe for W_r (target 'W') or W'_r (target 'Wprime').

    Exact rational targets are certified members outright (a zero residual
    solves the inequality for every constant, with all multiples as further
    solutions). Otherwise: W_r evidence-member needs at least 3 successive
    minima with quality below c; W'_r evidence-member needs the tail qualities
    to collapse relative to the head. Nonmember evidence is the mirrored
    failure; anything else is inconclusive. c is checked for both targets but
    read for W only: the W'_r verdict does not depend on it.
    """
    if target not in ("W", "Wprime"):
        raise InputError(f"unknown probe target {target!r}")
    if r <= 0:
        raise InputError("r must be positive")
    if not (math.isfinite(c) and c > 0):
        raise InputError(f"c must be finite and > 0, got {c}")
    check_exponent(r, qmax)
    tname = "W_r" if target == "W" else "W'_r"
    af, form = _read_target(a)
    cert = rational_certificate(form)
    if cert is not None:
        return DiophVerdict(CERTIFIED_MEMBER, tname, r, qmax, [cert],
                            "rational target: exact zero-residual certificate")
    # not all rational, so no record is an exact zero, and qmax >= 1 gives
    # at least the record of the first shell
    records = _search(af, None, qmax, budget)
    split = math.sqrt(qmax)
    head = [rec for rec in records if rec.qnorm <= split]
    tail = [rec for rec in records if rec.qnorm > split]
    if target == "W":
        good = [rec for rec in records if rec.quality(r) < c]
        if len(good) >= 3:
            return DiophVerdict(
                EVIDENCE_MEMBER, tname, r, qmax, good,
                f"{len(good)} successive minima with quality < {c}",
            )
        if tail and not any(rec.quality(r) < c for rec in tail):
            return DiophVerdict(
                EVIDENCE_NONMEMBER, tname, r, qmax, records[-3:],
                f"no tail record beats quality {c}",
            )
        return DiophVerdict(INCONCLUSIVE, tname, r, qmax, records[-3:], "")
    # target W': quality must tend to 0 over the searched range
    if not head or not tail:
        return DiophVerdict(INCONCLUSIVE, tname, r, qmax, records[-3:],
                            "not enough range to split head/tail")
    qmin_head = min(rec.quality(r) for rec in head)
    qmin_tail = min(rec.quality(r) for rec in tail)
    if qmin_tail <= 0.1 * qmin_head:
        return DiophVerdict(
            EVIDENCE_MEMBER, tname, r, qmax, tail[-3:],
            f"tail quality {qmin_tail:.3g} collapsed below head {qmin_head:.3g}",
        )
    if qmin_tail >= 0.5 * qmin_head:
        return DiophVerdict(
            EVIDENCE_NONMEMBER, tname, r, qmax, records[-3:],
            f"tail quality {qmin_tail:.3g} stays comparable to head {qmin_head:.3g}",
        )
    return DiophVerdict(INCONCLUSIVE, tname, r, qmax, records[-3:], "")


# -- Dirichlet-type systems ---------------------------------------------------


@dataclass
class DirichletRow:
    t: float
    solvable: bool
    q: Optional[Tuple[int, ...]]
    p: Optional[Tuple[int, ...]]
    residual: Optional[float]


@dataclass
class DirichletReport:
    """One improvability probe: x in R^n, a delta in (0,1], and a row for
    each threshold T. form 'vect' is the simultaneous system (scalar q,
    vector p); 'lf' is the dual linear-form system (vector q, scalar p)."""

    x: Tuple[float, ...]
    form: str
    delta: float
    rows: List[DirichletRow]
    tail_solvable: bool

    @property
    def verdict(self) -> str:
        return "improvable-evidence" if self.tail_solvable else "not-improvable-evidence"

    def to_json(self) -> dict:
        return {
            "x": list(self.x),
            "form": self.form,
            "delta": self.delta,
            "rows": [
                {
                    "T": row.t,
                    "solvable": row.solvable,
                    "q": list(row.q) if row.q else None,
                    "p": list(row.p) if row.p else None,
                    "residual": row.residual,
                }
                for row in self.rows
            ],
            "verdict": self.verdict,
        }


def probe_singular(x, form: str, deltas: Sequence[float], t_grid: Sequence[float],
                   budget: int = DEFAULT_ENUM_BUDGET):
    """One report per delta, all read from one best-approximation walk to
    the largest T: 'vect' walks the column x, 'lf' the row x, and the walk
    does not read delta. The smallest solution at T is the first record
    within T's norm bound whose residual meets T's threshold, so a row
    depends on no other T. The tail (upper half of the grid by index)
    stands in for 'all sufficiently large T'; singular evidence =
    improvable at every delta."""
    x = tuple(float(v) for v in x)
    deltas = [float(d) for d in deltas]
    t_grid = [float(t) for t in t_grid]
    n, vect = len(x), form == "vect"
    if form not in ("vect", "lf"):
        raise InputError(f"unknown Dirichlet form {form!r}")
    if not deltas:
        raise InputError("empty delta list")
    if not all(0 < d <= 1 for d in deltas):
        raise InputError("delta must lie in (0, 1]")
    if not t_grid:
        raise InputError("empty T grid")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise InputError("T grid must be strictly increasing")
    for t in t_grid:
        if not (math.isfinite(t) and t > 1):
            raise InputError(f"T values must be finite and > 1, got {t}")
        if vect:  # the walk's norm bound is T^n
            try:
                t ** n
            except OverflowError:
                raise InputError(f"T^n overflows a double at T = {t}, n = {n}") from None
    for v in x:
        if not math.isfinite(v):
            raise InputError(f"x must be finite, got {v}")
    af, int_form = _read_target([[v] for v in x] if vect else [x])

    def bound(t):
        return int(math.floor(t**n if vect else t))

    try:
        records = _search(af, int_form, bound(t_grid[-1]), budget)
    except BudgetError as exc:
        raise BudgetError(f"dirichlet {form} at T = {t_grid[-1]:g}: {exc}") from None
    reports = []
    for delta in deltas:
        rows: List[DirichletRow] = []
        for t in t_grid:
            limit = (delta / t if vect else delta * t**-n) + 1e-15
            rec = next((r for r in records if r.qnorm <= bound(t) and r.residual <= limit), None)
            if rec is None:
                rows.append(DirichletRow(t=t, solvable=False, q=None, p=None, residual=None))
                continue
            rec = rec if vect else _lf_witness(af, rec, limit)
            rows.append(DirichletRow(t=t, solvable=True, q=rec.q, p=rec.p, residual=rec.residual))
        tail = rows[len(rows) // 2:]
        reports.append(DirichletReport(x, form, delta, rows, all(r.solvable for r in tail)))
    return reports, all(rep.tail_solvable for rep in reports)


def _lf_witness(af, rec: ApproxRecord, limit: float) -> ApproxRecord:
    """The record of the hit (residual <= limit) in rec's shell that comes
    first in lex order over +-q; rec itself when float rounding leaves the
    shell without a hit."""
    qs = _shell_points(rec.qnorm, af.shape[1])
    keys = _residual_keys(qs, af, None)
    hits = np.flatnonzero(keys <= limit)
    if hits.size == 0:
        return rec
    q, i = min((min(tuple(qs[i].tolist()), tuple((-qs[i]).tolist())), i) for i in hits)
    return _record(af, None, rec.qnorm, q, keys[i])
