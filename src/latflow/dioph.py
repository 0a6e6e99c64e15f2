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
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetError, InputError
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
        return self.residual * self.qnorm**r


def _finite_float(x) -> float:
    """A target entry as a double; nan, infinities and rationals beyond the
    double range are refused."""
    try:
        f = x if isinstance(x, float) else float(ExactScalar.coerce(x))
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        text = x.serialize() if isinstance(x, ExactScalar) else repr(x)
        if len(text) > 24:
            text = f"{text[:12]}... ({len(text)} characters)"
        raise InputError(f"target entry {text} is not a finite double")
    return f


def _as_float_matrix(a) -> np.ndarray:
    rows = a.rows if isinstance(a, ExactMatrix) else a
    arr = np.asarray([[_finite_float(x) for x in row] for row in rows], dtype=float)
    if arr.ndim != 2:
        raise InputError("target must be a matrix (m rows, l columns)")
    return arr


def _as_exact_matrix(a) -> Optional[ExactMatrix]:
    try:
        if isinstance(a, ExactMatrix):
            m = a
        else:
            m = ExactMatrix([[x for x in row] for row in a])
    except (InputError, TypeError):
        return None
    if all(x.is_rational() for row in m.rows for x in row):
        return m
    return None


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
    af = _as_float_matrix(a)
    m, ell = af.shape
    if qmax < 1:
        raise InputError("qmax must be >= 1")
    exact = _as_exact_matrix(a)
    cert = rational_certificate(a) if exact is not None else None
    walk_to = qmax
    if cert is not None:
        cert_shell = max(abs(c) for c in cert[0])
        if cert_shell <= qmax:
            walk_to = cert_shell - 1
    # the one-column walk ranks q = 1..qmax, the shell walk one q of each
    # +-q pair in the cube, counted here as the whole cube
    points = walk_to if ell == 1 else (2 * walk_to + 1) ** ell
    if points > budget:
        raise BudgetError(
            f"search needs {points} points for qmax={walk_to}, budget={budget}"
        )
    walk = _best_approx_1d if ell == 1 else _shell_walk
    records = walk(af, exact, walk_to)
    if cert is not None and cert_shell <= qmax and not any(
        r.residual == 0.0 for r in records
    ):
        records.append(ApproxRecord(
            qnorm=cert_shell, q=cert[0], p=cert[1], residual=0.0, exact_zero=True,
        ))
    return records


def _shell_walk(af, exact, qmax) -> List[ApproxRecord]:
    ell = af.shape[1]
    scaled = _scaled_target(exact, qmax, ell)
    records: List[ApproxRecord] = []
    best = math.inf
    for h in range(1, qmax + 1):
        qs = _shell_points(h, ell)
        keys = _residual_keys(qs, af, scaled)
        low = keys.min()
        if low < best:
            best = low
            q = min(_sign_normalized(c) for c in qs[keys == low].tolist())
            records.append(_finalize_record(af, h, q, _nearest_p(q, af, scaled), low, scaled))
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


def _scaled_target(exact, qmax: int, ell: int):
    """Integer form (N, L) of a rational target, N = L A with L the lcm of the
    denominators, so the residual of q is dist(N q, L Z) / L exactly; None
    for a float target. N is int64 while |N q| + L stays below 2^62 for every
    q up to qmax (and N itself when qmax is 0), and Python ints (object
    dtype) beyond."""
    if exact is None:
        return None
    fracs = [[x.as_fraction() for x in row] for row in exact.rows]
    den = math.lcm(*(f.denominator for row in fracs for f in row))
    nums = [[int(f * den) for f in row] for row in fracs]
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


def _nearest_p(q: Tuple[int, ...], af: np.ndarray, scaled) -> Tuple[int, ...]:
    """p = -round(A q), halves to even, in the arithmetic the walk ranks in."""
    if scaled is None:
        return tuple(int(x) for x in -np.round(af @ np.asarray(q, dtype=float)))
    nums, den = scaled
    return tuple(
        -round(Fraction(sum(int(n) * c for n, c in zip(row, q)), den)) for row in nums
    )


def _best_approx_1d(af, exact, qmax) -> List[ApproxRecord]:
    scaled = _scaled_target(exact, qmax, 1)
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
                q = (int(qs[i, 0]),)
                p = _nearest_p(q, af, scaled)
                records.append(_finalize_record(af, q[0], q, p, res[i], scaled))
                if records[-1].exact_zero:
                    return records
    return records


def _finalize_record(af, h, q, p, key, scaled) -> ApproxRecord:
    """A record from the walk's rank key. A rational target's key is the
    exact residual numerator over L, so the residual is key / L correctly
    rounded and the record is an exact zero when the key is 0. A float
    target's residual is evaluated again in one product, as the batched key
    may differ from it in the last bits."""
    qt, pt = tuple(int(c) for c in q), tuple(int(c) for c in p)
    if scaled is not None:
        key = int(key)
        return ApproxRecord(qnorm=h, q=qt, p=pt, residual=key / scaled[1],
                            exact_zero=key == 0)
    vals = af @ np.asarray(qt, dtype=float)
    res = float(np.max(np.abs(vals + np.asarray(pt, dtype=float))))
    return ApproxRecord(qnorm=h, q=qt, p=pt, residual=res)


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
    if len(pts) < 2:
        return None, infinite
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if float(np.ptp(xs)) == 0.0:
        return None, infinite
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, infinite


def exponent_estimate(a, qmax: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Approximation-exponent estimate for a target matrix: run the
    successive-minima search and fit. qmax below 10 gives too little range."""
    if qmax < 10:
        raise InputError("qmax must be >= 10 for an exponent fit")
    return exponent_fit(best_approximations(a, qmax, budget=budget))


def rational_certificate(a) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """For rational A: integer (q, p) with A q + p = 0 by clearing denominators
    of the first column. Returns None when A has an irrational entry."""
    exact = _as_exact_matrix(a)
    if exact is None:
        return None
    m, ell = exact.nrows, exact.ncols
    denoms = [exact.rows[i][0].as_fraction().denominator for i in range(m)]
    lcm = math.lcm(*denoms)
    q = [lcm] + [0] * (ell - 1)
    p = [-(exact.rows[i][0].as_fraction() * lcm) for i in range(m)]
    assert all(x.denominator == 1 for x in p)
    return tuple(q), tuple(int(x) for x in p)


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
    cert = rational_certificate(a)
    if cert is not None:
        q, p = cert
        rec = ApproxRecord(
            qnorm=max(abs(x) for x in q),
            q=q,
            p=p,
            residual=0.0,
            exact_zero=True,
        )
        return DiophVerdict(
            kind=CERTIFIED_MEMBER,
            target=tname,
            r=r,
            qmax=qmax,
            witnesses=[rec],
            notes="rational target: exact zero-residual certificate",
        )
    # not all rational, so no record is an exact zero, and qmax >= 1 gives
    # at least the record of the first shell
    records = best_approximations(a, qmax, budget=budget)
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


@dataclass(frozen=True)
class DirichletQuery:
    """One improvability probe: x in R^n, a delta in (0,1], and a grid of
    thresholds T. form 'vect' is the simultaneous system (scalar q, vector p);
    'lf' is the dual linear-form system (vector q, scalar p)."""

    x: Tuple[float, ...]
    form: str
    delta: float
    t_grid: Tuple[float, ...]
    budget: int = DEFAULT_ENUM_BUDGET

    def __post_init__(self):
        if self.form not in ("vect", "lf"):
            raise InputError(f"unknown Dirichlet form {self.form!r}")
        if not 0 < self.delta <= 1:
            raise InputError("delta must lie in (0, 1]")
        if not self.t_grid:
            raise InputError("empty T grid")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise InputError("T grid must be strictly increasing")
        for t in self.t_grid:
            if not (math.isfinite(t) and t > 1):
                raise InputError(f"T values must be finite and > 1, got {t}")
            if self.form == "vect":  # the walk's norm bound is T^n
                try:
                    t ** len(self.x)
                except OverflowError:
                    raise InputError(f"T^n overflows a double at T = {t}, "
                                     f"n = {len(self.x)}") from None
        for v in self.x:
            if not math.isfinite(v):
                raise InputError(f"x must be finite, got {v}")


@dataclass
class DirichletRow:
    t: float
    solvable: bool
    q: Optional[Tuple[int, ...]]
    p: Optional[Tuple[int, ...]]
    residual: Optional[float]


@dataclass
class DirichletReport:
    query: DirichletQuery
    rows: List[DirichletRow]
    tail_solvable: bool

    @property
    def verdict(self) -> str:
        return "improvable-evidence" if self.tail_solvable else "not-improvable-evidence"

    def to_json(self) -> dict:
        return {
            "x": list(self.query.x),
            "form": self.query.form,
            "delta": self.query.delta,
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


def _dirichlet_reports(queries: Sequence[DirichletQuery]) -> List[DirichletReport]:
    """Solvability of queries that differ in delta alone, at each T, all
    read from one best-approximation walk to the largest T of the first:
    'vect' walks the column x, 'lf' the row x, and the walk does not read
    delta. The smallest solution at T is the first record within T's norm
    bound whose residual meets T's threshold, so a row depends on no other
    T. The tail (upper half of the grid by index) stands in for 'all
    sufficiently large T'."""
    first = queries[0]
    n, vect = len(first.x), first.form == "vect"
    a = [[float(v)] for v in first.x] if vect else [[float(v) for v in first.x]]

    def bound(t):
        return int(math.floor(t**n if vect else t))

    t_max = first.t_grid[-1]
    try:
        records = best_approximations(a, bound(t_max), budget=first.budget)
    except BudgetError as exc:
        raise BudgetError(f"dirichlet {first.form} at T = {t_max:g}: {exc}") from None
    reports = []
    for query in queries:
        rows: List[DirichletRow] = []
        for t in query.t_grid:
            limit = (query.delta / t if vect else query.delta * t**-n) + 1e-15
            rec = next((r for r in records if r.qnorm <= bound(t) and r.residual <= limit), None)
            if rec is None:
                rows.append(DirichletRow(t=t, solvable=False, q=None, p=None, residual=None))
                continue
            q, p, res = (rec.q, rec.p, rec.residual) if vect else _lf_witness(a, rec, limit)
            rows.append(DirichletRow(t=t, solvable=True, q=q, p=p, residual=res))
        tail = rows[len(rows) // 2:]
        reports.append(DirichletReport(query=query, rows=rows,
                                       tail_solvable=all(r.solvable for r in tail)))
    return reports


def _lf_witness(a, rec: ApproxRecord, limit: float):
    """(q, p, residual) of the hit (residual <= limit) in rec's shell that
    comes first in lex order over +-q; rec's own when float rounding leaves
    the shell without a hit."""
    af = np.asarray(a)
    qs = _shell_points(rec.qnorm, af.shape[1])
    keys = _residual_keys(qs, af, None)
    hits = np.flatnonzero(keys <= limit)
    if hits.size == 0:
        return rec.q, rec.p, rec.residual
    q, i = min((min(tuple(qs[i].tolist()), tuple((-qs[i]).tolist())), i) for i in hits)
    return q, _nearest_p(q, af, None), float(keys[i])


def probe_singular(x, form: str, deltas: Sequence[float], t_grid: Sequence[float],
                   budget: int = DEFAULT_ENUM_BUDGET):
    """One query per delta, all from one walk; singular evidence =
    improvable at every delta."""
    reports = _dirichlet_reports([
        DirichletQuery(x=tuple(float(v) for v in x), form=form, delta=float(d),
                       t_grid=tuple(float(t) for t in t_grid), budget=budget)
        for d in deltas
    ]) if deltas else []
    singular = all(rep.tail_solvable for rep in reports)
    return reports, singular
