"""Instability machinery for the diagonal torus of SL_n.

A nonzero vector v in a representation has a weight support; the destabilizing
one-parameter subgroups are read off the convex hull of the sum-zero
projections of those weights. Everything here runs in exact rational
arithmetic: the hull's nearest point to the origin is found by Wolfe's
min-norm-point algorithm, which terminates after finitely many corral updates
when the pivots are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, InvariantError
from .exact import ExactScalar, eliminate
from .wedge import WedgeIndex

Weight = Tuple[int, ...]
Point = Tuple[Fraction, ...]


def weight_support(v: Sequence, rep, n: int) -> frozenset:
    """Set of torus weights carrying a nonzero coordinate of v.

    rep is 'standard' (v: n coordinates), ('wedge', k) (v: C(n,k) coordinates
    in lex order), or 'adjoint' (v: the n rows of an n x n matrix;
    off-diagonal (i,j) has weight e_i - e_j, the diagonal weight is 0).
    """
    if rep == "standard":
        coords = [ExactScalar.coerce(x) for x in v]
        if len(coords) != n:
            raise InputError(f"standard rep of SL_{n} needs {n} coordinates")
        out = set()
        for i, c in enumerate(coords):
            if c:
                w = [0] * n
                w[i] = 1
                out.add(tuple(w))
        return frozenset(out)
    if isinstance(rep, tuple) and len(rep) == 2 and rep[0] == "wedge":
        k = rep[1]
        idx = WedgeIndex(n, k)
        coords = [ExactScalar.coerce(x) for x in v]
        if len(coords) != idx.dim:
            raise InputError(f"wedge({k}) of SL_{n} needs {idx.dim} coordinates")
        out = set()
        for pos, c in enumerate(coords):
            if c:
                combo = idx.unrank(pos)
                w = [0] * n
                for i in combo:
                    w[i] = 1
                out.add(tuple(w))
        return frozenset(out)
    if rep == "adjoint":
        if len(v) != n or any(not isinstance(r, (list, tuple)) or len(r) != n for r in v):
            raise InputError(f"adjoint rep of SL_{n} needs an {n}x{n} matrix")
        rows = [[ExactScalar.coerce(x) for x in row] for row in v]
        out = set()
        for i in range(n):
            for j in range(n):
                if not rows[i][j]:
                    continue
                if i == j:
                    out.add((0,) * n)
                else:
                    w = [0] * n
                    w[i] = 1
                    w[j] = -1
                    out.add(tuple(w))
        return frozenset(out)
    raise InputError(f"unsupported representation {rep!r}")


def m_value(v: Sequence, lam: Sequence[int], rep, n: int) -> int:
    """min over the weight support of the pairing <chi, lam>."""
    support = weight_support(v, rep, n)
    if not support:
        raise InputError("m_value of the zero vector")
    return min(sum(c * l for c, l in zip(chi, lam)) for chi in support)


# -- exact min-norm point -----------------------------------------------------


def _dot(p: Point, q: Point) -> Fraction:
    return sum((a * b for a, b in zip(p, q)), Fraction(0))


def _affine_minimizer(points: List[Point]) -> List[Fraction]:
    """Coefficients alpha (summing to 1) of the min-norm point of the affine
    hull of `points`, from the KKT system [[Gram, 1], [1^T, 0]]."""
    k = len(points)
    aug = [[_dot(p, q) for q in points] + [Fraction(1), Fraction(0)] for p in points]
    aug.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    pivots, _ = eliminate(aug, reduced=True)
    if pivots != list(range(k + 1)):
        raise InvariantError("affinely dependent corral in min-norm point")
    return [row[k + 1] for row in aug[:k]]


def min_norm_point(points: Sequence[Sequence]) -> Tuple[Point, Dict[int, Fraction]]:
    """Nearest point to the origin in the convex hull of a finite rational set.

    Wolfe's algorithm with exact pivots. Returns the point and a sparse convex
    combination {input index: coefficient} realizing it.
    """
    pts: List[Point] = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise InputError("min_norm_point of an empty set")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise InputError("points of mixed dimension")
    start = min(range(len(pts)), key=lambda i: (_dot(pts[i], pts[i]), i))
    corral = [start]
    coeffs = [Fraction(1)]
    x = pts[start]
    for _ in range(40 * len(pts) + 100):
        xx = _dot(x, x)
        cand = min(range(len(pts)), key=lambda i: (_dot(x, pts[i]), i))
        if _dot(x, pts[cand]) >= xx or cand in corral:
            return x, dict(zip(corral, coeffs))
        corral.append(cand)
        coeffs = coeffs + [Fraction(0)]
        while True:
            alpha = _affine_minimizer([pts[i] for i in corral])
            if all(a > 0 for a in alpha):
                coeffs = alpha
                break
            theta = min(
                b / (b - a)
                for a, b in zip(alpha, coeffs)
                if a <= 0 and b > a
            )
            merged = [b + theta * (a - b) for a, b in zip(alpha, coeffs)]
            keep = [i for i, c in enumerate(merged) if c > 0]
            if not keep:
                raise InvariantError("empty corral after line search")
            corral = [corral[i] for i in keep]
            coeffs = [merged[i] for i in keep]
        x = tuple(
            sum((coeffs[j] * pts[corral[j]][d] for j in range(len(corral))),
                Fraction(0))
            for d in range(len(pts[0]))
        )
    raise InvariantError("min-norm point did not converge")


# -- Kempf optimum ------------------------------------------------------------


@dataclass(frozen=True)
class KempfResult:
    unstable: bool
    b2: Fraction
    lam_star: Optional[Tuple[int, ...]]
    m_star: Optional[Fraction]

    @property
    def b(self) -> float:
        return math.sqrt(float(self.b2))

    def to_json(self) -> dict:
        blocks = parabolic_of(self.lam_star) if self.lam_star is not None else None
        return {
            "unstable": self.unstable,
            "b_squared": [self.b2.numerator, self.b2.denominator],
            "b": self.b,
            "lambda_star": list(self.lam_star) if self.lam_star else None,
            "m_star": (
                [self.m_star.numerator, self.m_star.denominator]
                if self.m_star is not None else None
            ),
            "blocks": blocks,
        }


def project_sum_zero(chi: Sequence) -> Point:
    fr = [Fraction(c) for c in chi]
    n = len(fr)
    mean = sum(fr, Fraction(0)) / n
    return tuple(c - mean for c in fr)


def kempf_optimum(v: Sequence, rep, n: int) -> KempfResult:
    """Best destabilizing diagonal cocharacter for v.

    The optimum of m(v, lam)/||lam|| over sum-zero integer lam equals the
    Euclidean distance from the origin to the hull of the projected weight
    support; the maximizer lies on the ray through the nearest hull point.
    lam_star is that ray's primitive integer vector, or None when 0 is
    already inside the hull (semistable).
    """
    support = sorted(weight_support(v, rep, n))
    if not support:
        raise InputError("kempf_optimum of the zero vector")
    projected = [project_sum_zero(chi) for chi in support]
    h, _ = min_norm_point(projected)
    b2 = _dot(h, h)
    if b2 == 0:
        return KempfResult(unstable=False, b2=Fraction(0), lam_star=None, m_star=None)
    scale_lcm = math.lcm(*(c.denominator for c in h))
    ints = [int(c * scale_lcm) for c in h]
    g = math.gcd(*ints)
    lam = tuple(c // g for c in ints)
    m_star = Fraction(m_value(v, lam, rep, n))
    # the optimum is rational in the squares: m(v, lam*)^2 == B^2 * ||lam*||^2
    lam2 = sum(Fraction(c * c) for c in lam)
    if m_star * m_star != b2 * lam2 or m_star <= 0:
        raise InvariantError("destabilizing cocharacter failed the ratio check")
    return KempfResult(unstable=True, b2=b2, lam_star=lam, m_star=m_star)


def parabolic_of(lam: Sequence[int]) -> List[List[int]]:
    """Block partition of the subgroup whose conjugates by the one-parameter
    subgroup of lam stay bounded (entry (i, j) allowed iff lam_i >= lam_j):
    the level sets of lam, in order of appearance."""
    blocks: List[List[int]] = []
    seen: Dict[int, int] = {}
    for i, value in enumerate(lam):
        if value in seen:
            blocks[seen[value]].append(i)
        else:
            seen[value] = len(blocks)
            blocks.append([i])
    return blocks
