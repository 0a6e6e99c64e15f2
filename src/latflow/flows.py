"""Unipotent embeddings, polynomial curves and their affine spans.

The diagonal flow g_t = diag(e^{(n-1)t}, e^{-t}, ..., e^{-t}) itself is two
scales, computed where the orbit kernel uses them (lab.experiments).

Conventions: matrices act on column vectors; the expanding unipotent is the
top-row group, so a point v of R^(n-1) embeds as the matrix with first row
(1, v) and identity below. The row vector (1, x, x~ A) arises as
(1, x, 0...0) times the block matrix of A.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .exact import ExactMatrix, ExactScalar


class FlowError(InputError):
    """Bad flow or curve data."""


def g_of_A(a: ExactMatrix, n: int) -> ExactMatrix:
    """Block unipotent [[I_d, A], [0, I_{n-d}]] for A of shape d x (n-d)."""
    d = a.nrows
    if a.ncols != n - d:
        raise FlowError(f"A must be d x (n-d); got {a.nrows}x{a.ncols} for n={n}")
    rows = []
    for i in range(n):
        row = [ExactScalar(1 if i == j else 0) for j in range(n)]
        if i < d:
            for j in range(n - d):
                row[d + j] = a.rows[i][j]
        rows.append(row)
    return ExactMatrix(rows)


# -- polynomial curves --------------------------------------------------------


@dataclass
class Curve:
    """Polynomial map from a ball in R^k to R^(n-1), exact coefficients.

    coords[j] is a list of (exps, coeff) monomials; exps is a k-tuple of
    nonnegative integer exponents.
    """

    n: int
    k: int
    coords: List[List[Tuple[Tuple[int, ...], ExactScalar]]]
    center: List[float] = field(default_factory=list)
    radius: float = 1.0

    def __post_init__(self):
        if self.n < 3:
            raise FlowError("curves need n >= 3")
        if self.k < 1:
            raise FlowError("curves need k >= 1")
        if len(self.coords) != self.n - 1:
            raise FlowError(
                f"curve must have n-1={self.n - 1} coordinates, got {len(self.coords)}"
            )
        for poly in self.coords:
            for exps, _ in poly:
                if len(exps) != self.k:
                    raise FlowError("monomial exponent tuple of wrong arity")
        if not self.center:
            self.center = [0.0] * self.k
        if len(self.center) != self.k:
            raise FlowError("center of wrong arity")
        if not all(math.isfinite(c) for c in self.center):
            raise FlowError(f"center must be finite, got {self.center}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise FlowError(f"radius must be positive and finite, got {self.radius}")
        # a sample is center + radius * x with |x_i| <= 1: it must stay a finite double
        if not all(math.isfinite(abs(c) + self.radius) for c in self.center):
            raise FlowError(f"|center| + radius must be finite, got center {self.center} "
                            f"and radius {self.radius}")


def curve_eval(curve: Curve, s: Sequence) -> List[ExactScalar]:
    """Evaluate the curve at s; exact inputs give exact outputs."""
    if len(s) != curve.k:
        raise FlowError(f"curve takes {curve.k} parameters")
    point = []
    svals = [ExactScalar.coerce(x if not isinstance(x, float) else Fraction(x)) for x in s]
    for poly in curve.coords:
        acc = ExactScalar(0)
        for exps, coeff in poly:
            term = coeff
            for e, sv in zip(exps, svals):
                if e:
                    term = term * sv**e
            acc = acc + term
        point.append(acc)
    return point


def curve_to_json(curve: Curve) -> dict:
    return {
        "n": curve.n,
        "k": curve.k,
        "coords": [
            {
                "monomials": [
                    {"exps": list(exps), "coeff": coeff.serialize()}
                    for exps, coeff in poly
                ]
            }
            for poly in curve.coords
        ],
        "center": list(curve.center),
        "radius": curve.radius,
    }


def curve_from_json(data: dict) -> Curve:
    try:
        coords = [
            [
                (tuple(int(e) for e in mono["exps"]), ExactScalar.coerce(mono["coeff"]))
                for mono in entry["monomials"]
            ]
            for entry in data["coords"]
        ]
        return Curve(
            n=int(data["n"]),
            k=int(data["k"]),
            coords=coords,
            center=[float(c) for c in data.get("center", [])],
            radius=float(data.get("radius", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FlowError(f"malformed curve JSON: {exc}") from exc


def load_curve(path: str) -> Curve:
    with open(path) as fh:
        try:
            return curve_from_json(json.load(fh))
        except ValueError as exc:  # not JSON, an int beyond the digit limit, a bad curve
            raise FlowError(f"curve file {path}: {exc}") from None


# -- affine span --------------------------------------------------------------


@dataclass
class AffineSpanData:
    """Affine span of a curve image after a coordinate permutation.

    d is 1 + rank of the nonconstant monomial coefficient vectors. order maps
    new coordinate positions to original ones (pivot coordinates first). For
    2 <= d <= n-1 the span is {(x, x~ A)} with x~ = (1, x); matrix is the
    d x (n-d) block A, rows = (constant; slopes), one column per dependent
    coordinate. d == n means full span and no A.
    """

    d: int
    order: List[int]
    matrix: Optional[ExactMatrix]
    pivots: List[int]


def affine_span(curve: Curve) -> AffineSpanData:
    nm1 = curve.n - 1
    # collect the coefficient vector of every nonconstant monomial, and the
    # constant term of every coordinate
    monomials: Dict[Tuple[int, ...], List[ExactScalar]] = {}
    consts = [ExactScalar(0)] * nm1
    for j, poly in enumerate(curve.coords):
        for exps, coeff in poly:
            if all(e == 0 for e in exps):
                consts[j] = consts[j] + coeff
                continue
            row = monomials.setdefault(exps, [ExactScalar(0)] * nm1)
            row[j] = row[j] + coeff
    keys = sorted(monomials)
    if not keys:
        raise FlowError("constant curve: affine span is a point")
    m = ExactMatrix([monomials[k] for k in keys])
    red, pivots = m.rref()
    d = 1 + len(pivots)
    if d == curve.n:
        return AffineSpanData(d=d, order=list(range(nm1)), matrix=None, pivots=pivots)
    nonpivots = [c for c in range(nm1) if c not in pivots]
    rows_a = [[ExactScalar(0)] * len(nonpivots) for _ in range(d)]
    for cidx, c in enumerate(nonpivots):
        slopes = [red.rows[i][c] for i in range(len(pivots))]
        a0 = consts[c]
        for i, p in enumerate(pivots):
            a0 = a0 - slopes[i] * consts[p]
        rows_a[0][cidx] = a0
        for i in range(len(pivots)):
            rows_a[i + 1][cidx] = slopes[i]
    return AffineSpanData(
        d=d,
        order=pivots + nonpivots,
        matrix=ExactMatrix(rows_a),
        pivots=pivots,
    )


def span_matrix_entries_rational(span: AffineSpanData) -> bool:
    if span.matrix is None:
        return True
    return all(x.is_rational() for row in span.matrix.rows for x in row)

