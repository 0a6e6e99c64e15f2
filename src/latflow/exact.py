"""Exact scalars over Q and real quadratic fields Q(sqrt(D)), small exact
matrices, and the one Gaussian elimination that every exact determinant,
inverse and linear solve in the package runs through.

Scalars are kept exact so that span computations, certificates and residual
identities can be verified with no floating error; conversion to float happens
only at the boundary where numerics (flows, norms of float lattices) start.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Union

from .errors import InputError

RationalLike = Union[int, Fraction]


class ExactError(InputError):
    """Raised for malformed exact scalars or incompatible field mixes."""


_SCALAR_RE = re.compile(
    r"""^\s*
    (?P<a>[+-]?\d+(?:/\d+)?)?          # rational part
    (?:
        (?P<sign>[+-])?
        (?P<b>\d+(?:/\d+)?)?           # coefficient of the radical
        r(?P<d>\d+)                    # radical marker, e.g. r2 = sqrt(2)
    )?
    \s*$""",
    re.VERBOSE,
)


class ExactScalar:
    """Element a + b*sqrt(D) with a, b rational.

    D is None for plain rationals. b == 0 collapses to the rational field, so
    equality between `ExactScalar(3)` and a D-tagged zero-radical value holds.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, D: Optional[int] = None):
        a = Fraction(a)
        b = Fraction(b)
        if b != 0:
            if D is None:
                raise ExactError("radical coefficient given without a D")
            if D <= 1 or _is_square(D):
                raise ExactError(f"D must be a nonsquare integer > 1, got {D}")
        else:
            D = None
        self.a = a
        self.b = b
        self.D = D

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "ExactScalar":
        """Parse "3/7", "-2", "1+2r2", "r5", "1/2-3/4r2" style strings."""
        m = _SCALAR_RE.match(text)
        if not m or (m.group("a") is None and m.group("d") is None):
            raise ExactError(f"cannot parse exact scalar {text!r}")
        try:
            a = Fraction(m.group("a") or 0)
            b = Fraction(m.group("b") or 1)
        except ZeroDivisionError:
            raise ExactError(f"zero denominator in {text!r}")
        if m.group("d") is None:
            return ExactScalar(a)
        if m.group("sign") == "-":
            b = -b
        elif m.group("sign") is None and m.group("a") is not None:
            # "1 2r2" without an explicit sign between the parts is malformed
            raise ExactError(f"missing sign before radical part in {text!r}")
        return ExactScalar(a, b, int(m.group("d")))

    @staticmethod
    def sqrt(D: int) -> "ExactScalar":
        return ExactScalar(0, 1, D)

    @staticmethod
    def coerce(value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar(value)
        if isinstance(value, str):
            return ExactScalar.parse(value)
        raise ExactError(f"cannot coerce {value!r} to an exact scalar")

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        if self.b == 0:
            return str(self.a)
        rad = f"r{self.D}"
        if abs(self.b) != 1:
            rad = f"{abs(self.b)}{rad}"
        sign = "-" if self.b < 0 else ("+" if self.a != 0 else "")
        if self.a == 0:
            return f"{sign}{rad}" if self.b < 0 else rad
        return f"{self.a}{sign}{rad}"

    def __repr__(self) -> str:
        return f"ExactScalar({self.serialize()!r})"

    # -- field arithmetic -----------------------------------------------------

    def _join(self, other: "ExactScalar") -> Optional[int]:
        if self.D is None:
            return other.D
        if other.D is None or other.D == self.D:
            return self.D
        raise ExactError(f"mixing radicals r{self.D} and r{other.D}")

    def __add__(self, other):
        other = ExactScalar.coerce(other)
        return ExactScalar(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, self.D)

    def __sub__(self, other):
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other):
        return ExactScalar.coerce(other) + (-self)

    def __mul__(self, other):
        other = ExactScalar.coerce(other)
        D = self._join(other)
        a = self.a * other.a
        if self.b != 0 and other.b != 0:
            a += self.b * other.b * D
        b = self.a * other.b + self.b * other.a
        return ExactScalar(a, b, D)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError("inverse of zero")
            return ExactScalar(1 / self.a)
        # (a + b rD)^-1 = (a - b rD) / (a^2 - b^2 D); the norm is nonzero
        # because D is not a square.
        norm = self.a * self.a - self.b * self.b * self.D
        return ExactScalar(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other):
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        if other == 1:
            return self.inverse()
        return ExactScalar.coerce(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return ExactScalar(1)
        base, e = self, exponent
        while not e & 1:  # start from the lowest set bit
            base = base * base
            e >>= 1
        out = base
        e >>= 1
        while e:  # no square after the last bit
            base = base * base
            if e & 1:
                out = out * base
            e >>= 1
        return out

    # -- order and conversion -------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 D
        lhs, rhs = a * a, b * b * self.D
        if lhs == rhs:  # impossible for nonsquare D unless both zero
            return 0
        dominant_rational = lhs > rhs
        return (1 if a > 0 else -1) if dominant_rational else (1 if b > 0 else -1)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        try:
            other = ExactScalar.coerce(other)
        except ExactError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.D == other.D

    def __hash__(self):
        return hash((self.a, self.b, self.D))

    def __lt__(self, other):
        return (self - ExactScalar.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - ExactScalar.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - ExactScalar.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - ExactScalar.coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        value = float(self.a)
        if self.b != 0:
            value += float(self.b) * math.sqrt(self.D)
        return value

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ExactError(f"{self.serialize()} is irrational")
        return self.a


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def eliminate(rows: List[list], reduced: bool = False):
    """Gaussian elimination of `rows` in place, with first-nonzero pivoting.

    Entries are field elements, Fractions or ExactScalars, and keep their
    type. Each pivot row is subtracted from the rows below it, from the pivot
    column to the right, without scaling. Returns the pivot columns and the
    determinant: the signed product of the pivots when `rows` is square,
    None otherwise.

    Without `reduced` this is the forward elimination of a determinant and
    stops at the first column with no pivot, where the determinant is zero.
    With `reduced` every column is visited, pivot rows are subtracted from
    the rows above as well, and each pivot row is scaled to a leading one at
    the end, which leaves `rows` in reduced row echelon form.
    """
    nrows, ncols = len(rows), len(rows[0])
    field = type(rows[0][0])
    det = field(1)
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            det = field(0)
            if not reduced:
                break
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        top = rows[r]
        det = det * top[c]
        inv = None  # a determinant's last pivot clears no row: skip its reciprocal
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            if i != r and row[c]:
                if inv is None:
                    inv = 1 / top[c]
                f = row[c] * inv
                row[c:] = [x - f * y for x, y in zip(row[c:], top[c:])]
        pivots.append(c)
    if reduced:
        for r, c in enumerate(pivots):
            inv = 1 / rows[r][c]
            rows[r][c:] = [x * inv for x in rows[r][c:]]
    return pivots, det if nrows == ncols else None


class ExactMatrix:
    """Dense matrix of ExactScalar entries with exact field operations."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows: List[List[ExactScalar]] = [
            [ExactScalar.coerce(x) for x in row] for row in rows
        ]
        self.nrows = len(self.rows)
        if self.nrows == 0:
            raise ExactError("empty matrix")
        self.ncols = len(self.rows[0])
        if any(len(r) != self.ncols for r in self.rows):
            raise ExactError("ragged matrix rows")

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        body = "; ".join(
            ", ".join(x.serialize() for x in row) for row in self.rows
        )
        return f"ExactMatrix[{self.nrows}x{self.ncols}]({body})"

    def row(self, i: int) -> List[ExactScalar]:
        return list(self.rows[i])

    def col(self, j: int) -> List[ExactScalar]:
        return [r[j] for r in self.rows]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.rows[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_check(other, same=True)
        return ExactMatrix([
            [self.rows[i][j] + other.rows[i][j] for j in range(self.ncols)]
            for i in range(self.nrows)
        ])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_check(other, same=True)
        return ExactMatrix([
            [self.rows[i][j] - other.rows[i][j] for j in range(self.ncols)]
            for i in range(self.nrows)
        ])

    def _shape_check(self, other: "ExactMatrix", same: bool = False):
        if same:
            if (self.nrows, self.ncols) != (other.nrows, other.ncols):
                raise ExactError("shape mismatch")
        elif self.ncols != other.nrows:
            raise ExactError("inner dimension mismatch")

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._shape_check(other)
        cols = other.transpose().rows
        out = []
        for row in self.rows:
            out.append([
                sum((row[k] * col[k] for k in range(self.ncols)), ExactScalar(0))
                for col in cols
            ])
        return ExactMatrix(out)

    def apply(self, vec: Sequence) -> List[ExactScalar]:
        """Matrix times column vector."""
        v = [ExactScalar.coerce(x) for x in vec]
        if len(v) != self.ncols:
            raise ExactError("vector length mismatch")
        return [
            sum((row[k] * v[k] for k in range(self.ncols)), ExactScalar(0))
            for row in self.rows
        ]

    def det(self) -> ExactScalar:
        if self.nrows != self.ncols:
            raise ExactError("determinant of a non-square matrix")
        return eliminate([row[:] for row in self.rows])[1]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        work = [row[:] for row in self.rows]
        pivots, _ = eliminate(work, reduced=True)
        return ExactMatrix(work), pivots

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ExactError("inverse of a non-square matrix")
        n = self.nrows
        work = [row + [ONE if j == i else ZERO for j in range(n)]
                for i, row in enumerate(self.rows)]
        pivots, _ = eliminate(work, reduced=True)
        if pivots != list(range(n)):
            raise ExactError("matrix is singular")
        return ExactMatrix([row[n:] for row in work])
