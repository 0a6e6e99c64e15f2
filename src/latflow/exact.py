"""Exact scalars over Q and real quadratic fields Q(sqrt(D)), small exact
matrices, and the one Gaussian elimination that every exact determinant,
inverse and linear solve in the package runs through.

Scalars are kept exact so that span computations, certificates and residual
identities can be verified with no floating error; conversion to float happens
only at the boundary where numerics (flows, norms of float lattices) start.
A scalar is (x + y sqrt(D)) / den over three Python ints in lowest terms,
the one-denominator form of number-field elements used by ANTIC/FLINT, so
arithmetic builds no Fraction: `Fraction` appears only in what the layer
takes in and in the `a`, `b` and `as_fraction` views it gives out.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Union

from .errors import InputError

RationalLike = Union[int, Fraction]

MAX_RADICAND = 10**12  # _is_squarefree trial-divides up to 10**6 in about 0.1 s


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
    """Element (x + y*sqrt(D)) / den of Q or of a real quadratic field
    Q(sqrt(D)), held as Python ints.

    The form is normal: den > 0, gcd(x, y, den) == 1, D is None exactly
    when y == 0, and D is squarefree and at most MAX_RADICAND, so each value
    has one form and equality, the only comparison (no order), compares fields.
    A zero radical part collapses to the rational field, so `ExactScalar(3)`
    equals a D-tagged zero-radical value. Every operation costs a few int
    products and one gcd; `a` and `b` give the rational and radical parts as
    Fractions for readers that want them.
    """

    __slots__ = ("x", "y", "den", "D")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, D: Optional[int] = None):
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        if b:
            if D is None:
                raise ExactError("radical coefficient given without a D")
            if D > MAX_RADICAND:
                raise ExactError(f"D must be at most {MAX_RADICAND}, got {D}")
            if D < 2 or not _is_squarefree(D):
                raise ExactError(f"D must be squarefree and >= 2, got {D}")
        else:
            D = None
        # numerator and denominator are exact ints for ints and Fractions alike
        x = a.numerator * b.denominator
        y = b.numerator * a.denominator
        den = a.denominator * b.denominator
        g = math.gcd(x, y, den)
        self.x, self.y, self.den, self.D = x // g, y // g, den // g, D

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.x, self.den)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(D)."""
        return Fraction(self.y, self.den)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "ExactScalar":
        """Parse "3/7", "-2", "1+2r2", "r5", "2r3", "1/2-3/4r2" style strings."""
        m = _SCALAR_RE.match(text)
        if not m or (m.group("a") is None and m.group("d") is None):
            raise ExactError(f"cannot parse exact scalar {text!r}")
        try:
            a = Fraction(m.group("a") or 0)
            b = Fraction(m.group("b") or 1)
            d = m.group("d") and int(m.group("d"))
        except ZeroDivisionError:
            raise ExactError(f"zero denominator in {text!r}")
        except ValueError:  # a number beyond Python's int-string limit
            digits = max(map(len, re.findall(r"\d+", text)))
            raise ExactError(f"a number of {digits} digits exceeds the int-string "
                             f"limit of {sys.get_int_max_str_digits()} digits") from None
        if d is None:
            return ExactScalar(a)
        if m.group("sign") == "-":
            b = -b
        elif m.group("sign") is None and m.group("a") is not None:
            if m.group("b") is not None:
                # "1/23/4r2": two numbers with no sign between them
                raise ExactError(f"missing sign before radical part in {text!r}")
            # "2r3", "-1/2r5": the one number is the radical's coefficient
            a, b = 0, a
        return ExactScalar(a, b, d)

    @staticmethod
    def sqrt(D: int) -> "ExactScalar":
        return ExactScalar(0, 1, D)

    @staticmethod
    def coerce(value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(value.numerator, 0, value.denominator, None)
        if isinstance(value, str):
            return ExactScalar.parse(value)
        raise ExactError(f"cannot coerce {value!r} to an exact scalar")

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        if self.y == 0:
            return str(self.a)
        a, b = self.a, self.b
        rad = f"r{self.D}"
        if abs(b) != 1:
            rad = f"{abs(b)}{rad}"
        sign = "-" if b < 0 else ("+" if a != 0 else "")
        if a == 0:
            return f"{sign}{rad}" if b < 0 else rad
        return f"{a}{sign}{rad}"

    def __repr__(self) -> str:
        return f"ExactScalar({self.serialize()!r})"

    # -- field arithmetic -----------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = ExactScalar.coerce(other)
        D = self.D if self.D == other.D else _join(self.D, other.D)
        d, e = self.den, other.den
        if d == e:
            return _make(self.x + other.x, self.y + other.y, d, D)
        return _make(self.x * e + other.x * d, self.y * e + other.y * d, d * e, D)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.x, -self.y, self.den, self.D)

    def __sub__(self, other):
        if type(other) is not ExactScalar:
            other = ExactScalar.coerce(other)
        D = self.D if self.D == other.D else _join(self.D, other.D)
        d, e = self.den, other.den
        if d == e:
            return _make(self.x - other.x, self.y - other.y, d, D)
        return _make(self.x * e - other.x * d, self.y * e - other.y * d, d * e, D)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            other = ExactScalar.coerce(other)
        D = self.D if self.D == other.D else _join(self.D, other.D)
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        x = x1 * x2
        if y1 and y2:
            x += y1 * y2 * D
        return _make(x, x1 * y2 + y1 * x2, self.den * other.den, D)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        x, y, d = self.x, self.y, self.den
        if y == 0:
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return _make(d, 0, x, None)
        # d / (x + y rD) = d (x - y rD) / (x^2 - y^2 D); the norm is nonzero
        # because D is not a square.
        return _make(d * x, -d * y, x * x - y * y * self.D, self.D)

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

    # -- equality and conversion ---------------------------------------------

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __eq__(self, other):
        if type(other) is not ExactScalar:
            if isinstance(other, str):  # a string hashes as a string
                return NotImplemented
            try:
                other = ExactScalar.coerce(other)
            except ExactError:
                return NotImplemented
        return (self.x == other.x and self.y == other.y and self.den == other.den
                and self.D == other.D)

    def __hash__(self):
        if self.y:
            return hash((self.x, self.y, self.den, self.D))
        # equal to an int or a Fraction, so hash as that Fraction does
        return hash(self.x) if self.den == 1 else hash(Fraction(self.x, self.den))

    def __float__(self):
        # int / int rounds correctly, as float(Fraction) does
        value = self.x / self.den
        if self.y:
            value += self.y / self.den * math.sqrt(self.D)
        return value

    def is_rational(self) -> bool:
        return self.y == 0

    def as_fraction(self) -> Fraction:
        if self.y:
            raise ExactError(f"{self.serialize()} is irrational")
        return Fraction(self.x, self.den)


_new = object.__new__


def _make(x: int, y: int, den: int, D: Optional[int]) -> ExactScalar:
    """(x + y sqrt(D)) / den in normal form, for den != 0, without the
    checks of the public constructor."""
    if den != 1:
        g = math.gcd(x, y, den)
        if den < 0:
            g = -g
        if g != 1:
            x //= g
            y //= g
            den //= g
    s = _new(ExactScalar)
    s.x, s.y, s.den, s.D = x, y, den, D if y else None
    return s


def _join(D1: Optional[int], D2: Optional[int]) -> Optional[int]:
    """The D of a result whose operands carry D1 != D2."""
    if D1 is None:
        return D2
    if D2 is None:
        return D1
    raise ExactError(f"mixing radicals r{D1} and r{D2}")


def _is_squarefree(d: int) -> bool:
    """Trial division of d >= 2 by 4 and by each odd square up to d."""
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.rows[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ExactError("inner dimension mismatch")
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
