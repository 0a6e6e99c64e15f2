"""Residual identity for the wedge-square action of the 2-row block group.

g_A fixes e_1, e_2 and sends e_j to e_j + a_j e_1 + b_j e_2 (1-based; A is
the 2 x (n-2) block).  On the wedge square, the coefficients of e_1^e_j
and e_2^e_j in g_A w are EXACTLY the rows of A_ext q + p, where w's
coordinates are split into

    p = (C_{1j} block, C_{2j} block, C_{12}),   q = (C_{ij})_{3<=i<j}  (lex),

and the e_1^e_2 coefficient differs from the last row of A_ext q + p by an
elimination whose coefficients are the entries of A.  Both directions of
that elimination are bounded by c = 1 + sum(|a_j| + |b_j|), so the sup
norms of the two residuals always lie within a factor of c of each other
and vanish together.

residual_check verifies both identities exactly on every input: each X/Y
row of A_ext q + p equals its wedge coefficient, and the last row equals
the e_1^e_2 coefficient after the elimination by a and b (rows 0 and 1 of
A).  Nothing is proved or cached per n; the symbolic proof of the sign
conventions for n = 4, 6 and 8 lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from ..dioph import a_ext
from ..errors import InputError, InvariantError
from ..exact import ExactMatrix, ExactScalar
from ..flows import g_of_A
from ..wedge import WedgeIndex, wedge_matrix


def _coerce_block(a) -> ExactMatrix:
    if isinstance(a, ExactMatrix):
        return a
    rows = []
    for row in a:
        rows.append([
            ExactScalar.coerce(Fraction(x) if isinstance(x, float) else x)
            for x in row
        ])
    return ExactMatrix(rows)


def pq_split(w: Sequence, n: int) -> Tuple[List, List]:
    """Split lex wedge coordinates into the mixed part p and the tail q."""
    idx = WedgeIndex(n, 2)
    if len(w) != len(idx):
        raise InputError(f"expected {len(idx)} wedge coordinates for n={n}")
    c = {idx.unrank(i): ExactScalar.coerce(w[i]) for i in range(len(idx))}
    p = [c[(0, j)] for j in range(2, n)]
    p += [c[(1, j)] for j in range(2, n)]
    p.append(c[(0, 1)])
    q = [c[(i, j)] for i in range(2, n) for j in range(i + 1, n)]
    return p, q


@dataclass(frozen=True)
class ResidualReport:
    n: int
    pi1_norm: float
    residual_norm: float
    ratio: float
    band: float

    def in_band(self) -> bool:
        if self.pi1_norm == 0.0 and self.residual_norm == 0.0:
            return True
        return 1.0 / self.band <= self.ratio <= self.band


def residual_check(a, w: Sequence) -> ResidualReport:
    """Compare sup norms of the mixed-part projection of g_A w and of
    A_ext q + p; their ratio lies in [1/c, c] with c the band of the
    module docstring.  Raises InvariantError if either identity fails."""
    am = _coerce_block(a)
    if am.nrows != 2:
        raise InputError("the block must have 2 rows")
    n = am.ncols + 2
    if n % 2:
        raise InputError("the residual identity needs even n")
    if n < 4:
        raise InputError("the residual identity needs even n >= 4")

    p, q = pq_split(w, n)
    ext = a_ext(am)
    res = ext.apply(q)
    res = [r + pe for r, pe in zip(res, p)]

    gm = g_of_A(am, n)
    gw = wedge_matrix(gm, 2).apply(list(map(ExactScalar.coerce, w)))
    idx = WedgeIndex(n, 2)
    pi1 = [gw[idx.rank((0, j))] for j in range(2, n)]
    pi1 += [gw[idx.rank((1, j))] for j in range(2, n)]
    pi1.append(gw[idx.rank((0, 1))])

    # the X/Y rows agree exactly, and Z is the eliminated e_1^e_2 coefficient
    wdim = n - 2
    for k in range(2 * wdim):
        if res[k] != pi1[k]:
            raise InvariantError(f"X/Y row {k} does not match the wedge action (n={n})")
    elim = pi1[-1]
    for k in range(wdim):
        elim = elim - am[(1, k)] * pi1[k] + am[(0, k)] * pi1[wdim + k]
    if res[-1] != elim:
        raise InvariantError(f"Z elimination identity failed (n={n})")

    # with both identities exact, pi1 and res vanish together
    pi1_zero = not any(pi1)
    pi1_norm = max(abs(float(x)) for x in pi1)
    res_norm = max(abs(float(x)) for x in res)
    band = 1.0 + sum(
        abs(float(am[(0, j)])) + abs(float(am[(1, j)])) for j in range(wdim)
    )
    ratio = 1.0 if pi1_zero else pi1_norm / res_norm
    return ResidualReport(
        n=n,
        pi1_norm=pi1_norm,
        residual_norm=res_norm,
        ratio=ratio,
        band=band,
    )
