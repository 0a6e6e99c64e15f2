"""Quadratic-field lines: the trapped scenario's input data.

For n = 2r, the block matrix with rows (I_r, sqrt(D) I_r) over (I_r,
-sqrt(D) I_r) is the inverse of the base-change attached to the field
Q(sqrt(D)) with basis {1, sqrt(D)}; the two r-blocks are the two real
embeddings applied entrywise.  The curve emitted alongside it is a line
inside the (r-1)-dimensional affine subspace

    (s_1, ..., s_{r-1}, sqrt(D), sqrt(D) s_1, ..., sqrt(D) s_{r-1}),

which is defined over the field, and the line direction is chosen so that
its own affine span (d = 2) still has irrational slope data, keeping it
off every rational proper subspace.  For r = 2 the line IS the subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError, InvariantError
from ..exact import ExactMatrix, ExactScalar
from ..flows import AffineSpanData, Curve, affine_span, span_matrix_entries_rational


@dataclass(frozen=True)
class QuadraticExample:
    n: int
    r: int
    d_field: int
    l0_inv: ExactMatrix
    l0: ExactMatrix
    curve: Curve
    span: AffineSpanData


def quadratic_subspace_example(n: int, r: int, m: int, D: int) -> QuadraticExample:
    """Base-change matrix and trapped line for the field Q(sqrt(D)).

    Requires n = r*m with m = 2 (only quadratic fields are supported),
    r >= 2, and D >= 2 squarefree up to exact.MAX_RADICAND.
    """
    if m != 2:
        raise InputError(f"unsupported field degree m={m}; only m=2 is implemented")
    if r < 2:
        raise InputError(f"need r >= 2, got {r}")
    if n != r * m:
        raise InputError(f"n must equal r*m; got n={n}, r*m={r * m}")

    rt = ExactScalar.sqrt(D)  # refuses a D that is not squarefree or above the bound
    one = ExactScalar(1)
    zero = ExactScalar(0)
    rows = []
    for sign in (1, -1):
        srt = rt if sign > 0 else -rt
        for i in range(r):
            row = [zero] * n
            row[i] = one
            row[r + i] = srt
            rows.append(row)
    l0_inv = ExactMatrix(rows)
    l0 = l0_inv.inverse()

    # the line s -> (s, sqrt(D) s, ..., sqrt(D)^{r-2} s, sqrt(D), ...,
    # sqrt(D)^{j-r+1} s, ...); one coordinate per entry of R^{n-1}
    coords = []
    for j in range(r - 1):
        coords.append([((1,), rt**j)])
    coords.append([((0,), rt)])
    for j in range(r, 2 * r - 1):
        coords.append([((1,), rt ** (j - r + 1))])
    curve = Curve(n=n, k=1, coords=coords, center=[0.0], radius=1.0)

    span = affine_span(curve)
    if span.d != 2:
        raise InvariantError(f"the emitted line has span dimension {span.d}")
    if span_matrix_entries_rational(span):
        raise InvariantError("the emitted line has rational slope data")
    return QuadraticExample(
        n=n, r=r, d_field=D, l0_inv=l0_inv, l0=l0, curve=curve, span=span
    )
