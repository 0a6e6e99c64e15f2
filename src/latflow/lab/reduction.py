"""LLL reduction and ball enumeration for small lattices.

Bases are given by their columns.  The reduction keeps two synchronized
pictures of the lattice: an integer coordinate matrix (the unimodular
transform applied so far) and a float embedding of each column.  The float
picture drives all pivoting decisions; the integer picture is exact.  When
the embedding is a plain matrix-vector product the float picture is the
usual one, but callers whose basis has a huge dynamic range (diagonal flows
at large t) can pass a refresh callback that recomputes a column's floats
from its integer coordinates with exact arithmetic, so rounding never
accumulates across column operations.

A basis is a list of float columns, in and out of every function here,
and every loop runs on Python lists: the lattices have 2 to 8 dimensions,
where an array call costs more than the arithmetic it does.  Every inner
product, every enumeration center and every column that
lll_with_transform embeds is math.fsum of the products, which is
correctly rounded, so the pivots depend neither on the BLAS build nor on
an order of summation.  gram_schmidt is the one Gram-Schmidt routine; LLL
and the enumeration both call it.

LLL keeps the Gram-Schmidt rows (b*, mu, |b*|^2) across sweeps, valid for
rows 0..valid-1.  Row i reads only columns 0..i, so a size reduction of
column k invalidates row k and a swap at k rows k-1 and k, each with every
later row.  A sweep at k recomputes rows valid..k with the routine that
gram_schmidt runs: the same float operations on the same inputs as a full
pass, so the result is bit-identical to recomputing in every sweep.

reduce_embedded can start from a given unimodular transform instead of
the identity.  The flow experiments reduce g_t u(phi) Z^n from the basis
reduced one unit of time earlier, which is nearly reduced already, so a
reduction takes few sweeps at any t.

The flow experiments need two numbers per lattice, the sup-norm first
minimum and the box count; sup_first_minimum gets both from one walk of
enumerate_ball's tree, pruned by the sup box too (_walk).  It scores each
candidate from its coefficients in the reduced basis, so no candidate is
mapped back to the original coordinates.
"""

from __future__ import annotations

import math
from math import fsum
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import BudgetError, InputError, InvariantError

DEFAULT_NODE_BUDGET = 5_000_000
_LLL_MAX_SWEEPS = 100_000
_LLL_DELTA = 0.99  # Lovasz constant

Column = Sequence[float]
Columns = List[List[float]]


def _gs_rows(cols: List[Column], bstar: List[List[float]], mu: List[List[float]],
             norms2: List[float], start: int, stop: int) -> None:
    """Gram-Schmidt rows start..stop-1 of the columns, in place; row i reads
    only columns 0..i and rows 0..i-1."""
    try:
        for i in range(start, stop):
            col = cols[i]
            row = mu[i]
            v = col
            for j in range(i):
                w = bstar[j]
                r = fsum(map(mul, col, w)) / norms2[j]
                row[j] = r
                v = [a - r * c for a, c in zip(v, w)]
            bstar[i] = v
            n2 = fsum(map(mul, v, v))
            norms2[i] = n2
            if not n2 > 0 or not math.isfinite(n2):
                raise InputError("basis columns are dependent or singular")
    except OverflowError as exc:  # fsum of finite products beyond a double
        raise InputError("basis columns are dependent or singular") from exc


def _check_columns(cols: Sequence[Column]) -> None:
    """InputError naming the first column whose squared norm is not a
    finite double (NaN or inf entries, or overflow)."""
    for i, col in enumerate(cols):
        try:
            n2 = fsum(map(mul, col, col))
        except OverflowError:
            n2 = math.inf
        if not math.isfinite(n2):
            raise InputError(f"basis column {i} = {[float(x) for x in col]!r}: "
                             "its squared norm is not a finite double")


def gram_schmidt(cols: Sequence[Column]) -> Tuple[List[List[float]], List[List[float]],
                                                  List[float]]:
    """Gram-Schmidt of the columns (each a sequence of floats): returns
    (bstar, mu, norms2) as lists, with bstar[i] the orthogonalized column i
    and mu[i][j] = <b_i, b*_j>/<b*_j, b*_j> for j < i.

    Raises InputError for a column whose squared norm is not a finite
    double (NaN or inf entries, or overflow) and for dependent columns.
    """
    cols = list(cols)
    _check_columns(cols)
    m = len(cols)
    bstar: List[List[float]] = [[] for _ in range(m)]
    mu = [[0.0] * m for _ in range(m)]
    norms2 = [0.0] * m
    _gs_rows(cols, bstar, mu, norms2, 0, m)
    return bstar, mu, norms2


def _lll_core(
    ncols: int,
    embed: Callable[[List[int]], Column],
    start: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[List[List[int]], Columns]:
    """Run LLL on the lattice spanned by embed(e_0), ..., embed(e_{ncols-1}).

    embed returns a list of floats.  start, if given, is a unimodular
    transform (ncols integer coordinate vectors) to begin from instead of
    the identity.  Returns (z, b): z[i] is the integer coordinate vector of
    reduced column i in terms of the original columns, b[i] = embed(z[i])
    its float column.
    """
    if start is None:
        start = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    z = [list(col) for col in start]
    cols = [embed(c) for c in z]
    bstar, mu, norms2 = gram_schmidt(cols)  # bad columns fail before any step
    valid = ncols  # rows 0..valid-1 of (bstar, mu, norms2) describe cols

    k = 1
    sweeps = 0
    while k < ncols:
        sweeps += 1
        if sweeps > _LLL_MAX_SWEEPS:
            raise InvariantError("LLL did not terminate within the sweep cap")
        _gs_rows(cols, bstar, mu, norms2, valid, k + 1)
        valid = k + 1
        # size-reduce column k against k-1 .. 0, updating mu row k locally
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            r = mu_k[j]
            if not math.isfinite(r):
                raise InvariantError("non-finite projection during reduction")
            ri = int(round(r))
            if ri:
                z[k] = [zk - ri * zj for zk, zj in zip(z[k], z[j])]
                mu_j = mu[j]
                for i in range(j):
                    mu_k[i] -= ri * mu_j[i]
                mu_k[j] -= ri
                valid = k
        if valid == k:  # column k moved; cols[k] is not read above
            cols[k] = embed(z[k])
        if norms2[k] >= (_LLL_DELTA - mu_k[k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            z[k], z[k - 1] = z[k - 1], z[k]
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            valid = k - 1
            k = max(k - 1, 1)
    return z, cols


def lll_with_transform(cols: Sequence[Column]) -> Tuple[List[List[int]], Columns]:
    """LLL-reduce the columns; returns (z, b) as _lll_core does, with each
    reduced column b[i] the fsum of the basis rows times z[i]."""
    m = len(cols)
    n = len(cols[0]) if m and isinstance(cols[0], Sequence) else 0
    if not all(isinstance(col, Sequence) and len(col) == n for col in cols):
        raise InputError("basis must be a list of columns of one length")
    if m < 1 or m > n:
        raise InputError(f"need 1 <= #columns <= dim, got {m} columns in R^{n}")
    _check_columns(cols)  # an embedding would spread a NaN or inf
    rows = list(zip(*cols))

    def embed(zcol: List[int]) -> List[float]:
        return [fsum(map(mul, row, zcol)) for row in rows]

    return _lll_core(m, embed)


def _walk(cols: Sequence[Column], radius: float, budget: int,
          leaf: Callable[[List[int]], Optional[float]], box: Optional[float] = None) -> None:
    """Call leaf(z) for every integer z != 0 with ||sum_i z_i cols[i]|| <= radius,
    one per +/- pair (the highest-index nonzero entry of z is positive); z is
    the walk's own list.  leaf returns the box radius r for the rest of the
    walk (None without a box; r may only shrink).  Two box bounds keep every
    z whose vector v has sup norm <= r.  The cap: on every level l,
    |y_l| = |<v, b*_l>| / |b*_l|^2 <= r |b*_l|_1 / |b*_l|^2 (Hoelder).  The
    clip: level 0 keeps the z_0 with |p_k + z_0 b_0k| <= r + 1e-9 |p_k| for
    all k, p = sum_{j>=1} z_j b_j.  Both widen the interval ends by 1e-12, as
    the ball test does; callers give r 1e-9 relative to spare for rounding.
    """
    if not (radius >= 0 and math.isfinite(radius * radius)):
        raise InputError(f"radius must be nonnegative with a finite square, got {radius!r}")
    bstar, mu, norms2 = gram_schmidt(cols)
    m = len(norms2)
    # the center at a level is minus the sum of mu[j][level] * z_j over j > level
    weights = [[mu[j][level] for j in range(level + 1, m)] for level in range(m)]
    caps = [fsum(map(abs, w)) / n2 for w, n2 in zip(bstar, norms2)]
    zvec = [0] * m
    nodes = 0

    def descend(level: int, remaining: float, nonzero_above: bool, p: List[float]) -> None:
        nonlocal nodes, box
        center = -fsum(map(mul, weights[level], zvec[level + 1:]))
        norm2 = norms2[level]
        span = math.sqrt(max(remaining, 0.0) / norm2)
        if box is not None:
            span = min(span, box * caps[level])
        lo = math.ceil(center - span - 1e-12)
        hi = math.floor(center + span + 1e-12)
        if not nonzero_above and lo < 0:
            lo = 0
        if level == 0 and box is not None:
            for pk, bk in zip(p, cols[0]):
                r = box + 1e-9 * abs(pk)
                if bk:
                    c, w = -pk / bk, r / abs(bk)
                    lo = max(lo, math.ceil(c - w - 1e-12))
                    hi = min(hi, math.floor(c + w + 1e-12))
                elif abs(pk) > r:
                    return
        slack = remaining + 1e-9 * (1.0 + remaining)
        for zi in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError(f"enumeration exceeded the node budget ({budget})")
            offset = zi - center
            used = offset * offset * norm2
            if used > slack:
                continue
            zvec[level] = zi
            if level:
                descend(level - 1, remaining - used, nonzero_above or zi != 0,
                        [a + zi * c for a, c in zip(p, cols[level])] if zi else p)
            elif nonzero_above or zi:
                box = leaf(zvec)
        zvec[level] = 0

    if m:
        descend(m - 1, radius * radius, False, [0.0] * len(cols[0]))


def enumerate_ball(
    cols: Sequence[Column],
    radius: float,
    budget: int = DEFAULT_NODE_BUDGET,
) -> List[List[int]]:
    """Integer coefficient vectors z != 0 with ||sum_i z_i cols[i]|| <= radius,
    one representative per +/- pair (the highest-index nonzero entry of z
    is positive).

    The basis should already be reduced or the search tree explodes; the
    node budget turns that into a BudgetError instead of a hang.
    """
    out: List[List[int]] = []
    _walk(cols, radius, budget, lambda z: out.append(z.copy()))
    return out


def reduce_embedded(
    embed: Callable[[List[int]], Column],
    ncols: int,
    start: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[List[List[int]], Columns]:
    """LLL on the lattice spanned by embed(e_i), from the identity or from
    the unimodular transform start; see _lll_core.

    The callback is re-applied to the integer coordinates after every
    column operation, so a basis with a huge dynamic range stays accurate
    as long as the callback itself evaluates exactly.
    """
    return _lll_core(ncols, embed, start)


def sup_first_minimum(
    b: Sequence[Column],
    sup_of: Callable[[List[int]], float],
    box_radius: float,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Tuple[float, int]:
    """(first minimum of the sup norm, number of nonzero lattice vectors v
    with sup_norm(v) <= box_radius) for a reduced embedded lattice.

    b comes from reduce_embedded.  sup_of evaluates the sup norm of the
    lattice vector with coefficients zc in the reduced basis, the columns
    b[i], exactly where it matters (the flow experiments recompute the
    expanding coordinate without cancellation), so each candidate of the
    enumeration is scored from its coefficients directly.  One walk serves
    both numbers: it keeps the vectors of sup norm at most
    r = max(best, box_radius + 1e-9) (1 + 1e-9), best the float sup of the
    shortest column until a leaf scores lower (that column is a leaf too),
    so the first minimum and every vector in the box are scored, and the
    Euclidean ball of radius sqrt(n) r holds them all.  The count is always
    even, since v and -v land in the box together.
    """
    if not box_radius > 0:
        raise InputError("box radius must be positive")
    top = min(max(map(abs, col)) for col in b)
    limit = box_radius + 1e-9
    box = max(top, limit) * (1.0 + 1e-9)
    best = math.inf
    half = 0

    def leaf(zc: List[int]) -> float:
        nonlocal best, half
        s = sup_of(zc)
        if s < best:
            best = s
        if s <= limit:
            half += 1
        return max(min(best, top), limit) * (1.0 + 1e-9)

    _walk(b, box * math.sqrt(len(b[0])), budget, leaf, box)
    return best, 2 * half


def box_count_embedded(
    b: Sequence[Column],
    sup_of: Callable[[List[int]], float],
    box_radius: float,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """The box count of sup_first_minimum alone."""
    return sup_first_minimum(b, sup_of, box_radius, budget)[1]
