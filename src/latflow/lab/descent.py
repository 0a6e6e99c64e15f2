"""From a decomposable integer k-vector down to a short integer vector.

A nonzero w in the k-th wedge of Z^n is decomposable exactly when the map
x -> w ^ x has a k-dimensional kernel; that kernel is the support plane
[w], and its integer points form a rank-k sublattice (kernels of integer
matrices are saturated, so no extra saturation pass is needed).  The
descent then returns a shortest nonzero vector of that sublattice and
checks Minkowski's bound exactly in integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

from ..errors import InputError, InvariantError
from ..exact import eliminate
from ..wedge import WedgeIndex
from . import reduction


def _as_int_coords(w: Sequence, size: int) -> List[int]:
    out = []
    for x in w:
        if hasattr(x, "as_fraction"):
            x = x.as_fraction()
        try:
            f = Fraction(x)
        except (TypeError, ValueError):
            raise InputError(f"bad wedge coordinate {x!r}")
        if f.denominator != 1:
            raise InputError("wedge coordinates must be integers")
        out.append(int(f))
    if len(out) != size:
        raise InputError(f"expected {size} wedge coordinates, got {len(out)}")
    return out


def wedge_with_matrix(w: Sequence, n: int, k: int) -> List[List[int]]:
    """Integer matrix of x -> w ^ x, rows indexed by (k+1)-subsets (lex),
    columns by ambient coordinates."""
    idx = WedgeIndex(n, k)
    wi = _as_int_coords(w, len(idx))
    rows = []
    for s in combinations(range(n), k + 1):
        row = [0] * n
        for pos, i in enumerate(s):
            rest = s[:pos] + s[pos + 1 :]
            # e_rest ^ e_i picks up one transposition per element above i
            sign = -1 if (k - pos) % 2 else 1
            row[i] = sign * wi[idx.rank(rest)]
        rows.append(row)
    return rows


def integer_kernel(rows: List[List[int]]) -> List[List[int]]:
    """Basis of the integer kernel lattice {x in Z^m : M x = 0}, as a list
    of integer columns, via unimodular column reduction."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise InputError("ragged matrix")
    # stack the identity underneath and do column ops on the whole thing
    cols = [[rows[r][c] for r in range(nrows)] + [int(i == c) for i in range(ncols)]
            for c in range(ncols)]
    active = list(range(ncols))
    for r in range(nrows):
        live = [c for c in active if cols[c][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(cols[c][r]))
            piv = live[0]
            for c in live[1:]:
                q = cols[c][r] // cols[piv][r]
                if q:
                    cols[c] = [x - q * y for x, y in zip(cols[c], cols[piv])]
            live = [c for c in live if cols[c][r] != 0]
        if live:
            active.remove(live[0])
    return [cols[c][nrows:] for c in active]


def wedge_span_lattice(w: Sequence, n: int, k: int) -> List[List[int]]:
    """Integer basis (list of columns) of [w] intersect Z^n for a
    decomposable integer w; raises InputError otherwise."""
    if not 1 <= k <= n:
        raise InputError(f"wedge degree k={k} out of range for n={n}")
    if k == n:
        if all(x == 0 for x in _as_int_coords(w, 1)):
            raise InputError("the zero vector is not decomposable")
        return [[int(i == j) for i in range(n)] for j in range(n)]
    m = wedge_with_matrix(w, n, k)
    if all(x == 0 for row in m for x in row):
        raise InputError("the zero vector is not decomposable")
    kern = integer_kernel(m)
    if len(kern) != k:
        raise InputError(
            f"not decomposable: the contraction system has nullity {len(kern)}, expected {k}"
        )
    return kern


def _gram_det(basis: List[List[int]]) -> int:
    gram = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in basis] for u in basis]
    det = eliminate(gram)[1]
    assert det.denominator == 1
    return int(det)


def descend_to_vector(w: Sequence, n: int, k: int) -> Tuple[int, ...]:
    """Shortest nonzero integer vector of [w] intersect Z^n.

    Ties (both signs included) go to the lexicographically largest
    coordinate tuple, so e_1 ^ e_2 descends to e_1.  The Euclidean norm is
    checked against Minkowski's bound ||v||^2k <= k^k det(Gram) in exact
    integers before returning.
    """
    basis = wedge_span_lattice(w, n, k)
    z, reduced = reduction.lll_with_transform(basis)
    bound = min(math.sqrt(math.fsum(x * x for x in col)) for col in reduced)
    cands = reduction.enumerate_ball(reduced, bound * (1.0 + 1e-9))
    best: Tuple[int, ...] = None
    best_n2 = None
    for zc in cands:
        coeffs = [sum(z[i][r] * int(zc[i]) for i in range(k)) for r in range(k)]
        v = tuple(sum(coeffs[i] * basis[i][r] for i in range(k)) for r in range(n))
        n2 = sum(x * x for x in v)
        for cand in (v, tuple(-x for x in v)):
            if best_n2 is None or n2 < best_n2 or (n2 == best_n2 and cand > best):
                best, best_n2 = cand, n2
    if best is None:
        raise InvariantError("enumeration returned no candidates")
    covol2 = _gram_det(basis)
    if best_n2**k > k**k * covol2:
        raise InvariantError("Minkowski bound violated; enumeration is incomplete")
    return best
