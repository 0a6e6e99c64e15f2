"""Exterior powers of small exact matrices: lex-ordered wedge bases, minor
matrices, and Pfaffians."""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

from .exact import ExactError, ExactMatrix, ExactScalar, eliminate


class WedgeIndex:
    """Lexicographic basis e_I of the k-th exterior power of R^n.

    Subsets are 0-based sorted tuples; the rank order is the order of
    itertools.combinations, which is lex.
    """

    def __init__(self, n: int, k: int):
        if not 0 < k <= n:
            raise ExactError(f"wedge degree k={k} out of range for n={n}")
        self.n = n
        self.k = k
        self.subsets: List[Tuple[int, ...]] = list(combinations(range(n), k))
        self._rank = {s: i for i, s in enumerate(self.subsets)}

    def __len__(self) -> int:
        return len(self.subsets)

    def rank(self, subset: Sequence[int]) -> int:
        key = tuple(sorted(subset))
        if key not in self._rank:
            raise ExactError(f"{subset} is not a {self.k}-subset of range({self.n})")
        return self._rank[key]

    def unrank(self, i: int) -> Tuple[int, ...]:
        return self.subsets[i]


def _minor(entries: Sequence[Sequence[ExactScalar]], rows: Sequence[int],
           cols: Sequence[int]) -> ExactScalar:
    """Determinant of the submatrix of `entries` on `rows` and `cols`."""
    return eliminate([[entries[i][j] for j in cols] for i in rows])[1]


def wedge_matrix(m: ExactMatrix, k: int) -> ExactMatrix:
    """k-th exterior power: entry (I, J) is the minor of m on rows I, cols J.

    Columns transform so that wedge_matrix(a @ b, k) ==
    wedge_matrix(a, k) @ wedge_matrix(b, k).
    """
    if m.nrows != m.ncols:
        raise ExactError("wedge_matrix expects a square matrix")
    idx = WedgeIndex(m.nrows, k)
    return ExactMatrix([
        [_minor(m.rows, I, J) for J in idx.subsets] for I in idx.subsets
    ])


def wedge_vector(vectors: Sequence[Sequence]) -> List[ExactScalar]:
    """Coordinates of v_1 ^ ... ^ v_k in the lex wedge basis."""
    cols = [[ExactScalar.coerce(x) for x in v] for v in vectors]
    k = len(cols)
    if k == 0:
        raise ExactError("need at least one vector")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ExactError("vectors of mixed lengths")
    rows = [[cols[j][i] for j in range(k)] for i in range(n)]
    return [_minor(rows, I, range(k)) for I in WedgeIndex(n, k).subsets]


def pfaffian(m: ExactMatrix) -> ExactScalar:
    """Pfaffian of an antisymmetric matrix of even size, by first-row expansion."""
    n = m.nrows
    if n != m.ncols or n % 2:
        raise ExactError("pfaffian needs an even-sized square matrix")
    for i in range(n):
        for j in range(i, n):
            if m.rows[i][j] != -m.rows[j][i]:
                raise ExactError("matrix is not antisymmetric")
    return _pf(m.rows, list(range(n)))


def _pf(rows, active: List[int]) -> ExactScalar:
    if not active:
        return ExactScalar(1)
    first = active[0]
    total = ExactScalar(0)
    sign = 1
    for pos in range(1, len(active)):
        j = active[pos]
        entry = rows[first][j]
        if entry:
            rest = [x for x in active[1:] if x != j]
            term = entry * _pf(rows, rest)
            total = total + (term if sign > 0 else -term)
        sign = -sign
    return total

