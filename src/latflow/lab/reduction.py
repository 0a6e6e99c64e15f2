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

LLL keeps the Gram-Schmidt rows (b*, mu, |b*|^2) across sweeps, valid for
rows 0..valid-1.  Row i reads only columns 0..i, so a size reduction of
column k invalidates row k and a swap at k rows k-1 and k, each with every
later row.  A sweep at k recomputes rows valid..k with the routine that
gram_schmidt runs: the same float operations on the same inputs as a full
pass, so the result is bit-identical to recomputing in every sweep.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from ..errors import BudgetError, InputError, InvariantError

DEFAULT_NODE_BUDGET = 5_000_000
_LLL_MAX_SWEEPS = 100_000
_LLL_DELTA = 0.99  # Lovasz constant


def _gs_rows(b: np.ndarray, bstar: np.ndarray, mu: np.ndarray, norms2: np.ndarray,
             start: int, stop: int) -> None:
    """Gram-Schmidt rows start..stop-1 of the columns of b, in place; row i
    reads only columns 0..i of b and rows 0..i-1."""
    for i in range(start, stop):
        v = b[:, i].copy()
        for j in range(i):
            mu[i, j] = np.dot(b[:, i], bstar[:, j]) / norms2[j]
            v -= mu[i, j] * bstar[:, j]
        bstar[:, i] = v
        norms2[i] = np.dot(v, v)
        if not norms2[i] > 0 or not math.isfinite(norms2[i]):
            raise InputError("basis columns are dependent or singular")


def gram_schmidt(b: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column Gram-Schmidt: returns (bstar, mu, norms2) with b*_i the
    orthogonalized columns and mu[i, j] = <b_i, b*_j>/<b*_j, b*_j>."""
    b = np.asarray(b, dtype=float)
    n, m = b.shape
    bstar = np.zeros((n, m))
    mu = np.zeros((m, m))
    norms2 = np.zeros(m)
    _gs_rows(b, bstar, mu, norms2, 0, m)
    return bstar, mu, norms2


def _lll_core(
    ncols: int,
    embed: Callable[[List[int]], np.ndarray],
) -> Tuple[List[List[int]], np.ndarray]:
    """Run LLL on the lattice spanned by embed(e_0), ..., embed(e_{ncols-1}).

    Returns (z, b): z[i] is the integer coordinate vector of reduced column i
    in terms of the original columns, b the float matrix of embedded reduced
    columns.
    """
    z: List[List[int]] = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    cols = [embed(c) for c in z]
    b = np.stack(cols, axis=1)
    bstar, mu, norms2 = gram_schmidt(b)  # dependent columns fail before any step
    valid = ncols  # rows 0..valid-1 of (bstar, mu, norms2) describe b

    k = 1
    sweeps = 0
    while k < ncols:
        sweeps += 1
        if sweeps > _LLL_MAX_SWEEPS:
            raise InvariantError("LLL did not terminate within the sweep cap")
        _gs_rows(b, bstar, mu, norms2, valid, k + 1)
        valid = k + 1
        # size-reduce column k against k-1 .. 0, updating mu row k locally
        for j in range(k - 1, -1, -1):
            r = mu[k, j]
            if not math.isfinite(r):
                raise InvariantError("non-finite projection during reduction")
            ri = int(round(r))
            if ri:
                z[k] = [zk - ri * zj for zk, zj in zip(z[k], z[j])]
                for i in range(j):
                    mu[k, i] -= ri * mu[j, i]
                mu[k, j] -= ri
                valid = k
        if valid == k:  # column k moved; b[:, k] is not read above
            b[:, k] = embed(z[k])
        if norms2[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            z[k], z[k - 1] = z[k - 1], z[k]
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            valid = k - 1
            k = max(k - 1, 1)
    return z, b


def _matrix_embed(basis: np.ndarray) -> Callable[[List[int]], np.ndarray]:
    def embed(zcol: List[int]) -> np.ndarray:
        return basis @ np.array(zcol, dtype=float)

    return embed


def lll_with_transform(basis: np.ndarray) -> Tuple[np.ndarray, List[List[int]]]:
    """LLL-reduce the columns; returns (reduced, z) with z the list of
    integer coordinate vectors of the reduced columns."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise InputError("basis must be a matrix")
    n, m = basis.shape
    if m < 1 or m > n:
        raise InputError(f"need 1 <= #columns <= dim, got {m} columns in R^{n}")
    if m == 1:
        if not np.any(basis[:, 0]):
            raise InputError("basis columns are dependent or singular")
        return basis.copy(), [[1]]
    z, b = _lll_core(m, _matrix_embed(basis))
    return b, z


def enumerate_ball(
    basis: np.ndarray,
    radius: float,
    budget: int = DEFAULT_NODE_BUDGET,
) -> List[np.ndarray]:
    """Integer coefficient vectors z != 0 with ||basis @ z|| <= radius,
    one representative per +/- pair (the highest-index nonzero entry of z
    is positive).

    The basis should already be reduced or the search tree explodes; the
    node budget turns that into a BudgetError instead of a hang.
    """
    basis = np.asarray(basis, dtype=float)
    if radius < 0:
        raise InputError("radius must be nonnegative")
    _, mu, norms2 = gram_schmidt(basis)
    m = basis.shape[1]
    r2 = radius * radius
    out: List[np.ndarray] = []
    zvec = [0] * m
    nodes = 0

    def descend(level: int, remaining: float, nonzero_above: bool) -> None:
        nonlocal nodes
        if level < 0:
            if nonzero_above:
                out.append(np.array(zvec, dtype=np.int64))
            return
        center = -sum(mu[j, level] * zvec[j] for j in range(level + 1, m))
        span = math.sqrt(max(remaining, 0.0) / norms2[level])
        lo = math.ceil(center - span - 1e-12)
        hi = math.floor(center + span + 1e-12)
        if not nonzero_above and lo < 0:
            lo = 0
        for zi in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"enumeration exceeded the node budget ({budget})"
                )
            offset = zi - center
            used = offset * offset * norms2[level]
            if used > remaining + 1e-9 * (1.0 + remaining):
                continue
            zvec[level] = zi
            descend(level - 1, remaining - used, nonzero_above or zi != 0)
        zvec[level] = 0

    descend(m - 1, r2, False)
    return out


def reduce_embedded(
    embed: Callable[[List[int]], np.ndarray],
    ncols: int,
) -> Tuple[List[List[int]], np.ndarray]:
    """LLL on the lattice spanned by embed(e_i); see _lll_core.

    The callback is re-applied to the integer coordinates after every
    column operation, so a basis with a huge dynamic range stays accurate
    as long as the callback itself evaluates exactly.
    """
    return _lll_core(ncols, embed)


def _coords(z: List[List[int]], zc: np.ndarray) -> List[int]:
    c = zc.tolist()
    return [sum(zi * ci for zi, ci in zip(col, c)) for col in zip(*z)]


def sup_first_minimum(
    z: List[List[int]],
    b: np.ndarray,
    sup_of: Callable[[List[int]], float],
    budget: int = DEFAULT_NODE_BUDGET,
) -> Tuple[List[int], float]:
    """First minimum of the sup norm for a reduced embedded lattice.

    (z, b) comes from reduce_embedded; sup_of evaluates the sup norm of an
    integer coordinate vector, exactly where it matters (the flow
    experiments recompute the expanding coordinate without cancellation).
    Returns (coordinates, value).
    """
    best_m = min(z, key=sup_of)
    best = sup_of(best_m)
    ball = best * math.sqrt(b.shape[0]) * (1.0 + 1e-9)
    for zc in enumerate_ball(b, ball, budget):
        m = _coords(z, zc)
        s = sup_of(m)
        if s < best:
            best, best_m = s, m
    return list(best_m), best


def box_count_embedded(
    z: List[List[int]],
    b: np.ndarray,
    sup_of: Callable[[List[int]], float],
    box_radius: float,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Number of nonzero lattice vectors v with sup_norm(v) <= box_radius,
    for a reduced embedded lattice (see sup_first_minimum).

    Always even, since v and -v land in the box together.
    """
    if not box_radius > 0:
        raise InputError("box radius must be positive")
    ball = box_radius * math.sqrt(b.shape[0]) * (1.0 + 1e-9)
    half = 0
    for zc in enumerate_ball(b, ball, budget):
        if sup_of(_coords(z, zc)) <= box_radius + 1e-9:
            half += 1
    return 2 * half
