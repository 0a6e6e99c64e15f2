"""Finite root systems of types A, B, C, D at rank <= 4.

Everything is exhaustive and exact: roots live in the standard coordinate
embeddings (type A inside the sum-zero hyperplane of R^(r+1)), and the
construction validates the defining axioms rather than trusting the tables.
Pairings run in integers: the vectors involved are scaled to one common
denominator, which leaves every pairing unchanged, and `Fraction` appears
only in what the functions take and return.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import FrozenSet, List, Sequence, Tuple

from .errors import InputError, InvariantError
from .exact import eliminate

Vec = Tuple[Fraction, ...]
IVec = Tuple[int, ...]

MAX_RANK = 4


def _vec(xs: Sequence) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _smul(c, v: Sequence) -> tuple:
    return tuple(c * x for x in v)


# -- the integer pairing kernel -----------------------------------------------


def _integral(*groups: Sequence[Sequence]) -> Tuple[int, List[List[IVec]]]:
    """Scale every vector of every group by d, the lcm of all their coordinate
    denominators. Pairings and membership are unchanged by a common scale, and
    every scaled coordinate is an integer."""
    fracs = [[_vec(v) for v in g] for g in groups]
    d = math.lcm(*(x.denominator for g in fracs for v in g for x in v))
    return d, [[tuple(x.numerator * (d // x.denominator) for x in v) for v in g]
               for g in fracs]


def _unscale(v: IVec, d: int) -> Vec:
    return tuple(Fraction(x, d) for x in v)


def _dot(u: IVec, v: IVec) -> int:
    return sum(map(mul, u, v))


def _norm(a: IVec) -> int:
    aa = _dot(a, a)
    if aa == 0:
        raise InputError("reflection against the zero vector")
    return aa


def _axes(alphas: List[IVec]) -> List[Tuple[IVec, int]]:
    return [(a, _norm(a)) for a in alphas]


def _pairing(b: IVec, a: IVec, aa: int) -> Tuple[int, int]:
    """divmod(2 (b.a), aa) with aa = a.a: the quotient is <b, a> when the
    remainder is 0, and a nonzero remainder means <b, a> is not an integer.
    The quotient is >= 0 exactly when <b, a> is."""
    return divmod(2 * _dot(b, a), aa)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient: int
    roots: FrozenSet[Vec]
    simple: Tuple[Vec, ...]
    fundamental: Tuple[Vec, ...]

    def to_json(self) -> dict:
        fmt = lambda v: [str(c) for c in v]
        return {
            "family": self.family,
            "rank": self.rank,
            "ambient": self.ambient,
            "roots": sorted(fmt(r) for r in self.roots),
            "simple_roots": [fmt(r) for r in self.simple],
            "fundamental_weights": [fmt(w) for w in self.fundamental],
        }


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct one of A1..A4, B2..B4, C2..C4, D3..D4 and verify the axioms.

    D2 splits into two orthogonal A1 pieces and B1/C1 collapse to A1, so the
    degenerate labels are rejected rather than silently aliased.
    """
    if rank > MAX_RANK or rank < 1:
        raise InputError(f"rank {rank} out of the supported range 1..{MAX_RANK}")
    if family in ("B", "C") and rank < 2:
        raise InputError(f"{family}1 collapses to A1; use A1")
    if family == "D" and rank < 3:
        raise InputError("D needs rank >= 3 (D2 is reducible)")
    if family not in ("A", "B", "C", "D"):
        raise InputError(f"unknown family {family!r} (A, B, C, D supported)")
    ambient = rank + 1 if family == "A" else rank
    e = [tuple(int(k == i) for k in range(ambient)) for i in range(ambient)]
    head = [tuple(int(k <= i) for k in range(ambient)) for i in range(ambient)]  # e_0+..+e_i
    half = tuple(Fraction(1, 2) for _ in range(ambient))
    simple = [_sub(e[i], e[i + 1]) for i in range(ambient - 1)]
    if family == "A":
        roots = [_sub(e[i], e[j]) for i in range(ambient) for j in range(ambient) if i != j]
        fundamental = [tuple(x - Fraction(i + 1, ambient) for x in head[i])
                       for i in range(rank)]
    else:
        roots = [_add(_smul(si, e[i]), _smul(sj, e[j])) for i in range(rank)
                 for j in range(i + 1, rank) for si in (1, -1) for sj in (1, -1)]
        if family == "D":
            simple.append(_add(e[rank - 2], e[rank - 1]))
            fundamental = head[:rank - 2] + [_sub(half, e[rank - 1]), half]
        else:
            scale = 1 if family == "B" else 2
            roots += [_smul(s * scale, e[i]) for i in range(rank) for s in (1, -1)]
            simple.append(_smul(scale, e[rank - 1]))
            fundamental = head[:rank - 1] + [half if family == "B" else head[rank - 1]]
    rs = RootSystem(
        family=family,
        rank=rank,
        ambient=ambient,
        roots=frozenset(map(_vec, roots)),
        simple=tuple(map(_vec, simple)),
        fundamental=tuple(map(_vec, fundamental)),
    )
    _validate(rs)
    return rs


def _validate(rs: RootSystem) -> None:
    roots = list(rs.roots)
    _, (ints, simple, fundamental) = _integral(roots, rs.simple, rs.fundamental)
    members = set(ints)
    for alpha, a in zip(roots, ints):
        aa = _dot(a, a)
        if aa == 0:
            raise InvariantError("zero root")
        if tuple(2 * x for x in a) in members:
            raise InvariantError(f"root multiple 2 present for {alpha}")
        if all(x % 2 == 0 for x in a) and tuple(x // 2 for x in a) in members:
            raise InvariantError(f"root multiple 1/2 present for {alpha}")
        for beta, b in zip(roots, ints):
            num, rem = _pairing(b, a, aa)
            if rem:
                raise InvariantError(f"non-integral pairing <{beta},{alpha}>")
            if tuple(x - num * y for x, y in zip(b, a)) not in members:
                raise InvariantError(f"reflection of {beta} in {alpha} leaves the system")
    # simple roots: integral coefficients of one sign for every root
    for root, coeffs in zip(roots, _in_simple_basis(rs, roots)):
        if any(c.denominator != 1 for c in coeffs):
            raise InvariantError(f"non-integral simple coordinates for {root}")
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            raise InvariantError(f"mixed-sign simple coordinates for {root}")
    for i, w in enumerate(fundamental):
        pair = [_pairing(w, a, aa) for a, aa in _axes(simple)]
        if pair != [(1 if j == i else 0, 0) for j in range(rs.rank)]:
            raise InvariantError(f"fundamental weight {i + 1} fails duality")


def _in_simple_basis(rs: RootSystem, vs: List[Vec]) -> List[List[Fraction]]:
    """Coordinates of each v in the simple-root basis, via the Cartan pairings.

    Solves the rank x rank systems <v, a_i> = sum_j c_j <a_j, a_i> exactly,
    all in one elimination of [Gram | <v, a_i> for every v]. The inner
    products are taken in integers, over one common denominator.
    """
    k = rs.rank
    _, (simple, ints) = _integral(rs.simple, vs)
    aug = [[Fraction(_dot(a, b)) for b in simple] + [Fraction(_dot(v, a)) for v in ints]
           for a in simple]
    pivots, _ = eliminate(aug, reduced=True)
    if pivots != list(range(k)):
        raise InvariantError("degenerate simple-root Gram matrix")
    columns = list(zip(*simple))
    out = []
    for col, (v, scaled) in enumerate(zip(vs, ints), start=k):
        coeffs = [row[col] for row in aug]
        # sum_j c_j a_j = v, times the common denominator of the c_j
        den = math.lcm(*(c.denominator for c in coeffs))
        whole = [c.numerator * (den // c.denominator) for c in coeffs]
        if [_dot(whole, x) for x in columns] != [den * x for x in scaled]:
            raise InputError(f"{v} lies outside the span of the simple roots")
        out.append(coeffs)
    return out


def is_dominant(lam: Sequence, rs: RootSystem) -> bool:
    _, ((v,), simple) = _integral([lam], rs.simple)
    return all(_pairing(v, a, aa)[0] >= 0 for a, aa in _axes(simple))


def saturate(seed, rs: RootSystem) -> FrozenSet[Vec]:
    """Least superset of the seed closed under root strings: for each weight
    lam and root alpha, all lam - i*alpha for i between 0 and <lam, alpha>.

    The string of lam along alpha runs from lam to its mirror image: it is
    (m + p alpha) / 2 for p = <lam, alpha>, <lam, alpha> - 2, ..., -<lam, alpha>,
    where m = 2 lam - <lam, alpha> alpha is the same for every weight on it
    and for -alpha. So one root of each +-pair is used, and a string keyed by
    (root, m, parity of p) adds only the points beyond the largest |p| seen
    with that key: each point of each line is made once."""
    d, (roots, queue) = _integral(rs.roots, list({_vec(s) for s in seed}))
    axes = _axes([a for a in roots if a > tuple(-x for x in a)])
    out = set(queue)
    walked = {}  # (axis, m, parity) -> largest |<lam, alpha>| walked
    while queue:
        lam = queue.pop()
        for i, (a, aa) in enumerate(axes):
            num, rem = _pairing(lam, a, aa)
            if rem:
                raise InputError(f"{_unscale(lam, d)} is not in the weight lattice")
            length = abs(num)
            if length == 0:
                continue
            m = tuple(2 * x - num * y for x, y in zip(lam, a))
            key = (i, m, length & 1)
            inner = walked.get(key, -1)
            if inner >= length:
                continue
            walked[key] = length
            for p in range(-length, length + 1, 2):
                if abs(p) > inner:
                    mu = tuple((x + p * y) // 2 for x, y in zip(m, a))
                    if mu not in out:
                        out.add(mu)
                        queue.append(mu)
    return frozenset(_unscale(mu, d) for mu in out)


def is_minuscule(lam: Sequence, rs: RootSystem) -> bool:
    """lam pairs to 0, 1 or -1 against every root. Requires lam dominant."""
    if not is_dominant(lam, rs):
        raise InputError("minuscule test requires a dominant weight")
    _, ((v,), roots) = _integral([lam], rs.roots)
    return all(_pairing(v, a, aa) in ((-1, 0), (0, 0), (1, 0)) for a, aa in _axes(roots))


def classification_check(rs: RootSystem, pi: Sequence[Sequence]) -> List[Vec]:
    """Roots whose pairing against the weight multiset pi is +1 once, -1 once
    and 0 everywhere else. An empty list means no root has that profile."""
    order = sorted(rs.roots)
    _, (roots, weights) = _integral(order, pi)
    if len(weights) < 2:
        return []
    expected = Counter({(1, 0): 1, (-1, 0): 1, (0, 0): len(weights) - 2})
    return [alpha for alpha, (a, aa) in zip(order, _axes(roots))
            if Counter(_pairing(w, a, aa) for w in weights) == expected]


def supported_systems(max_rank: int = MAX_RANK) -> List[RootSystem]:
    if not 1 <= max_rank <= MAX_RANK:
        raise InputError(f"max rank {max_rank} out of the supported range 1..{MAX_RANK}")
    out = []
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, max_rank + 1):
            out.append(build_root_system(family, rank))
    return out


def minuscule_checks(max_rank: int):
    """For every supported irreducible system of rank <= max_rank and every
    minuscule fundamental weight omega, yield (system, 0-based index of
    omega, sorted saturation of omega, classification_check witnesses)."""
    for rs in supported_systems(max_rank):
        for i, omega in enumerate(rs.fundamental):
            if is_minuscule(omega, rs):
                pi = sorted(saturate([omega], rs))
                yield rs, i, pi, classification_check(rs, pi)

