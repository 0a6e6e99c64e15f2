"""Finite root systems of types A, B, C, D at rank <= 4.

Everything is exhaustive and exact: roots live in the standard coordinate
embeddings (type A inside the sum-zero hyperplane of R^(r+1)), and the
construction validates the defining axioms rather than trusting the tables.
Every vector of a system is a tuple of integers over the system's one
denominator `scale`, the lcm of the denominators of its roots and
fundamental weights: rank + 1 for A, 2 for B and D, 1 for C. A common scale
leaves every pairing unchanged, so all the arithmetic runs in integers, and
the functions below take and return vectors at that scale.
`RootSystem.write_out` is the one place a vector becomes rational
coordinates again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import FrozenSet, List, Sequence, Tuple

from .errors import InputError, InvariantError

IVec = Tuple[int, ...]

MAX_RANK = 4


def _add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _smul(c, v: Sequence) -> tuple:
    return tuple(c * x for x in v)


# -- the integer pairing kernel -----------------------------------------------


def _dot(u: IVec, v: IVec) -> int:
    return sum(map(mul, u, v))


def _norm(a: IVec) -> int:
    aa = _dot(a, a)
    if aa == 0:
        raise InputError("reflection against the zero vector")
    return aa


def _axes(alphas: Sequence[IVec]) -> List[Tuple[IVec, int]]:
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
    scale: int
    roots: FrozenSet[IVec]
    simple: Tuple[IVec, ...]
    fundamental: Tuple[IVec, ...]

    def write_out(self, v: Sequence) -> List[str]:
        """The rational coordinates of v, a vector at this system's scale."""
        return [str(Fraction(x, self.scale)) for x in v]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "ambient": self.ambient,
            "roots": sorted(map(self.write_out, self.roots)),
            "simple_roots": list(map(self.write_out, self.simple)),
            "fundamental_weights": list(map(self.write_out, self.fundamental)),
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
    scale = {"A": ambient, "B": 2, "C": 1, "D": 2}[family]
    e = [tuple(scale * (k == i) for k in range(ambient)) for i in range(ambient)]
    head = [tuple(scale * (k <= i) for k in range(ambient)) for i in range(ambient)]  # e_0+..+e_i
    half = (scale // 2,) * ambient  # (1/2, ..., 1/2) for B and D
    simple = [_sub(e[i], e[i + 1]) for i in range(ambient - 1)]
    if family == "A":
        roots = [_sub(e[i], e[j]) for i in range(ambient) for j in range(ambient) if i != j]
        fundamental = [tuple(x - (i + 1) for x in head[i]) for i in range(rank)]
    else:
        roots = [_add(_smul(si, e[i]), _smul(sj, e[j])) for i in range(rank)
                 for j in range(i + 1, rank) for si in (1, -1) for sj in (1, -1)]
        if family == "D":
            simple.append(_add(e[rank - 2], e[rank - 1]))
            fundamental = head[:rank - 2] + [_sub(half, e[rank - 1]), half]
        else:
            length = 1 if family == "B" else 2
            roots += [_smul(s * length, e[i]) for i in range(rank) for s in (1, -1)]
            simple.append(_smul(length, e[rank - 1]))
            fundamental = head[:rank - 1] + [half if family == "B" else head[rank - 1]]
    rs = RootSystem(family=family, rank=rank, ambient=ambient, scale=scale,
                    roots=frozenset(roots), simple=tuple(simple),
                    fundamental=tuple(fundamental))
    _validate(rs)
    return rs


def _validate(rs: RootSystem) -> None:
    # duality <w_i, a_j> = delta_ij; it also proves the simple roots independent
    axes = _axes(rs.simple)
    for i, w in enumerate(rs.fundamental):
        pair = [_pairing(w, a, aa) for a, aa in axes]
        if pair != [(1 if j == i else 0, 0) for j in range(rs.rank)]:
            raise InvariantError(f"fundamental weight {i + 1} fails duality")
    roots = list(rs.roots)
    members = set(roots)
    for a in roots:
        aa = _dot(a, a)
        if aa == 0:
            raise InvariantError("zero root")
        if tuple(2 * x for x in a) in members:
            raise InvariantError(f"root multiple 2 present for {rs.write_out(a)}")
        if all(x % 2 == 0 for x in a) and tuple(x // 2 for x in a) in members:
            raise InvariantError(f"root multiple 1/2 present for {rs.write_out(a)}")
        for b in roots:
            num, rem = _pairing(b, a, aa)
            if rem:
                raise InvariantError(
                    f"non-integral pairing <{rs.write_out(b)},{rs.write_out(a)}>")
            if tuple(x - num * y for x, y in zip(b, a)) not in members:
                raise InvariantError(f"reflection of {rs.write_out(b)} in "
                                     f"{rs.write_out(a)} leaves the system")
    # simple roots: integral coefficients of one sign for every root
    for root in roots:
        coeffs = _in_simple_basis(rs, axes, root)
        if any(rem for _, rem in coeffs):
            raise InvariantError(f"non-integral simple coordinates for {rs.write_out(root)}")
        if not (all(c >= 0 for c, _ in coeffs) or all(c <= 0 for c, _ in coeffs)):
            raise InvariantError(f"mixed-sign simple coordinates for {rs.write_out(root)}")


def _in_simple_basis(rs: RootSystem, axes: List[Tuple[IVec, int]],
                     v: IVec) -> List[Tuple[int, int]]:
    """Coordinates c_i of v in the simple-root basis, as divmod pairs like
    `_pairing`'s. Given duality, v = sum c_i a_i forces
    c_i = 2 (v.w_i) / (a_i.a_i); the sum is checked in integers, times the
    lcm of the a_i.a_i, so a v outside the span is refused."""
    nums = [2 * _dot(v, w) for w in rs.fundamental]
    den = math.lcm(*(aa for _, aa in axes))
    whole = [n * (den // aa) for n, (_, aa) in zip(nums, axes)]
    if [_dot(whole, x) for x in zip(*(a for a, _ in axes))] != [den * x for x in v]:
        raise InputError(f"{rs.write_out(v)} lies outside the span of the simple roots")
    return [divmod(n, aa) for n, (_, aa) in zip(nums, axes)]


def is_dominant(lam: Sequence, rs: RootSystem) -> bool:
    return all(_pairing(lam, a, aa)[0] >= 0 for a, aa in _axes(rs.simple))


def saturate(seed, rs: RootSystem) -> FrozenSet[IVec]:
    """Least superset of the seed closed under root strings: for each weight
    lam and root alpha, all lam - i*alpha for i between 0 and <lam, alpha>.

    The string of lam along alpha runs from lam to its mirror image: it is
    (m + p alpha) / 2 for p = <lam, alpha>, <lam, alpha> - 2, ..., -<lam, alpha>,
    where m = 2 lam - <lam, alpha> alpha is the same for every weight on it
    and for -alpha. So one root of each +-pair is used, and a string keyed by
    (root, m, parity of p) adds only the points beyond the largest |p| seen
    with that key: each point of each line is made once."""
    queue = list({tuple(s) for s in seed})
    axes = _axes([a for a in rs.roots if a > tuple(-x for x in a)])
    out = set(queue)
    walked = {}  # (axis, m, parity) -> largest |<lam, alpha>| walked
    while queue:
        lam = queue.pop()
        for i, (a, aa) in enumerate(axes):
            num, rem = _pairing(lam, a, aa)
            if rem:
                raise InputError(f"{rs.write_out(lam)} is not in the weight lattice")
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
    return frozenset(out)


def is_minuscule(lam: Sequence, rs: RootSystem) -> bool:
    """lam pairs to 0, 1 or -1 against every root. Requires lam dominant."""
    if not is_dominant(lam, rs):
        raise InputError("minuscule test requires a dominant weight")
    return all(_pairing(lam, a, aa) in ((-1, 0), (0, 0), (1, 0)) for a, aa in _axes(rs.roots))


def classification_check(rs: RootSystem, pi: Sequence[Sequence]) -> List[IVec]:
    """Roots whose pairing against the weight multiset pi is +1 once, -1 once
    and 0 everywhere else. An empty list means no root has that profile."""
    if len(pi) < 2:
        return []
    expected = Counter({(1, 0): 1, (-1, 0): 1, (0, 0): len(pi) - 2})
    return [a for a, aa in _axes(sorted(rs.roots))
            if Counter(_pairing(w, a, aa) for w in pi) == expected]


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
