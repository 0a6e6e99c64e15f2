"""Finite root systems of types A, B, C, D at rank <= 4.

Everything is exhaustive and exact: roots live in the standard coordinate
embeddings (type A inside the sum-zero hyperplane of R^(r+1)), pairings are
rational, and the construction validates the defining axioms rather than
trusting the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .errors import InputError, InvariantError
from .exact import eliminate

Vec = Tuple[Fraction, ...]

MAX_RANK = 4


def _vec(xs: Sequence) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _smul(c: Fraction, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def _inner(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reflection_number(beta: Sequence, alpha: Sequence):
    """2(beta, alpha)/(alpha, alpha); an integer on the weight lattice."""
    a = _vec(alpha)
    b = _vec(beta)
    aa = _inner(a, a)
    if aa == 0:
        raise InputError("reflection against the zero vector")
    value = 2 * _inner(b, a) / aa
    return int(value) if value.denominator == 1 else value


def reflect(beta: Sequence, alpha: Sequence) -> Vec:
    """Image of beta under the reflection fixing the hyperplane of alpha."""
    num = reflection_number(beta, alpha)
    return _sub(_vec(beta), _smul(Fraction(num), _vec(alpha)))


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient: int
    roots: FrozenSet[Vec]
    simple: Tuple[Vec, ...]
    fundamental: Tuple[Vec, ...]

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

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


def _basis(ambient: int, i: int) -> Vec:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(ambient))


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct one of A1..A4, B2..B4, C2..C4, D3..D4 and verify the axioms.

    D2 splits into two orthogonal A1 pieces and B1/C1 collapse to A1, so the
    degenerate labels are rejected rather than silently aliased.
    """
    if rank > MAX_RANK or rank < 1:
        raise InputError(f"rank {rank} out of the supported range 1..{MAX_RANK}")
    if family == "A":
        ambient = rank + 1
        e = [_basis(ambient, i) for i in range(ambient)]
        roots = {_sub(e[i], e[j]) for i in range(ambient) for j in range(ambient) if i != j}
        simple = tuple(_sub(e[i], e[i + 1]) for i in range(rank))
        ones = tuple(Fraction(1) for _ in range(ambient))
        fundamental = tuple(
            _sub(
                tuple(sum(col) for col in zip(*(e[j] for j in range(i + 1)))),
                _smul(Fraction(i + 1, ambient), ones),
            )
            for i in range(rank)
        )
    elif family in ("B", "C"):
        if rank < 2:
            raise InputError(f"{family}1 collapses to A1; use A1")
        ambient = rank
        e = [_basis(ambient, i) for i in range(ambient)]
        roots = set()
        for i in range(rank):
            for j in range(i + 1, rank):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.add(_add(_smul(Fraction(si), e[i]), _smul(Fraction(sj), e[j])))
        scale = Fraction(1) if family == "B" else Fraction(2)
        for i in range(rank):
            roots.add(_smul(scale, e[i]))
            roots.add(_smul(-scale, e[i]))
        simple = tuple(
            [_sub(e[i], e[i + 1]) for i in range(rank - 1)] + [_smul(scale, e[rank - 1])]
        )
        if family == "B":
            fundamental = tuple(
                [
                    tuple(sum(col) for col in zip(*(e[j] for j in range(i + 1))))
                    for i in range(rank - 1)
                ]
                + [_smul(Fraction(1, 2), tuple(Fraction(1) for _ in range(rank)))]
            )
        else:
            fundamental = tuple(
                tuple(sum(col) for col in zip(*(e[j] for j in range(i + 1))))
                for i in range(rank)
            )
    elif family == "D":
        if rank < 3:
            raise InputError("D needs rank >= 3 (D2 is reducible)")
        ambient = rank
        e = [_basis(ambient, i) for i in range(ambient)]
        roots = set()
        for i in range(rank):
            for j in range(i + 1, rank):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.add(_add(_smul(Fraction(si), e[i]), _smul(Fraction(sj), e[j])))
        simple = tuple(
            [_sub(e[i], e[i + 1]) for i in range(rank - 1)]
            + [_add(e[rank - 2], e[rank - 1])]
        )
        half = Fraction(1, 2)
        ones = tuple(Fraction(1) for _ in range(rank))
        fundamental = tuple(
            [
                tuple(sum(col) for col in zip(*(e[j] for j in range(i + 1))))
                for i in range(rank - 2)
            ]
            + [
                _smul(half, _sub(ones, _smul(Fraction(2), e[rank - 1]))),
                _smul(half, ones),
            ]
        )
    else:
        raise InputError(f"unknown family {family!r} (A, B, C, D supported)")
    rs = RootSystem(
        family=family,
        rank=rank,
        ambient=ambient,
        roots=frozenset(roots),
        simple=simple,
        fundamental=fundamental,
    )
    _validate(rs)
    return rs


def _validate(rs: RootSystem) -> None:
    roots = rs.roots
    for alpha in roots:
        if _inner(alpha, alpha) == 0:
            raise InvariantError("zero root")
        for c in (2, Fraction(1, 2)):
            if _smul(Fraction(c), alpha) in roots:
                raise InvariantError(f"root multiple {c} present for {alpha}")
        for beta in roots:
            num = reflection_number(beta, alpha)
            if isinstance(num, Fraction):
                raise InvariantError(f"non-integral pairing <{beta},{alpha}>")
            if reflect(beta, alpha) not in roots:
                raise InvariantError(f"reflection of {beta} in {alpha} leaves the system")
    # simple roots: integral coefficients of one sign for every root
    order = list(roots)
    for root, coeffs in zip(order, _in_simple_basis(rs, order)):
        if any(c.denominator != 1 for c in coeffs):
            raise InvariantError(f"non-integral simple coordinates for {root}")
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            raise InvariantError(f"mixed-sign simple coordinates for {root}")
    for i, w in enumerate(rs.fundamental):
        pair = [reflection_number(w, a) for a in rs.simple]
        if pair != [1 if j == i else 0 for j in range(rs.rank)]:
            raise InvariantError(f"fundamental weight {i + 1} fails duality")


def _in_simple_basis(rs: RootSystem, vs: List[Vec]) -> List[List[Fraction]]:
    """Coordinates of each v in the simple-root basis, via the Cartan pairings.

    Solves the rank x rank systems <v, a_i> = sum_j c_j <a_j, a_i> exactly,
    all in one elimination of [Gram | <v, a_i> for every v].
    """
    k = rs.rank
    aug = [[_inner(a, b) for b in rs.simple] + [_inner(v, a) for v in vs]
           for a in rs.simple]
    pivots, _ = eliminate(aug, reduced=True)
    if pivots != list(range(k)):
        raise InvariantError("degenerate simple-root Gram matrix")
    out = []
    for col, v in enumerate(vs, start=k):
        coeffs = [row[col] for row in aug]
        recon = tuple(
            sum((coeffs[j] * rs.simple[j][d] for j in range(k)), Fraction(0))
            for d in range(rs.ambient)
        )
        if recon != v:
            raise InputError(f"{v} lies outside the span of the simple roots")
        out.append(coeffs)
    return out


def is_dominant(lam: Sequence, rs: RootSystem) -> bool:
    v = _vec(lam)
    return all(
        Fraction(reflection_number(v, a)) >= 0 for a in rs.simple
    )


def saturate(seed, rs: RootSystem) -> FrozenSet[Vec]:
    """Least superset of the seed closed under root strings: for each weight
    lam and root alpha, all lam - i*alpha for i between 0 and <lam, alpha>."""
    out = {_vec(s) for s in seed}
    queue = list(out)
    while queue:
        lam = queue.pop()
        for alpha in rs.roots:
            num = reflection_number(lam, alpha)
            if isinstance(num, Fraction):
                raise InputError(f"{lam} is not in the weight lattice")
            step = 1 if num >= 0 else -1
            for i in range(0, num + step, step):
                mu = _sub(lam, _smul(Fraction(i), alpha))
                if mu not in out:
                    out.add(mu)
                    queue.append(mu)
    return frozenset(out)


def is_minuscule(lam: Sequence, rs: RootSystem) -> bool:
    """lam pairs to 0, 1 or -1 against every root. Requires lam dominant."""
    v = _vec(lam)
    if not is_dominant(v, rs):
        raise InputError("minuscule test requires a dominant weight")
    for beta in rs.roots:
        num = reflection_number(v, beta)
        if Fraction(num) not in (Fraction(-1), Fraction(0), Fraction(1)):
            return False
    return True


def classification_check(rs: RootSystem, pi: Sequence[Sequence]) -> List[Vec]:
    """Roots whose pairing against the weight multiset pi is +1 once, -1 once
    and 0 everywhere else. An empty list means no root has that profile."""
    weights = [_vec(w) for w in pi]
    if len(weights) < 2:
        return []
    witnesses = []
    for alpha in sorted(rs.roots):
        counts: Dict[Fraction, int] = {}
        for w in weights:
            key = Fraction(reflection_number(w, alpha))
            counts[key] = counts.get(key, 0) + 1
        expected = {Fraction(1): 1, Fraction(-1): 1}
        if len(weights) > 2:
            expected[Fraction(0)] = len(weights) - 2
        if counts == expected:
            witnesses.append(alpha)
    return witnesses


def supported_systems(max_rank: int = MAX_RANK) -> List[RootSystem]:
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


def classification_scan(max_rank: int = 3):
    """Witness lists of minuscule_checks, keyed by (family, rank, weight
    index 1-based)."""
    return {(rs.family, rs.rank, i + 1): witnesses
            for rs, i, _, witnesses in minuscule_checks(max_rank)}
