"""Classical root systems, weight saturation, and the pairing-profile scan."""

from dataclasses import replace
from fractions import Fraction

import pytest

from latflow.errors import InputError, InvariantError
from latflow.rootsys import (
    _validate,
    build_root_system,
    classification_check,
    classification_scan,
    is_dominant,
    is_minuscule,
    minuscule_checks,
    reflect,
    reflection_number,
    saturate,
    supported_systems,
)

F = Fraction


def test_root_counts():
    assert len(build_root_system("A", 2).roots) == 6
    assert len(build_root_system("C", 2).roots) == 8
    assert len(build_root_system("B", 3).roots) == 18
    assert len(build_root_system("D", 3).roots) == 12
    assert len(build_root_system("A", 1).roots) == 2


def test_rejected_systems():
    for family, rank in [("D", 2), ("B", 1), ("C", 1), ("A", 0), ("A", 5), ("E", 3)]:
        with pytest.raises(InputError):
            build_root_system(family, rank)


def test_simple_root_pairings_a2():
    a2 = build_root_system("A", 2)
    a1, a2s = a2.simple
    assert sum(c * c for c in a1) == 2
    assert reflection_number(a1, a2s) == -1
    assert reflection_number(a2s, a1) == -1
    assert reflection_number(a1, a1) == 2


def test_reflection_geometry():
    a2 = build_root_system("A", 2)
    a1, a2s = a2.simple
    assert reflect(a1, a1) == tuple(-c for c in a1)
    # reflecting a simple root in the other one lands on the third positive root
    assert reflect(a1, a2s) == tuple(x + y for x, y in zip(a1, a2s))
    # reflections preserve length
    for alpha in a2.roots:
        img = reflect(a1, alpha)
        assert sum(c * c for c in img) == sum(c * c for c in a1)


def test_c2_long_and_short():
    c2 = build_root_system("C", 2)
    lengths = sorted({sum(c * c for c in r) for r in c2.roots})
    assert lengths == [2, 4]
    long_roots = [r for r in c2.roots if sum(c * c for c in r) == 4]
    assert len(long_roots) == 2 * 2  # +-2e_i


def test_saturation_of_first_fundamental():
    a2 = build_root_system("A", 2)
    sat = saturate([a2.fundamental[0]], a2)
    assert len(sat) == 3
    assert a2.fundamental[0] in sat
    # saturating again changes nothing
    assert saturate(sorted(sat), a2) == sat


def _weyl_orbit(lam, rs):
    """Closure of {lam} under the simple reflections."""
    orbit, queue = {tuple(lam)}, [tuple(lam)]
    while queue:
        v = queue.pop()
        for alpha in rs.simple:
            w = reflect(v, alpha)
            if w not in orbit:
                orbit.add(w)
                queue.append(w)
    return orbit


def test_weyl_orbits():
    a2 = build_root_system("A", 2)
    assert len(_weyl_orbit(a2.fundamental[0], a2)) == 3
    highest = next(r for r in a2.roots if is_dominant(r, a2))
    # the orbit of the highest root is the whole system
    assert _weyl_orbit(highest, a2) == a2.roots
    # the saturation of a minuscule weight is its Weyl orbit
    checked = 0
    for rs, i, pi, _ in minuscule_checks(3):
        assert set(pi) == _weyl_orbit(rs.fundamental[i], rs)
        checked += 1
    assert checked == 13  # A1, A2 (2), A3 (3), B2, B3, C2, C3, D3 (3)


def test_minuscule_predicate():
    a2 = build_root_system("A", 2)
    assert is_minuscule(a2.fundamental[0], a2)
    assert is_minuscule(a2.fundamental[1], a2)
    highest = next(r for r in a2.roots if is_dominant(r, a2))
    assert not is_minuscule(highest, a2)
    assert is_minuscule((F(0), F(0), F(0)), a2)
    b3 = build_root_system("B", 3)
    minuscule_idx = [i + 1 for i, w in enumerate(b3.fundamental) if is_minuscule(w, b3)]
    assert minuscule_idx == [3]  # only the spin weight


def test_classification_witness_profile():
    a2 = build_root_system("A", 2)
    pi = sorted(saturate([a2.fundamental[0]], a2))
    wits = classification_check(a2, pi)
    assert wits
    for alpha in wits:
        profile = sorted(reflection_number(w, alpha) for w in pi)
        assert profile == [-1, 0, 1]


def test_classification_check_adjoint_fails():
    a2 = build_root_system("A", 2)
    pi = sorted(a2.roots) + [(F(0),) * 3, (F(0),) * 3]
    assert classification_check(a2, pi) == []


def test_supported_systems_inventory():
    names = [rs.name for rs in supported_systems(3)]
    assert names == ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3"]


def test_scan_pass_set_is_frozen():
    scan = classification_scan(3)
    passed = {key for key, wits in scan.items() if wits}
    assert passed == {
        ("A", 1, 1),
        ("A", 2, 1),
        ("A", 2, 2),
        ("A", 3, 1),
        ("A", 3, 3),
        ("B", 2, 2),
        ("C", 2, 1),
        ("C", 3, 1),
        ("D", 3, 2),
        ("D", 3, 3),
    }
    failed = set(scan) - passed
    assert failed == {("A", 3, 2), ("B", 3, 3), ("D", 3, 1)}


def test_scan_witness_counts():
    scan = classification_scan(2)
    # the standard A2 representation is witnessed by every root
    assert len(scan[("A", 2, 1)]) == 6
    assert len(scan[("C", 2, 1)]) == 4  # exactly the long roots


def test_to_json_is_sorted_and_stringly():
    a2 = build_root_system("A", 2)
    data = a2.to_json()
    assert data["family"] == "A" and data["rank"] == 2
    assert data["roots"] == sorted(data["roots"])
    assert all(isinstance(c, str) for root in data["roots"] for c in root)
    assert len(data["fundamental_weights"]) == 2


def test_validation_rejects_bad_simple_roots():
    a2 = build_root_system("A", 2)
    a1, a2s = a2.simple
    both = tuple(x + y for x, y in zip(a1, a2s))
    # (a1, a1 + a2) is a Z-basis, but a2 = (a1 + a2) - a1 has mixed signs
    with pytest.raises(InvariantError, match="mixed-sign simple coordinates"):
        _validate(replace(a2, simple=(a1, both)))
    with pytest.raises(InvariantError, match="degenerate simple-root Gram matrix"):
        _validate(replace(a2, simple=(a1, a1)))
    # a single simple root of A2 does not span the other roots
    with pytest.raises(InputError, match="lies outside the span of the simple roots"):
        _validate(replace(a2, rank=1, simple=(a1,), fundamental=a2.fundamental[:1]))
    _validate(a2)

