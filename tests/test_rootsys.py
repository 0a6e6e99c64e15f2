"""Classical root systems, weight saturation, and the pairing-profile scan."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from latflow.errors import InputError, InvariantError
from latflow.rootsys import (
    _validate,
    build_root_system,
    classification_check,
    is_dominant,
    is_minuscule,
    minuscule_checks,
    saturate,
    supported_systems,
)

F = Fraction


def _name(rs):
    return f"{rs.family}{rs.rank}"


def _scan(max_rank):
    """Witness lists of minuscule_checks, keyed by (family, rank, weight
    index 1-based)."""
    return {(rs.family, rs.rank, i + 1): wits for rs, i, _, wits in minuscule_checks(max_rank)}


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
    assert oracles.coroot_pairing(a1, a2s) == -1
    assert oracles.coroot_pairing(a2s, a1) == -1
    assert oracles.coroot_pairing(a1, a1) == 2


def test_reflection_geometry():
    a2 = build_root_system("A", 2)
    a1, a2s = a2.simple
    assert oracles.reflect(a1, a1) == tuple(-c for c in a1)
    # reflecting a simple root in the other one lands on the third positive root
    assert oracles.reflect(a1, a2s) == tuple(x + y for x, y in zip(a1, a2s))
    # reflections preserve length and map the built roots onto themselves
    for alpha in a2.roots:
        img = oracles.reflect(a1, alpha)
        assert sum(c * c for c in img) == sum(c * c for c in a1)
        assert {oracles.reflect(beta, alpha) for beta in a2.roots} == a2.roots


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
            w = oracles.reflect(v, alpha)
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
        profile = sorted(oracles.coroot_pairing(w, alpha) for w in pi)
        assert profile == [-1, 0, 1]


def test_classification_check_adjoint_fails():
    a2 = build_root_system("A", 2)
    pi = sorted(a2.roots) + [(F(0),) * 3, (F(0),) * 3]
    assert classification_check(a2, pi) == []


def test_supported_systems_inventory():
    names = [_name(rs) for rs in supported_systems(3)]
    assert names == ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3"]


def test_scan_pass_set_is_frozen():
    scan = _scan(3)
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
    scan = _scan(2)
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



# -- rejections: each axiom failure raises its own error -----------------------


def _scaled(c, v):
    return tuple(c * x for x in v)


def test_validate_rejects_a_zero_root():
    a2 = build_root_system("A", 2)
    with pytest.raises(InvariantError) as exc:
        _validate(replace(a2, roots=a2.roots | {(F(0),) * 3}))
    assert str(exc.value) == "zero root"


def test_validate_rejects_root_multiples():
    # BC1 = {+-a, +-2a} is closed under its reflections and all its pairings
    # are integers; only the reducedness axiom fails. The roots are visited
    # in order, so a tuple fixes which of the two multiples is seen first.
    a1 = build_root_system("A", 1)
    a = a1.simple[0]
    short, long_ = (a, _scaled(-1, a)), (_scaled(2, a), _scaled(-2, a))
    with pytest.raises(InvariantError) as exc:
        _validate(replace(a1, roots=short + long_))
    assert str(exc.value) == f"root multiple 2 present for {a}"
    with pytest.raises(InvariantError) as exc:
        _validate(replace(a1, roots=long_ + short))
    assert str(exc.value) == f"root multiple 1/2 present for {_scaled(2, a)}"


def test_validate_rejects_a_non_integral_pairing():
    # B2 with its long roots stretched by 3: closed under reflections, but a
    # short root pairs to +-1/3 with a long one
    b2 = build_root_system("B", 2)
    short = [r for r in b2.roots if sum(c * c for c in r) == 1]
    long_ = [_scaled(3, r) for r in b2.roots if sum(c * c for c in r) == 2]
    with pytest.raises(InvariantError) as exc:
        _validate(replace(b2, roots=frozenset(short + long_)))
    assert str(exc.value) in {f"non-integral pairing <{beta},{alpha}>"
                              for beta in short for alpha in long_}


def test_validate_rejects_a_system_not_closed_under_reflections():
    # A2 without e_1 - e_3: every pairing is an integer, but s_a1(a2) = a1 + a2
    a2 = build_root_system("A", 2)
    a1, a2s = a2.simple
    kept = frozenset([a1, a2s, _scaled(-1, a1), _scaled(-1, a2s)])
    with pytest.raises(InvariantError) as exc:
        _validate(replace(a2, roots=kept))
    assert str(exc.value) in {f"reflection of {beta} in {alpha} leaves the system"
                              for beta in kept for alpha in kept
                              if oracles.reflect(beta, alpha) not in kept}


def test_saturate_rejects_a_point_off_the_weight_lattice():
    a2 = build_root_system("A", 2)
    lam = (F(1, 3), F(0), F(-1, 3))
    assert oracles.coroot_pairing(lam, (1, 0, -1)) == F(2, 3)
    with pytest.raises(InputError) as exc:
        saturate([lam], a2)
    assert str(exc.value) == f"{lam} is not in the weight lattice"


def test_is_minuscule_rejects_a_weight_that_is_not_dominant():
    a2 = build_root_system("A", 2)
    with pytest.raises(InputError) as exc:
        is_minuscule(_scaled(-1, a2.fundamental[0]), a2)
    assert str(exc.value) == "minuscule test requires a dominant weight"


# -- differential check against the Fraction oracle ---------------------------

SYSTEMS = {_name(rs): rs for rs in supported_systems(4)}
# saturations grow fast (B4 at 2 rho holds 30,249 weights), so the oracle
# stops at this many weights and a larger one is compared root by root only
SATURATION_LIMIT = 100


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=8)
@given(data=st.data())
def test_kernel_matches_the_fraction_oracle(name, data):
    """is_minuscule on lam = sum c_i omega_i with 0 <= c_i <= 2, and
    saturate and classification_check on its saturation."""
    rs = SYSTEMS[name]
    cs = data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank))
    lam = tuple(sum(c * w[k] for c, w in zip(cs, rs.fundamental))
                for k in range(rs.ambient))
    pairings = [oracles.coroot_pairing(lam, alpha) for alpha in rs.roots]
    assert is_minuscule(lam, rs) == all(p in (-1, 0, 1) for p in pairings)
    pi = oracles.root_string_closure([lam], rs.roots, SATURATION_LIMIT)
    event("saturation over the limit" if pi is None else "saturation compared")
    if pi is not None:
        assert saturate([lam], rs) == pi
        weights = sorted(pi)
        assert classification_check(rs, weights) == oracles.pairing_profile_roots(
            rs.roots, weights)


def _two_rho(rs):
    return tuple(sum(2 * w[k] for w in rs.fundamental) for k in range(rs.ambient))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D3", "A4"])
def test_saturation_of_two_rho_matches_the_oracle(name):
    """Whole saturations at 2 rho, where long root strings overlap."""
    rs = SYSTEMS[name]
    lam = _two_rho(rs)
    assert saturate([lam], rs) == oracles.root_string_closure([lam], rs.roots, 10**4)


@pytest.mark.parametrize("name, size", [("B4", 30249), ("C4", 29657)])
def test_saturation_of_two_rho_at_rank_4(name, size):
    """Too large for the oracle: the size alone."""
    rs = SYSTEMS[name]
    assert len(saturate([_two_rho(rs)], rs)) == size
