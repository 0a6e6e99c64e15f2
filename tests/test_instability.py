"""One-parameter instability: weight supports, exact min-norm points and the
optimal destabilizing cocharacter, checked against a grid brute force."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from latflow import cli, instability
from latflow.errors import InputError, InvariantError
from latflow.instability import (
    _affine_minimizer,
    kempf_optimum,
    min_norm_point,
    parabolic_of,
    project_sum_zero,
    weight_support,
)

F = Fraction


def test_weight_support_standard():
    assert weight_support([1, 0], "standard", 2) == frozenset({(1, 0)})
    assert weight_support([3, 0, -2], "standard", 3) == frozenset({(1, 0, 0), (0, 0, 1)})
    with pytest.raises(InputError):
        weight_support([1, 0, 0], "standard", 2)


def test_weight_support_wedge():
    sup = weight_support([1, 0, 0, 0, 0, 0], ("wedge", 2), 4)
    assert sup == frozenset({(1, 1, 0, 0)})
    sup = weight_support([0, 1, 0, 0, 1, 0], ("wedge", 2), 4)
    assert sup == frozenset({(1, 0, 1, 0), (0, 1, 0, 1)})
    with pytest.raises(InputError):
        weight_support([1, 0, 0], ("wedge", 2), 4)


def test_weight_support_adjoint():
    sup = weight_support([[1, 2], [0, 1]], "adjoint", 2)
    assert sup == frozenset({(0, 0), (1, -1)})
    with pytest.raises(InputError):
        weight_support([[1, 2, 3]], "adjoint", 2)
    with pytest.raises(InputError, match="adjoint rep of SL_2 needs an 2x2 matrix"):
        weight_support([1, 2, 0, 1], "adjoint", 2)  # flat, not rows
    with pytest.raises(InputError):
        weight_support([1, 0], "spin", 2)


def _coordinate_weight(rep, n, pos):
    """The torus weight of coordinate pos of rep, written out for that
    coordinate alone (adjoint coordinates run row by row)."""
    w = [0] * n
    if rep == "standard":
        w[pos] = 1
    elif rep == "adjoint":
        i, j = divmod(pos, n)
        w[i] += 1
        w[j] -= 1
    else:
        for i in list(combinations(range(n), rep[1]))[pos]:
            w[i] = 1
    return tuple(w)


def test_weight_support_matches_each_coordinates_weight():
    rng = np.random.default_rng(61)
    for n in range(2, 6):
        for rep in ["standard", "adjoint"] + [("wedge", k) for k in range(1, n + 1)]:
            dim = {"standard": n, "adjoint": n * n}.get(rep) or math.comb(n, rep[1])
            for _ in range(6):
                flat = [int(c) if rng.random() < 0.3 else 0
                        for c in rng.integers(-3, 4, size=dim)]
                v = [flat[i * n:(i + 1) * n] for i in range(n)] if rep == "adjoint" else flat
                want = {_coordinate_weight(rep, n, pos) for pos, c in enumerate(flat) if c}
                assert weight_support(v, rep, n) == want, (rep, n, flat)


@pytest.mark.parametrize("argv, message", [
    (["--v=1,0,0", "--rep", "standard", "--n", "2"], "standard rep of SL_2 needs 2 coordinates"),
    (["--v=1,0,0", "--rep", "wedge2", "--n", "4"], "wedge(2) of SL_4 needs 6 coordinates"),
    (["--v=1,0,0,0,0,0,0,0", "--rep", "wedge3", "--n", "4"],
     "wedge(3) of SL_4 needs 4 coordinates"),
    (["--v=1,2;3,4;5,6", "--rep", "adjoint", "--n", "2"],
     "adjoint rep of SL_2 needs an 2x2 matrix"),
    (["--v=1,2,3;4,5,6", "--rep", "adjoint", "--n", "2"],
     "adjoint rep of SL_2 needs an 2x2 matrix"),
])
def test_kempf_refuses_a_vector_of_the_wrong_size(argv, message, capsys):
    assert cli.main(["kempf", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_min_norm_point_matches_subset_oracle():
    rng = np.random.default_rng(60)
    for _ in range(30):
        count = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 4))
        pts = [
            tuple(F(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(dim))
            for _ in range(count)
        ]
        h, _ = min_norm_point(pts)
        got = sum((c * c for c in h), F(0))
        assert got == oracles.min_norm_point_subsets(pts)


def test_min_norm_point_certificate():
    # the returned coefficients are a convex combination landing on h
    pts = [(F(2), F(0)), (F(0), F(2)), (F(3), F(3))]
    h, coeffs = min_norm_point(pts)
    assert sum(coeffs.values(), F(0)) == 1
    assert all(c >= 0 for c in coeffs.values())
    for axis in range(2):
        assert sum((c * pts[i][axis] for i, c in coeffs.items()), F(0)) == h[axis]
    assert sum(c * c for c in h) == 2  # nearest point (1, 1)


def test_zero_in_hull():
    assert oracles.zero_in_hull([(F(1), F(1)), (F(1), F(-1)), (F(-1), F(0))])
    assert not oracles.zero_in_hull([(F(1), F(0)), (F(0), F(1))])
    assert oracles.zero_in_hull([(F(0), F(0))])


@st.composite
def rational_point_sets(draw):
    dim = draw(st.integers(2, 4))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    point = st.tuples(*[coord] * dim)
    return draw(st.lists(point, min_size=1, max_size=6))


@given(rational_point_sets())
def test_min_norm_point_is_zero_iff_zero_in_hull(pts):
    h, coeffs = min_norm_point(pts)
    assert all(c == 0 for c in h) == oracles.zero_in_hull(pts)
    assert sum(coeffs.values(), F(0)) == 1


def test_affinely_dependent_corral_is_refused():
    with pytest.raises(InvariantError, match="affinely dependent corral"):
        _affine_minimizer([(F(1), F(2)), (F(1), F(2))])
    with pytest.raises(InvariantError, match="affinely dependent corral"):
        _affine_minimizer([(F(0), F(0)), (F(1), F(1)), (F(3), F(3))])
    assert _affine_minimizer([(F(1), F(0)), (F(0), F(1))]) == [F(1, 2), F(1, 2)]


def test_kempf_single_vector_sl2():
    res = kempf_optimum([F(1), F(0)], "standard", 2)
    assert res.unstable
    assert res.b2 == F(1, 2)
    assert res.lam_star == (1, -1)
    assert res.m_star == 1


def test_kempf_reads_the_weight_support_once(monkeypatch):
    """m* is the least pairing over the support the optimum already holds."""
    calls = []
    real = instability.weight_support
    monkeypatch.setattr(instability, "weight_support",
                        lambda *args: calls.append(args) or real(*args))
    assert kempf_optimum([1, 2, 0], "standard", 3).m_star == 1
    assert len(calls) == 1


def test_kempf_decomposable_plane_sl4():
    v = [F(1), F(0), F(0), F(0), F(0), F(0)]  # e1 ^ e2
    res = kempf_optimum(v, ("wedge", 2), 4)
    assert res.unstable
    assert res.b2 == 1
    assert res.lam_star == (1, 1, -1, -1)


def test_kempf_semistable_sum():
    res = kempf_optimum([F(1), F(1)], "standard", 2)
    assert not res.unstable
    assert res.b2 == 0 and res.lam_star is None


def test_kempf_matches_brute_force():
    """Distance-to-hull optimum vs a dense integer cocharacter scan."""
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(12):
        n = int(rng.integers(2, 5))
        vec = [F(int(c)) for c in rng.integers(-2, 3, size=n)]
        if any(vec):
            cases.append((vec, "standard", n))
    for _ in range(8):
        vec = [F(int(c)) for c in rng.integers(-1, 2, size=6)]
        if any(vec):
            cases.append((vec, ("wedge", 2), 4))
    for vec, rep, n in cases:
        res = kempf_optimum(vec, rep, n)
        lib = float(res.b) if res.unstable else 0.0
        brute = oracles.kempf_brute(sorted(weight_support(vec, rep, n)), 50, n)
        assert abs(max(brute, 0.0) - lib) < 1e-9, (vec, rep, n)


def test_kempf_b2_is_hull_distance():
    # the exact b^2 equals the subset-oracle distance on the projected support
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        vec = [F(int(c)) for c in rng.integers(-2, 3, size=n)]
        if not any(vec):
            continue
        proj = [project_sum_zero(chi) for chi in weight_support(vec, "standard", n)]
        res = kempf_optimum(vec, "standard", n)
        want = oracles.min_norm_point_subsets(proj)
        assert (res.b2 if res.unstable else F(0)) == want


def test_kempf_json():
    data = kempf_optimum([F(1), F(0)], "standard", 2).to_json()
    assert data["unstable"] is True
    assert data["b_squared"] == [1, 2]
    assert data["lambda_star"] == [1, -1]
    assert data["blocks"] == [[0], [1]]


def test_parabolic_masks():
    assert parabolic_of((0, 0, 0)) == [[0, 1, 2]]
    assert parabolic_of((1, 1, -1, -1)) == [[0, 1], [2, 3]]
    assert parabolic_of((3, -1, -1, -1)) == [[0], [1, 2, 3]]
