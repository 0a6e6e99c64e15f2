"""Residual identity between the wedge-square action and the extended matrix."""

from fractions import Fraction

import numpy as np
import pytest

from latflow.errors import InputError
from latflow.exact import ExactMatrix, ExactScalar
from latflow.lab.symplectic import (
    certify_equivalence,
    pq_split,
    residual_check,
)
from latflow.wedge import WedgeIndex


def test_certificates_for_supported_sizes():
    for n in (4, 6, 8):
        cert = certify_equivalence(n)
        assert cert["n"] == n
        assert cert["xy_rows_exact"] and cert["z_elimination_exact"]
    with pytest.raises(InputError):
        certify_equivalence(5)
    with pytest.raises(InputError):
        certify_equivalence(2)


def test_pq_split_layout():
    # n = 4: lex order is (01, 02, 03, 12, 13, 23)
    w = [10, 20, 30, 40, 50, 60]
    p, q = pq_split(w, 4)
    assert [int(x.as_fraction()) for x in p] == [20, 30, 40, 50, 10]
    assert [int(x.as_fraction()) for x in q] == [60]
    with pytest.raises(InputError):
        pq_split([1, 2, 3], 4)


def test_tail_plane_with_zero_block():
    # w = e3 ^ e4, A = 0: both projections vanish together
    rep = residual_check(ExactMatrix([[0, 0], [0, 0]]), [0, 0, 0, 0, 0, 1])
    assert rep.pi1_norm == 0.0 and rep.residual_norm == 0.0
    assert rep.in_band()


def test_head_plane_is_fixed():
    # w = e1 ^ e2 survives untouched: p carries C_12 = 1, q = 0
    rep = residual_check(ExactMatrix([[1, 2], [3, 4]]), [1, 0, 0, 0, 0, 0])
    assert rep.pi1_norm == 1.0
    assert rep.residual_norm == 1.0
    assert rep.ratio == 1.0


def test_tail_plane_with_generic_block():
    rep = residual_check(ExactMatrix([[1, 2], [3, 4]]), [0, 0, 0, 0, 0, 1])
    assert rep.pi1_norm == 4.0
    assert rep.residual_norm == 4.0
    assert rep.ratio == 1.0
    assert rep.band == 11.0  # 1 + (1 + 2 + 3 + 4)


def test_ratio_stays_in_certified_band():
    rng = np.random.default_rng(95)
    checked = 0
    for _ in range(200):
        n = int(rng.choice([4, 6]))
        dim = len(WedgeIndex(n, 2))
        w = rng.integers(-9, 10, size=dim).tolist()
        a = rng.integers(-5, 6, size=(2, n - 2)).tolist()
        rep = residual_check(ExactMatrix(a), w)
        assert rep.in_band(), (a, w, rep)
        checked += 1
    assert checked == 200


def test_zero_coincidence_is_exact():
    """If one projection vanishes so does the other, never only one."""
    rng = np.random.default_rng(96)
    zeros = 0
    for _ in range(300):
        # bias towards tails likely to cancel: only q entries populated
        w = [0, 0, 0, 0, 0, int(rng.integers(-2, 3))]
        a = rng.integers(-2, 3, size=(2, 2)).tolist()
        rep = residual_check(ExactMatrix(a), w)
        if rep.pi1_norm == 0.0:
            assert rep.residual_norm == 0.0
            zeros += 1
    assert zeros > 0  # the w = 0 draws exercise the coincidence branch


def test_block_shape_validation():
    with pytest.raises(InputError):
        residual_check(ExactMatrix([[1, 2, 3]]), [0] * 6)
    with pytest.raises(InputError):
        residual_check(ExactMatrix([[1], [2]]), [0, 0, 0])  # n = 3 is odd
