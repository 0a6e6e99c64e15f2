"""Residual identity between the wedge-square action and the extended matrix."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from latflow.dioph import a_ext
from latflow.errors import InputError, InvariantError
from latflow.exact import ExactMatrix, ExactScalar
from latflow.lab import symplectic
from latflow.lab.symplectic import pq_split, residual_check
from latflow.wedge import WedgeIndex


def _prove_sign_conventions(n):
    """Expands g_A w symbolically, matches every e_1^e_j and e_2^e_j
    coefficient against the corresponding row of A_ext q + p, and checks
    the e_1^e_2 elimination identity that residual_check tests per input."""
    wdim = n - 2
    avars = sympy.symbols(f"a0:{wdim}")
    bvars = sympy.symbols(f"b0:{wdim}")
    cvars = {}
    for i in range(n):
        for j in range(i + 1, n):
            cvars[(i, j)] = sympy.Symbol(f"C_{i}_{j}")
    g = sympy.eye(n)
    for j in range(wdim):
        g[0, 2 + j] = avars[j]
        g[1, 2 + j] = bvars[j]
    # wedge-square action: coefficient of e_al ^ e_be in g w
    gw = {}
    for al in range(n):
        for be in range(al + 1, n):
            acc = sympy.Integer(0)
            for (ga, de), cc in cvars.items():
                minor = g[al, ga] * g[be, de] - g[al, de] * g[be, ga]
                if minor != 0:
                    acc += minor * cc
            gw[(al, be)] = sympy.expand(acc)

    # residual rows, mirroring a_ext's stacked (X; Y; Z) layout
    pairs = [(i, j) for i in range(wdim) for j in range(i + 1, wdim)]
    res_x = [cvars[(0, k + 2)] for k in range(wdim)]
    res_y = [cvars[(1, k + 2)] for k in range(wdim)]
    res_z = cvars[(0, 1)]
    for (i, j) in pairs:
        q_ij = cvars[(i + 2, j + 2)]
        res_x[i] += -avars[j] * q_ij
        res_x[j] += avars[i] * q_ij
        res_y[i] += -bvars[j] * q_ij
        res_y[j] += bvars[i] * q_ij
        res_z += (avars[j] * bvars[i] - avars[i] * bvars[j]) * q_ij

    for k in range(wdim):
        assert sympy.expand(res_x[k] - gw[(0, k + 2)]) == 0, f"X row {k} (n={n})"
        assert sympy.expand(res_y[k] - gw[(1, k + 2)]) == 0, f"Y row {k} (n={n})"
    elim = gw[(0, 1)]
    for k in range(wdim):
        elim = elim - bvars[k] * gw[(0, k + 2)] + avars[k] * gw[(1, k + 2)]
    assert sympy.expand(res_z - elim) == 0, f"Z elimination (n={n})"


def test_certificates_for_supported_sizes():
    for n in (4, 6, 8):
        _prove_sign_conventions(n)


def test_sizes_below_four_or_odd_are_refused():
    with pytest.raises(InputError, match=r"^the residual identity needs even n >= 4$"):
        residual_check(ExactMatrix([[], []]), [0])
    with pytest.raises(InputError, match=r"^the residual identity needs even n$"):
        residual_check(ExactMatrix([[1, 2, 3], [4, 5, 6]]), [0] * 10)


def test_a_perturbed_z_row_fails_the_elimination_check(monkeypatch):
    """Only the last row of A_ext is off by one per column: the X/Y rows
    still match, and the Z check catches it."""
    def perturbed(a):
        ext = a_ext(a)
        return ExactMatrix(ext.rows[:-1] + [[x + 1 for x in ext.rows[-1]]])

    monkeypatch.setattr(symplectic, "a_ext", perturbed)
    with pytest.raises(InvariantError, match=r"^Z elimination identity failed \(n=4\)$"):
        residual_check(ExactMatrix([[1, 2], [3, 4]]), [0, 0, 0, 0, 0, 1])


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
