"""Quadratic-field base change and the trapped line it produces."""

from fractions import Fraction

import pytest

import oracles
from latflow.errors import InputError
from latflow.exact import ExactMatrix, ExactScalar
from latflow.flows import curve_eval, span_matrix_entries_rational
from latflow.lab.kfield import quadratic_subspace_example


def test_base_change_frozen_for_d2():
    ex = quadratic_subspace_example(4, 2, 2)
    assert [[c.serialize() for c in row] for row in ex.l0_inv.rows] == [
        ["1", "0", "r2", "0"],
        ["0", "1", "0", "r2"],
        ["1", "0", "-r2", "0"],
        ["0", "1", "0", "-r2"],
    ]
    assert ex.l0.rows[0][0].serialize() == "1/2"
    assert ex.l0.rows[2][0].serialize() == "1/4r2"


def test_base_change_inverts():
    for d in (2, 3, 5):
        ex = quadratic_subspace_example(4, 2, d)
        eye = ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)])
        assert ex.l0_inv @ ex.l0 == eye
        assert ex.l0 @ ex.l0_inv == eye


def test_line_evaluation_is_exact():
    ex = quadratic_subspace_example(4, 2, 2)
    vals = curve_eval(ex.curve, [Fraction(1, 3)])
    assert [c.serialize() for c in vals] == ["1/3", "r2", "1/3r2"]


def test_line_span_is_a_plane_with_irrational_slopes():
    for d in (2, 3, 7):
        ex = quadratic_subspace_example(4, 2, d)
        assert ex.span.d == 2
        assert not span_matrix_entries_rational(ex.span)
        # every point of the line lies in the span, by construction
        for s in (Fraction(0), Fraction(2, 5), Fraction(-1)):
            assert oracles.in_affine_span(ex.span, curve_eval(ex.curve, [s]))


def test_span_slopes_are_conjugation_covariant():
    # the slope block for D = 2 is diag(r2, r2) after the constant row
    ex = quadratic_subspace_example(4, 2, 2)
    rows = [[c.serialize() for c in row] for row in ex.span.matrix.rows]
    assert rows == [["r2", "0"], ["0", "r2"]]


def test_larger_rank():
    ex = quadratic_subspace_example(6, 3, 2)
    assert ex.l0_inv.nrows == 6
    assert ex.span.d == 2
    assert ex.curve.n == 6 and len(ex.curve.coords) == 5


def test_rejections():
    with pytest.raises(InputError):
        quadratic_subspace_example(2, 1, 2)  # r too small
    with pytest.raises(InputError):
        quadratic_subspace_example(5, 2, 2)  # n != 2r
    for bad_d in (1, 4, 12, -2):
        with pytest.raises(InputError):
            quadratic_subspace_example(4, 2, bad_d)
