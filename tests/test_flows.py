"""Diagonal flows, horospherical rows, polynomial curves and their spans."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from latflow.exact import ExactMatrix, ExactScalar
from latflow.flows import (
    AffineSpanData,
    Curve,
    FlowError,
    affine_span,
    curve_eval,
    curve_from_json,
    curve_to_json,
    g_of_A,
    load_curve,
    span_matrix_entries_rational,
)
from latflow.lab.experiments import _flow_scales


def test_flow_scales():
    assert _flow_scales(3, 1.0) == (math.exp(2.0), math.exp(-1.0))
    for n in range(2, 9):
        head, tail = _flow_scales(n, 0.7)
        assert head * tail ** (n - 1) == pytest.approx(1.0, rel=1e-14)


def _g(n, t):
    head, tail = _flow_scales(n, t)
    return np.diag([head] + [tail] * (n - 1))


def test_g_factors_through_b_and_c():
    # c_t b_t = g_t as diagonal matrices, here at n=4, d=2, t=0.7
    t = 0.7
    b = oracles.make_flow(oracles.flow_exponents("b", 4, 2), t)
    c = oracles.make_flow(oracles.flow_exponents("c", 4, 2), t)
    assert np.max(np.abs(c @ b - _g(4, t))) < 1e-12


def test_g_factorization_all_shapes():
    rng = np.random.default_rng(40)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        t = float(rng.uniform(-1.5, 1.5))
        b = oracles.make_flow(oracles.flow_exponents("b", n, d), t)
        c = oracles.make_flow(oracles.flow_exponents("c", n, d), t)
        g = _g(n, t)
        scale = np.maximum(np.abs(g), 1.0)
        assert np.max(np.abs(c @ b - g) / scale) < 1e-14


def u_row(v):
    """Expanding-horosphere element: first row (1, v), identity below."""
    return g_of_A(ExactMatrix([v]), len(v) + 1)


def test_u_row_group_law():
    prod = u_row([1, 2]) @ u_row([3, 4])
    assert prod == u_row([4, 6])
    rng = np.random.default_rng(41)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        v = rng.integers(-9, 10, size=k).tolist()
        w = rng.integers(-9, 10, size=k).tolist()
        assert u_row(v) @ u_row(w) == u_row([a + b for a, b in zip(v, w)])
    assert np.allclose(oracles.u_row_float([1.5, -2.0])[0], [1.0, 1.5, -2.0])
    exact = u_row([Fraction(3, 2), -2])
    assert np.array_equal(oracles.u_row_float([1.5, -2.0]),
                          [[float(x) for x in row] for row in exact.rows])


def test_block_unipotent_shape():
    a = ExactMatrix([[Fraction(1, 2)], [Fraction(1, 3)]])
    g = g_of_A(a, 3)
    # (1, x, 0) -> first row adds nothing; acting on column (1, x, 1)^T is
    # the cleaner statement: (1 + a11, x + a21, 1)
    col = g @ ExactMatrix([[1], [0], [1]])
    assert col[0, 0].as_fraction() == Fraction(3, 2)
    assert col[1, 0].as_fraction() == Fraction(1, 3)
    assert col[2, 0].as_fraction() == 1
    with pytest.raises(FlowError):
        g_of_A(a, 5)


def _parabola():
    one = ExactScalar(1)
    return Curve(
        n=3,
        k=1,
        coords=[[((1,), one)], [((2,), one)]],
        center=[0.0],
        radius=1.0,
    )


def _line_third():
    # s -> (s, 1/2 + s/3)
    return Curve(
        n=3,
        k=1,
        coords=[
            [((1,), ExactScalar(1))],
            [((0,), ExactScalar(Fraction(1, 2))), ((1,), ExactScalar(Fraction(1, 3)))],
        ],
    )


def curve_eval_float(curve: Curve, s) -> np.ndarray:
    return np.array([float(x) for x in curve_eval(curve, [Fraction(float(v)) for v in s])])


def test_curve_eval_exact_and_float():
    c = _line_third()
    vals = curve_eval(c, [Fraction(3)])
    assert [v.as_fraction() for v in vals] == [3, Fraction(3, 2)]
    f = curve_eval_float(_parabola(), [0.5])
    assert np.allclose(f, [0.5, 0.25])


def test_curve_validation():
    with pytest.raises(FlowError):
        Curve(n=2, k=1, coords=[[]])
    with pytest.raises(FlowError):
        Curve(n=3, k=1, coords=[[((1,), ExactScalar(1))]])  # needs n-1 coords
    with pytest.raises(FlowError):
        Curve(n=3, k=2, coords=[[((1,), ExactScalar(1))], []])  # arity 1 != k


def test_a_parameter_ball_beyond_the_doubles_is_refused():
    """A sample is center + radius * x with |x_i| <= 1, so every
    |center_i| + radius must be a finite double; center or radius alone at
    1e308 is fine."""
    one = ExactScalar(1)
    for k, center in ((1, [1e308]), (1, [-1e308]), (2, [0.0, 1e308])):
        coords = [[(tuple(int(i == j) for i in range(k)), one)] for j in range(2)]
        with pytest.raises(FlowError, match=r"\|center\| \+ radius must be finite"):
            Curve(n=3, k=k, coords=coords, center=center, radius=1e308)
        assert Curve(n=3, k=k, coords=coords, center=center, radius=1.0).radius == 1.0
    assert Curve(n=3, k=1, coords=[[((1,), one)], [((2,), one)]], radius=1e308).center == [0.0]


def test_curve_json_round_trip(tmp_path):
    c = _line_third()
    data = curve_to_json(c)
    back = curve_from_json(data)
    assert curve_to_json(back) == data
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    loaded = load_curve(str(path))
    assert curve_to_json(loaded) == data
    # extra keys are tolerated, missing ones are not
    data2 = dict(data)
    data2["comment"] = "anything"
    curve_from_json(data2)
    with pytest.raises(FlowError):
        curve_from_json({"n": 3, "k": 1})


def test_affine_span_of_a_line():
    span = affine_span(_line_third())
    assert span.d == 2
    assert span.pivots == [0]
    assert span.matrix is not None
    col = [span.matrix[i, 0].as_fraction() for i in range(2)]
    assert col == [Fraction(1, 2), Fraction(1, 3)]
    assert span_matrix_entries_rational(span)


def test_affine_span_of_a_parabola_is_full():
    span = affine_span(_parabola())
    assert span.d == 3
    assert span.matrix is None


def test_affine_span_degenerate_direction():
    # s -> (s, 2s): one pivot, dependent slope 2, no constant
    c = Curve(
        n=3,
        k=1,
        coords=[[((1,), ExactScalar(1))], [((1,), ExactScalar(2))]],
    )
    span = affine_span(c)
    assert span.d == 2
    assert [span.matrix[i, 0].as_fraction() for i in range(2)] == [0, 2]


def test_span_contains_curve_points():
    c = _line_third()
    span = affine_span(c)
    for s in [Fraction(0), Fraction(1, 7), Fraction(-4, 3)]:
        assert oracles.in_affine_span(span, curve_eval(c, [s]))
    assert not oracles.in_affine_span(span, [ExactScalar(0), ExactScalar(0)])
