"""Sampling, per-sample flow statistics, CSV/JSON emission."""

import json
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
from latflow.errors import InputError, InvariantError
from latflow.exact import ExactScalar
from latflow.flows import Curve, curve_eval
from latflow.lab import experiments, reduction
from latflow.lab.experiments import (
    _chained_reduction,
    _flow_reduce,
    _flow_stats,
    _head_form,
    _head_value,
    atomic_write_text,
    sample_ball,
    translate_experiment,
)
from latflow.lab.reduction import DEFAULT_NODE_BUDGET


def _parabola(radius=1.0):
    one = ExactScalar(1)
    return Curve(n=3, k=1, coords=[[((1,), one)], [((2,), one)]], radius=radius)


def test_sample_ball_is_deterministic():
    c = _parabola()
    a = sample_ball(c, 10, 7)
    b = sample_ball(c, 10, 7)
    assert a == b
    assert sample_ball(c, 10, 8) != a


def test_sample_prefix_stability():
    """Sample i depends only on (seed, i), so prefixes agree across sizes."""
    c = _parabola()
    assert sample_ball(c, 20, 3)[:5] == sample_ball(c, 5, 3)


def test_samples_stay_in_the_ball():
    c = _parabola(radius=0.25)
    for (s,) in sample_ball(c, 200, 1):
        assert abs(s) <= 0.25


def _surface(k, center, radius):
    """A k-parameter curve in R^2 (n = 3): s -> (s_1, s_2 + ... + s_k + s_1^2)."""
    one = ExactScalar(1)
    unit = lambda j, e=1: tuple(e if i == j else 0 for i in range(k))
    return Curve(n=3, k=k, coords=[[(unit(0), one)], [(unit(j), one) for j in range(1, k)]
                                   + [(unit(0, 2), one)]], center=center, radius=radius)


@pytest.mark.parametrize("k", [2, 3])
def test_samples_in_a_ball_of_several_parameters(k):
    """For k >= 2 a draw from the cube is kept only inside the unit ball:
    every sample lies in the curve's ball, and sample i depends only on
    (seed, i), not on how many samples are asked for."""
    center = [0.5, -0.25, 1.0][:k]
    c = _surface(k, center, 0.3)
    pts = sample_ball(c, 300, 1)
    assert all(len(p) == k and math.dist(p, center) <= 0.3 * (1 + 1e-12) for p in pts)
    # a ball fills pi/4 (k = 2) or pi/6 (k = 3) of its cube: the far corners are never hit
    assert max(math.dist(p, center) for p in pts) > 0.28
    assert sample_ball(c, 40, 3)[:7] == sample_ball(c, 7, 3)


def test_rows_are_sample_major():
    rep = translate_experiment(_parabola(), [0.0, 1.0], samples=4, eps=0.1, box_radius=1.5, seed=2)
    keys = [(r.sample_index, r.t) for r in rep.rows]
    assert keys == [(i, t) for i in range(4) for t in (0.0, 1.0)]


def test_experiment_is_reproducible():
    kw = dict(t_grid=[0.0, 1.5], samples=6, eps=0.1, box_radius=1.5, seed=11)
    a = translate_experiment(_parabola(), **kw)
    b = translate_experiment(_parabola(), **kw)
    assert a.csv_text() == b.csv_text()
    assert a.aggregates_payload() == b.aggregates_payload()


def test_time_zero_minima_are_bounded():
    # at t = 0 the lattice is unimodular u(v) Z^3: sup-norm lambda_1 <= 1
    rep = translate_experiment(_parabola(), [0.0], samples=50, eps=0.1, box_radius=1.0, seed=5)
    for row in rep.rows:
        assert 0.0 < row.lambda1 <= 1.0 + 1e-12


def test_csv_layout():
    rep = translate_experiment(_parabola(), [0.0], samples=3, eps=0.1, box_radius=1.5, seed=9)
    lines = rep.csv_text().strip().split("\n")
    assert lines[0] == "sample_index,s,t,lambda1,siegel_count,below_eps"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "0.0"
    assert first[5] in ("0", "1")
    # repr round-trips the floats exactly
    assert float(first[3]) == rep.rows[0].lambda1


def test_aggregates_shape():
    rep = translate_experiment(_parabola(), [0.0, 1.0], samples=5, eps=0.2, box_radius=1.5, seed=3)
    payload = rep.aggregates_payload()
    assert payload["config"]["n"] == 3 and payload["config"]["seed"] == 3
    assert [a["t"] for a in payload["aggregates"]] == [0.0, 1.0]
    for agg in payload["aggregates"]:
        assert agg["haar_ref"] == pytest.approx(3.0**3)
        assert 0.0 <= agg["frac_below_eps"] <= 1.0
        assert agg["min_lambda1"] <= agg["max_lambda1"]
        sub = [r.siegel_count for r in rep.rows if r.t == agg["t"]]
        assert agg["mean_siegel"] == pytest.approx(sum(sub) / len(sub))


def _no_sampling(*args):
    raise AssertionError("sampled before the inputs were checked")


def test_validation(monkeypatch):
    monkeypatch.setattr(experiments, "sample_ball", _no_sampling)
    c = _parabola()
    with pytest.raises(InputError):
        translate_experiment(c, [0.0], samples=0, eps=0.1, box_radius=1.0, seed=1)
    with pytest.raises(InputError):
        translate_experiment(c, [0.0], samples=1, eps=0.0, box_radius=1.0, seed=1)
    with pytest.raises(InputError):
        translate_experiment(c, [0.0], samples=1, eps=0.1, box_radius=1.0, seed=None)
    with pytest.raises(InputError, match=r"^seed must be >= 0, got -1$"):
        translate_experiment(c, [0.0], samples=1, eps=0.1, box_radius=1.0, seed=-1)
    with pytest.raises(InputError):
        translate_experiment(c, [], samples=1, eps=0.1, box_radius=1.0, seed=1)


def test_t_and_radius_out_of_range_are_rejected(monkeypatch):
    monkeypatch.setattr(experiments, "sample_ball", _no_sampling)
    # at n = 3, t = 400 overflows only the head scale e^{(n-1)t} = e^800
    cases = [([1e3], 1.0, "t = 1000.0 is out of range for n = 3"),
             ([1.0, 400.0], 1.0, "t = 400.0 is out of range for n = 3"),
             ([-800.0], 1.0, "t = -800.0 is out of range"),
             ([math.nan], 1.0, "t = nan"),
             ([math.inf], 1.0, "t = inf"),
             ([1.0], math.inf, "box radius must be positive and finite, got inf"),
             # (2R)^3 underflows to 0, and 3 R^2 overflows to inf
             ([1.0], 1e-200, "box radius R = 1e-200 is out of range for n = 3"),
             ([1.0], 1e300, "box radius R = 1e+300 is out of range for n = 3")]
    for t_grid, radius, message in cases:
        with pytest.raises(InputError, match=re.escape(message)):
            translate_experiment(_parabola(), t_grid, samples=1, eps=0.1,
                                 box_radius=radius, seed=1)


def test_eps_that_is_not_finite_is_rejected(monkeypatch):
    """An infinite eps would mark every row and write "eps": Infinity, which
    is not JSON, into the aggregates file."""
    monkeypatch.setattr(experiments, "sample_ball", _no_sampling)
    for eps, message in ((math.inf, "got inf"), (float("1e400"), "got inf"),
                         (math.nan, "got nan"), (0.0, "got 0.0"), (-1.0, "got -1.0")):
        with pytest.raises(InputError, match=f"eps must be positive and finite, {message}$"):
            translate_experiment(_parabola(), [1.0], samples=1, eps=eps,
                                 box_radius=1.0, seed=1)


def test_repeated_t_is_rejected():
    # a repeated t would write its rows twice and give two aggregate blocks
    with pytest.raises(InputError, match="repeated t"):
        translate_experiment(_parabola(), [2.0, 1.0, 2.0], samples=1, eps=0.1,
                             box_radius=1.0, seed=1)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), json.dumps({"ok": True}))
    assert json.loads(target.read_text()) == {"ok": True}
    # no stray temp files behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    # overwrite keeps the old content until the swap
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"


def test_four_dimensional_path():
    """n = 4 goes through the same embedded-reduction kernel as n = 3."""
    one = ExactScalar(1)
    curve = Curve(n=4, k=1, coords=[[((1,), one)], [((2,), one)], [((3,), one)]])
    rep = translate_experiment(curve, [0.0, 0.5], samples=3, eps=0.1, box_radius=1.2, seed=4)
    assert len(rep.rows) == 6
    for row in rep.rows:
        assert 0.0 < row.lambda1 <= 1.0 + 1e-12  # Minkowski still binds
        assert row.siegel_count % 2 == 0


def test_a_huge_center_or_radius_gives_the_integral_lattice():
    """With center 1e308 or radius 1e308 every sampled s is an integer, so
    phi(s) is integral and the lattice is g_1 Z^3: lambda_1 = e^-1 and 80
    points in the box of radius 1.5."""
    one = ExactScalar(1)
    centred = Curve(n=3, k=1, coords=[[((1,), one)], [((2,), one)]], center=(1e308,))
    for curve in (centred, _parabola(radius=1e308)):
        rep = translate_experiment(curve, [1.0], samples=2, eps=0.1, box_radius=1.5, seed=1)
        assert [(r.lambda1, r.siegel_count) for r in rep.rows] == [(math.exp(-1), 80)] * 2


def test_an_integer_shift_of_the_curve_leaves_every_row():
    """u(phi) Z^n depends on phi mod Z^(n-1): the parabola shifted by 10^21
    in both coordinates gives the plain parabola's rows, bit for bit."""
    one, big = ExactScalar(1), ExactScalar(10**21)
    shifted = Curve(n=3, k=1, coords=[[((1,), one), ((0,), big)], [((2,), one), ((0,), big)]])
    reps = [translate_experiment(c, [1.0], samples=20, eps=0.1, box_radius=1.5, seed=1)
            for c in (_parabola(), shifted)]
    assert reps[1].rows == reps[0].rows


def test_a_first_minimum_above_minkowski_bound_raises(monkeypatch):
    """A unimodular lattice has lambda_1 <= 1 in the sup norm, so a kernel
    that reports more is a bug, named with its sample and t."""
    monkeypatch.setattr(experiments, "_flow_stats", lambda *args: (1.5, 0))
    with pytest.raises(InvariantError, match=r"sample 0, t = 1\.0: lambda_1 = 1\.5 "):
        translate_experiment(_parabola(), [1.0], samples=1, eps=0.1, box_radius=1.5, seed=1)


def test_negative_time_at_n3():
    """n = 3 takes t < 0 like every other n, and its minima match the scan."""
    rep = translate_experiment(_parabola(), [-1.0], samples=6, eps=0.1, box_radius=1.5, seed=12)
    assert len(rep.rows) == 6
    for row in rep.rows:
        (s,) = row.s
        assert row.lambda1 == pytest.approx(
            oracles.lambda1_sup_naive_n3(-1.0, s, s * s), abs=1e-9
        )


def _stats_n3(t, v1, v2, radius):
    form = _head_form([ExactScalar(Fraction(v1)), ExactScalar(Fraction(v2))])
    return _flow_stats(form, 3, t, radius, DEFAULT_NODE_BUDGET, _flow_reduce(form, 3, t))


def test_flow_kernel_lambda1_matches_dense_scan():
    rng = np.random.default_rng(80)
    for _ in range(12):
        t = float(rng.uniform(0.0, 2.2))
        v1, v2 = (float(x) for x in rng.uniform(-3, 3, size=2))
        assert _stats_n3(t, v1, v2, 1.5)[0] == pytest.approx(
            oracles.lambda1_sup_naive_n3(t, v1, v2), abs=1e-9
        )


def test_flow_kernel_box_count_matches_matrix_path():
    """The kernel's Siegel count must equal a direct (b, c) scan of the
    flowed lattice."""
    rng = np.random.default_rng(81)
    for _ in range(10):
        t = float(rng.uniform(0.0, 1.8))
        v1, v2 = (float(x) for x in rng.uniform(-2, 2, size=2))
        radius = float(rng.choice([0.8, 1.0, 1.5]))
        assert _stats_n3(t, v1, v2, radius)[1] == oracles.box_count_naive_n3(
            t, v1, v2, radius)


def _phi_80(p):
    """phi_j in Fraction arithmetic, with sqrt(D) taken to 80 bits as the
    kernel does."""
    if not p.b:
        return p.a
    return p.a + p.b * Fraction(math.isqrt(p.D << 160), 1 << 80)


def _fraction_head(phi, z):
    """The head z_0 + sum_j phi_j z_{j+1} in Fraction arithmetic."""
    return float(Fraction(z[0]) + sum(_phi_80(p) * zz for p, zz in zip(phi, z[1:])))


def _assert_heads_agree(phi, rng, trials=300):
    """_head_value of the form against the Fraction head.  The form folds
    each phi_j into [0, 1), taking k_j = floor(phi_j) off it, so its head at
    z is the Fraction head at z_0 - sum_j k_j z_{j+1}, exactly."""
    form = _head_form(phi)
    k = [math.floor(_phi_80(p)) for p in phi]
    for i in range(trials):
        scale = 10 ** int(rng.integers(1, 13))
        z = [int(x) for x in rng.integers(-scale, scale + 1, size=len(phi) + 1)]
        if i % 2:
            # cancel the integer part so the head is a small fractional part
            z[0] = -math.floor(sum(float(_phi_80(p) - kj) * zz
                                   for p, kj, zz in zip(phi, k, z[1:])))
        shifted = [z[0] - sum(kj * zz for kj, zz in zip(k, z[1:]))] + z[1:]
        want = _fraction_head(phi, shifted)
        got = _head_value(form, z)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (phi, z)


def test_integer_head_matches_fraction_head():
    rng = np.random.default_rng(90)
    # random integer phi
    for _ in range(5):
        phi = [ExactScalar(int(x)) for x in rng.integers(-50, 51, size=3)]
        _assert_heads_agree(phi, rng)
    # mixed rational denominators, including the binary ones of sampled floats
    for _ in range(5):
        phi = [ExactScalar(Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 60))))
               for _ in range(3)]
        phi.append(ExactScalar(Fraction(float(rng.uniform(-1, 1))) ** 3))
        _assert_heads_agree(phi, rng)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7])
def test_integer_head_matches_fraction_head_over_quadratic_fields(d):
    if d in (3, 6):
        # Fraction reduces the scaled root of these D below 2^80; the
        # integer form must not assume that denominator
        assert Fraction(math.isqrt(d << 160), 1 << 80).denominator < 1 << 80
    rng = np.random.default_rng(91 + d)
    for _ in range(4):
        phi = []
        for _ in range(3):
            a = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 20)))
            b = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 20)))
            phi.append(ExactScalar(a, b, d))
        phi.append(ExactScalar(Fraction(float(rng.uniform(-1, 1)))))
        _assert_heads_agree(phi, rng)


def test_integer_head_over_several_quadratic_fields():
    rng = np.random.default_rng(97)
    phi = [ExactScalar(Fraction(1, 3), 2, 2), ExactScalar(0, Fraction(-5, 7), 3),
           ExactScalar(Fraction(4, 9), 1, 6)]
    _assert_heads_agree(phi, rng)


def test_coordinates_in_different_quadratic_fields():
    """phi(s) = (sqrt(2) s, sqrt(3) s): each coordinate has its own field."""
    curve = Curve(n=3, k=1, coords=[[((1,), ExactScalar.sqrt(2))],
                                    [((1,), ExactScalar.sqrt(3))]])
    rep = translate_experiment(curve, [0.5, 1.5], samples=4, eps=0.1, box_radius=1.5, seed=3)
    for row in rep.rows:
        (s,) = row.s
        assert row.lambda1 == pytest.approx(
            oracles.lambda1_sup_naive_n3(row.t, math.sqrt(2) * s, math.sqrt(3) * s), abs=1e-9
        )


def _moment(n):
    """The moment curve (s, s^2, ..., s^(n-1)) on s in [0.05, 0.95]."""
    one = ExactScalar(1)
    return Curve(n=n, k=1, coords=[[((j,), one)] for j in range(1, n)],
                 center=(0.5,), radius=0.45)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_a_row_does_not_depend_on_the_other_times_asked_for(n):
    """Each t is reduced on a fixed chain of integer times, so the row of a
    (sample, t) is the same whichever grid it sits in."""
    curve = _parabola() if n == 3 else _moment(n)
    rows = {}
    for grid in ([8.0], [2.0, 4.0, 6.0, 8.0], [6.5], [2.0, 6.5, 8.0]):
        rep = translate_experiment(curve, grid, samples=3, eps=0.1, box_radius=1.0, seed=5)
        for row in rep.rows:
            assert rows.setdefault((row.sample_index, row.t), row) == row, (grid, row)
    assert len(rows) == 3 * 5


@pytest.mark.parametrize("n", [3, 4, 6])
def test_warm_started_reduction_gives_the_cold_numbers(n):
    """(lambda1, box count) does not depend on the basis the enumeration
    starts from: reduced from the identity or from the chain's Z_{ceil(t)-1}."""
    curve = _parabola() if n == 3 else _moment(n)
    for pt in sample_ball(curve, 6, 8):
        form = _head_form(curve_eval(curve, [Fraction(x) for x in pt]))
        chain = []
        for t in (1.5, 4.0, 8.0):
            _chained_reduction(form, n, t, chain)  # fills Z_1 .. Z_{ceil(t)-1}
            warm = _flow_reduce(form, n, t, chain[math.ceil(t) - 2][0])
            cold = _flow_reduce(form, n, t)
            assert (_flow_stats(form, n, t, 1.0, DEFAULT_NODE_BUDGET, warm)
                    == _flow_stats(form, n, t, 1.0, DEFAULT_NODE_BUDGET, cold))


@pytest.mark.parametrize("grid, per_sample", [("6", 6), ("2,4,6,8", 8), ("6.5", 7),
                                              ("2,6.5,8", 9), ("0.5,1", 2), ("8,2", 8)])
def test_reductions_follow_the_unit_step_schedule(monkeypatch, grid, per_sample):
    """Z_1 .. Z_{ceil(t)-1} once per sample, one more reduction per t that
    is not on the chain, and none for an integer t already reduced."""
    calls = []
    real = reduction.reduce_embedded

    def counted(embed, ncols, start=None):
        calls.append(start is None)
        return real(embed, ncols, start)

    monkeypatch.setattr(reduction, "reduce_embedded", counted)
    t_grid = [float(t) for t in grid.split(",")]
    translate_experiment(_moment(4), t_grid, samples=2, eps=0.1, box_radius=1.0, seed=1)
    assert len(calls) == 2 * per_sample
    # only Z_1 and the times below 1 start from the identity
    assert calls.count(True) == 2 * (1 + sum(1 for t in t_grid if t < 1))
