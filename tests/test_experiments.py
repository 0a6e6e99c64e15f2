"""Sampling, per-sample flow statistics, CSV/JSON emission."""

import itertools
import json
import math
import os
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
import test_golden
from latflow.errors import BudgetError, InputError, InvariantError
from latflow.exact import ExactScalar
from latflow.flows import Curve, curve_eval, curve_from_json
from latflow.lab import experiments, reduction
from latflow.lab.experiments import (
    _flow_reduce,
    _flow_stats,
    _head_form,
    _head_value,
    _scheduled_reductions,
    atomic_write_text,
    sample_ball,
    translate_experiment,
)
from latflow.lab.grids import Grid3
from latflow.lab.kfield import quadratic_subspace_example
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


def _numpy_stream(seed, idx):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, idx])))


# an int of one, two, three and five 32-bit words; 2^130 + 7 fills the
# SeedSequence pool with its own words, so the index word is mixed in after it
PHILOX_SEEDS = [0, 1, 2**31 - 1, 2**32, 2**40 + 5, 12345678901234567890, 2**64 + 3, 2**130 + 7]


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
def test_the_philox_stream_is_numpys_bit_for_bit(seed):
    """The pure-Python stream draws the doubles of numpy's
    Generator(Philox(SeedSequence([seed, i]))): 11 draws span three Philox
    blocks, on 153 substreams per seed, indices of two words included."""
    for idx in list(range(150)) + [2**32 - 1, 2**32, 2**64 + 1]:
        got = list(itertools.islice(experiments._philox_doubles(seed, idx), 11))
        assert got == _numpy_stream(seed, idx).random(11).tolist(), idx


def _numpy_sample_ball(curve, samples, seed):
    """sample_ball written with numpy's generator, as the program drew its
    samples before the pure-Python stream, and the number of rejected
    draws."""
    pts, rejected = [], 0
    for idx in range(samples):
        rng = _numpy_stream(seed, idx)
        while True:
            x = [2.0 * v - 1.0 for v in rng.random(curve.k).tolist()]
            if sum(v * v for v in x) <= 1.0:
                break
            rejected += 1
        pts.append(tuple(curve.center[i] + curve.radius * x[i] for i in range(curve.k)))
    return pts, rejected


@pytest.mark.parametrize("seed", [1, 7, 2**64 + 3])
@pytest.mark.parametrize("k", [2, 3])
def test_sample_ball_draws_numpys_samples(k, seed):
    """A rejected point of a ball with k >= 2 parameters is followed by the
    next k draws of its substream, as with numpy's rng.random(k)."""
    c = _surface(k, [0.5, -0.25, 1.0][:k], 0.3)
    want, rejected = _numpy_sample_ball(c, 200, seed)
    assert rejected > 20
    assert sample_ball(c, 200, seed) == want


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


def test_a_first_minimum_above_minkowski_bound_raises(monkeypatch):
    """A unimodular lattice has lambda_1 <= 1 in the sup norm, so a kernel
    that reports more is a bug, named with its sample and t."""
    monkeypatch.setattr(experiments, "_flow_stats", lambda *args: (1.5, 0))
    with pytest.raises(InvariantError, match=r"sample 0, t = 1\.0: lambda_1 = 1\.5 "):
        translate_experiment(_parabola(), [1.0], samples=1, eps=0.1, box_radius=1.5, seed=1)


def test_a_budget_error_names_the_time_its_basis_was_reduced_from(monkeypatch):
    """t = 8 after t = 2 at n = 4 is two steps, 5 and 8: the error names
    the unscored step at 5 as the start of the basis the walk ran out on."""
    def out_of_budget(form, n, t, *args):
        if t == 8.0:
            raise BudgetError("enumeration exceeded the node budget (5)")
        return 0.5, 0

    monkeypatch.setattr(experiments, "_flow_stats", out_of_budget)
    with pytest.raises(BudgetError, match=r"^sample 0, t = 8\.0 \(reduced from t = 5\.0\): "
                                          r"enumeration exceeded the node budget \(5\)$"):
        translate_experiment(_moment(4), [2.0, 8.0], samples=1, eps=0.1, box_radius=1.0, seed=1)


def test_a_tiny_box_counts_only_the_vectors_inside_it():
    """On the rational line at t = 25 lambda1 is 8.33e-11 for every sample,
    and the box count follows the radius down to zero: the box margin is
    relative, 1e-9 of R, not an absolute 1e-9."""
    curve = curve_from_json(test_golden.RATIONAL_LINE)
    for radius, count in ((1e-9, 24), (1e-10, 2), (1e-11, 0)):
        rep = translate_experiment(curve, [25.0], samples=3, eps=0.1, box_radius=radius,
                                   seed=1)
        assert [r.siegel_count for r in rep.rows] == [count] * 3, radius
        assert all(r.lambda1 == pytest.approx(8.3328e-11, rel=1e-4) for r in rep.rows)


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


def _box_count_cases():
    """(t, v1, v2, radius) of the n = 3 box-count comparisons."""
    rng = np.random.default_rng(81)
    for _ in range(10):
        t = float(rng.uniform(0.0, 1.8))
        v1, v2 = (float(x) for x in rng.uniform(-2, 2, size=2))
        yield t, v1, v2, float(rng.choice([0.8, 1.0, 1.5]))


def test_flow_kernel_box_count_matches_matrix_path():
    """The kernel's Siegel count must equal a direct (b, c) scan of the
    flowed lattice."""
    for t, v1, v2, radius in _box_count_cases():
        assert _stats_n3(t, v1, v2, radius)[1] == oracles.box_count_naive_n3(
            t, v1, v2, radius)


@pytest.mark.parametrize("name", ["parabola", "rational_line"])
def test_grid3_gives_the_rows_of_sim_translate(name):
    """lab.grids.Grid3 is the flow kernel under the tracer's names: at phi(s)
    of each row it gives the row's lambda1 and box count bit for bit."""
    curve = curve_from_json(test_golden.CASES[name][0])
    report = translate_experiment(curve, [0.0, 1.0, 2.0], 4, 0.2, 1.5, seed=1)
    assert len(report.rows) == 12
    for row in report.rows:
        s_point = [p.a for p in curve_eval(curve, [Fraction(x) for x in row.s])]
        grid = Grid3(row.t, 1.5)
        assert grid.lambda1_sup(*s_point).hex() == row.lambda1.hex()
        assert grid.box_count(*s_point) == row.siegel_count


def _walk_dropping_one_box_vector(radius):
    """reduction._walk that skips the first vector that lies well inside the
    box of the given radius, as a walk that prunes one node too many would:
    a leaf is not scored, or a scored run is split around it."""
    real = reduction._walk

    def walk(cols, ball, budget, leaf, box=None, run=None, gs=None):
        dropped, last = False, box

        def inside(z):
            sup = max(abs(sum(zi * col[k] for zi, col in zip(z, cols)))
                      for k in range(len(cols[0])))
            return sup < radius * (1 - 1e-6)

        def lossy(z):
            nonlocal dropped, last
            if not dropped and inside(z):
                dropped = True
                return last
            last = leaf(z)
            return last

        def lossy_run(z, lo, hi):
            nonlocal dropped, last
            pieces = [(lo, hi)]
            for z0 in range(lo, hi + 1) if not dropped else ():
                if inside([z0] + z[1:]):
                    dropped = True
                    pieces = [(lo, z0 - 1), (z0 + 1, hi)]
                    break
            for first, end in pieces:
                if first <= end:
                    last = run(z, first, end)
            return last

        real(cols, ball, budget, lossy, box, run and lossy_run, gs)

    return walk


@pytest.mark.parametrize("long_run", [reduction._LONG_RUN, 1], ids=["long-runs", "every-run"])
def test_the_box_count_oracle_catches_a_walk_that_drops_a_box_vector(monkeypatch, long_run):
    """The comparison above fails on every case with a nonzero count once
    the walk loses one vector of the box, from a leaf or from a run scored
    at once (every run is, at long_run = 1)."""
    monkeypatch.setattr(reduction, "_LONG_RUN", long_run)
    counted = 0
    for t, v1, v2, radius in _box_count_cases():
        want = oracles.box_count_naive_n3(t, v1, v2, radius)
        with monkeypatch.context() as m:
            m.setattr(reduction, "_walk", _walk_dropping_one_box_vector(radius))
            got = _stats_n3(t, v1, v2, radius)[1]
        assert got == want - 2 if want else got == 0
        counted += bool(want)
    assert counted


def _point_scored(sup_of, zc, lo, hi, limit):
    """(least sup, count within limit) of the run zc[0] = lo..hi, scoring
    every candidate with the point scorer."""
    scores = [sup_of([z0] + list(zc[1:])) for z0 in range(lo, hi + 1)]
    return min(scores), sum(s <= limit for s in scores)


def _checked_runs(monkeypatch):
    """Every run that sup_first_minimum scores at once is also scored point
    by point, and the two must agree; returns the (run length, count) of
    each run checked."""
    checked = []
    real = reduction.sup_first_minimum

    def checking(b, sup_of, box_radius, budget, score_run=None, gs=None):
        def checked_run(zc, lo, hi, limit):
            got = score_run(zc, lo, hi, limit)
            assert got == _point_scored(sup_of, zc, lo, hi, limit), (zc, lo, hi)
            checked.append((hi - lo + 1, got[1]))
            return got

        return real(b, sup_of, box_radius, budget, score_run and checked_run, gs)

    monkeypatch.setattr(reduction, "sup_first_minimum", checking)
    return checked


def test_a_run_scores_as_its_candidates_do_on_real_walks(monkeypatch):
    """On every run of the golden cases' walks at seeds 1 and 2 (each scored
    at once here, however short) and on the 40,688-candidate run of the rational line at
    t = 12, the run scorer's (least sup, count) is the point scorer's over
    every candidate of the run."""
    checked = _checked_runs(monkeypatch)
    monkeypatch.setattr(reduction, "_LONG_RUN", 1)
    for (data, grid, radius, samples), seed in itertools.product(test_golden.CASES.values(),
                                                                 (1, 2)):
        translate_experiment(curve_from_json(data), [float(t) for t in grid.split(",")],
                             samples=samples, eps=0.1, box_radius=float(radius), seed=seed)
    assert len(checked) >= 600 and max(length for length, _ in checked) >= 100
    rep = translate_experiment(curve_from_json(test_golden.RATIONAL_LINE), [12.0], samples=1,
                               eps=0.1, box_radius=1.5, seed=1)
    assert rep.rows[0].siegel_count == 2 * 40_688
    assert max(count for _, count in checked) == 40_688


# name -> (e_head, e_tail, q, heads, tails, limit, zc, lo, hi); the columns of
# a 3-dimensional basis, heads[i] / q the head of column i and tails[j][i]
# its tail coordinate j
HAND_RUNS = {
    "zero head step": (4.0, 0.25, 7, [0, 3, 5], [(2, 1, 0), (-6, 0, 1)], 1.5,
                       [0, 1, -1], -9, 9),
    "constant tail coordinate": (4.0, 0.25, 7, [1, 3, 5], [(0, 1, 0), (2, 0, 1)], 1.5,
                                 [0, 2, 1], -9, 9),
    "negative directions": (4.0, 0.25, 7, [-2, 3, 5], [(-1, 1, 0), (-3, 0, 1)], 1.5,
                            [0, 1, 2], -9, 9),
    "first column's own line": (4.0, 0.25, 7, [1, 3, 5], [(2, 1, 0), (-1, 0, 1)], 1.5,
                                [0, 0, 0], 1, 12),
    # the tail maximum max(5, |z_0|) is flat on [-5, 5], where the head
    # (z_0 - 3) / 1000 is least at z_0 = 3
    "flat-bottomed tail maximum": (1.0, 0.25, 1000, [1, -3, 0], [(0, 5, 0), (1, 0, 0)], 1.5,
                                   [0, 1, 0], -9, 9),
    # the head z_0 / 4, the tail |z_0| / 4 and the constant tail 6 / 4 reach
    # the limit 1.5 exactly, the first two at z_0 = +-6
    "a score equal to the limit": (1.0, 0.25, 4, [1, 0, 0], [(1, 0, 0), (0, 6, 0)], 1.5,
                                   [0, 1, 0], -8, 8),
}


@pytest.mark.parametrize("name", sorted(HAND_RUNS))
def test_a_hand_built_run_scores_as_its_candidates_do(name):
    e_head, e_tail, q, heads, tails, limit, zc, lo, hi = HAND_RUNS[name]
    sup_of, score_run = experiments._flow_scorers(e_head, e_tail, q, heads, tails)
    assert score_run(zc, lo, hi, limit) == _point_scored(sup_of, zc, lo, hi, limit)


def test_random_runs_score_as_their_candidates_do():
    """Random integer bases of 2 to 5 columns, heads over q up to 2^90 (as
    the 80-bit radicals make them), scales across many binades and limits
    that are often a candidate's own score."""
    rng = random.Random(29)
    for _ in range(3000):
        n = rng.randint(2, 5)
        q = rng.choice([1, rng.randint(2, 50), rng.randint(2**80, 2**90)])
        span = max(q // 7, 3)
        heads = [rng.choice([0, rng.randint(-span, span)]) for _ in range(n)]
        tails = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n - 1)]
        e_head = 2.0 ** rng.uniform(-8, 8)
        e_tail = 2.0 ** rng.uniform(-8, 2)
        zc = [0] + [rng.randint(-5, 5) for _ in range(n - 1)]
        lo = rng.randint(-30, 10)
        hi = lo + rng.randint(0, 40)
        sup_of, score_run = experiments._flow_scorers(e_head, e_tail, q, heads, tails)
        limit = rng.choice([2.0 ** rng.uniform(-6, 6),
                            sup_of([rng.randint(lo, hi)] + zc[1:])])
        if limit > 0:
            assert score_run(zc, lo, hi, limit) == _point_scored(sup_of, zc, lo, hi, limit), \
                (e_head, e_tail, q, heads, tails, limit, zc, lo, hi)


def test_a_cusp_row_costs_a_few_evaluations_not_one_per_box_point(monkeypatch):
    """On the rational line at t = 10 the box holds 11,012 points, on a few
    long runs of multiples of the short vector; a row scores a few dozen
    candidates exactly (point scores, two per run and one per bisection
    step), where scoring each box point would cost over 5,000."""
    evals = []
    real = reduction.sup_first_minimum
    bisect = experiments._first_true

    def counted(b, sup_of, box_radius, budget, score_run=None, gs=None):
        def point(zc):
            evals.append(1)
            return sup_of(zc)

        def run(zc, lo, hi, limit):
            evals.extend([1, 1])
            return score_run(zc, lo, hi, limit)

        return real(b, point, box_radius, budget, score_run and run, gs)

    def first_true(pred, lo, hi):
        return bisect(lambda z0: evals.append(1) or pred(z0), lo, hi)

    monkeypatch.setattr(reduction, "sup_first_minimum", counted)
    monkeypatch.setattr(experiments, "_first_true", first_true)
    rep = translate_experiment(curve_from_json(test_golden.RATIONAL_LINE), [10.0], samples=6,
                               eps=0.1, box_radius=1.5, seed=1)
    assert [r.siegel_count for r in rep.rows] == [11_012] * 6
    assert len(evals) <= 40 * len(rep.rows)


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
    starts from: reduced from the identity or on the sample's schedule."""
    curve = _parabola() if n == 3 else _moment(n)
    for pt in sample_ball(curve, 6, 8):
        form = _head_form(curve_eval(curve, [Fraction(x) for x in pt]))
        scheduled = _scheduled_reductions(form, n, [1.5, 4.0, 8.0])
        for t in (1.5, 4.0, 8.0):
            warm, _ = scheduled[t]
            cold = _flow_reduce(form, n, t)
            assert (_flow_stats(form, n, t, 1.0, DEFAULT_NODE_BUDGET, warm)
                    == _flow_stats(form, n, t, 1.0, DEFAULT_NODE_BUDGET, cold))


def _recorded_reductions(monkeypatch):
    """The (t, start time) of every _flow_reduce call of the schedule, the
    start time None for the identity; the start is matched to the call
    that returned it."""
    calls = []
    reduced_at = {}
    real = experiments._flow_reduce

    def recorded(form, n, t, start=None):
        calls.append((t, None if start is None else reduced_at[id(start)]))
        out = real(form, n, t, start)
        reduced_at[id(out[0])] = t
        return out

    monkeypatch.setattr(experiments, "_flow_reduce", recorded)
    return calls


@pytest.mark.parametrize("grid, per_sample", [("6", 2), ("2,4,6,8", 4), ("6.5", 2),
                                              ("2,6.5,8", 3), ("0.5,1", 2), ("8,2", 3),
                                              ("-1,0,3", 3), ("20", 5)])
def test_reductions_follow_the_grid_in_bounded_steps(monkeypatch, grid, per_sample):
    """One reduction per positive grid time, in increasing order, each from
    the one before it; a gap with n Delta > 18 is crossed in ceil(n Delta /
    18) equal steps, so no start lies more than 18/n below its time, and
    only a time <= 18/n starts from the identity (n = 4 here)."""
    calls = _recorded_reductions(monkeypatch)
    t_grid = [float(t) for t in grid.split(",")]
    translate_experiment(_moment(4), t_grid, samples=2, eps=0.1, box_radius=1.0, seed=1)
    assert len(calls) == 2 * per_sample
    for t, start in calls:
        if start is None:
            assert t <= 18 / 4, (grid, t)
        else:
            assert 0 < t - start <= 18 / 4 * (1 + 1e-12), (grid, t, start)
    positive = sorted(t for t in t_grid if t > 0)
    assert [t for t, _ in calls[:per_sample] if t in positive] == positive


def test_a_far_time_alone_gives_the_rows_of_the_stepped_grid():
    """moment6 at t = 8 alone (n Delta = 48, crossed in 3 steps) gives the
    t = 8 rows of the grid 2, 4, 6, 8, whose steps are the grid's own; a
    cold reduction at t = 8 makes a basis the enumeration walks at length."""
    curve = _moment(6)
    alone = translate_experiment(curve, [8.0], samples=6, eps=0.1, box_radius=1.0, seed=8)
    grid = translate_experiment(curve, [2.0, 4.0, 6.0, 8.0], samples=6, eps=0.1,
                                box_radius=1.0, seed=8)
    assert alone.rows == [r for r in grid.rows if r.t == 8.0]


def _unit_chain(form, n, t_list):
    """The unit-step chain: Z_k at the integer time k from Z_(k-1) (Z_1
    from the identity), t > 1 from Z_(floor(t)) and t < 1 from the
    identity."""
    chain = []  # chain[k - 1] is Z_k
    out = {}
    for t in t_list:
        if t < 1:
            out[t] = (_flow_reduce(form, n, t), 0.0)
            continue
        k = math.floor(t)
        while len(chain) < k:
            chain.append(_flow_reduce(form, n, float(len(chain) + 1),
                                      chain[-1][0] if chain else None))
        if t == k:
            out[t] = (chain[k - 1], k - 1.0)
        else:
            out[t] = (_flow_reduce(form, n, t, chain[k - 1][0]), float(k))
    return out


def _cold(form, n, t_list):
    """Every t reduced from the identity."""
    return {t: (_flow_reduce(form, n, t), 0.0) for t in t_list}


def _unimodular(rng, n):
    """A random unimodular n x n integer matrix, as columns: a product of
    unit triangular matrices with entries in [-2, 2] and a permutation."""
    m = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(2):
        for j in range(n):
            for i in range(j):
                c = rng.randint(-2, 2)
                m[j] = [a + c * b for a, b in zip(m[j], m[i])]
                c = rng.randint(-2, 2)
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def _scrambled(monkeypatch):
    """The schedule with the start of every reduction (the identity too)
    multiplied by a random unimodular matrix drawn from a fixed seed."""
    rng = random.Random(43)
    real = experiments._flow_reduce

    def scrambled(form, n, t, start=None):
        if start is None:
            start = [[int(i == j) for i in range(n)] for j in range(n)]
        u = _unimodular(rng, n)
        start = [[sum(c * z[i] for c, z in zip(col, start)) for i in range(n)] for col in u]
        return real(form, n, t, start)

    monkeypatch.setattr(experiments, "_flow_reduce", scrambled)


# the five golden cases (tests/test_golden.py) and a moment5 curve
SCHEDULE_CASES = dict(test_golden.CASES, moment5=(
    test_golden._curve(5, [1, 2, 3, 4], **test_golden.MOMENT_BALL), "1,3,5", "1.0", 6))


def _schedule_grid(name, schedule):
    """The case's t grid; for the cold schedule only its t with n t <= 18,
    where a reduction from the identity is sound."""
    data, grid, _, _ = SCHEDULE_CASES[name]
    return [float(t) for t in grid.split(",")
            if schedule != "cold" or data["n"] * float(t) <= 18]


@pytest.mark.parametrize("name, schedule", [
    (name, schedule) for name in sorted(SCHEDULE_CASES)
    for schedule in ("unit-chain", "cold", "scrambled") if _schedule_grid(name, schedule)])
def test_rows_do_not_depend_on_the_schedule(monkeypatch, name, schedule):
    """lambda1 and the box count are lattice invariants, so each row is
    bit-identical whichever basis the enumeration starts from: the grid
    schedule, the unit-step chain, a fresh reduction from the identity and
    a start scrambled by a random unimodular matrix."""
    data, _, radius, samples = SCHEDULE_CASES[name]
    curve = curve_from_json(data)
    t_grid = _schedule_grid(name, schedule)
    kw = dict(samples=samples, eps=0.1, box_radius=float(radius), seed=1)
    want = translate_experiment(curve, t_grid, **kw).rows
    if schedule == "scrambled":
        _scrambled(monkeypatch)
    else:
        monkeypatch.setattr(experiments, "_scheduled_reductions",
                            _unit_chain if schedule == "unit-chain" else _cold)
    assert translate_experiment(curve, t_grid, **kw).rows == want


def _negated(curve):
    """phi -> -phi: every coefficient negated."""
    coords = [[(exps, -coeff) for exps, coeff in poly] for poly in curve.coords]
    return Curve(n=curve.n, k=curve.k, coords=coords, center=curve.center, radius=curve.radius)


def _reversed_tail(curve):
    """The tail coordinates phi_1, ..., phi_(n-1) in reverse order."""
    return Curve(n=curve.n, k=curve.k, coords=curve.coords[::-1], center=curve.center,
                 radius=curve.radius)


def _shifted(curve, coords):
    """10^21 added to each coordinate phi_j with j in coords."""
    big = ((0,) * curve.k, ExactScalar(10**21))
    shifted = [poly + [big] if j in coords else poly for j, poly in enumerate(curve.coords)]
    return Curve(n=curve.n, k=curve.k, coords=shifted, center=curve.center,
                 radius=curve.radius)


@pytest.mark.parametrize("curve, coords", [
    (_parabola(), (0, 1)), (_parabola(), (0,)), (_parabola(), (1,)),
    (_moment(4), (0,)), (_moment(4), (1,)), (_moment(4), (2,)),
], ids=["parabola-both", "parabola-0", "parabola-1", "moment4-0", "moment4-1", "moment4-2"])
def test_an_integer_shift_of_the_curve_leaves_every_row(curve, coords):
    """u(phi) Z^n depends on phi mod Z^(n-1): the curve shifted by 10^21 in
    one coordinate or in all gives the plain curve's rows, bit for bit."""
    reps = [translate_experiment(c, [1.0], samples=20, eps=0.1, box_radius=1.5, seed=1)
            for c in (curve, _shifted(curve, coords))]
    assert reps[1].rows == reps[0].rows


@pytest.mark.parametrize("curve", [_parabola(), _moment(4), _moment(6),
                                   quadratic_subspace_example(4, 2, 2).curve],
                         ids=["parabola", "moment4", "moment6", "q2-line"])
@pytest.mark.parametrize("change", [_negated, _reversed_tail])
def test_a_symmetry_of_the_tail_leaves_every_row(curve, change):
    """phi -> -phi and a permutation of phi's coordinates map g_t u(phi) Z^n
    onto g_t u(phi') Z^n by a signed permutation of the tail coordinates,
    which keeps the sup norm, so every row is the base curve's bit for bit."""
    kw = dict(t_grid=[0.5, 1.0, 2.5, 4.0, 6.0], samples=40, eps=0.1, box_radius=1.0, seed=3)
    base = translate_experiment(curve, **kw)
    assert translate_experiment(change(curve), **kw).rows == base.rows
