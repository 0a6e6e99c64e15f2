"""Acceptance suite: ten scenario checks, one pass/fail line each under
pytest -v.  Tolerances, sample counts and time budgets are part of the
contract; free parameters (seeds, the trapping box radius, the t grid of
the identity sweep) are frozen in the test bodies and docstrings so reruns
are comparable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from latflow.dioph import a_ext, probe_singular
from latflow.exact import ExactMatrix, ExactScalar
from latflow.flows import Curve, g_of_A
from latflow.instability import kempf_optimum, weight_support
from latflow.lab.descent import descend_to_vector
from latflow.lab.experiments import _flow_scales, translate_experiment
from latflow.lab.kfield import quadratic_subspace_example
from latflow.lab.symplectic import residual_check
from latflow.rootsys import minuscule_checks
from latflow.wedge import pfaffian, wedge_matrix, wedge_vector

F = Fraction


def test_criterion_01_algebraic_identity_suite():
    """1000 randomized cases per identity, zero failures, under a minute:
    wedge functoriality, pf^2 = det, the flow factorization g = c b at
    tolerance 1e-12 (n <= 8, every d, t in {0.25, 0.5, 1.0}), and the
    horospherical group law."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)

    for _ in range(1000):  # wedge(AB) = wedge(A) wedge(B), exact
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        a = ExactMatrix(rng.integers(-3, 4, size=(n, n)).tolist())
        b = ExactMatrix(rng.integers(-3, 4, size=(n, n)).tolist())
        assert wedge_matrix(a @ b, k) == wedge_matrix(a, k) @ wedge_matrix(b, k)

    for _ in range(1000):  # pf^2 = det, against the permanent-sum oracle
        n = int(rng.choice([2, 4, 6]))
        m = rng.integers(-4, 5, size=(n, n))
        anti = (m - m.T).tolist()
        pf = pfaffian(ExactMatrix(anti)).as_fraction()
        assert pf * pf == oracles.det_by_permutations(anti)

    t_grid = (0.25, 0.5, 1.0)
    for _ in range(1000):  # g_t = c_t b_t within 1e-12, g_t the kernel's scales
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        t = float(rng.choice(t_grid))
        b = oracles.make_flow(oracles.flow_exponents("b", n, d), t)
        c = oracles.make_flow(oracles.flow_exponents("c", n, d), t)
        head, tail = _flow_scales(n, t)
        g = np.diag([head] + [tail] * (n - 1))
        assert np.max(np.abs(c @ b - g)) <= 1e-12

    def u(v):  # first row (1, v), identity below
        return g_of_A(ExactMatrix([v]), len(v) + 1)

    for _ in range(1000):  # u(v) u(w) = u(v + w), exact
        k = int(rng.integers(1, 6))
        v = rng.integers(-9, 10, size=k).tolist()
        w = rng.integers(-9, 10, size=k).tolist()
        assert u(v) @ u(w) == u([x + y for x, y in zip(v, w)])

    assert time.monotonic() - start < 60.0


def test_criterion_02_extended_matrix_values():
    """The 2x2 block [[1,2],[3,4]] extends to the exact column
    (-2, 1, -4, 3, 2); shapes are (2n-3) x C(n-2, 2) for n = 4, 6, 8."""
    ext = a_ext(ExactMatrix([[1, 2], [3, 4]]))
    assert ext.nrows == 5 and ext.ncols == 1
    assert [int(ext[i, 0].as_fraction()) for i in range(5)] == [-2, 1, -4, 3, 2]
    for n in (4, 6, 8):
        ext = a_ext(ExactMatrix([[0] * (n - 2), [0] * (n - 2)]))
        assert (ext.nrows, ext.ncols) == (2 * n - 3, math.comb(n - 2, 2))


def test_criterion_03_escape_along_a_rational_line():
    """phi(s) = (s, 1/2 + s/3) at n = 3: an invariant integer vector forces
    lambda_1 <= 6 e^{-t} for every sample; at t = 6 every orbit point is
    below eps = 0.2.  2000 samples, seed 42, under two minutes."""
    start = time.monotonic()
    curve = Curve(
        n=3,
        k=1,
        coords=[
            [((1,), ExactScalar(1))],
            [((0,), ExactScalar(F(1, 2))), ((1,), ExactScalar(F(1, 3)))],
        ],
    )
    rep = translate_experiment(
        curve, t_grid=[2.0, 4.0, 6.0], samples=2000, eps=0.2, box_radius=1.5, seed=42
    )
    by_t = {agg["t"]: agg for agg in rep.aggregates}
    for t in (2.0, 4.0, 6.0):
        assert by_t[t]["max_lambda1"] <= 6.0 * math.exp(-t) + 1e-9
    assert by_t[6.0]["frac_below_eps"] == 1.0
    assert time.monotonic() - start < 120.0


def test_criterion_04_equidistribution_of_a_parabola():
    """phi(s) = (s, s^2) at t = 6: the mean Siegel count over 4000 samples
    lands within 15 percent of the Haar value (2R)^3 = 27 at R = 1.5.
    Seed 7, under five minutes."""
    start = time.monotonic()
    one = ExactScalar(1)
    curve = Curve(n=3, k=1, coords=[[((1,), one)], [((2,), one)]])
    rep = translate_experiment(
        curve, t_grid=[6.0], samples=4000, eps=0.1, box_radius=1.5, seed=7
    )
    agg = rep.aggregates[0]
    assert agg["haar_ref"] == pytest.approx(27.0)
    assert agg["rel_dev"] <= 0.15
    assert time.monotonic() - start < 300.0


def test_criterion_05_trapping_on_a_quadratic_field_line():
    """The field line for Q(sqrt(2)) at n = 4 stays away from the cusp and
    off the Haar count.  Frozen scenario: t = 0..8 integers, 500 samples,
    box radius 0.05, eps 0.1; thresholds: lambda_1 floor positive, the
    running minimum stabilizes (last-quarter min >= 0.8 x global min), and
    the mean Siegel count deviates from (2R)^4 by >= 25 percent at every
    t >= 4.  Checked under both seed 5 and seed 105."""
    ex = quadratic_subspace_example(4, 2, 2)
    t_grid = [float(t) for t in range(9)]
    for seed in (5, 105):
        rep = translate_experiment(
            ex.curve, t_grid=t_grid, samples=500, eps=0.1, box_radius=0.05, seed=seed
        )
        global_min = min(agg["min_lambda1"] for agg in rep.aggregates)
        assert global_min > 0.0
        last_quarter = min(
            agg["min_lambda1"] for agg in rep.aggregates if agg["t"] >= 6.0
        )
        assert last_quarter >= 0.8 * global_min
        for agg in rep.aggregates:
            if agg["t"] >= 4.0:
                assert agg["rel_dev"] >= 0.25, (seed, agg)


def test_criterion_06_wedge_residual_stays_in_band():
    """1000 random (A, w) pairs at n = 4 (20 blocks x 50 integer wedge
    vectors): the mixed projection of the wedge-square action and the
    extended-matrix residual have sup norms within the certified band."""
    rng = np.random.default_rng(600)
    for _ in range(20):
        a = ExactMatrix(rng.integers(-6, 7, size=(2, 2)).tolist())
        for _ in range(50):
            w = rng.integers(-20, 21, size=6).tolist()
            rep = residual_check(a, w)
            assert rep.in_band()


def test_criterion_07_instability_optima():
    """Frozen optima: B(e1; SL2) = 1/sqrt(2) at lambda = (1, -1);
    B(e1^e2; SL4 on the wedge square) = 1 at (1, 1, -1, -1); e1 + e2 is
    semistable.  A dense integer cocharacter scan up to norm 50 agrees
    with the hull-distance value to 1e-9 on every rational test vector."""
    r1 = kempf_optimum([F(1), F(0)], "standard", 2)
    assert r1.unstable and r1.b2 == F(1, 2) and r1.lam_star == (1, -1)
    assert r1.b == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    r2 = kempf_optimum([F(1)] + [F(0)] * 5, ("wedge", 2), 4)
    assert r2.unstable and r2.b2 == 1 and r2.lam_star == (1, 1, -1, -1)
    r3 = kempf_optimum([F(1), F(1)], "standard", 2)
    assert not r3.unstable

    vectors = [
        ([F(1), F(0)], "standard", 2),
        ([F(1), F(1)], "standard", 2),
        ([F(2), F(-3)], "standard", 2),
        ([F(1), F(0), F(0)], "standard", 3),
        ([F(1, 2), F(5), F(0)], "standard", 3),
        ([F(0), F(2), F(-1)], "standard", 3),
        ([F(1), F(2), F(3)], "standard", 3),
        ([F(1), F(0), F(0), F(0)], "standard", 4),
        ([F(1), F(1), F(0), F(0)], "standard", 4),
        ([F(3), F(0), F(0), F(7)], "standard", 4),
        ([F(1)] + [F(0)] * 5, ("wedge", 2), 4),
        ([F(0), F(1), F(1)] + [F(0)] * 3, ("wedge", 2), 4),
        ([F(1), F(0), F(0), F(0), F(0), F(1)], ("wedge", 2), 4),
        ([F(2), F(1), F(0), F(0), F(-1), F(0)], ("wedge", 2), 4),
    ]
    for vec, rep, n in vectors:
        res = kempf_optimum(vec, rep, n)
        hull = float(res.b) if res.unstable else 0.0
        brute = oracles.kempf_brute(sorted(weight_support(vec, rep, n)), 50, n)
        assert abs(max(brute, 0.0) - hull) <= 1e-9, (vec, rep, n)


def test_criterion_08_minuscule_scan_pass_set():
    """Rank <= 3 scan finishes under ten seconds and passes exactly the
    first and last fundamental weights of the A family plus the first
    fundamental of the C family, with the rank-2 B system and the rank-3
    D system admitted through the coincidences B2 = C2 and D3 = A3."""
    start = time.monotonic()
    scan = {(rs.family, rs.rank, i + 1): wits for rs, i, _, wits in minuscule_checks(3)}
    passed = {key for key, wits in scan.items() if wits}
    a_family = {("A", r, i) for r in (1, 2, 3) for i in (1, r)}
    c_family = {("C", 2, 1), ("C", 3, 1)}
    aliases = {("B", 2, 2), ("D", 3, 2), ("D", 3, 3)}
    assert passed == a_family | c_family | aliases
    assert set(scan) - passed == {("A", 3, 2), ("B", 3, 3), ("D", 3, 1)}
    assert time.monotonic() - start < 10.0


def test_criterion_09_dirichlet_solvability_and_singularity():
    """delta = 1 is solvable at every tested threshold for 100 random
    points in each of one and two dimensions; rational points produce
    improvability evidence at delta = 0.5, 0.1 and 0.01."""
    rng = np.random.default_rng(900)
    t_grid = (1.5, 2.0, 3.0, 5.0, 8.0)
    for dim in (1, 2):
        for _ in range(100):
            x = tuple(float(v) for v in rng.uniform(-1, 1, size=dim))
            [rep], _ = probe_singular(x, "vect", (1.0,), t_grid)
            assert all(row.solvable for row in rep.rows), (x,)
    for x in ((0.5,), (F(1, 3), F(2, 7)), (0.25, -0.75)):
        # the tail of the grid must reach T^dim >= common denominator,
        # here 21 at dim 2, so the zero-residual multiple is enumerable
        xs = tuple(float(v) for v in x)
        _, singular = probe_singular(
            xs, "vect", deltas=(0.5, 0.1, 0.01), t_grid=(2.0, 3.0, 5.0, 8.0)
        )
        assert singular, (x,)


def test_criterion_10_descent_meets_minkowski():
    """500 random decomposable integer wedge vectors (k = 2, 3 inside
    n = 4, 5): the descended vector satisfies ||v||^2k <= k^k |w|^2 /
    content(w)^2, checked in exact integers against the independent
    covolume formula."""
    rng = np.random.default_rng(1000)
    done = 0
    while done < 500:
        n = int(rng.integers(4, 6))
        k = int(rng.integers(2, 4))
        vs = rng.integers(-7, 8, size=(k, n))
        w = [int(c.as_fraction()) for c in wedge_vector(vs.tolist())]
        if not any(w):
            continue
        v = descend_to_vector(w, n, k)
        norm2, content = oracles.wedge_norm_content(w)
        vv = int(sum(int(x) * int(x) for x in v))
        assert vv > 0
        assert vv**k * content**2 <= k**k * norm2
        done += 1
