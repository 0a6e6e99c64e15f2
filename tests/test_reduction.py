"""Lattice reduction and enumeration, cross-checked against dense scans."""

import math
import re
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import oracles
from latflow.errors import BudgetError, InputError
from latflow.exact import ExactScalar
from latflow.flows import Curve, curve_eval
from latflow.lab import reduction
from latflow.lab.experiments import (
    _chained_reduction,
    _flow_stats,
    _head_form,
    _head_value,
    translate_experiment,
)
from latflow.lab.reduction import (
    enumerate_ball,
    gram_schmidt,
    lll_with_transform,
    reduce_embedded,
    sup_first_minimum,
)


def _cols(matrix):
    """The columns of a numpy matrix as lists of floats, the basis format of
    lab.reduction."""
    return np.asarray(matrix, dtype=float).T.tolist()


def _matrix(cols):
    """The float matrix whose columns are cols."""
    return np.array(cols, dtype=float).T


def _embedding(basis):
    """z -> basis @ z with each entry the fsum of a row of basis times z, as
    lll_with_transform embeds."""
    rows = np.asarray(basis, dtype=float).tolist()
    return lambda z: [math.fsum(map(mul, row, z)) for row in rows]


def test_lll_identity_fixed():
    z, red = lll_with_transform(_cols(np.eye(3)))
    assert np.allclose(_matrix(red), np.eye(3))
    assert z == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_lll_shears_away_huge_entry():
    basis = np.array([[1.0, 0.0], [1e6, 1.0]])
    _, red = lll_with_transform(_cols(basis))
    norms = sorted(np.linalg.norm(_matrix(red), axis=0))
    assert norms[0] == pytest.approx(1.0)
    assert norms[1] == pytest.approx(1.0)


def test_lll_preserves_determinant():
    rng = np.random.default_rng(70)
    kept = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        basis = rng.uniform(-3, 3, size=(n, n))
        if abs(np.linalg.det(basis)) < 1e-3:
            continue
        transform, red = lll_with_transform(_cols(basis))
        red = _matrix(red)
        # transform[i] holds the integer coordinates of reduced vector i
        tr = np.asarray(transform, dtype=float).T
        assert abs(abs(np.linalg.det(tr)) - 1.0) < 1e-9
        assert np.allclose(basis @ tr, red, atol=1e-9)
        # covolume is preserved; orientation may flip
        assert abs(abs(np.linalg.det(red)) - abs(np.linalg.det(basis))) < 1e-6 * abs(
            np.linalg.det(basis)
        )
        kept += 1
    assert kept > 80


def _first_minimum(basis):
    """Euclidean first minimum of the columns' lattice by LLL plus ball
    enumeration, with its minimizers as coordinates in the given basis,
    one of each +- pair (the larger tuple)."""
    z, cols = lll_with_transform(_cols(basis))
    reduced = _matrix(cols)
    bound = float(min(np.linalg.norm(reduced, axis=0)))
    found = []
    for zc in enumerate_ball(cols, bound * (1.0 + 1e-9)):
        coords = tuple(int(x) for x in np.asarray(z).T @ zc)
        pair = max(coords, tuple(-c for c in coords))
        found.append((float(np.linalg.norm(reduced @ zc)), pair))
    norm = min(n for n, _ in found)
    return norm, sorted(c for n, c in found if n <= norm * (1.0 + 1e-9))


def test_shortest_vector_on_z_n():
    for n in range(2, 6):
        norm, minimizers = _first_minimum(np.eye(n))
        assert norm == pytest.approx(1.0)
        assert minimizers == sorted(tuple(int(i == j) for i in range(n)) for j in range(n))


def test_shortest_vector_prefers_short_axis():
    norm, minimizers = _first_minimum(np.diag([2.0, 1.0]))
    assert norm == pytest.approx(1.0)
    assert minimizers == [(0, 1)]


def test_shortest_vector_hexagonal():
    basis = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
    norm, minimizers = _first_minimum(basis)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert minimizers == [(0, 1), (1, -1), (1, 0)]  # six vectors, three pairs


def test_shortest_vector_matches_naive():
    rng = np.random.default_rng(71)
    kept = 0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        basis = rng.uniform(-2, 2, size=(n, n))
        if abs(np.linalg.det(basis)) < 0.3:
            continue
        norm, _ = _first_minimum(basis)
        assert norm == pytest.approx(oracles.shortest_vector_naive(basis), abs=1e-9)
        kept += 1
    assert kept > 25


def test_shortest_vector_guards():
    # the reduction refuses inputs without a first minimum to search for
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 2)), np.zeros((3, 1))):
        with pytest.raises(InputError):
            lll_with_transform(_cols(bad))


def _sup_of(basis, z):
    """sup_first_minimum's sup_of for the lattice basis @ Z^n reduced to the
    columns z: coefficients in the reduced basis go back to integer
    coordinates in the columns of basis, which are embedded in floats."""
    def sup_of(zc):
        m = [sum(c * zi for c, zi in zip(zc, row)) for row in zip(*z)]
        return float(np.max(np.abs(basis @ np.asarray(m, dtype=float))))
    return sup_of


def _box_count(basis, radius):
    """Siegel count of the columns' lattice through the embedded pipeline."""
    basis = np.asarray(basis, dtype=float)
    z, b = reduce_embedded(_embedding(basis), basis.shape[1])
    return sup_first_minimum(b, _sup_of(basis, z), radius)[1]


def test_siegel_count_squares():
    # Z^2: the sup ball of radius 1 holds the 8 neighbours of the origin
    assert _box_count(np.eye(2), 1.0) == 8
    assert _box_count(np.eye(2), 0.5) == 0
    assert _box_count(np.eye(2), 2.0) == 24
    with pytest.raises(InputError):
        _box_count(np.eye(2), 0.0)


def test_siegel_count_flowed_basis():
    # g_1 applied to Z^3 rescales the axes; count follows the box geometry:
    # the head needs a = 0, the tail allows |b|, |c| <= floor(R e)
    basis = np.diag([math.e**2, 1 / math.e, 1 / math.e])
    assert _box_count(basis, 1.0) == 24  # b, c in {-2..2}
    assert _box_count(basis, 0.4) == 8  # b, c in {-1..1}
    assert _box_count(basis, 0.3) == 0  # below e^{-1}


def test_siegel_count_matches_naive():
    rng = np.random.default_rng(72)
    kept = 0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        basis = rng.uniform(-2, 2, size=(n, n))
        if abs(np.linalg.det(basis)) < 0.3:
            continue
        radius = float(rng.uniform(0.4, 1.6))
        assert _box_count(basis, radius) == oracles.box_count_naive(basis, radius)
        kept += 1
    assert kept > 25


def test_sup_first_minimum_matches_dense_scans():
    # one enumeration gives both numbers; the box radius sits below, at and
    # above the first minimum, so the ball is sized by either of the two
    rng = np.random.default_rng(75)
    for n in range(2, 6):
        kept = 0
        while kept < 3:
            basis = np.eye(n) + rng.uniform(-0.4, 0.4, size=(n, n))
            if abs(np.linalg.det(basis)) < 0.5:
                continue
            kept += 1
            lam1 = oracles.sup_minimum_naive(basis)
            z, b = lll_with_transform(_cols(basis))
            for radius in (lam1 / 2, lam1, 2 * lam1):
                got = sup_first_minimum(b, _sup_of(basis, z), radius)
                assert got == (lam1, oracles.box_count_naive(basis, radius))
            assert got[1] > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sup_box_walk_matches_dense_scans_on_random_bases(n):
    """The walk prunes by the sup box; every vector the dense scans find in
    the box, and the first minimum, must survive.  Skewed columns and a box
    below, at and above the first minimum."""
    rng = np.random.default_rng(77 + n)
    kept = 0
    while kept < {5: 2, 6: 1}.get(n, 4):
        scale = 0.35 if n < 5 else 0.15
        basis = (np.eye(n) + rng.uniform(-scale, scale, size=(n, n))) \
            @ np.diag(rng.uniform(0.7, 1.3, size=n))
        if abs(np.linalg.det(basis)) < 0.3:
            continue
        kept += 1
        lam1 = oracles.sup_minimum_naive(basis)
        z, b = lll_with_transform(_cols(basis))
        for radius in (lam1 / 2, lam1, lam1 * (2.0 if n < 5 else 1.25)):
            got = sup_first_minimum(b, _sup_of(basis, z), radius)
            assert got == (lam1, oracles.box_count_naive(basis, radius)), (basis, radius)


def _ball_points(b, radius):
    """Every z != 0 (one of each +- pair) with ||sum_i z_i b[i]|| <= radius, by
    a plain Fincke-Pohst descent on the oracle's Gram-Schmidt, with no other
    bound."""
    mu, norms2 = oracles.gram_schmidt_full(_matrix(b))
    m = len(b)
    found = []

    def descend(level, z, remaining):
        if level < 0:
            if any(z) and [c for c in z if c][-1] > 0:
                found.append(list(z))
            return
        center = -sum(mu[j, level] * z[j] for j in range(level + 1, m))
        span = math.sqrt(max(remaining, 0.0) / norms2[level]) + 1e-9
        for zi in range(math.ceil(center - span), math.floor(center + span) + 1):
            z[level] = zi
            descend(level - 1, z, remaining - (zi - center) ** 2 * norms2[level])
        z[level] = 0

    descend(m - 1, [0] * m, radius * radius * (1.0 + 1e-9))
    return found


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sup_box_walk_matches_an_unpruned_enumeration_on_flow_bases(n, monkeypatch):
    """On the chain's reduced bases of the moment curve (t = 0..8), the
    pruned walk gives the (lambda1, box count) of scoring every point of
    the Euclidean ball sqrt(n) max(best column, R) with the same sup_of."""
    seen = []
    real = reduction.sup_first_minimum

    def recorded(b, sup_of, box_radius, budget):
        seen.append((b, sup_of, box_radius))
        return real(b, sup_of, box_radius, budget)

    monkeypatch.setattr(reduction, "sup_first_minimum", recorded)
    one = ExactScalar(1)
    curve = Curve(n=n, k=1, coords=[[((j,), one)] for j in range(1, n)], radius=1.0)
    rng = np.random.default_rng(78)
    for _ in range(3 if n < 6 else 2):
        form = _head_form(curve_eval(curve, [Fraction(int(rng.integers(-997, 998)), 997)]))
        chain = []
        for t in range(9):
            for radius in (0.3, 1.0):
                got = _flow_stats(form, n, float(t), radius, 10**6,
                                  _chained_reduction(form, n, float(t), chain))
                b, sup_of, _ = seen[-1]
                best = min(sup_of([int(i == j) for i in range(n)]) for j in range(n))
                scores = [sup_of(zc) for zc in
                          _ball_points(b, max(best, radius) * math.sqrt(n) * (1.0 + 1e-9))]
                want = (min([best] + scores), 2 * sum(s <= radius + 1e-9 for s in scores))
                assert got == want, (n, t, radius)


def test_sup_box_walk_scores_little_beyond_the_box(monkeypatch):
    """On the parabola at t = 6, R = 1.5 (criterion 4's scenario) the walk
    calls sup_of about once per +- pair in the box; the Euclidean ball
    alone holds about twice that."""
    calls = []
    real = reduction.sup_first_minimum

    def counted(b, sup_of, box_radius, budget):
        return real(b, lambda zc: calls.append(1) or sup_of(zc), box_radius, budget)

    monkeypatch.setattr(reduction, "sup_first_minimum", counted)
    one = ExactScalar(1)
    curve = Curve(n=3, k=1, coords=[[((1,), one)], [((2,), one)]], radius=1.0)
    rep = translate_experiment(curve, [6.0], samples=20, eps=0.1, box_radius=1.5, seed=1)
    pairs = sum(row.siegel_count // 2 for row in rep.rows)
    assert 0 < len(calls) <= pairs + 3 * len(rep.rows)


@pytest.mark.parametrize("radius, named", [(math.nan, "nan"), (math.inf, "inf"),
                                           (-1.0, "-1.0"), (1e200, "1e+200")])
def test_enumerate_ball_refuses_a_radius_out_of_range(radius, named):
    with pytest.raises(InputError, match=f"got {re.escape(named)}$"):
        enumerate_ball(_cols(np.eye(2)), radius)


@pytest.mark.parametrize("column, named", [([math.nan, 1.0], "nan"),
                                           ([math.inf, 0.0], "inf")])
def test_a_non_finite_column_is_refused(column, named):
    basis = np.array(column).reshape(2, 1)
    with pytest.raises(InputError, match=f"column 0 = \\[{named}, .*not a finite double"):
        lll_with_transform(_cols(basis))
    with pytest.raises(InputError, match=f"column 1 = \\[{named}, .*not a finite double"):
        lll_with_transform(_cols(np.column_stack([[1.0, 0.0], column])))


def test_an_overflowing_squared_norm_is_not_called_dependent():
    for call in (lll_with_transform, lambda b: enumerate_ball(b, 1.0)):
        with pytest.raises(InputError, match=r"column 0 = \[1e\+200, 0.0\]: its squared "
                                             r"norm is not a finite double"):
            call(_cols(np.diag([1e200, 1e200])))
    # one finite column and one whose square overflows: the second is named
    with pytest.raises(InputError, match="column 1 = "):
        lll_with_transform(_cols(np.diag([1.0, 1e155])))


def test_enumerate_ball_sign_convention():
    pts = enumerate_ball(_cols(np.eye(2)), 1.0)
    assert sorted(tuple(int(c) for c in z) for z in pts) == [(0, 1), (1, 0)]
    for z in enumerate_ball(_cols(np.eye(3)), 1.5):
        nonzero = [int(c) for c in z if c]
        assert nonzero[-1] > 0


def test_enumerate_ball_budget():
    with pytest.raises(BudgetError):
        enumerate_ball(_cols(np.eye(4)), 40.0, budget=50)


def test_embedded_reduction_round_trip():
    """reduce_embedded on a plain matrix embedding must agree with the
    direct LLL path: same lattice, same shortest vector."""
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        basis = rng.uniform(-2, 2, size=(n, n))
        if abs(np.linalg.det(basis)) < 0.3:
            continue
        embed = _embedding(basis)
        z, b = reduce_embedded(embed, n)
        # column i of b is the embedding of the coordinate row z[i]
        for i in range(n):
            assert b[i] == embed(z[i])
        val, _ = sup_first_minimum(b, _sup_of(basis, z), 1e-9)  # a box below every vector
        # dense-scan reference for the sup-norm minimum
        best = math.inf
        bound = 4
        for zv in np.ndindex(*(2 * bound + 1,) * n):
            zz = np.asarray(zv) - bound
            if not zz.any():
                continue
            best = min(best, float(np.max(np.abs(basis @ zz.astype(float)))))
        assert val <= best + 1e-9


def _random_bases(rng, count):
    """Random well-conditioned float bases, n = 2..6, with skewed columns."""
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 7))
        basis = rng.uniform(-3, 3, size=(n, n)) * 10.0 ** rng.integers(-2, 3, size=n)
        if abs(np.linalg.det(basis)) > 1e-6 * np.prod(np.linalg.norm(basis, axis=0)):
            out.append(basis)
    return out


def _knapsack_bases(rng, count):
    """Identity under a row of integers up to 1e12 (the subset-sum lattice):
    size reduction makes columns shrink by twelve orders of magnitude, so a
    Gram-Schmidt row left stale by a column operation changes the pivots."""
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        basis = np.eye(n)
        basis[0, :] = np.round(rng.uniform(-1e12, 1e12, size=n))
        out.append(basis)
    return out


def _flow_embed(n, t, s):
    """The embedding _flow_stats reduces: g_t u(phi(s)) on the moment curve."""
    one = ExactScalar(1)
    curve = Curve(n=n, k=1, coords=[[((j,), one)] for j in range(1, n)], radius=1.0)
    form = _head_form(curve_eval(curve, [s]))
    e_head, e_tail = math.exp((n - 1) * t), math.exp(-t)

    def embed(z):
        return [e_head * _head_value(form, z)] + [e_tail * float(c) for c in z[1:]]

    return embed


def _assert_lll_reduced(b):
    mu, norms2 = oracles.gram_schmidt_full(_matrix(b))
    m = len(b)
    for i in range(m):
        for j in range(i):
            assert abs(mu[i, j]) <= 0.5 + 1e-9
    for k in range(1, m):
        assert norms2[k] >= (0.99 - mu[k, k - 1] ** 2) * norms2[k - 1] * (1 - 1e-9)


def _lll_cases():
    rng = np.random.default_rng(74)
    for basis in _random_bases(rng, 120) + _knapsack_bases(rng, 60):
        yield basis.shape[1], _embedding(basis), basis
    for n in (3, 4, 6):
        for t in (0.0, 0.5, 2.0, 4.0, 6.0, 8.0):
            for _ in range(4):
                s = Fraction(int(rng.integers(-997, 998)), 997)
                yield n, _flow_embed(n, t, s), None


def test_lll_kernel_matches_full_recompute_oracle_bit_for_bit():
    """The kernel caches Gram-Schmidt rows across sweeps; a fresh pass every
    sweep must reach the same z and the same float bits."""
    for ncols, embed, basis in _lll_cases():
        z_ref, b_ref = oracles.lll_full_recompute(embed, ncols)
        z, b = reduce_embedded(embed, ncols)
        assert z == z_ref
        assert _matrix(b).tobytes() == b_ref.tobytes()
        if basis is not None:
            transform, red = lll_with_transform(_cols(basis))
            assert transform == z_ref
            assert _matrix(red).tobytes() == b_ref.tobytes()


def test_warm_started_lll_matches_full_recompute_oracle_bit_for_bit():
    """From the basis reduced one unit of time earlier, as the flow
    experiments chain their reductions, kernel and oracle agree too."""
    rng = np.random.default_rng(76)
    for n in (3, 4, 6):
        for t in (1.5, 2.0, 4.0, 8.0, 12.0):
            for _ in range(4):
                s = Fraction(int(rng.integers(-997, 998)), 997)
                start, _ = reduce_embedded(_flow_embed(n, t - 1.0, s), n)
                embed = _flow_embed(n, t, s)
                z_ref, b_ref = oracles.lll_full_recompute(embed, n, start)
                z, b = reduce_embedded(embed, n, start)
                assert z == z_ref
                assert _matrix(b).tobytes() == b_ref.tobytes()
                _assert_lll_reduced(b)


def test_lll_with_transform_embeds_by_fsum_bit_for_bit():
    """Each reduced column is the correctly rounded sum of the basis rows
    times its integer coordinates, whatever order a BLAS build would sum
    them in; skewed columns and the knapsack lattices' huge rows make the
    order show in the last bits."""
    rng = np.random.default_rng(79)
    for basis in _random_bases(rng, 60) + _knapsack_bases(rng, 20):
        z, b = lll_with_transform(_cols(basis))
        want = [[math.fsum(map(mul, row, zi)) for row in basis.tolist()] for zi in z]
        assert np.array(b).tobytes() == np.array(want).tobytes()


def test_gram_schmidt_matches_the_oracle_bit_for_bit():
    # every inner product is correctly rounded, so a sequential or BLAS sum
    # in the kernel (or the oracle) shows up in the last bits of mu
    for ncols, embed, _ in _lll_cases():
        b = np.stack([np.asarray(embed([int(i == j) for i in range(ncols)]), dtype=float)
                      for j in range(ncols)], axis=1)
        _, mu, norms2 = gram_schmidt(b.T.tolist())
        mu_ref, norms2_ref = oracles.gram_schmidt_full(b)
        assert norms2 == norms2_ref.tolist()
        assert [row[:i] for i, row in enumerate(mu)] == [
            mu_ref[i, :i].tolist() for i in range(ncols)]


def test_lll_kernel_output_is_lll_reduced():
    # lll_with_transform returns these same bits (test above)
    for ncols, embed, _ in _lll_cases():
        _, b = reduce_embedded(embed, ncols)
        _assert_lll_reduced(b)
