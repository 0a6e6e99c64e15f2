"""Best approximations, exponent fits, membership probes, Dirichlet systems."""

import importlib
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from latflow import dioph
from latflow.dioph import (
    CERTIFIED_MEMBER,
    EVIDENCE_MEMBER,
    EVIDENCE_NONMEMBER,
    INCONCLUSIVE,
    ApproxRecord,
    a_ext,
    best_approximations,
    exponent_estimate,
    probe_singular,
    rational_certificate,
    w_probe,
)
from latflow.errors import BudgetError, InputError
from latflow.exact import ExactMatrix, ExactScalar
from latflow.lab.experiments import _flow_reduce, _flow_stats, _head_form
from latflow.lab.reduction import DEFAULT_NODE_BUDGET

SQRT2M1 = math.sqrt(2) - 1


def _certificate(a):
    """(q, p) of the zero certificate of a target, from its integer form."""
    cert = rational_certificate(dioph._read_target(a)[1])
    return None if cert is None else (cert.q, cert.p)


def _dirichlet(x, form, delta, grid):
    """The report of one Dirichlet query, as the `dirichlet` command reads it."""
    reports, _ = probe_singular(x, form, [delta], grid)
    return reports[0]


def test_one_third_terminates_exactly():
    recs = best_approximations(ExactMatrix([[Fraction(1, 3)]]), 10)
    assert [(r.qnorm, r.q, r.p) for r in recs] == [(1, (1,), (0,)), (3, (3,), (-1,))]
    assert recs[-1].exact_zero and recs[-1].residual == 0.0


def test_sqrt2_convergents():
    recs = best_approximations([[SQRT2M1]], 100)
    assert [r.qnorm for r in recs] == [1, 2, 5, 12, 29, 70]
    r29 = recs[4]
    assert r29.q == (29,) and r29.p == (-12,)
    assert r29.residual == pytest.approx(0.0121933, abs=1e-6)


def test_zero_matrix_short_circuit():
    recs = best_approximations(ExactMatrix([[0]]), 10)
    assert len(recs) == 1
    assert recs[0].q == (1,) and recs[0].p == (0,)
    assert recs[0].exact_zero


@pytest.mark.parametrize("a", [[[2**63]], [[2**63, 1]], [[10**300], [1]]])
def test_integer_target_beyond_int64(a):
    """An integer target is certified at q = e_1 before any shell is walked;
    its entries beyond int64 must not be stored in int64 on the way."""
    recs = best_approximations(ExactMatrix(a), 3)
    assert [(r.qnorm, r.exact_zero) for r in recs] == [(1, True)]


def test_minima_monotone():
    """qnorms strictly increase and residuals strictly decrease."""
    rng = np.random.default_rng(50)
    for _ in range(40):
        m = int(rng.integers(1, 3))
        ell = int(rng.integers(1, 4))
        a = rng.uniform(-1, 1, size=(m, ell)).tolist()
        recs = best_approximations(a, 60)
        for prev, nxt in zip(recs, recs[1:]):
            assert nxt.qnorm > prev.qnorm
            assert nxt.residual < prev.residual


# A float residual |a.q + p| carries a few ulps of the terms that cancel,
# sum |a_i q_i| + |p| of a row, and the walk and the oracle sum them in
# different orders: for this target the record at q = (4, -14) reads
# 1.6184989563861052e-4 and 1.6184989564038688e-4, 1.1e-11 apart relative
# but under one ulp of its terms (about 30)
FIXED_FLOAT_TARGETS = [([[0.3966818267347454, -0.9580793459403842]], 15)]
RESIDUAL_ULPS = 1e-14  # allowed difference per unit of the terms that cancel


def test_float_records_match_naive_scan():
    """Float targets: the batched shell walk and the chunked one-column scan
    (the walk of `dirichlet --form vect`) find the whole-cube scan's records
    (same q and p; residuals up to float summation order, RESIDUAL_ULPS of
    the terms that cancel)."""
    rng = np.random.default_rng(57)
    cases = list(FIXED_FLOAT_TARGETS)
    for ell, m, qmax in ((2, 1, 15), (2, 2, 15), (3, 1, 6), (3, 2, 6),
                         (1, 1, 3000), (1, 2, 3000), (1, 3, 3000)):
        cases += [(rng.uniform(-1, 1, size=(m, ell)).tolist(), qmax) for _ in range(6)]
    for a, qmax in cases:
        got = best_approximations(a, qmax)
        want = oracles.best_approximations_naive(a, qmax)
        assert [(r.qnorm, r.q, r.p) for r in got] == [w[:3] for w in want]
        for rec, w in zip(got, want):
            terms = max(sum(abs(x * c) for x, c in zip(row, rec.q)) + abs(pi)
                        for row, pi in zip(a, rec.p))
            assert abs(rec.residual - w[3]) <= RESIDUAL_ULPS * terms


def _check_rational_records(a, qmax):
    """Records of a Fraction target equal the exact whole-cube scan's, apart
    from the spliced zero certificate (the scan may reach another zero q in
    that shell), and their residuals fall strictly in exact arithmetic."""
    recs = best_approximations(ExactMatrix(a), qmax)
    want = oracles.best_approximations_naive(a, qmax)
    got = recs
    if recs and recs[-1].q == _certificate(a)[0]:
        assert recs[-1].exact_zero and want[-1][0] == recs[-1].qnorm and want[-1][3] == 0
        got, want = recs[:-1], want[:-1]
    assert [(r.qnorm, r.q, r.p, r.residual) for r in got] == [
        (h, q, p, float(res)) for h, q, p, res in want
    ]
    exact = [
        max(abs(sum(x * c for x, c in zip(row, rec.q)) + pi) for row, pi in zip(a, rec.p))
        for rec in recs
    ]
    assert all(nxt < prev for prev, nxt in zip(exact, exact[1:]))
    return recs


def test_rational_records_match_naive_scan():
    """Small denominators make exact ties common; only a strict improvement
    in exact arithmetic is a record, and the lex-first q wins a tie."""
    rng = np.random.default_rng(58)
    for m, ell, qmax in ((1, 1, 60), (2, 1, 60), (1, 2, 12), (2, 2, 12), (1, 3, 5)):
        for _ in range(25):
            den = int(rng.integers(1, 14))
            a = [[Fraction(int(rng.integers(-den, den + 1)), den) for _ in range(ell)]
                 for _ in range(m)]
            _check_rational_records(a, qmax)


@pytest.mark.parametrize("target, qmax, shells", [
    ("2/3", 10, [1, 3]),
    ("1/5", 10, [1, 5]),
    ("1/2,14/31;-5/12,-4/5", 12, [1, 2, 3, 11, 12]),
])
def test_exact_ties_are_not_records(target, qmax, shells):
    # float ranking listed q = 2 (2/3), q = 4 (1/5) and shell 9 (the matrix),
    # each tying the previous record's residual exactly
    a = [[Fraction(x) for x in row.split(",")] for row in target.split(";")]
    assert [r.qnorm for r in _check_rational_records(a, qmax)] == shells


# 2^61 - 1 is prime, so L = 3 (2^61 - 1) and N q reaches 2^64
BEYOND_INT64 = [[Fraction(1180180315279482015, 2**61 - 1), Fraction(2, 3)]]


def test_rational_ranking_beyond_int64():
    """Products N q that would wrap in int64 are ranked in Python ints (in
    int64 this target lists shell 4 instead of shell 3)."""
    a = BEYOND_INT64
    recs = best_approximations(ExactMatrix(a), 4)
    want = oracles.best_approximations_naive(a, 4)
    assert [(r.qnorm, r.q, r.p) for r in recs] == [w[:3] for w in want]


def test_walk_ranks_one_q_per_pair(monkeypatch):
    """A search to qmax ranks ((2 qmax + 1)^l - 1) / 2 points, one of each
    +-q pair of the cube."""
    keys = dioph._residual_keys
    for ell, qmax in ((2, 9), (3, 5)):
        seen = []

        def counting(qs, af, scaled):
            seen.append(qs.copy())
            return keys(qs, af, scaled)

        monkeypatch.setattr(dioph, "_residual_keys", counting)
        best_approximations([[SQRT2M1] + [math.pi - 3] * (ell - 1)], qmax)
        pts = np.concatenate(seen).tolist()
        assert len(pts) == ((2 * qmax + 1) ** ell - 1) // 2
        pairs = {min(tuple(q), tuple(-c for c in q)) for q in pts}
        assert len(pairs) == len(pts)
        assert all(0 < max(map(abs, q)) <= qmax for q in pts)


def _fields(recs):
    return [(r.qnorm, r.q, r.p, r.residual.hex(), r.exact_zero) for r in recs]


@pytest.mark.parametrize("cap", [9, 49, 125])
def test_records_do_not_depend_on_the_batch_cap(monkeypatch, cap):
    """With the batch cut to a cube of at most `cap` points (radius 1, 3
    and 5 at two columns, 1, 1 and 2 at three), searches whose qmax crosses
    from the batch into the per-shell tail list the whole-cube scan's
    records, field for field the records of the default batch."""
    rng = np.random.default_rng(59)
    floats = [(rng.uniform(-1, 1, size=(m, ell)).tolist(), qmax)
              for ell, m, qmax in ((2, 1, 9), (2, 2, 9), (3, 1, 4), (3, 2, 4))
              for _ in range(3)]
    rationals = [
        ([[Fraction(1, 3), Fraction(2, 5)]], 9),  # certificate at shell 3
        ([[Fraction(2, 7), Fraction(1, 3)], [Fraction(3, 5), Fraction(1, 2)]], 9),  # at 35
        ([[Fraction(5, 6), Fraction(1, 3)]], 9),  # the walk's zero q = (0, 3)
        ([[Fraction(2, 9), Fraction(4, 7), Fraction(1, 2)]], 4),  # at 9
        ([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]], 4),  # at 2
        (BEYOND_INT64, 4),
    ]
    default = [_fields(best_approximations(a, qmax)) for a, qmax in floats]
    default += [_fields(best_approximations(ExactMatrix(a), qmax)) for a, qmax in rationals]
    monkeypatch.setattr(dioph, "_BATCH_POINTS", cap)
    got = []
    for a, qmax in floats:
        recs = best_approximations(a, qmax)
        want = oracles.best_approximations_naive(a, qmax)
        assert [(r.qnorm, r.q, r.p) for r in recs] == [w[:3] for w in want]
        got.append(_fields(recs))
    got += [_fields(_check_rational_records(a, qmax)) for a, qmax in rationals]
    assert got == default


def test_batched_keys_equal_the_shell_keys(monkeypatch, tmp_path):
    """Every q of the walk's batch gets, bit for bit, the key its own shell
    gives it through _shell_points, on the exact_mix deck's targets at seeds
    1 and 7 and on random targets with the batch at full size; a BLAS kernel
    that rounds the larger product differently fails here."""
    rng = np.random.default_rng(60)
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    # every `dioph approx` call of two or more columns in the decks
    cases = [([[float(x) for x in call.meta["target"]]], call.meta["qmax"])
             for seed in (1, 7) for call in workloads.build("exact_mix", seed, str(tmp_path), None)
             if call.argv[:2] == ["dioph", "approx"] and len(call.meta["target"]) > 1]
    assert sorted({(len(a[0]), qmax) for a, qmax in cases}) == [(2, 60), (3, 15)]
    cases += [(rng.uniform(-1, 1, size=(m, ell)) * scale, 200)
              for ell, m, scale in ((2, 1, 1.0), (2, 2, 1e5), (3, 1, 1e-4), (3, 2, 1.0))]
    for a, qmax in cases:
        af = np.asarray(a, dtype=float)
        _, _, qs, keys, norms = next(dioph._shell_minima(af, None, qmax))
        batched = {tuple(q): k.hex() for q, k in zip(qs.tolist(), keys.tolist())}
        ell, h1 = af.shape[1], int(norms.max())
        assert len(batched) == ((2 * h1 + 1) ** ell - 1) // 2
        assert h1 == min(qmax, 127 if ell == 2 else 19)
        for h in range(1, h1 + 1):
            shell = dioph._shell_points(h, ell)
            for q, k in zip(shell.tolist(), dioph._residual_keys(shell, af, None).tolist()):
                assert batched[dioph._sign_normalized(q)] == k.hex()


def test_no_key_call_exceeds_the_batch(monkeypatch):
    """The pinned search `dioph approx --a 0.41421356,0.73205081 --qmax 300`,
    whose cube exceeds the batch cap, ranks the batch and then one shell at
    a time: no _residual_keys call gets more rows than half the cap, and
    together they rank the whole half cube."""
    keys, rows = dioph._residual_keys, []

    def counting(qs, af, scaled):
        rows.append(len(qs))
        return keys(qs, af, scaled)

    monkeypatch.setattr(dioph, "_residual_keys", counting)
    best_approximations([[0.41421356, 0.73205081]], 300)
    assert 601**2 > dioph._BATCH_POINTS
    assert rows[0] == (255**2 - 1) // 2 and len(rows) == 1 + 300 - 127
    assert max(rows) <= dioph._BATCH_POINTS // 2
    assert sum(rows) == (601**2 - 1) // 2


def test_p_is_nearest_integer():
    rng = np.random.default_rng(51)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        a = rng.uniform(-2, 2, size=(m, 1))
        recs = best_approximations(a.tolist(), 40)
        for rec in recs:
            vals = a @ np.asarray(rec.q, dtype=float)
            for i, pi in enumerate(rec.p):
                assert abs(vals[i] + pi) <= 0.5 + 1e-12
            assert rec.residual == pytest.approx(
                float(np.max(np.abs(vals + np.asarray(rec.p)))), abs=1e-12
            )


def test_budget_is_enforced():
    with pytest.raises(BudgetError):
        best_approximations([[SQRT2M1]], 10**8, budget=100)


def test_quality_scaling():
    rec = ApproxRecord(qnorm=4, q=(4,), p=(-1,), residual=0.5)
    assert rec.quality(2.0) == 0.5 * 16


def test_exponent_for_badly_approximable():
    om, infinite = exponent_estimate([[SQRT2M1]], 10000)
    assert not infinite
    assert om == pytest.approx(1.0, abs=0.1)


def test_exponent_flags_rational():
    om, infinite = exponent_estimate(ExactMatrix([[Fraction(2, 7)]]), 100)
    assert infinite


def test_exponent_of_random_pairs():
    # two targets sharing one denominator: generic exponent 1/2
    rng = np.random.default_rng(52)
    for _ in range(5):
        x = rng.uniform(0.1, 0.9, size=(2, 1)).tolist()
        om, infinite = exponent_estimate(x, 10000)
        assert not infinite
        assert om == pytest.approx(0.5, abs=0.15)


def test_exponent_slope_matches_numpy_least_squares():
    """The fsum slope is the least-squares slope that np.polyfit gives, to
    rounding; equal norms leave no slope, and an exact zero only the flag."""
    rng = np.random.default_rng(58)
    for _ in range(50):
        qs = sorted(set(rng.integers(1, 10**6, size=int(rng.integers(2, 30))).tolist()))
        if len(qs) < 2:
            continue
        recs = [ApproxRecord(qnorm=q, q=(q,), p=(0,), residual=float(r))
                for q, r in zip(qs, rng.uniform(1e-9, 0.5, size=len(qs)))]
        xs, ys = np.log(qs), -np.log([rec.residual for rec in recs])
        slope, infinite = dioph.exponent_fit(recs)
        assert slope == pytest.approx(np.polyfit(xs, ys, 1)[0], rel=1e-9, abs=1e-12)
        assert not infinite
    same = [ApproxRecord(qnorm=3, q=(3,), p=(-1,), residual=r) for r in (0.1, 0.2)]
    assert dioph.exponent_fit(same) == (None, False)
    zero = ApproxRecord(qnorm=7, q=(7,), p=(-2,), residual=0.0, exact_zero=True)
    assert dioph.exponent_fit(same[:1] + [zero]) == (None, True)


def test_exponent_needs_range():
    with pytest.raises(InputError):
        exponent_estimate([[SQRT2M1]], 5)


def test_rational_certificates():
    assert _certificate(ExactMatrix([[Fraction(1, 2)], [Fraction(1, 3)]])) == (
        (6,),
        (-3, -2),
    )
    assert _certificate(ExactMatrix([[Fraction(2, 7)]])) == ((7,), (-2,))
    assert _certificate([[SQRT2M1]]) is None


def test_certificate_appears_in_walk():
    recs = best_approximations(ExactMatrix([[Fraction(1, 2)], [Fraction(1, 3)]]), 50)
    last = recs[-1]
    assert last.exact_zero and last.qnorm == 6
    assert last.p == (-3, -2)


# -- extended matrix ----------------------------------------------------------


def test_a_ext_frozen_column():
    ext = a_ext(ExactMatrix([[1, 2], [3, 4]]))
    assert ext.nrows == 5 and ext.ncols == 1
    assert [int(ext[i, 0].as_fraction()) for i in range(5)] == [-2, 1, -4, 3, 2]


def test_a_ext_zero_and_shapes():
    for n in (4, 6, 8):
        ext = a_ext(ExactMatrix([[0] * (n - 2), [0] * (n - 2)]))
        assert ext.nrows == 2 * n - 3
        assert ext.ncols == math.comb(n - 2, 2)
        assert all(
            ext[i, j].as_fraction() == 0 for i in range(ext.nrows) for j in range(ext.ncols)
        )


def test_a_ext_block_bilinearity():
    """X block is linear in the first row, Y in the second, and the Z row is
    bilinear; checked by splitting a random block into two summands."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        w = int(rng.integers(2, 5))
        a1, a2 = rng.integers(-5, 6, size=(2, w)), rng.integers(-5, 6, size=(2, w))
        e_sum = a_ext(ExactMatrix((a1 + a2).tolist()))
        e1, e2 = a_ext(ExactMatrix(a1.tolist())), a_ext(ExactMatrix(a2.tolist()))
        cols = e_sum.ncols
        for j in range(cols):
            for i in range(2 * w):  # X and Y rows add
                assert e_sum[i, j] == e1[i, j] + e2[i, j]
    # exact Z-row checks on a minimal case
    z = lambda m: a_ext(ExactMatrix(m))[2 * len(m[0]), 0].as_fraction()
    assert z([[1, 0], [0, 1]]) == -1  # a_j b_i - a_i b_j with i<j
    assert z([[0, 1], [1, 0]]) == 1
    assert z([[2, 0], [0, 3]]) == -6


def test_a_ext_rejects_bad_shapes():
    with pytest.raises(InputError):
        a_ext(ExactMatrix([[1, 2, 3]]))
    with pytest.raises(InputError):
        a_ext(ExactMatrix([[1], [2]]))


# -- membership probes --------------------------------------------------------


def test_probe_rational_is_certified():
    v = w_probe(ExactMatrix([[Fraction(1, 3)]]), r=2.0, qmax=1000)
    assert v.kind == CERTIFIED_MEMBER
    assert v.witnesses[0].exact_zero


def test_probe_badly_approximable_is_nonmember():
    v = w_probe([[SQRT2M1]], r=2.0, qmax=10000)
    assert v.kind == EVIDENCE_NONMEMBER


def test_probe_deep_minima_are_member_evidence():
    # finite continued fraction [0; 1, 2, 15, 4232] fed as a float: three
    # successive minima (q = 1, 3, 46) beat quality 1 at r = 3 well before
    # the final huge denominator is reachable
    x = 131194 / 194675
    v = w_probe([[x]], r=3.0, qmax=10000)
    assert v.kind == EVIDENCE_MEMBER
    assert [w.qnorm for w in v.witnesses] == [1, 3, 46]
    assert all(w.quality(3.0) < 1.0 for w in v.witnesses)


def test_probe_wprime_collapse():
    # [0; 1, 2, 3, 5, 4, 400] as a float: the q = 222 minimum collapses the
    # tail quality two orders below the head
    x = 62037 / 88853
    v = w_probe([[x]], r=1.0, qmax=10000, target="Wprime")
    assert v.kind == EVIDENCE_MEMBER
    v2 = w_probe([[SQRT2M1]], r=1.0, qmax=10000, target="Wprime")
    assert v2.kind == EVIDENCE_NONMEMBER


def test_probe_argument_validation():
    with pytest.raises(InputError):
        w_probe([[0.5]], r=2.0, qmax=100, target="V")
    with pytest.raises(InputError):
        w_probe([[0.5]], r=-1.0, qmax=100)


def test_probe_refuses_an_exponent_that_is_not_finite_or_overflows():
    # 2.0**1024 overflows a double, so a record at qnorm 2 has no quality
    with pytest.raises(InputError, match=r"r = 1024.0 is out of range for qmax = 3"):
        w_probe([[0.41]], r=1024.0, qmax=3)
    for r in (math.nan, math.inf):
        with pytest.raises(InputError, match=f"r = {r} is not a finite number"):
            w_probe([[0.41]], r=r, qmax=30)
    assert w_probe([[0.41]], r=600.0, qmax=3).r == 600.0


@pytest.mark.parametrize("a", [[[SQRT2M1]], ExactMatrix([[Fraction(1, 3)]])])
def test_w_probe_reads_its_target_once(a, monkeypatch):
    calls = []
    read = dioph._read_target
    monkeypatch.setattr(dioph, "_read_target", lambda t: calls.append(t) or read(t))
    w_probe(a, r=2.0, qmax=1000)
    assert len(calls) == 1


@pytest.mark.parametrize("form", ["vect", "lf"])
def test_probe_singular_reads_its_target_once(form, monkeypatch):
    calls = []
    read = dioph._read_target
    monkeypatch.setattr(dioph, "_read_target", lambda t: calls.append(t) or read(t))
    probe_singular((0.3, 0.7), form, (0.5, 0.1), (2.0, 3.0, 5.0))
    assert len(calls) == 1


@pytest.mark.parametrize("a", [[[0.1, 0.2], [0.3]], [[]], [], [[0.1], []]])
def test_ragged_or_empty_target_is_refused(a):
    with pytest.raises(InputError, match="target must be a matrix"):
        best_approximations(a, 5)
    with pytest.raises(InputError, match="target must be a matrix"):
        w_probe(a, r=2.0, qmax=5)


@pytest.mark.parametrize("form", ["vect", "lf"])
def test_probe_singular_refuses_an_empty_x(form):
    with pytest.raises(InputError, match="target must be a matrix"):
        probe_singular((), form, [0.5], (2.0,))


@pytest.mark.parametrize("a", [((0.1, 0.3),), np.array([[0.1, 0.3]]), ((Fraction(1, 3),),),
                               np.array([[0.25], [0.5]])])
def test_tuple_and_array_targets_are_read(a):
    assert best_approximations(a, 5) == best_approximations([list(row) for row in a], 5)


def test_probe_json_shape():
    v = w_probe([[SQRT2M1]], r=2.0, qmax=1000)
    data = v.to_json()
    assert data["kind"] == v.kind and data["target"] == "W_r"
    assert all({"qnorm", "q", "p", "residual", "quality", "exact_zero"} <= set(w) for w in data["witnesses"])


# -- Dirichlet systems --------------------------------------------------------


def test_dirichlet_at_zero():
    rep = _dirichlet((0.0,), "vect", 0.5, (2.0, 4.0))
    for row in rep.rows:
        assert row.solvable and row.q == (1,) and row.p == (0,)
    assert rep.verdict == "improvable-evidence"


def test_dirichlet_matches_naive():
    """Solvability and the witness q: for vect the smallest q, for lf the
    smallest sup norm, then lex order over +-q."""
    rng = np.random.default_rng(54)
    for form in ("vect", "lf"):
        for _ in range(20):
            n = int(rng.integers(1, 3))
            x = tuple(float(v) for v in rng.uniform(-1, 1, size=n))
            delta = float(rng.choice([1.0, 0.7, 0.4]))
            big_t = float(rng.choice([1.5, 2.0, 3.0]))
            row = _dirichlet(x, form, delta, (big_t,)).rows[0]
            if form == "vect":
                q = oracles.dirichlet_vect_naive(x, delta, big_t)
                want = None if q is None else (q,)
            else:
                want = oracles.dirichlet_lf_witness_naive(x, delta, big_t)
            assert row.solvable == (want is not None)
            assert row.q == want, (form, x, delta, big_t)


@pytest.mark.parametrize("form", ["vect", "lf"])
def test_dirichlet_row_does_not_depend_on_the_other_t(form):
    rng = np.random.default_rng(57)
    grid = (1.5, 2.0, 3.0, 5.0, 8.0, 13.0)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        x = tuple(float(v) for v in rng.uniform(-1, 1, size=n))
        delta = float(rng.choice([1.0, 0.5, 0.1]))
        rows = _dirichlet(x, form, delta, grid).rows
        for t, row in zip(grid, rows):
            alone = _dirichlet(x, form, delta, (t,)).rows[0]
            assert row == alone, (x, delta, t)


@pytest.mark.parametrize("form", ["vect", "lf"])
def test_dirichlet_walks_once_per_query(form, monkeypatch):
    calls = []
    walk = dioph._search
    monkeypatch.setattr(dioph, "_search", lambda *a, **k: calls.append(a) or walk(*a, **k))
    _dirichlet((0.3, 0.7), form, 0.5, (2.0, 3.0, 5.0, 8.0))
    assert len(calls) == 1


@pytest.mark.parametrize("form", ["vect", "lf"])
def test_probe_singular_walks_once_for_every_delta(form, monkeypatch):
    """The walk does not read delta: three deltas cost one walk, and each
    report equals the query of its delta alone."""
    x, deltas, grid = (0.3, 0.7), (0.5, 0.1, 0.01), (2.0, 3.0, 5.0, 8.0)
    alone = [_dirichlet(x, form, d, grid).to_json() for d in deltas]
    calls = []
    walk = dioph._search
    monkeypatch.setattr(dioph, "_search", lambda *a, **k: calls.append(a) or walk(*a, **k))
    reports, _ = probe_singular(x, form, deltas, grid)
    assert len(calls) == 1
    assert [rep.to_json() for rep in reports] == alone


def test_dirichlet_solution_is_valid():
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        x = np.asarray(rng.uniform(-1, 1, size=n))
        big_t = 2.5
        rep = _dirichlet(tuple(x), "vect", 0.8, (big_t,))
        row = rep.rows[0]
        if row.solvable:
            q, p = row.q[0], np.asarray(row.p)
            assert 1 <= q <= big_t**n + 1e-9
            assert float(np.max(np.abs(q * x + p))) <= 0.8 / big_t + 1e-9


def test_dirichlet_shrinks_with_delta():
    """A (x, T) pair solvable at delta' stays solvable at any delta > delta'."""
    rng = np.random.default_rng(56)
    grid = (1.5, 2.0, 3.0, 5.0)
    for _ in range(10):
        x = tuple(float(v) for v in rng.uniform(-1, 1, size=2))
        hi = _dirichlet(x, "vect", 0.8, grid)
        lo = _dirichlet(x, "vect", 0.3, grid)
        for row_hi, row_lo in zip(hi.rows, lo.rows):
            if row_lo.solvable:
                assert row_hi.solvable


def test_probe_singular_validation():
    with pytest.raises(InputError):
        probe_singular((0.5,), "vec", [0.5], (2.0,))
    with pytest.raises(InputError):
        probe_singular((0.5,), "vect", [0.0], (2.0,))
    with pytest.raises(InputError):
        probe_singular((0.5,), "vect", [0.5], (2.0, 2.0))
    with pytest.raises(InputError):
        probe_singular((0.5,), "vect", [1.5], (2.0,))
    # every delta is checked, not only the first
    with pytest.raises(InputError, match=r"delta must lie in \(0, 1\]"):
        probe_singular((0.5,), "vect", [0.5, 1.5], (2.0,))
    # no delta is no evidence, not singular evidence
    with pytest.raises(InputError, match="empty delta list"):
        probe_singular([0.41], "vect", [], [2.0, 4.0])


def test_singular_evidence_for_rational_points():
    reports, singular = probe_singular(
        (0.5, 0.25), "vect", deltas=(0.5, 0.1, 0.01), t_grid=(2.0, 3.0, 5.0)
    )
    assert singular
    assert all(rep.tail_solvable for rep in reports)


def test_generic_point_not_singular():
    reports, singular = probe_singular(
        (SQRT2M1, math.sqrt(3) - 1), "vect", deltas=(0.05,), t_grid=(2.0, 4.0, 8.0)
    )
    assert not singular


def test_lf_rows_follow_the_dani_correspondence():
    """|q . x + p| <= delta T^-n has a solution with 0 < ||q|| <= T exactly
    when g_t u(x) Z^N, N = n + 1, t = log T - (log delta) / N, has lambda_1
    <= delta^(1/N): the flow's e^(nt) and e^-t turn the two bounds into
    one. The walk and the flow kernel share no code past the target."""
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        x = [rng.random() for _ in range(rng.choice((1, 2)))]
        big_ts = sorted(rng.uniform(1.5, 21) for _ in range(4))
        deltas = (0.3, 0.6, 0.9, 1.0)
        reports, _ = probe_singular(x, "lf", deltas, big_ts)
        big_n = len(x) + 1
        form = _head_form([ExactScalar(Fraction(v)) for v in x])
        for delta, rep in zip(deltas, reports):
            for big_t, row in zip(big_ts, rep.rows):
                t = math.log(big_t) - math.log(delta) / big_n
                lam1 = _flow_stats(form, big_n, t, 1.0, DEFAULT_NODE_BUDGET,
                                   _flow_reduce(form, big_n, t))[0]
                bound = delta ** (1 / big_n)
                assert abs(lam1 - bound) > 1e-9 * bound, (x, delta, big_t)
                assert row.solvable == (lam1 <= bound), (x, delta, big_t, lam1)
                checked += 1
    assert checked == 960
