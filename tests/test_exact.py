"""Exact scalars (rationals extended by one square root) and matrices."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from latflow.exact import MAX_RADICAND, ExactError, ExactMatrix, ExactScalar, eliminate
from latflow.wedge import wedge_matrix


def test_parse_serialize_roundtrip():
    for text in ["3/7", "-2", "1+2r2", "r5", "1/2-3/4r2", "0", "-1/3+r7"]:
        s = ExactScalar.parse(text)
        assert s.serialize() == text
        assert ExactScalar.parse(s.serialize()) == s


def test_parse_rejects_garbage():
    for bad in ["", "r", "1+", "r4x", "2.5", "one", "1/0", "1-1/0r2"]:
        with pytest.raises(ExactError):
            ExactScalar.parse(bad)


@pytest.mark.parametrize("text", ["1" * 5000, "-1/" + "7" * 5000, "r" + "1" * 5000,
                                  "1+" + "3" * 5000 + "r2"],
                         ids=["integer", "denominator", "radicand", "coefficient"])
def test_parse_names_the_digit_count_of_a_number_beyond_the_int_string_limit(text):
    with pytest.raises(ExactError, match="a number of 5000 digits exceeds") as info:
        ExactScalar.parse(text)
    assert len(str(info.value)) < 100


def test_conjugate_product_is_rational():
    s = ExactScalar(1, 1, 2)
    assert (s * ExactScalar(1, -1, 2)).serialize() == "-1"
    assert s.inverse().serialize() == "-1+r2"
    assert (s * s.inverse()).serialize() == "1"
    assert 1 / s == s.inverse() and 2 / s == 2 * s.inverse()


def test_powers_collapse_radicals():
    r2 = ExactScalar.sqrt(2)
    assert (r2**2).serialize() == "2"
    assert (r2**4).serialize() == "4"
    assert (r2**3).serialize() == "2r2"


def test_radicand_is_squarefree_and_at_most_the_bound():
    """parse, sqrt and string coerce share the constructor's one rule for D:
    r8 = 2r2 and r12 = 2r3 would give one value two forms, so they are
    refused, and so is a radicand too large to test by trial division."""
    makers = (lambda d: ExactScalar.parse(f"r{d}"), lambda d: ExactScalar.coerce(f"1+r{d}"),
              ExactScalar.sqrt, lambda d: ExactScalar(1, Fraction(1, 2), d))
    for make in makers:
        for d in (8, 4, 1, 0, 12, 18, 50, 10**6, 999999999999):
            with pytest.raises(ExactError, match=f"^D must be squarefree and >= 2, got {d}$"):
                make(d)
        for d in (MAX_RADICAND + 1, 10**29 + 1):
            with pytest.raises(ExactError, match=f"^D must be at most {MAX_RADICAND}, got {d}$"):
                make(d)
    # the largest prime radicand under the bound, and squarefree composites
    for text in ("r999999999989", "r10", "1/2-3r30", "r1000003"):
        assert ExactScalar.parse(text).serialize() == text


def test_mixed_radicals_refused():
    with pytest.raises(ExactError):
        ExactScalar.sqrt(2) + ExactScalar.sqrt(3)
    with pytest.raises(ExactError):
        ExactScalar.sqrt(2) * ExactScalar.sqrt(5)


def test_rational_plus_radical_joins():
    # a purely rational value carries no radical, so any D may absorb it
    s = ExactScalar(Fraction(1, 2)) + ExactScalar.sqrt(3)
    assert s.serialize() == "1/2+r3"
    assert s - ExactScalar.sqrt(3) == ExactScalar(Fraction(1, 2))


def test_coerce_accepts_exact_sources_only():
    assert ExactScalar.coerce(3) == ExactScalar(3)
    assert ExactScalar.coerce(Fraction(2, 5)) == ExactScalar(Fraction(2, 5))
    assert ExactScalar.coerce("1+r2") == ExactScalar(1, 1, 2)
    with pytest.raises(ExactError):
        ExactScalar.coerce(0.5)


def test_as_fraction_guards_irrational():
    assert ExactScalar(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    assert ExactScalar(Fraction(7, 3)).is_rational()
    with pytest.raises(ExactError):
        ExactScalar.sqrt(2).as_fraction()


def test_float_conversion_tracks_value():
    rng = np.random.default_rng(20)
    for _ in range(200):
        a = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))
        b = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))
        s = ExactScalar(a, b, 5)
        assert float(s) == pytest.approx(float(a) + float(b) * 5**0.5, abs=1e-12)


def test_matrix_product_matches_numpy():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n, m, k = (int(rng.integers(1, 5)) for _ in range(3))
        a = rng.integers(-9, 10, size=(n, m))
        b = rng.integers(-9, 10, size=(m, k))
        prod = ExactMatrix(a.tolist()) @ ExactMatrix(b.tolist())
        ref = a @ b
        for i in range(n):
            for j in range(k):
                assert prod[i, j].as_fraction() == ref[i, j]


def test_matrix_identity_and_transpose():
    eye = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m @ eye) == m
    assert m.transpose().nrows == 3 and m.transpose().ncols == 2
    assert m.transpose()[2, 1].as_fraction() == 6


def test_matrix_shape_mismatch():
    with pytest.raises(ExactError):
        ExactMatrix([[1, 2], [3]])
    a = ExactMatrix([[1, 2]])
    b = ExactMatrix([[1, 2]])
    with pytest.raises(ExactError):
        a @ b


# -- the elimination routine ---------------------------------------------------

SMALL_INTS = st.integers(-4, 4)
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def square_rows(draw, entries, max_size=5):
    """Square matrices of size 1..max_size; about half are made singular by
    replacing a row with a multiple (possibly zero) of another."""
    n = draw(st.integers(1, max_size))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - 1))
        c = draw(RATIONALS)
        if n == 1 or i == k:
            rows[k] = [0 * x for x in rows[k]]
        else:
            rows[k] = [c * x for x in rows[i]]
    return rows


@given(square_rows(st.one_of(SMALL_INTS, RATIONALS)))
def test_det_matches_permutation_sum(rows):
    want = oracles.det_by_permutations(rows)
    got = ExactMatrix(rows).det()
    assert isinstance(got, ExactScalar)
    assert got == want
    fr = [[Fraction(x) for x in row] for row in rows]
    pivots, det = eliminate(fr)
    assert type(det) is Fraction and det == want
    assert (len(pivots) == len(rows)) == (want != 0)


def _quadratic(D):
    return st.builds(lambda a, b: ExactScalar(a, b, D), RATIONALS, RATIONALS)


@st.composite
def quadratic_rows(draw):
    D = draw(st.sampled_from([2, 3, 5, 6, 7]))
    return draw(square_rows(st.one_of(SMALL_INTS, _quadratic(D)), max_size=4))


@given(quadratic_rows())
def test_inverse_over_quadratic_fields(rows):
    m = ExactMatrix(rows)
    eye = ExactMatrix([[int(i == j) for j in range(m.nrows)] for i in range(m.nrows)])
    if m.det():
        inv = m.inverse()
        assert m @ inv == eye
        assert inv @ m == eye
        assert m.det() * inv.det() == 1
    else:
        with pytest.raises(ExactError, match="matrix is singular"):
            m.inverse()


def test_inverse_of_singular_matrix_raises():
    r2 = ExactScalar.sqrt(2)
    m = ExactMatrix([[1, r2, 3], [r2, 2, 3 * r2], [0, 1, 1 + r2]])
    assert m.det() == 0
    with pytest.raises(ExactError, match="matrix is singular"):
        m.inverse()


def test_pow_multiplies_once_per_bit_and_square(monkeypatch):
    calls = []
    mul = ExactScalar.__mul__
    monkeypatch.setattr(ExactScalar, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    x = ExactScalar(1, 1, 2)
    for e in range(17):
        calls.clear()
        x**e
        # squarings up to the top bit, one product per further set bit
        assert len(calls) == max(e.bit_length() - 1 + bin(e).count("1") - 1, 0)


@given(st.one_of(RATIONALS.map(ExactScalar), _quadratic(2), _quadratic(5)),
       st.integers(-4, 8))
def test_pow_matches_repeated_multiplication(x, e):
    assert x**0 == 1
    if e < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x**e
        return
    want = ExactScalar(1)
    for _ in range(abs(e)):
        want = want * x
    assert x**e == (want if e >= 0 else want.inverse())


def _leading_ranks(rows):
    a = np.array(rows, dtype=float)
    return [int(np.linalg.matrix_rank(a[:, :j])) if j else 0
            for j in range(a.shape[1] + 1)]


@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4), st.data())
def test_rref_pivots_on_rectangular_and_rank_deficient_input(nrows, ncols, k, data):
    # a product of nrows x k and k x ncols integer matrices has rank <= k
    left = data.draw(st.lists(st.lists(SMALL_INTS, min_size=k, max_size=k),
                              min_size=nrows, max_size=nrows))
    right = data.draw(st.lists(st.lists(SMALL_INTS, min_size=ncols, max_size=ncols),
                               min_size=k, max_size=k))
    rows = [[sum(x * y for x, y in zip(lrow, col)) for col in zip(*right)]
            for lrow in left]
    red, pivots = ExactMatrix(rows).rref()
    ranks = _leading_ranks(rows)
    assert pivots == [j for j in range(ncols) if ranks[j + 1] > ranks[j]]
    for i, row in enumerate(red.rows):
        if i >= len(pivots):
            assert not any(row)
            continue
        assert not any(row[:pivots[i]]) and row[pivots[i]] == 1
        assert all(red[r, pivots[i]] == (r == i) for r in range(nrows))
    # every input row is the combination of the reduced rows given by its
    # entries in the pivot columns
    for row in rows:
        combo = [sum((row[p] * red[i, j] for i, p in enumerate(pivots)), ExactScalar(0))
                 for j in range(ncols)]
        assert combo == [ExactScalar(x) for x in row]


def test_rref_fixed_example():
    red, pivots = ExactMatrix([[0, 0, 1, 2], [0, 0, 2, 4], [0, 3, 0, 1]]).rref()
    assert pivots == [1, 2]
    assert red == ExactMatrix([[0, 1, 0, Fraction(1, 3)], [0, 0, 1, 2], [0, 0, 0, 0]])


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_fraction_rows_stay_fractions(nrows, ncols, data):
    rows = data.draw(st.lists(st.lists(RATIONALS, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    work = [row[:] for row in rows]
    pivots, det = eliminate(work, reduced=True)
    assert all(type(x) is Fraction for row in work for x in row)
    assert (det is None) == (nrows != ncols)
    if det is not None:
        assert type(det) is Fraction
    exact_red, exact_pivots = ExactMatrix(rows).rref()
    assert pivots == exact_pivots
    assert exact_red == ExactMatrix(work)



# -- field properties ----------------------------------------------------------

WIDE_RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def _field_elements(D):
    """Elements of Q (D None) or Q(sqrt D), from small and wide rationals."""
    parts = st.one_of(RATIONALS, WIDE_RATIONALS)
    if D is None:
        return parts.map(ExactScalar)
    return st.builds(lambda a, b: ExactScalar(a, b, D), parts, parts)


@st.composite
def field_triples(draw):
    D = draw(st.sampled_from([None, 2, 5]))
    elements = _field_elements(D)
    return draw(elements), draw(elements), draw(elements)


@given(field_triples())
def test_field_axioms(triple):
    x, y, z = triple
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == 0 and x + 0 == x and x * 1 == x and -(-x) == x
    assert (x - y) + y == x
    if x:
        assert x * x.inverse() == 1
        assert (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@st.composite
def near_cancelling(draw):
    """a + b sqrt(D) with a within 1/q of -b sqrt(D): the two parts cancel
    to about 1/q."""
    D = draw(st.sampled_from([2, 3, 5, 7, 1000003]))
    b = draw(st.integers(-10**6, 10**6).filter(bool))
    q = draw(st.integers(1, 10**6))
    root = math.isqrt(b * b * D * q * q) + draw(st.integers(-1, 1))
    return ExactScalar(Fraction(-root if b > 0 else root, q), b, D)


@given(st.one_of(_field_elements(None), _field_elements(2), _field_elements(5),
                 near_cancelling()))
def test_parse_serialize_roundtrip_on_drawn_scalars(s):
    text = s.serialize()
    back = ExactScalar.parse(text)
    assert back == s and back.serialize() == text
    assert (back.a, back.b, back.D) == (s.a, s.b, s.D)


@given(_field_elements(2).filter(lambda s: not s.is_rational()),
       _field_elements(5).filter(lambda s: not s.is_rational()))
def test_mixing_r2_with_r5_raises(x, y):
    for op in (lambda u, v: u + v, lambda u, v: u - v,
               lambda u, v: u * v, lambda u, v: u / v):
        with pytest.raises(ExactError):
            op(x, y)
        with pytest.raises(ExactError):
            op(y, x)


@given(st.one_of(st.integers(-10**30, 10**30), WIDE_RATIONALS))
def test_rationals_hash_like_their_fraction(v):
    s = ExactScalar(v)
    assert s == v and hash(s) == hash(v) == hash(Fraction(v))
    assert len({s, v}) == 1
    # a radical tag on a zero radical part changes nothing
    assert hash(ExactScalar(v, 0, 2)) == hash(v)


@pytest.mark.parametrize("text", ["2", "1/3", "1+r2", "r5"])
def test_a_string_is_not_equal_to_the_scalar_it_parses_to(text):
    # equal objects must hash alike, and a string hashes as a string
    s = ExactScalar.parse(text)
    assert s != text and not s == text and text != s
    assert len({s, text}) == 2
    assert s == ExactScalar.parse(text) and hash(s) == hash(ExactScalar.parse(text))
    # nor is a string ordered against it, from either side
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            order(s, text)
        with pytest.raises(TypeError):
            order(text, s)


def test_exact_layer_builds_no_fractions(monkeypatch):
    """wedge_matrix of an integer matrix and an inverse over Q(sqrt 2) run on
    integers alone: no Fraction is constructed on the way."""
    rng = np.random.default_rng(41)
    ints = rng.integers(-5, 6, size=(5, 5)).tolist()
    m = ExactMatrix(ints)
    r2 = ExactScalar.sqrt(2)
    q = ExactMatrix([[1, r2, 3], [r2, 2, -r2], [Fraction(1, 3), 1, 1 + r2]])
    eye = ExactMatrix([[int(i == j) for j in range(3)] for i in range(3)])
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)))
    wedges = [wedge_matrix(m, k) for k in (2, 3)]
    inv = q.inverse()
    monkeypatch.undo()
    assert built == []
    assert inv @ q == eye
    for w, k in zip(wedges, (2, 3)):
        want = oracles.minors_matrix(ints, k)
        assert all(w[i, j] == want[i][j] for i in range(w.nrows) for j in range(w.ncols))
