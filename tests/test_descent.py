"""Descending a decomposable integer multivector to a short lattice vector."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from latflow.errors import InputError
from latflow.lab.descent import (
    _gram_det,
    descend_to_vector,
    integer_kernel,
    wedge_span_lattice,
    wedge_with_matrix,
)
from latflow.wedge import wedge_vector


def _int_wedge(vectors):
    return [int(c.as_fraction()) for c in wedge_vector(vectors)]


def test_plane_e1_e2():
    w = _int_wedge([[1, 0, 0, 0], [0, 1, 0, 0]])
    v = descend_to_vector(w, 4, 2)
    assert list(v) == [1, 0, 0, 0]


def test_scaling_one_leg_keeps_the_plane():
    # e1 ^ (e1 + 5 e2) = 5 e1 ^ e2: same plane, bigger covolume
    w = _int_wedge([[1, 0, 0, 0], [1, 5, 0, 0]])
    assert w[0] == 5
    v = descend_to_vector(w, 4, 2)
    assert list(v) == [1, 0, 0, 0]
    assert sum(x * x for x in v) <= 2 * math.sqrt(5) + 1e-9  # sqrt(k)^2 covol^{2/k}, k=2


def test_content_does_not_change_the_lattice():
    w = _int_wedge([[2, 0, 0, 0], [0, 3, 0, 0]])  # 6 e1 ^ e2
    v = descend_to_vector(w, 4, 2)
    assert list(v) == [1, 0, 0, 0]


def test_kernel_matrix_annihilates_the_plane():
    rng = np.random.default_rng(90)
    for _ in range(20):
        n, k = int(rng.integers(4, 6)), int(rng.integers(2, 4))
        vs = rng.integers(-4, 5, size=(k, n))
        w = _int_wedge(vs.tolist())
        if not any(w):
            continue
        m = np.array(wedge_with_matrix(w, n, k))
        for v in vs:
            assert not np.any(m @ v)  # w ^ v = 0 for v in the span


def test_span_lattice_covolume_formula():
    """Gram determinant of the saturated span equals |w|^2 / content^2."""
    rng = np.random.default_rng(91)
    kept = 0
    for _ in range(40):
        n, k = int(rng.integers(4, 6)), int(rng.integers(2, 4))
        vs = rng.integers(-5, 6, size=(k, n))
        w = _int_wedge(vs.tolist())
        if not any(w):
            continue
        basis = wedge_span_lattice(w, n, k)
        norm2, content = oracles.wedge_norm_content(w)
        assert _gram_det(basis) * content * content == norm2
        kept += 1
    assert kept > 25


@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_gram_det_matches_permutation_sum(k, n, data):
    basis = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                               min_size=k, max_size=k))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    assert _gram_det(basis) == oracles.det_by_permutations(gram)


def test_minkowski_in_exact_integers():
    rng = np.random.default_rng(92)
    kept = 0
    for _ in range(60):
        n = int(rng.integers(4, 6))
        k = int(rng.integers(2, 4))
        vs = rng.integers(-6, 7, size=(k, n))
        w = _int_wedge(vs.tolist())
        if not any(w):
            continue
        v = descend_to_vector(w, n, k)
        norm2, content = oracles.wedge_norm_content(w)
        vv = int(sum(int(x) * int(x) for x in v))
        assert vv**k * content**2 <= k**k * norm2
        kept += 1
    assert kept > 40


def test_integer_kernel_is_a_kernel_basis():
    rows = [[1, 2, 3], [0, 0, 6]]
    kern = integer_kernel(rows)
    assert len(kern) == 1
    x = kern[0]
    assert [sum(r * c for r, c in zip(row, x)) for row in rows] == [0, 0]
    assert math.gcd(*map(abs, x)) == 1  # primitive generator
    assert sorted(map(abs, x)) == [0, 1, 2]  # +-(2, -1, 0)


def test_non_decomposable_rejected():
    # e1^e2 + e3^e4 is the standard non-decomposable example in R^4
    w = [1, 0, 0, 0, 0, 1]
    with pytest.raises(InputError):
        wedge_span_lattice(w, 4, 2)
    with pytest.raises(InputError):
        descend_to_vector(w, 4, 2)


def test_input_validation():
    with pytest.raises(InputError):
        descend_to_vector([0, 0, 0, 0, 0, 0], 4, 2)
    with pytest.raises(InputError):
        descend_to_vector([1, 0, 0], 4, 2)  # wrong length
    with pytest.raises(InputError):
        descend_to_vector([Fraction(1, 2)] * 6, 4, 2)  # not integral
    with pytest.raises(InputError):
        wedge_span_lattice([1, 0, 0], 3, 5)


def test_full_degree_is_the_whole_lattice():
    basis = wedge_span_lattice([7], 3, 3)
    assert sorted(basis) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
