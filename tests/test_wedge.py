"""Exterior-power machinery: minors matrices, wedge vectors, Pfaffians.

Reference values come from oracles.py (permutation-sum determinants and
matching-sum Pfaffians), never from the code under test.
"""


import numpy as np
import pytest

import oracles
from latflow.exact import ExactError, ExactMatrix, ExactScalar
from latflow.wedge import (
    WedgeIndex,
    pfaffian,
    wedge_matrix,
    wedge_vector,
)


def test_wedge_index_lex_order():
    idx = WedgeIndex(4, 2)
    assert idx.subsets == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert idx.rank((3, 1)) == 4  # order inside the tuple does not matter
    assert idx.unrank(5) == (2, 3)
    assert len(idx) == 6
    with pytest.raises(ExactError):
        idx.rank((0, 0))
    with pytest.raises(ExactError):
        WedgeIndex(3, 4)


def _eye(n):
    return ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_wedge_matrix_of_identity():
    for n, k in [(3, 2), (4, 2), (5, 3)]:
        assert wedge_matrix(_eye(n), k) == _eye(len(WedgeIndex(n, k)))


def test_wedge_matrix_entries_are_minors():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        m = rng.integers(-4, 5, size=(n, n)).tolist()
        got = wedge_matrix(ExactMatrix(m), k)
        want = oracles.minors_matrix(m, k)
        for i in range(got.nrows):
            for j in range(got.ncols):
                assert got[i, j].as_fraction() == want[i][j]


def test_top_wedge_is_determinant():
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = rng.integers(-5, 6, size=(n, n)).tolist()
        top = wedge_matrix(ExactMatrix(m), n)
        assert top.nrows == top.ncols == 1
        assert top[0, 0].as_fraction() == oracles.det_by_permutations(m)


def test_wedge_functoriality_random():
    # wedge(AB) = wedge(A) wedge(B), the workhorse identity
    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        a = ExactMatrix(rng.integers(-3, 4, size=(n, n)).tolist())
        b = ExactMatrix(rng.integers(-3, 4, size=(n, n)).tolist())
        assert wedge_matrix(a @ b, k) == wedge_matrix(a, k) @ wedge_matrix(b, k)


def test_wedge_vector_basics():
    # e1 ^ e2 in R^3
    w = wedge_vector([[1, 0, 0], [0, 1, 0]])
    assert [c.serialize() for c in w] == ["1", "0", "0"]
    # swapping arguments flips the sign
    w2 = wedge_vector([[0, 1, 0], [1, 0, 0]])
    assert [c.serialize() for c in w2] == ["-1", "0", "0"]
    # a repeated vector kills the product
    w3 = wedge_vector([[1, 2, 3], [1, 2, 3]])
    assert all(c == ExactScalar(0) for c in w3)


def test_wedge_vector_is_multilinear():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = 4
        u = rng.integers(-5, 6, size=n).tolist()
        v = rng.integers(-5, 6, size=n).tolist()
        x = rng.integers(-5, 6, size=n).tolist()
        c = int(rng.integers(-3, 4))
        left = wedge_vector([[a + c * b for a, b in zip(u, x)], v])
        uv = wedge_vector([u, v])
        xv = wedge_vector([x, v])
        for lft, a, b in zip(left, uv, xv):
            assert lft == a + ExactScalar(c) * b


def test_wedge_vector_matches_matrix_action():
    rng = np.random.default_rng(35)
    for _ in range(15):
        n, k = 5, 2
        g = ExactMatrix(rng.integers(-3, 4, size=(n, n)).tolist())
        vs = rng.integers(-4, 5, size=(k, n))
        gv = [[sum(int(g[i, j].as_fraction()) * int(v[j]) for j in range(n)) for i in range(n)] for v in vs]
        direct = wedge_vector(gv)
        via = wedge_matrix(g, k) @ ExactMatrix([[c] for c in wedge_vector(vs.tolist())])
        for i, c in enumerate(direct):
            assert c == via[i, 0]


def test_pfaffian_of_standard_form():
    s = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pfaffian(s).serialize() == "1"
    # flipping one block flips the sign
    s2 = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert pfaffian(s2).serialize() == "-1"


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(36)
    for _ in range(25):
        n = int(rng.choice([2, 4, 6]))
        m = rng.integers(-4, 5, size=(n, n))
        anti = (m - m.T).tolist()
        pf = pfaffian(ExactMatrix(anti))
        assert pf.as_fraction() == oracles.pfaffian_by_matchings(anti)
        assert pf.as_fraction() ** 2 == oracles.det_by_permutations(anti)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ExactError):
        pfaffian(ExactMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))  # odd size
    with pytest.raises(ExactError):
        pfaffian(ExactMatrix([[1, 0], [0, 1]]))  # not antisymmetric
