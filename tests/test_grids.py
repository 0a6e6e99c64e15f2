"""The shared (b, c) grid fast path for n = 3 flow statistics."""

import math

import numpy as np
import pytest

import oracles
from latflow.errors import BudgetError, InputError
from latflow.lab.grids import Grid3


def test_lambda1_matches_dense_scan():
    rng = np.random.default_rng(80)
    for _ in range(12):
        t = float(rng.uniform(0.0, 2.2))
        v1, v2 = (float(x) for x in rng.uniform(-3, 3, size=2))
        grid = Grid3(t, 1.5)
        assert grid.lambda1_sup(v1, v2) == pytest.approx(
            oracles.lambda1_sup_naive_n3(t, v1, v2), abs=1e-9
        )


def test_box_count_matches_matrix_path():
    """The grid's Siegel count must equal a direct (b, c) scan of the
    flowed lattice."""
    rng = np.random.default_rng(81)
    for _ in range(10):
        t = float(rng.uniform(0.0, 1.8))
        v1, v2 = (float(x) for x in rng.uniform(-2, 2, size=2))
        radius = float(rng.choice([0.8, 1.0, 1.5]))
        grid = Grid3(t, radius)
        assert grid.box_count(v1, v2) == oracles.box_count_naive_n3(t, v1, v2, radius)


def test_counts_are_even():
    grid = Grid3(1.0, 1.5)
    rng = np.random.default_rng(82)
    for _ in range(20):
        v1, v2 = (float(x) for x in rng.uniform(-2, 2, size=2))
        assert grid.box_count(v1, v2) % 2 == 0


def test_unimodular_lambda1_bound():
    # sup-norm Minkowski: lambda_1 <= 1 for every sample and time
    rng = np.random.default_rng(83)
    for t in (0.0, 1.0, 2.5):
        grid = Grid3(t, 1.0)
        for _ in range(10):
            v1, v2 = (float(x) for x in rng.uniform(-5, 5, size=2))
            assert grid.lambda1_sup(v1, v2) <= 1.0 + 1e-12


def test_grid_validation():
    with pytest.raises(InputError):
        Grid3(-0.5, 1.0)
    with pytest.raises(InputError):
        Grid3(1.0, 0.0)
    with pytest.raises(BudgetError):
        Grid3(9.0, 1.0, budget=1000)
