"""Lattice laboratory: reduction, counting, flow experiments, and the
structured examples (quadratic-field lines, wedge residuals, descent)."""

from .reduction import (
    enumerate_ball,
    gram_schmidt,
    lll_reduce,
    shortest_vector,
    siegel_count,
)
from .descent import descend_to_vector, wedge_span_lattice
from .symplectic import residual_check
from .kfield import quadratic_subspace_example
from .experiments import ExperimentReport, translate_experiment
from . import grids  # noqa: F401  (unused by the package; perfbench/tracing.py wraps Grid3)

__all__ = [
    "ExperimentReport",
    "descend_to_vector",
    "enumerate_ball",
    "gram_schmidt",
    "lll_reduce",
    "quadratic_subspace_example",
    "residual_check",
    "shortest_vector",
    "siegel_count",
    "translate_experiment",
    "wedge_span_lattice",
]
