"""Lattice laboratory: reduction, counting, flow experiments, and the
structured examples (quadratic-field lines, wedge residuals, descent)."""

from .reduction import enumerate_ball, gram_schmidt
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
    "quadratic_subspace_example",
    "residual_check",
    "translate_experiment",
    "wedge_span_lattice",
]
