"""Numerical laboratory for diagonal flows on spaces of unimodular lattices.

Exact scalars over a single quadratic field, wedge-power functors, flow
conjugation identities, diophantine membership probes, lattice reduction and
counting, instability optimizers and small root systems, with a CLI on top.
"""

__version__ = "0.1.0"

from .errors import BudgetError, InputError, InvariantError
from .exact import ExactMatrix, ExactScalar
from .flows import Curve, FlowSpec, affine_span, curve_eval, load_curve
from .wedge import WedgeIndex, pfaffian, wedge_matrix, wedge_vector

__all__ = [
    "BudgetError",
    "Curve",
    "ExactMatrix",
    "ExactScalar",
    "FlowSpec",
    "InputError",
    "InvariantError",
    "WedgeIndex",
    "affine_span",
    "curve_eval",
    "load_curve",
    "pfaffian",
    "wedge_matrix",
    "wedge_vector",
]
