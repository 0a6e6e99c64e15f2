"""Lattice laboratory: reduction, counting, flow experiments, and the
structured examples (quadratic-field lines, wedge residuals, descent).

Callers import the submodules.  The three loaded here are on no command's
import path, but perfbench/tracing.py wraps functions of each and looks
them up in sys.modules once latflow.cli is imported."""

from . import descent, grids, symplectic  # noqa: F401
