"""Numerical laboratory for diagonal flows on spaces of unimodular lattices.

Exact scalars over a single quadratic field, wedge-power functors, flow
conjugation identities, diophantine membership probes, lattice reduction and
counting, instability optimizers and small root systems, with a CLI on top.
Importing the package loads none of them: callers import the submodules.
"""

__version__ = "0.1.0"
