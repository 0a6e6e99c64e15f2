"""n = 3 flow statistics under the names perfbench/tracing.py wraps.

Grid3 reads lambda_1 and the box count of g_t u(v) Z^3 off the one flow
kernel of lab.experiments, as `sim translate` does.  No command calls it;
it stays because the tracer wraps Grid3.__init__, lambda1_sup and box_count
by name, and ROADMAP item 1 deletes it with the benchmark refresh.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..errors import BudgetError, InputError
from ..exact import ExactScalar
from .experiments import _flow_reduce, _flow_stats, _head_form
from .reduction import DEFAULT_NODE_BUDGET

DEFAULT_CELL_BUDGET = 20_000_000


class Grid3:
    """Flow statistics at one (t, box_radius) pair, for v = (v1, v2) given
    as floats or Fractions and taken exactly.  Every minimizer and box point
    has max(|b|, |c|) <= k = floor(max(1, R) e^t) in its tail (b, c), and
    the constructor raises BudgetError when that square of (2k+1)^2 cells
    exceeds budget."""

    def __init__(self, t: float, box_radius: float, budget: int = DEFAULT_CELL_BUDGET):
        if not box_radius > 0:
            raise InputError("box radius must be positive")
        if t < 0:
            raise InputError("the grid path expects t >= 0")
        self.t = float(t)
        self.box_radius = float(box_radius)
        k = max(1, math.floor(max(1.0, box_radius) * math.exp(t) * (1.0 + 1e-12)))
        side = 2 * k + 1
        if side * side > budget:
            raise BudgetError(f"grid of {side}x{side} cells exceeds the budget ({budget})")

    def _stats(self, v1: float, v2: float) -> Tuple[float, int]:
        form = _head_form([ExactScalar(v1), ExactScalar(v2)])
        basis = _flow_reduce(form, 3, self.t)
        return _flow_stats(form, 3, self.t, self.box_radius, DEFAULT_NODE_BUDGET, basis)

    def lambda1_sup(self, v1: float, v2: float) -> float:
        return self._stats(v1, v2)[0]

    def box_count(self, v1: float, v2: float) -> int:
        return self._stats(v1, v2)[1]
