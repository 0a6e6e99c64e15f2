"""Vectorized per-sample statistics for the n = 3 flow.

A lattice point of g_t u(v) Z^3 looks like

    ( e^{2t} (a + v1*b + v2*c),  e^{-t} b,  e^{-t} c ),    (a, b, c) in Z^3.

For fixed t the (b, c) grid, its e^{-t} max(|b|, |c|) tail values, and the
Siegel box mask do not depend on the sample, so they are built once and
reused for every v; per sample only the fractional parts of v1*b + v2*c
are touched.

The first minimum is taken in the sup norm.  Minkowski gives lambda_1 <= 1
for every unimodular lattice in that norm, so minimizers live in
max(|b|, |c|) <= e^t.  Cells are processed in order of increasing tail:
once the running minimum drops below the tail of the next cell, no later
cell can win and the scan stops, which skips most of the grid for a
typical sample.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BudgetError, InputError

DEFAULT_CELL_BUDGET = 20_000_000
_CHUNK = 65_536


class Grid3:
    """Shared (b, c) grid for one (t, box_radius) pair."""

    def __init__(self, t: float, box_radius: float, budget: int = DEFAULT_CELL_BUDGET):
        if not box_radius > 0:
            raise InputError("box radius must be positive")
        if t < 0:
            raise InputError("the grid path expects t >= 0")
        self.t = float(t)
        self.box_radius = float(box_radius)
        self.expand = math.exp(2.0 * t)
        self.shrink = math.exp(-t)
        k_min = int(math.floor(math.exp(t) * (1.0 + 1e-12)))
        k_box = int(math.floor(box_radius * math.exp(t) * (1.0 + 1e-12)))
        k = max(k_min, k_box, 1)
        side = 2 * k + 1
        if side * side > budget:
            raise BudgetError(
                f"grid of {side}x{side} cells exceeds the budget ({budget})"
            )
        rng = np.arange(-k, k + 1, dtype=np.int64)
        bb, cc = np.meshgrid(rng, rng, indexing="ij")
        b = bb.ravel().astype(np.float64)
        c = cc.ravel().astype(np.float64)
        sup_bc = np.maximum(np.abs(b), np.abs(c))

        # lambda_1 scan arrays, sorted by the tail contribution; the origin
        # lands at position 0 (tail 0) and is patched per sample
        order = np.argsort(sup_bc, kind="stable")
        lam_keep = order[: (2 * k_min + 1) ** 2] if k > k_min else order
        self.b_lam = np.ascontiguousarray(b[lam_keep])
        self.c_lam = np.ascontiguousarray(c[lam_keep])
        self.tail_lam = np.ascontiguousarray(self.shrink * sup_bc[lam_keep])

        # Siegel box arrays: cells whose (y, z) part already fits in the box
        box_idx = np.nonzero(self.shrink * sup_bc <= box_radius + 1e-9)[0]
        self.b_box = np.ascontiguousarray(b[box_idx])
        self.c_box = np.ascontiguousarray(c[box_idx])
        self.origin_in_box = int(
            np.argmin(np.maximum(np.abs(self.b_box), np.abs(self.c_box)))
        )
        self.half_width = box_radius * math.exp(-2.0 * t)

    def lambda1_sup(self, v1: float, v2: float) -> float:
        best = self.expand  # the (b, c) = 0 column: a = +-1 gives e^{2t}
        total = self.b_lam.shape[0]
        start = 0
        while start < total:
            if self.tail_lam[start] >= best:
                break
            stop = min(start + _CHUNK, total)
            y = v1 * self.b_lam[start:stop] + v2 * self.c_lam[start:stop]
            y -= np.floor(y)
            np.minimum(y, 1.0 - y, out=y)
            y *= self.expand
            np.maximum(y, self.tail_lam[start:stop], out=y)
            if start == 0:
                y[0] = self.expand  # origin cell: no nonzero vector below |a| = 1
            m = float(y.min())
            if m < best:
                best = m
            start = stop
        return best

    def box_count(self, v1: float, v2: float) -> int:
        y = v1 * self.b_box + v2 * self.c_box
        w = self.half_width
        na = np.floor(w - y) - np.ceil(-w - y) + 1.0
        np.maximum(na, 0.0, out=na)
        # at the origin cell a = 0 is the zero vector; its slot always
        # counts 2*floor(w) + 1 points, one of which is the origin
        total = float(na.sum()) - 1.0
        return int(round(total))
