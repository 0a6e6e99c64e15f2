"""Translate a curve along the diagonal flow and record lattice statistics.

For each sampled parameter s and each time t the lattice g_t u(phi(s)) Z^n
is built and three numbers are recorded: the sup-norm first minimum, the
count of nonzero lattice points in the sup ball of the box radius, and the
flag lambda_1 < eps.  Every n and t goes through the same kernel: LLL
reduction plus one enumeration per (sample, t), which yields both the first
minimum and the box count, with the expanding coordinate recomputed per
candidate from scaled integers, so that the huge e^{(n-1)t} scale never
meets float cancellation.

Each sample is reduced along one fixed chain of integer times: Z_1 is
reduced from the identity and Z_k from Z_{k-1}.  A time t > 1 is reduced
from Z_{ceil(t)-1} (an integer t is Z_t itself) and t < 1 from the
identity, so every reduction starts from a nearly reduced basis, and a row
depends on (sample, t) alone, never on the other times in the grid.  The
candidates of the enumeration are scored in the reduced basis, from the
head numerators c . z_i and the integer tail rows of the basis z, which are
computed once per basis.

Sampling is reproducible across platforms: one Philox substream per sample
index, seeded as (seed, index), so reports are bit-identical for a fixed
config and seed regardless of evaluation order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetError, InputError
from ..exact import ExactScalar
from ..flows import Curve, FlowSpec, curve_eval
from . import reduction

_SQRT_BITS = 80

# (z, b) of reduction.reduce_embedded: integer coordinates and float columns
Reduced = Tuple[List[List[int]], reduction.Columns]


def _head_form(phi: Sequence[ExactScalar]) -> Tuple[List[int], int]:
    """Integers (c, q) with head(z) = (c . z) / q for z in Z^n.

    head(z) = z_0 + sum_j phi_j z_{j+1} is the coordinate that g_t expands.
    Every phi_j = (x_j + y_j sqrt(D_j)) / den_j goes over the common
    denominator L of all phi_j (the lcm of the denominators of their rational
    and radical parts), and sqrt(D_j) becomes isqrt(D_j << 2*_SQRT_BITS) over
    2^_SQRT_BITS (accurate to 2^-80), so q = L * 2^_SQRT_BITS before the
    common factor is cancelled.  int / int is correctly rounded, so each
    float head is the nearest double to the rational (c . z) / q, as
    float(Fraction) of the same value would be.
    """
    scale = 1 << _SQRT_BITS
    den = math.lcm(*(p.den for p in phi))
    coeffs = [den * scale]
    for p in phi:
        root = math.isqrt(p.D << (2 * _SQRT_BITS)) if p.y else 0
        coeffs.append((p.x * scale + p.y * root) * (den // p.den))
    g = math.gcd(den * scale, *coeffs)
    return [c // g for c in coeffs], den * scale // g


def _head_value(form: Tuple[Sequence[int], int], z: Sequence[int]) -> float:
    """head(z) for form = _head_form(phi): one integer sum, one division."""
    coeffs, q = form
    return sum(c * zz for c, zz in zip(coeffs, z)) / q


def sample_ball(curve: Curve, samples: int, seed: int) -> List[Tuple[float, ...]]:
    """Deterministic uniform samples from the curve's parameter ball."""
    pts = []
    k = curve.k
    for idx in range(samples):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, idx])))
        while True:
            x = [2.0 * v - 1.0 for v in rng.random(k).tolist()]
            if sum(v * v for v in x) <= 1.0:
                break
        pts.append(tuple(curve.center[i] + curve.radius * x[i] for i in range(k)))
    return pts


@functools.cache
def _g_exponents(n: int) -> Tuple[float, float]:
    """The head and tail exponents of g_t = FlowSpec("g", n), (n-1, -1),
    built once per n: _flow_scales runs for every (sample, t) and chain step."""
    head, tail = FlowSpec("g", n).exponents()[:2]
    return float(head), float(tail)


def _flow_scales(n: int, t: float) -> Tuple[float, float]:
    """(e^{(n-1)t}, e^{-t}), the scales of g_t on the head and the tail
    coordinates; InputError unless they and their squares (the reduction's
    squared norms) are finite and nonzero."""
    head, tail = _g_exponents(n)
    try:
        scales = (math.exp(head * t), math.exp(tail * t))
    except OverflowError:
        scales = (math.inf, math.inf)
    if not all(math.isfinite(s * s) and s * s > 0 for s in scales):
        raise InputError(f"t = {t!r} is out of range for n = {n}: e^((n-1)t) "
                         "or e^(-t) or its square is not a finite nonzero double")
    return scales


def _flow_reduce(
    form: Tuple[Sequence[int], int],
    n: int,
    t: float,
    start: Optional[List[List[int]]] = None,
) -> Reduced:
    """g_t u(phi) Z^n LLL-reduced from the unimodular transform start (the
    identity if None), as (z, b) from reduction.reduce_embedded; each column
    is embedded from its integer coordinates with the head evaluated from
    form = _head_form(phi)."""
    e_head, e_tail = _flow_scales(n, t)

    def embed(z: List[int]) -> List[float]:
        v = [e_head * _head_value(form, z)]
        v.extend(e_tail * float(zz) for zz in z[1:])
        return v

    return reduction.reduce_embedded(embed, n, start)


def _chained_reduction(
    form: Tuple[Sequence[int], int],
    n: int,
    t: float,
    chain: List[Reduced],
) -> Reduced:
    """_flow_reduce at t on the sample's chain of integer times (see the
    module docstring); chain[k - 1] holds Z_k and is extended as far as t
    needs."""
    if t < 1:
        return _flow_reduce(form, n, t)
    k = math.ceil(t)
    while len(chain) < (k if t == k else k - 1):
        chain.append(_flow_reduce(form, n, float(len(chain) + 1),
                                  chain[-1][0] if chain else None))
    if t == k:
        return chain[k - 1]
    return _flow_reduce(form, n, t, chain[k - 2][0])


def _flow_stats(
    form: Tuple[Sequence[int], int],
    n: int,
    t: float,
    box_radius: float,
    budget: int,
    reduced: Reduced,
) -> Tuple[float, int]:
    """(sup-norm first minimum, box count) of g_t u(phi) Z^n from one
    enumeration of its reduced basis reduced = (z, b), from _flow_reduce.

    The head of a candidate zc is H . zc over q with H_i = c . z_i: the
    same correctly rounded int / q as the head of its coordinates
    sum_i zc_i z_i, so every value is bit-identical to scoring those.
    """
    e_head, e_tail = _flow_scales(n, t)
    z, b = reduced
    coeffs, q = form
    heads = [sum(map(mul, coeffs, col)) for col in z]
    tails = list(zip(*z))[1:]

    def sup_of(zc: List[int]) -> float:
        tail = max(map(abs, [sum(map(mul, row, zc)) for row in tails]), default=0)
        return max(abs(e_head * (sum(map(mul, heads, zc)) / q)), e_tail * tail)

    return reduction.sup_first_minimum(b, sup_of, box_radius, budget)


@dataclass(frozen=True)
class ExperimentRow:
    sample_index: int
    s: Tuple[float, ...]
    t: float
    lambda1: float
    siegel_count: int
    below_eps: bool


def compute_aggregates(
    rows: Sequence[ExperimentRow],
    n: int,
    box_radius: float,
    t_grid: Sequence[float],
) -> List[dict]:
    """Per-t summary block; recomputable from the rows alone."""
    haar = (2.0 * box_radius) ** n
    out = []
    for t in t_grid:
        sub = [r for r in rows if r.t == t]
        if not sub:
            raise InputError(f"no rows at t={t}")
        mean = sum(r.siegel_count for r in sub) / len(sub)
        out.append(
            {
                "t": t,
                "mean_siegel": mean,
                "haar_ref": haar,
                "rel_dev": abs(mean - haar) / haar,
                "frac_below_eps": sum(1 for r in sub if r.below_eps) / len(sub),
                "min_lambda1": min(r.lambda1 for r in sub),
                "max_lambda1": max(r.lambda1 for r in sub),
            }
        )
    return out


@dataclass
class ExperimentReport:
    n: int
    t_grid: List[float]
    samples: int
    eps: float
    box_radius: float
    seed: int
    rows: List[ExperimentRow]
    aggregates: List[dict]

    def csv_text(self) -> str:
        lines = ["sample_index,s,t,lambda1,siegel_count,below_eps"]
        for r in self.rows:
            s = ";".join(repr(x) for x in r.s)
            lines.append(
                f"{r.sample_index},{s},{r.t!r},{r.lambda1!r},{r.siegel_count},{int(r.below_eps)}"
            )
        return "\n".join(lines) + "\n"

    def aggregates_payload(self) -> dict:
        return {
            "config": {
                "n": self.n,
                "t_grid": self.t_grid,
                "samples": self.samples,
                "eps": self.eps,
                "radius": self.box_radius,
                "seed": self.seed,
            },
            "aggregates": self.aggregates,
        }

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self.csv_text())

    def write_aggregates(self, path: str) -> None:
        text = json.dumps(self.aggregates_payload(), indent=2, sort_keys=True)
        atomic_write_text(path, text + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written artifact."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle = tempfile.NamedTemporaryFile(
        mode="w", dir=directory, prefix=".partial-", delete=False
    )
    try:
        with handle as fh:
            fh.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def translate_experiment(
    curve: Curve,
    t_grid: Sequence[float],
    samples: int,
    eps: float,
    box_radius: float,
    seed: Optional[int],
    node_budget: int = reduction.DEFAULT_NODE_BUDGET,
) -> ExperimentReport:
    """Row per (sample, t) in sample-major order, plus per-t aggregates."""
    if not isinstance(curve, Curve):
        raise InputError("curve must be a Curve")
    if samples < 1:
        raise InputError("need at least one sample")
    if not 0 < eps < math.inf:
        raise InputError(f"eps must be positive and finite, got {eps!r}")
    if not 0 < box_radius < math.inf:
        raise InputError(f"box radius must be positive and finite, got {box_radius!r}")
    n = curve.n
    # the Haar value (2R)^n and the squared enumeration radius n R^2
    try:
        in_range = (0 < (2.0 * box_radius) ** n < math.inf
                    and 0 < n * box_radius * box_radius < math.inf)
    except OverflowError:
        in_range = False
    if not in_range:
        raise InputError(f"box radius R = {box_radius!r} is out of range for n = {n}: "
                         "(2R)^n and n R^2 must be finite nonzero doubles")
    if seed is None:
        raise InputError("a seed is required for sampling")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    t_list = [float(t) for t in t_grid]
    if not t_list:
        raise InputError("empty t grid")
    if len(set(t_list)) != len(t_list):
        raise InputError(f"repeated t in the grid: {t_list}")
    for t in t_list:
        _flow_scales(n, t)

    pts = sample_ball(curve, samples, int(seed))
    rows: List[ExperimentRow] = []
    for idx, pt in enumerate(pts):
        form = _head_form(curve_eval(curve, [Fraction(x) for x in pt]))
        chain: List[Reduced] = []
        for t in t_list:
            try:
                lam1, count = _flow_stats(form, n, t, box_radius, node_budget,
                                          _chained_reduction(form, n, t, chain))
            except BudgetError as exc:
                raise BudgetError(f"sample {idx}, t = {t!r}: {exc}") from exc
            rows.append(
                ExperimentRow(
                    sample_index=idx,
                    s=pt,
                    t=t,
                    lambda1=lam1,
                    siegel_count=count,
                    below_eps=lam1 < eps,
                )
            )
    aggregates = compute_aggregates(rows, n, box_radius, t_list)
    return ExperimentReport(
        n=n,
        t_grid=t_list,
        samples=samples,
        eps=eps,
        box_radius=box_radius,
        seed=int(seed),
        rows=rows,
        aggregates=aggregates,
    )
