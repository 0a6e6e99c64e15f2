"""Translate a curve along the diagonal flow and record lattice statistics.

For each sampled parameter s and each time t the lattice g_t u(phi(s)) Z^n
is built and three numbers are recorded: the sup-norm first minimum, the
count of nonzero lattice points in the sup ball of the box radius, and the
flag lambda_1 < eps.  Every n and t goes through the same kernel: LLL
reduction plus one enumeration per (sample, t), which yields both the first
minimum and the box count, with the expanding coordinate recomputed per
candidate from scaled integers, so that the huge e^{(n-1)t} scale never
meets float cancellation.

Each sample reduces only at the positive times of its grid, in increasing
order, each from the basis reduced at the time before it (the first from
the identity, the basis at t = 0).  A step of Delta multiplies the ratio of
the head and tail scales by e^{n Delta}, so a gap with n Delta > 18 (e^18 <
2^26, the float-LLL bound of Schnorr and Euchner) is crossed in
ceil(n Delta / 18) equal steps whose reductions are not scored; every
reduction thus starts from a nearly reduced basis.  Times t <= 0 are
reduced from the identity.  lambda_1 and the box count are lattice
invariants, so a row depends on (sample, t) alone, never on the other
times in the grid; its basis, and so the enumeration's node count, follows
the grid.  The candidates of the enumeration are scored in the reduced
basis, from the head numerators c . z_i and the integer tail rows of the
basis z, which are computed once per basis; a long run of the last level
of the enumeration is scored at once and exactly (_flow_scorers), so a
lattice deep in the cusp costs a few evaluations per run, not one per box
point.

Sampling is reproducible across platforms: one Philox substream per sample
index, seeded as (seed, index), so reports are bit-identical for a fixed
config and seed regardless of evaluation order.  The stream is a pure-Python
Philox4x64-10 behind numpy's SeedSequence, bit-identical to numpy's
Generator(Philox(SeedSequence([seed, index]))).random(), so sampling needs
no numpy.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import BudgetError, InputError, InvariantError
from ..exact import ExactScalar
from ..flows import Curve, curve_eval
from . import reduction

_SQRT_BITS = 80

# (z, b, gs) of reduction.reduce_embedded: integer coordinates, float columns
# and their Gram-Schmidt rows
Reduced = Tuple[List[List[int]], reduction.Columns, reduction.GramSchmidt]


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

    u(phi) Z^n depends on phi mod Z^(n-1) alone, so c_1..c_(n-1) are folded
    into [0, q): each phi_j is taken in [0, 1), however large phi is.
    """
    scale = 1 << _SQRT_BITS
    den = math.lcm(*(p.den for p in phi))
    coeffs = [den * scale]
    for p in phi:
        root = math.isqrt(p.D << (2 * _SQRT_BITS)) if p.y else 0
        coeffs.append((p.x * scale + p.y * root) * (den // p.den))
    g = math.gcd(den * scale, *coeffs)
    q = den * scale // g
    return [q] + [c // g % q for c in coeffs[1:]], q


def _head_value(form: Tuple[Sequence[int], int], z: Sequence[int]) -> float:
    """head(z) for form = _head_form(phi): one integer sum, one division."""
    coeffs, q = form
    return sum(c * zz for c, zz in zip(coeffs, z)) / q


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """numpy SeedSequence's 32-bit hashmix, its running constant starting at
    const: XOR the value with the constant, multiply the constant by mult
    and the value by the new constant, then fold the high half down."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _seed_key(entropy: Sequence[int]) -> Tuple[int, int]:
    """The Philox key of numpy's SeedSequence(entropy).generate_state(2,
    uint64) for non-negative ints: each int as its little-endian 32-bit
    words, hashed into a pool of four words, then hashed out."""
    words = [n >> s & _M32 for n in entropy for s in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _philox_doubles(seed: int, index: int) -> Iterator[float]:
    """The doubles of numpy's Generator(Philox(SeedSequence([seed, index]))),
    bit for bit: Philox4x64-10 (Salmon et al., SC 2011) on a counter
    incremented before each block of four words, each word w read as
    (w >> 11) 2^-53."""
    k0, k1 = _seed_key([seed, index])
    ctr = 0
    while True:
        ctr += 1
        c0, c1, c2, c3 = (ctr >> s & _M64 for s in (0, 64, 128, 192))
        key0, key1 = k0, k1
        for r in range(10):
            if r:  # the key is bumped by the Weyl constants before rounds 2 to 10
                key0 = key0 + 0x9E3779B97F4A7C15 & _M64
                key1 = key1 + 0xBB67AE8584CAA73B & _M64
            p0 = 0xD2E7470EE14C6C93 * c0
            p1 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ key0, p1 & _M64, p0 >> 64 ^ c3 ^ key1, p0 & _M64
        for w in (c0, c1, c2, c3):
            yield (w >> 11) * 2.0 ** -53


# the least share of the cube [-1, 1]^k that the unit ball must hold, so that
# a sample takes about 1000 draws at most: k <= 10
_MIN_BALL_SHARE = 1e-3


def sample_ball(curve: Curve, samples: int, seed: int) -> List[Tuple[float, ...]]:
    """Deterministic uniform samples from the curve's parameter ball: sample
    idx is the first point of the stream _philox_doubles(seed, idx) inside
    the unit ball, mapped coordinate-wise by 2u - 1. A curve whose ball holds
    less than _MIN_BALL_SHARE of the cube is refused before the first draw."""
    k = curve.k
    share = math.exp(k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1) - k * math.log(2))
    if share < _MIN_BALL_SHARE:
        raise InputError(f"a curve with k = {k} parameters is refused: the unit ball "
                         f"holds {share:.2g} of the cube [-1, 1]^{k} that samples are "
                         f"drawn from, below {_MIN_BALL_SHARE:g} (k <= 10)")
    pts = []
    for idx in range(samples):
        draws = _philox_doubles(seed, idx)
        while True:
            x = [2.0 * next(draws) - 1.0 for _ in range(k)]
            if sum(v * v for v in x) <= 1.0:
                break
        pts.append(tuple(curve.center[i] + curve.radius * x[i] for i in range(k)))
    return pts


def _flow_scales(n: int, t: float) -> Tuple[float, float]:
    """(e^{(n-1)t}, e^{-t}), the scales of g_t = diag(e^{(n-1)t}, e^{-t},
    ..., e^{-t}) on the head and the tail coordinates; InputError unless
    they and their squares (the reduction's squared norms) are finite and
    nonzero."""
    try:
        scales = (math.exp((n - 1) * t), math.exp(-t))
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
    identity if None), as (z, b, gs) from reduction.reduce_embedded; each column
    is embedded from its integer coordinates with the head evaluated from
    form = _head_form(phi)."""
    e_head, e_tail = _flow_scales(n, t)

    def embed(z: List[int]) -> List[float]:
        v = [e_head * _head_value(form, z)]
        v.extend(e_tail * float(zz) for zz in z[1:])
        return v

    return reduction.reduce_embedded(embed, n, start)


# the largest n Delta of one step of the schedule (see the module docstring)
_MAX_STEP = 18


def _scheduled_reductions(
    form: Tuple[Sequence[int], int],
    n: int,
    t_list: Sequence[float],
) -> Dict[float, Tuple[Reduced, float]]:
    """_flow_reduce at every t of t_list on the sample's schedule (see the
    module docstring), as t -> (reduced basis, the time its start was
    reduced at; 0.0 for the identity)."""
    out = {t: (_flow_reduce(form, n, t), 0.0) for t in t_list if t <= 0}
    prev, start = 0.0, None
    for t in sorted(t for t in t_list if t > 0):
        steps = math.ceil(n * (t - prev) / _MAX_STEP)
        for at in [prev + (t - prev) * i / steps for i in range(1, steps)] + [t]:
            from_t, basis = prev, _flow_reduce(form, n, at, start)
            prev, start = at, basis[0]
        out[t] = (basis, from_t)
    return out


def _last_within(scale: float, q: int, limit: float) -> int:
    """The largest integer m >= 0 with scale * (m / q) <= limit, for positive
    scale and limit.  m / q is correctly rounded, so the m that pass are
    those whose quotient rounds to at most d, the largest double with
    scale * d <= limit: they end at the midpoint of d and the next double."""
    d = limit / scale
    while scale * d > limit:
        d = math.nextafter(d, 0.0)
    while scale * math.nextafter(d, math.inf) <= limit:
        d = math.nextafter(d, math.inf)
    (a, b), (c, e) = d.as_integer_ratio(), math.nextafter(d, math.inf).as_integer_ratio()
    m = (a * e + c * b) * q // (2 * b * e)  # the floor of the midpoint times q
    return m if m / q <= d else m - 1


def _first_true(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least z in [lo, hi] with pred(z), or hi + 1 if none, by
    bisection; pred is false up to some z and true from there on."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _flow_scorers(
    e_head: float,
    e_tail: float,
    q: int,
    heads: Sequence[int],
    tails: Sequence[Sequence[int]],
) -> Tuple[Callable[[List[int]], float], reduction.RunScorer]:
    """(sup_of, score_run) of reduction.sup_first_minimum for a basis whose
    column i has the head heads[i] / q and the tail coordinates tails[j][i],
    under g_t's scales e_head and e_tail.

    Along a run each coordinate, H . zc or tails[j] . zc, is an integer
    a z_0 + c, made a >= 0, and its score is a non-decreasing function of
    |a z_0 + c|.  So the count is the length of an intersection of integer
    intervals: each |a z_0 + c| at most the largest integer whose score is
    within limit (_last_within, once per walk).  Since |y| = max(y, -y), the
    sup is the larger of a rising half (the scores of every a z_0 + c) and a
    falling half (those of every -(a z_0 + c)), so the least sup is at the
    first z_0 where the rising half is the larger, found by bisection, or
    just before it; both are scored with sup_of.
    """
    rows = [heads, *tails]
    within: Optional[Tuple[int, int]] = None  # (head, tail) bounds at limit

    def sup_of(zc: List[int]) -> float:
        tail = max(map(abs, [sum(map(mul, row, zc)) for row in tails]), default=0)
        return max(abs(e_head * (sum(map(mul, heads, zc)) / q)), e_tail * tail)

    def score_run(zc: List[int], lo: int, hi: int, limit: float) -> Tuple[float, int]:
        nonlocal within
        if within is None:
            within = _last_within(e_head, q, limit), _last_within(e_tail, 1, limit)
        first, last = lo, hi
        lines = []  # each coordinate along the run as a z_0 + c, a >= 0
        for row, bound in zip(rows, [within[0]] + [within[1]] * len(tails)):
            a = row[0]
            c = sum(map(mul, row, zc))
            if a < 0:
                a, c = -a, -c
            if a:  # -bound <= a z_0 + c <= bound
                first = max(first, -((bound + c) // a))
                last = min(last, (bound - c) // a)
            elif abs(c) > bound:
                last = first - 1
            lines.append((a, c))
        (h, hc), *tail_lines = lines

        def rises(z0: int) -> bool:  # the rising half of the sup is the larger
            x = e_head * ((h * z0 + hc) / q)
            ys = [a * z0 + c for a, c in tail_lines]
            return max(x, e_tail * max(ys, default=0)) >= max(-x, e_tail * -min(ys, default=0))

        cross = _first_true(rises, lo, hi)
        low = min(sup_of([z0, *zc[1:]]) for z0 in (cross - 1, cross) if lo <= z0 <= hi)
        return low, max(last - first + 1, 0)

    return sup_of, score_run


def _flow_stats(
    form: Tuple[Sequence[int], int],
    n: int,
    t: float,
    box_radius: float,
    budget: int,
    reduced: Reduced,
) -> Tuple[float, int]:
    """(sup-norm first minimum, box count) of g_t u(phi) Z^n from one
    enumeration of its reduced basis reduced = (z, b, gs), from _flow_reduce.

    The head of a candidate zc is H . zc over q with H_i = c . z_i: the
    same correctly rounded int / q as the head of its coordinates
    sum_i zc_i z_i, so every value is bit-identical to scoring those.
    """
    e_head, e_tail = _flow_scales(n, t)
    z, b, gs = reduced
    coeffs, q = form
    heads = [sum(map(mul, coeffs, col)) for col in z]
    sup_of, score_run = _flow_scorers(e_head, e_tail, q, heads, list(zip(*z))[1:])
    return reduction.sup_first_minimum(b, sup_of, box_radius, budget, score_run, gs)


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
    config: dict  # n, t_grid, samples, eps, radius and seed, as the aggregates file has them
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
        return {"config": self.config, "aggregates": self.aggregates}

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self.csv_text())


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
        reduced = _scheduled_reductions(form, n, t_list)
        for t in t_list:
            basis, start = reduced[t]
            try:
                lam1, count = _flow_stats(form, n, t, box_radius, node_budget, basis)
            except BudgetError as exc:
                raise BudgetError(f"sample {idx}, t = {t!r} (reduced from t = {start!r}): "
                                  f"{exc}") from exc
            if lam1 > 1 + 1e-9:  # Minkowski: a unimodular lattice has lambda_1 <= 1
                raise InvariantError(f"sample {idx}, t = {t!r}: lambda_1 = {lam1!r} "
                                     "exceeds Minkowski's bound 1")
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
    config = {"n": n, "t_grid": t_list, "samples": samples, "eps": eps,
              "radius": box_radius, "seed": int(seed)}
    return ExperimentReport(config, rows, aggregates)
