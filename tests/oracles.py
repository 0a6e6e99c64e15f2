"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: permutation sums, exhaustive
enumeration, dense integer grids, subset solves in exact arithmetic.  Slow
but obviously correct, which is the point; the library under test must
agree with these, never the other way around.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def det_by_permutations(rows):
    """Exact determinant as the signed permutation sum.  Fine up to 6x6.
    Python int entries are multiplied as ints, anything else as Fractions."""
    n = len(rows)
    if not all(type(x) is int for r in rows for x in r):
        rows = [[Fraction(x) for x in r] for r in rows]
    total = 0
    for perm, sign in _signed_permutations(n):
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def _signed_permutations(n):
    def rec(remaining, acc, sign):
        if not remaining:
            yield acc, sign
            return
        for pos, x in enumerate(remaining):
            yield from rec(remaining[:pos] + remaining[pos + 1:],
                           acc + [x], sign * (-1) ** pos)
    yield from rec(list(range(n)), [], 1)


def pfaffian_by_matchings(rows):
    """Pfaffian of an antisymmetric matrix as the signed sum over perfect
    matchings.  The sign of a matching is the parity of the permutation
    (i1 j1 i2 j2 ...) written with i < j inside pairs and i1 < i2 < ..."""
    n = len(rows)
    if n % 2:
        return Fraction(0)
    rows = [[Fraction(x) for x in r] for r in rows]

    def rec(indices):
        if not indices:
            return Fraction(1)
        i0 = indices[0]
        total = Fraction(0)
        for pos in range(1, len(indices)):
            j = indices[pos]
            rest = indices[1:pos] + indices[pos + 1:]
            total += (-1) ** (pos - 1) * rows[i0][j] * rec(rest)
        return total

    return rec(list(range(n)))


def minors_matrix(rows, k):
    """Matrix of k x k minors, rows and columns indexed by k-subsets in lex
    order: the action of the matrix on the k-th exterior power."""
    n = len(rows)
    subsets = list(combinations(range(n), k))
    out = []
    for rowset in subsets:
        out_row = []
        for colset in subsets:
            sub = [[rows[i][j] for j in colset] for i in rowset]
            out_row.append(det_by_permutations(sub))
        out.append(out_row)
    return out


# -- lattice enumeration -------------------------------------------------------


def _coeff_bound(basis, radius):
    """Bound on |z_i| for basis @ z of sup norm <= radius: z = inv @ v, so
    |z_i| <= sum_j |inv_ij| |v_j| <= radius * (row sum of |inv|)."""
    inv = np.linalg.inv(np.asarray(basis, dtype=float))
    return int(math.ceil(radius * np.abs(inv).sum(axis=1).max())) + 1


def shortest_vector_naive(basis):
    """Euclidean first minimum by dense coefficient enumeration."""
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[1]
    start = float(np.linalg.norm(basis, axis=0).min())
    bound = _coeff_bound(basis, start)
    best = math.inf
    for z in product(range(-bound, bound + 1), repeat=n):
        if not any(z):
            continue
        v = basis @ np.asarray(z, dtype=float)
        best = min(best, float(np.linalg.norm(v)))
    return best


def sup_minimum_naive(basis):
    """Sup-norm first minimum by dense coefficient enumeration."""
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[1]
    start = float(np.abs(basis).max(axis=0).min())
    bound = _coeff_bound(basis, start)
    best = math.inf
    for z in product(range(-bound, bound + 1), repeat=n):
        if not any(z):
            continue
        v = basis @ np.asarray(z, dtype=float)
        best = min(best, float(np.max(np.abs(v))))
    return best


def box_count_naive(basis, radius):
    """Nonzero lattice points with sup-norm <= radius, dense enumeration."""
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[1]
    bound = _coeff_bound(basis, radius)
    count = 0
    for z in product(range(-bound, bound + 1), repeat=n):
        if not any(z):
            continue
        v = basis @ np.asarray(z, dtype=float)
        if float(np.max(np.abs(v))) <= radius + 1e-9:
            count += 1
    return count


def gram_schmidt_full(b):
    """(mu, norms2) of the columns of b, every row computed afresh; each
    inner product is the correctly rounded sum (math.fsum) of the products."""
    n, m = b.shape
    bstar = np.zeros((n, m))
    mu = np.zeros((m, m))
    norms2 = np.zeros(m)
    for i in range(m):
        v = b[:, i].copy()
        for j in range(i):
            mu[i, j] = math.fsum(b[:, i] * bstar[:, j]) / norms2[j]
            v -= mu[i, j] * bstar[:, j]
        bstar[:, i] = v
        norms2[i] = math.fsum(v * v)
    return mu, norms2


def lll_full_recompute(embed, ncols, start=None):
    """Textbook LLL on the columns embed(e_0), ..., embed(e_{ncols-1}),
    beginning from the columns embed(start[i]) if a start is given.

    The whole Gram-Schmidt state is recomputed at every sweep and column k
    is re-embedded after every single size-reduction step.  The float
    operations on each row are the ones a cached kernel must reproduce, on
    the same column layout, so its (z, b) must match this one bit for bit.
    Returns (z, b) with z[i] the integer coordinates of reduced column i.
    The Lovasz constant is 0.99.
    """
    if start is None:
        start = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    z = [list(c) for c in start]
    b = np.stack([embed(c) for c in z], axis=1)
    k = 1
    while k < ncols:
        mu, norms2 = gram_schmidt_full(b)
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k, j]))
            if q:
                z[k] = [a - q * c for a, c in zip(z[k], z[j])]
                b[:, k] = embed(z[k])
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if norms2[k] >= (0.99 - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            z[k - 1], z[k] = z[k], z[k - 1]
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            k = max(k - 1, 1)
    return z, b


def flow_exponents(kind, n, d):
    """Exponents of b_t ('b') or c_t ('c'), the two commuting diagonal
    factors of g_t attached to a span dimension 1 <= d <= n-1, with
    g_t = c_t b_t entrywise.  Each sums to zero."""
    if kind == "b":
        return [Fraction(n - d, d)] * d + [Fraction(-1)] * (n - d)
    return [Fraction(n * d - n, d)] + [Fraction(-n, d)] * (d - 1) + [Fraction(0)] * (n - d)


def make_flow(exponents, t):
    """Float diagonal matrix diag(e^{e t}) of an exponent list at time t."""
    return np.diag([float(np.exp(float(e) * t)) for e in exponents])


def u_row_float(v):
    """Float expanding-horosphere element: first row (1, v), identity below."""
    m = np.eye(len(v) + 1)
    m[0, 1:] = np.asarray(v, dtype=float)
    return m


def lambda1_sup_naive_n3(t, v1, v2):
    """Sup-norm first minimum of g_t u(v) Z^3 by direct (b, c) scanning.

    Only the integers a nearest to -(v1 b + v2 c) can matter for each tail,
    and tails with e^{-t} max(|b|,|c|) > 1 cannot beat the vector e_2."""
    e2t, emt = math.exp(2 * t), math.exp(-t)
    kmax = int(math.floor(math.exp(t))) + 1
    best = math.inf
    for b in range(-kmax, kmax + 1):
        for c in range(-kmax, kmax + 1):
            y = v1 * b + v2 * c
            for a in (math.floor(-y), math.ceil(-y)):
                if a == 0 and b == 0 and c == 0:
                    continue
                sup = max(e2t * abs(a + y), emt * abs(b), emt * abs(c))
                best = min(best, sup)
    # pure head vectors (b = c = 0)
    best = min(best, e2t)
    return best


def box_count_naive_n3(t, v1, v2, radius):
    """Nonzero vectors of g_t u(v) Z^3 with sup norm <= radius, by direct
    (b, c) scanning.

    A vector a + v1 b + v2 c, b, c has tail e^{-t} (b, c), so |b|, |c| <=
    R e^t, and for each tail the heads e^{2t} |a + y| <= R allow exactly the
    integers a in [-y - R e^{-2t}, -y + R e^{-2t}]."""
    e2t, emt = math.exp(2 * t), math.exp(-t)
    kmax = int(math.floor(radius * math.exp(t))) + 1
    half = radius / e2t
    count = 0
    for b in range(-kmax, kmax + 1):
        for c in range(-kmax, kmax + 1):
            if max(emt * abs(b), emt * abs(c)) > radius + 1e-9:
                continue
            y = v1 * b + v2 * c
            for a in range(math.floor(-y - half) - 1, math.ceil(-y + half) + 2):
                if (a, b, c) == (0, 0, 0):
                    continue
                if e2t * abs(a + y) <= radius + 1e-9:
                    count += 1
    return count


def in_affine_span(span, point):
    """Whether a curve point lies in an affine span {(x, x~ A)}: after the
    coordinates are permuted by span.order, each dependent coordinate equals
    (1, x) times its column of span.matrix. Entries need only exact + and *
    (Fractions or ExactScalars); span.matrix None is the full span."""
    if span.matrix is None:
        return True
    permuted = [point[i] for i in span.order]
    x1 = [1] + permuted[:span.d - 1]
    for col, value in enumerate(permuted[span.d - 1:]):
        if sum(xi * row[col] for xi, row in zip(x1, span.matrix.rows)) != value:
            return False
    return True


# -- instability ---------------------------------------------------------------


def kempf_brute(weights, radius, n):
    """Best destabilizing ratio max min_chi <chi, lam> / ||lam||_2 over
    nonzero sum-zero integer lam with ||lam||_2 <= radius.  Vectorized grid
    scan; n <= 4 keeps the grid tractable at radius 50."""
    w = np.asarray([[float(c) for c in chi] for chi in weights])
    r = int(radius)
    if n == 2:
        lams = np.array([[a, -a] for a in range(-r, r + 1) if a])
    else:
        axes = [np.arange(-r, r + 1)] * (n - 1)
        grid = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([g.ravel() for g in grid], axis=1)
        last = -flat.sum(axis=1, keepdims=True)
        lams = np.concatenate([flat, last], axis=1)
        keep = np.any(lams != 0, axis=1)
        lams = lams[keep]
    norms = np.sqrt((lams.astype(float) ** 2).sum(axis=1))
    inside = norms <= radius + 1e-12
    lams, norms = lams[inside], norms[inside]
    vals = w @ lams.T.astype(float)
    mins = vals.min(axis=0)
    return float((mins / norms).max())


def _solve_fraction(a, b):
    """Gaussian elimination over Fraction; returns None when singular."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def min_norm_point_subsets(points):
    """Exact squared distance from the origin to the convex hull, by
    minimizing over every affinely independent subset of the points."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    best = None
    for size in range(1, len(pts) + 1):
        for subset in combinations(range(len(pts)), size):
            base = pts[subset[0]]
            diffs = [tuple(c - b for c, b in zip(pts[i], base))
                     for i in subset[1:]]
            if diffs:
                gram = [[sum(x * y for x, y in zip(d1, d2)) for d2 in diffs]
                        for d1 in diffs]
                rhs = [-sum(x * b for x, b in zip(d, base)) for d in diffs]
                coeffs = _solve_fraction(gram, rhs)
                if coeffs is None or any(c < 0 for c in coeffs):
                    continue
                if sum(coeffs, Fraction(0)) > 1:
                    continue
                point = list(base)
                for c, d in zip(coeffs, diffs):
                    for j in range(len(point)):
                        point[j] += c * d[j]
            else:
                point = list(base)
            norm2 = sum(c * c for c in point)
            if best is None or norm2 < best:
                best = norm2
    return best


def zero_in_hull(points):
    """Exact feasibility of 0 = sum alpha_i p_i, alpha >= 0, sum alpha_i = 1,
    by phase-one simplex with Bland's rule."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        return False
    dim = len(pts[0])
    m = dim + 1
    nvar = len(pts)
    # rows: dim equality constraints + the convexity row; rhs last
    table = []
    for d in range(dim):
        row = [pts[j][d] for j in range(nvar)]
        rhs = Fraction(0)
        table.append(row + [rhs])
    table.append([Fraction(1)] * nvar + [Fraction(1)])
    # flip rows to make rhs nonnegative (only the sign of the equality matters)
    for row in table:
        if row[-1] < 0:
            for j in range(len(row)):
                row[j] = -row[j]
    # append artificial columns
    for i, row in enumerate(table):
        rhs = row.pop()
        row.extend(Fraction(1) if k == i else Fraction(0) for k in range(m))
        row.append(rhs)
    basis = list(range(nvar, nvar + m))
    total = nvar + m
    cost = [Fraction(0)] * nvar + [Fraction(1)] * m
    # reduced costs c_j - z_j for the all-artificial starting basis
    red = [cost[j] - sum(table[i][j] for i in range(m)) for j in range(total)]
    while True:
        # Bland: smallest improving index enters, smallest-index tie leaves
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (table[i][total] / table[i][enter], basis[i], i)
            for i in range(m)
            if table[i][enter] > 0
        ]
        if not ratios:
            raise RuntimeError("unbounded phase-one simplex")
        _, _, leave = min(ratios)
        _pivot(table, red, leave, enter, total)
        basis[leave] = enter
    value = sum(table[i][total] * cost[basis[i]] for i in range(m))
    return value == 0


def _pivot(table, red, leave, enter, total):
    inv = 1 / table[leave][enter]
    table[leave] = [x * inv for x in table[leave]]
    for i in range(len(table)):
        if i != leave and table[i][enter] != 0:
            f = table[i][enter]
            table[i] = [table[i][j] - f * table[leave][j] for j in range(total + 1)]
    f = red[enter]
    if f != 0:
        for j in range(total):
            red[j] -= f * table[leave][j]


# -- diophantine ---------------------------------------------------------------


def dirichlet_vect_naive(x, delta, big_t):
    """(q, p) with 1 <= q <= T^n and ||q x + p|| <= delta/T, or None."""
    x = np.asarray(x, dtype=float)
    n = x.size
    qmax = int(math.floor(big_t ** n * (1 + 1e-12)))
    for q in range(1, qmax + 1):
        vals = q * x
        res = float(np.max(np.abs(vals - np.round(vals))))
        if res <= delta / big_t + 1e-12:
            return q
    return None


def dirichlet_lf_witness_naive(x, delta, big_t):
    """The witness q of the linear-form system: of every integer q != 0 with
    ||q|| <= T and |x . q + p| <= delta T^-n for some integer p, the first in
    (sup norm, q) order; None when the cube holds no such q."""
    x = [float(v) for v in x]
    n = len(x)
    qb = int(math.floor(big_t * (1 + 1e-12)))
    thr = delta * big_t ** (-n) + 1e-12
    hits = []
    for q in product(range(-qb, qb + 1), repeat=n):
        val = math.fsum(a * b for a, b in zip(x, q))
        if any(q) and abs(val - round(val)) <= thr:
            hits.append(q)
    return min(hits, key=lambda q: (max(abs(c) for c in q), q), default=None)


def best_approximations_naive(a, qmax):
    """Successive minima of q -> max_i |(A q)_i + p_i| (p nearest, halves to
    even) over sup-norm shells, by scanning the whole cube [-qmax, qmax]^l
    point by point in lex order and keeping one q of each +-q pair (first
    nonzero coordinate positive).  Rows of ints and Fractions are ranked in
    Fraction arithmetic, anything else in Python floats.  Within a shell the
    lex-first minimum wins; a shell's minimum is a record when it beats every
    smaller shell strictly; the scan stops at a zero residual.  Returns
    (qnorm, q, p, residual) tuples."""
    exact = all(isinstance(x, (int, Fraction)) for row in a for x in row)
    rows = [[Fraction(x) if exact else float(x) for x in row] for row in a]
    ell = len(rows[0])
    shell_best = {}
    for q in product(range(-qmax, qmax + 1), repeat=ell):
        nonzero = [c for c in q if c]
        if not nonzero or nonzero[0] < 0:
            continue
        vals = [sum(x * c for x, c in zip(row, q)) for row in rows]
        p = tuple(-round(v) for v in vals)
        res = max(abs(v + pi) for v, pi in zip(vals, p))
        h = max(abs(c) for c in q)
        if h not in shell_best or res < shell_best[h][2]:
            shell_best[h] = (q, p, res)
    out = []
    for h in range(1, qmax + 1):
        q, p, res = shell_best[h]
        if not out or res < out[-1][3]:
            out.append((h, q, p, res))
            if res == 0:
                break
    return out


# -- descent -------------------------------------------------------------------


def wedge_norm_content(w):
    """(sum of squares, integer content) of an integer vector; the covolume
    of the saturated span lattice of a decomposable w is sqrt(norm2)/content."""
    ints = [int(x) for x in w]
    norm2 = sum(x * x for x in ints)
    content = 0
    for x in ints:
        content = math.gcd(content, abs(x))
    return norm2, content


# -- root systems --------------------------------------------------------------


def coroot_pairing(beta, alpha):
    """<beta, alpha^v> = 2 (beta . alpha) / (alpha . alpha) as a Fraction."""
    dot = lambda u, v: sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))
    return 2 * dot(beta, alpha) / dot(alpha, alpha)


def reflect(beta, alpha):
    """Image of beta under the reflection in the hyperplane of alpha."""
    c = coroot_pairing(beta, alpha)
    return tuple(Fraction(b) - c * Fraction(a) for b, a in zip(beta, alpha))


def root_string_closure(seed, roots, limit):
    """The least set of weights holding `seed` that contains, with each weight
    mu and root alpha, the whole alpha-string mu, mu - alpha, ...,
    mu - <mu, alpha^v> alpha (the steps go up when the pairing is negative).
    Breadth first, on integer vectors: every coordinate is scaled by the
    common denominator of the seed and the roots, which the pairing ignores
    and the steps keep.  Returns the weights as Fraction tuples, or None as
    soon as the set outgrows `limit` weights; raises ValueError on a
    non-integral pairing."""
    seed = [tuple(Fraction(x) for x in mu) for mu in seed]
    roots = [tuple(Fraction(x) for x in alpha) for alpha in roots]
    den = math.lcm(*(x.denominator for v in seed + roots for x in v))
    scaled = [(tuple(int(x * den) for x in alpha), alpha) for alpha in roots]
    steps = [(a, sum(x * x for x in a), alpha) for a, alpha in scaled]
    seen = {tuple(int(x * den) for x in mu) for mu in seed}
    frontier = deque(seen)
    while frontier:
        mu = frontier.popleft()
        for a, norm2, alpha in steps:
            num = 2 * sum(m * x for m, x in zip(mu, a))
            if num % norm2:
                raise ValueError(f"pairing {Fraction(num, norm2)} of "
                                 f"{tuple(Fraction(m, den) for m in mu)} with {alpha}")
            n = num // norm2
            for i in range(1, abs(n) + 1):
                k = i if n > 0 else -i
                nu = tuple(m - k * x for m, x in zip(mu, a))
                if nu not in seen:
                    seen.add(nu)
                    frontier.append(nu)
                    if len(seen) > limit:
                        return None
    return {tuple(Fraction(m, den) for m in mu) for mu in seen}


def pairing_profile_roots(roots, weights):
    """The roots, ascending, against which the multiset of pairings of
    `weights` is exactly {+1, -1, 0, ..., 0}; none when fewer than 2 weights."""
    if len(weights) < 2:
        return []
    wanted = [-1] + [0] * (len(weights) - 2) + [1]
    return [alpha for alpha in sorted(roots)
            if sorted(coroot_pairing(w, alpha) for w in weights) == wanted]
