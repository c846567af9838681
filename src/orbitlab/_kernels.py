"""Grid-scan kernels behind the density and spiral searches.

Both kernels are exact pruned searches: they return bit for bit what a dense
scan over every grid point returns, but evaluate only the points a rigorous
lower bound cannot rule out. Every value they do evaluate comes from the
dense scan's own expression in its own operation order, and each grid
parameter is start + i*step (never accumulated), so results depend only on
the inputs and the platform's libm.

Nearest distances (kd-tree best-match search; Friedman, Bentley and Finkel,
ACM TOMS 3(3), 1977). A point's squared distance is the float sum
``(q0-p0)*(q0-p0) + (q1-p1)*(q1-p1) + ...`` over the axes in order, written
out for the dimension (see _search). Python adds left to right, and
``0.0 + x == x`` for every x >= 0, so this is bit for bit the loop
``s = 0.0; s += t*t`` with ``t = q[d] - p[d]``, which the dense scan runs. For
a node with bounding box [lo, hi] the lower bound takes on each axis the gap
``q[d] - lo[d]`` (query below the box) or ``q[d] - hi[d]`` (above it), or 0.0
inside, and sums the squared gaps in the same axis order. IEEE subtraction,
multiplication and addition are monotone under rounding to nearest, so for
every point p in the box each rounded gap is no larger in magnitude than the
rounded ``q[d] - p[d]``, each rounded square no larger, and each rounded
partial sum no larger. The bound therefore never exceeds the computed squared
distance of any point in the box, with no slack, and a node whose bound is at
least the best value found holds no point that could lower it. Only the
minimum is returned, so ties need no bookkeeping, and the shape of the tree
(how it splits, how large its leaves are) moves only the time, never a bit
of the result. The build sorts each run once per axis, not once per node:
every split is still a median on its axis (see _kd_build).

NaN and infinities. A cloud point with a coordinate that is inf or NaN is
at distance inf or NaN from every query, and neither compares below inf, the
dense scan's starting value, so such points are dropped before the tree is
built; the boxes then hold finite numbers only. A warm start that reads NaN
(a query with a NaN coordinate) is replaced by inf.

Lattice rows. For each axis d and distinct query coordinate v the row of
``(v - p_d) * (v - p_d)`` over the points is formed once, and map(add, ...)
over such rows, axis by axis from a row of 0.0, gives exactly the partial
sums above, so a full row holds every point's squared distance, bit for bit.
Only the current chain of prefix rows is kept: density._ball_grid emits its
points in lattice order, so a run of queries shares every axis but the last,
and each query's minimum is min(map(add, prefix, last row)). The U cut: U is
the largest squared distance over the run from one point (the middle
query's nearest), so it bounds every minimum in the run, and as fl(a + b) >=
a for b >= 0, a point whose prefix exceeds U attains none of them and is
dropped. Points are finite, so only a query with a NaN coordinate has NaN
sums; its minimum reads NaN and becomes inf, and a NaN U drops nothing.

Selection. Rows cost about n * (queries + 2 * rows) element steps in C, the
2 for a row's squares in Python, and pay only when rows are reused; a kd
query examines about (L**(1/d) + 1)**d points (Friedman, Bentley and Finkel's
count for one nearest neighbour, leaves of L, in the max norm), capped at n,
at d interpreted terms each. Rows are taken when their cost is at most
_ROW_GAIN times the kd cost, measured on uniform clouds in 2 to 8 dims, and
their squares fit in _ROW_FLOATS floats.

Spiral scan (Lipschitz branch and bound; Piyavskii 1972, Shubert 1972). With
lam = log_base and th = angle_rate taken as exact reals, grid point i sits on
gamma(s) = exp(s*lam) * exp(-i*s*th) at its computed parameter s_i, and
f(s) = |gamma(s) - z| has |f'(s)| <= |gamma'(s)| = exp(s*lam) *
sqrt(lam^2 + th^2). On an index interval [a, b], s_i lies between s_a and
s_b (start + i*step is monotone in i under monotone rounding), so f is
L-Lipschitz there with L = exp(s_max*lam) * sqrt(lam^2 + th^2), s_max being
the endpoint with the larger s*lam; this holds for bases below 1 too. Let
h bound |s_i - s_mid| (the larger endpoint gap, rounded up) and let e bound
|sqrt(d2_i) - f(s_i)| for the computed squared distance d2_i. Then every
index in the interval has sqrt(d2_i) >= sqrt(d2_mid) - L*h - 2e.

The error budget e. Write u = 2**-53, rho = exp(s*lam), |z|_1 =
|target_re| + |target_im|, and assume libm's exp has relative error at most
2u and its cos and sin absolute error at most 2u, with |cos|, |sin| <= 1
(glibc documents under 1 ulp for all three, which is at most u for cos and
sin). At a grid point:
  - fl(s*lam) is off by at most u|s*lam|, so the computed modulus is
    within rho*(1.01u|s*lam| + 2.01u) of rho while |s*lam| <= 745 (beyond
    that exp overflows, or underflows to within 2**-1074 of rho);
  - fl(s*th) is off by at most u|s*th|, so each computed cosine or sine is
    within u|s*th| + 2u of its true value;
  - the product with the modulus and the subtraction of the target add at
    most u*rho*(1 + 2.02u) and u*(rho*(1 + 3u) + |target component|), so
    each component is within rho*(1.01u|s*lam| + u|s*th| + 6.1u) +
    u*|target component| of the true one;
  - the squares and the sum of d2 are three roundings, so sqrt(d2) is within
    u*(D + component errors) of the computed components' length, and that
    length is within the sum of the component errors of the true distance
    D <= rho + |z|_1.
Altogether |sqrt(d2) - D| <= u*(rho*(2.03|s|*(|lam| + |th|) + 13.3) +
2.01*|z|_1) while nothing underflows. Products that land among the
subnormals (below 2**-1022) are off by up to 2**-1075 absolutely instead:
in the components that adds at most a few times 2**-1075, and in re*re and
im*im (when |re| or |im| is below about 2**-511) it adds up to 2**-1074 to
d2, hence up to sqrt(2**-1074) = 2**-537 to sqrt(d2). The kernel takes,
over an interval,
  e = 64u * (rho_max * (|s|_max * (|lam| + |th|) + 1) + |z|_1) + 2**-530,
with rho_max an upper bound on exp(s*lam) there (also padded by 2**-530,
which covers exp underflowing to within 2**-1074 of rho): at least 4.8
times the relative part, and the last term at least 128 times the subnormal
part. The argument error of
exp(s_max*lam) (at most 745u relative) and the roundings of hypot, of the
bound itself and of its squaring are absorbed by the margins 1 +- 2**-40,
so the float bound never exceeds the real one and a pruned interval holds
only indices whose computed d2 exceeds the best.

Overflow: the analysis assumes d2_mid is finite. A midpoint whose squares
overflow (spiral modulus or target above about 1.3e154) has d2_mid = inf
although its true distance is finite, so sqrt(d2_mid) bounds nothing and
such an interval is never pruned, only split. An index whose own d2 is inf
or NaN never wins, as in the dense scan, so the bound need not cover it.

Tie rule: an interval is pruned only when the bound squared exceeds the best
d2 found strictly, so every index attaining the computed minimum is
evaluated; the smallest of them is returned, as the dense scan's first
minimal index. The search is depth first with a stack of O(log count)
intervals, so memory stays bounded whatever the grid size.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby
from operator import add, itemgetter

BACKEND = "python"  # recorded in every perfbench/run.py result

_LEAF_POINTS = 12  # kd-tree leaf size
_ROW_GAIN = 2.0  # a kd query's cost per point and axis, in row element steps
_ROW_FLOATS = 2**18  # the most floats the rows path's squares may hold
_LEAF_INDICES = 16  # spiral intervals this short are evaluated densely
_U = 2.0**-53
_ERR_FACTOR = 64.0 * _U
_TINY = 2.0**-530
_UP = 1.0 + 2.0**-40
_DOWN = 1.0 - 2.0**-40


def nearest_distances(grid, cloud, dim):
    """For each dim-dimensional point in the flat grid array, the distance to
    the nearest point in the flat cloud array."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    if len(grid) % dim or len(cloud) % dim:
        raise ValueError("flat arrays must have length divisible by dim")
    if not cloud:
        raise ValueError("cloud is empty")
    points = list(zip(*[iter(cloud)] * dim))
    if not all(map(math.isfinite, cloud)):
        points = [p for p in points if all(map(math.isfinite, p))]
        if not points:
            return [math.inf] * (len(grid) // dim)
    if _rows_pay(grid, len(points), dim):
        return _rows(grid, points, dim)
    return _search(dim)(grid, _kd_build(points, 0, dim), points[0])


def _rows_pay(grid, n, dim):
    """Whether lattice rows for n points beat the kd search (see Selection)."""
    queries = len(grid) // dim
    rows = sum(len(set(grid[d::dim])) for d in range(dim))
    kd = dim * queries * min(n, (_LEAF_POINTS ** (1.0 / dim) + 1.0) ** dim)
    return n * rows <= _ROW_FLOATS and n * (queries + 2 * rows) <= _ROW_GAIN * kd


def _rows(grid, points, dim):
    """nearest_distances from lattice rows (see the module docstring)."""
    cols = list(zip(*points))
    squares = {}  # (axis, v) -> [(v - p) * (v - p) for p on that axis]

    def row(d, v):
        r = squares.get((d, v))
        if r is None:
            r = squares[d, v] = [(v - p) * (v - p) for p in cols[d]]
        return r

    last = dim - 1
    chain, before = [[0.0] * len(points)], ()  # chain[d]: the sums over axes 0..d-1 of before
    dists = []
    for head, run in groupby(zip(*[iter(grid)] * dim), itemgetter(slice(last))):
        d = 0
        while d < len(before) and before[d] == head[d]:
            d += 1
        del chain[d + 1:]
        for a in range(d, last):
            chain.append(list(map(add, chain[a], row(a, head[a]))))
        before = head
        prefix = chain[last]
        rows = [row(last, q[last]) for q in run]
        mid = rows[len(rows) // 2]
        full = list(map(add, prefix, mid))
        best = min(full)
        j = full.index(best)
        u = max(prefix[j] + r[j] for r in rows)  # the U cut; j leads, so pick gives tuples
        pick = itemgetter(j, *[i for i, x in enumerate(prefix) if not x > u])
        kept = pick(prefix)
        for r in rows:
            s = best if r is mid else min(map(add, kept, pick(r)))
            dists.append(math.sqrt(s) if s == s else math.inf)
    return dists


def _kd_build(points, axis, dim):
    """Node (a, b, leaf, lo0, hi0, lo1, hi1, ...): either the two children
    split at a median, and leaf None, or a and b None and leaf the points.
    Then the points' bounding box, which a leaf takes from its points and a
    parent from its children. The leaves sit at the least depth that leaves
    at most _LEAF_POINTS points each. The axes from `axis` on are dealt that
    depth in turn, and each sorts every run once and halves it as many levels
    as it was dealt, so every split is a median on its axis."""
    depth = 0
    while len(points) > _LEAF_POINTS << depth:
        depth += 1
    runs = [points]
    for k in range(min(depth, dim)):
        runs = [sorted(run, key=itemgetter((axis + k) % dim)) for run in runs]
        for _ in range(depth // dim + (k < depth % dim)):
            runs = [h for run in runs for h in (run[: len(run) // 2], run[len(run) // 2:])]
    nodes = [(None, None, run, *[f(c) for c in zip(*run) for f in (min, max)]) for run in runs]
    while len(nodes) > 1:
        nodes = [
            (a, b, None, *[f(x, y) for x, y, f in zip(a[3:], b[3:], (min, max) * dim)])
            for a, b in zip(nodes[::2], nodes[1::2])
        ]
    return nodes[0]


# The search for one dimension, with every per-axis sum written out: {q},
# {p}, {n} and {box} stand for the axes' names (q0, q1, ...; l0, h0, ...),
# {dist} and {warm} for the squared distances from q to p and to the warm
# start n, and {bound} for the bound from q to the box (see the docstring).
_SEARCH = """
def search(grid, root, near):
    dists = []
    {n} = near
    for {q} in zip(*[iter(grid)] * {dim}):
        best = {warm}  # warm start from the previous query's nearest point
        if best != best:
            best = inf
        stack = [(0.0, root)]
        while stack:
            bound, node = stack.pop()
            if bound >= best:
                continue
            while True:  # down the nearer child, the other one stacked
                a, b, leaf, {blank} = node
                if leaf is not None:
                    for {p} in leaf:
                        s = {dist}
                        if s < best:
                            best = s
                            {n} = {p}
                    break
                _, _, _, {box} = a
                ab = {bound}
                _, _, _, {box} = b
                bb = {bound}
                if bb < ab:
                    a, b, ab, bb = b, a, bb, ab
                if bb < best:
                    stack.append((bb, b))
                if ab >= best:
                    break
                node = a
        dists.append(sqrt(best))
    return dists
"""


@functools.cache
def _search(dim):
    """search(grid, root, near) for dim axes, generated from _SEARCH."""

    def names(c):
        return "".join(f"{c}{d}, " for d in range(dim))

    def sq(a, b):
        return f"({a} - {b}) * ({a} - {b})"

    gaps = (
        f"({sq(f'q{d}', f'l{d}')} if q{d} < l{d} else {sq(f'q{d}', f'h{d}')} if q{d} > h{d} else 0.0)"
        for d in range(dim)
    )
    source = _SEARCH.format(
        dim=dim,
        q=names("q"),
        p=names("p"),
        n=names("n"),
        box="".join(f"l{d}, h{d}, " for d in range(dim)),
        blank="_, " * (2 * dim),
        dist=" + ".join(sq(f"q{d}", f"p{d}") for d in range(dim)),
        warm=" + ".join(sq(f"q{d}", f"n{d}") for d in range(dim)),
        bound=" + ".join(gaps),
    )
    namespace = {"inf": math.inf, "sqrt": math.sqrt}
    exec(compile(source, f"<nearest search, dim {dim}>", "exec"), namespace)
    return namespace["search"]


def spiral_min_scan(log_base, angle_rate, target_re, target_im, s_start, step, count):
    """Minimize |base^s * exp(-i*s*rate) - target| over the s grid, on which the
    caller keeps exp and s*rate finite; returns (first minimal index, distance)."""
    if count <= 0:
        raise ValueError("count must be positive")

    def d2_at(i):
        s = s_start + i * step
        m = math.exp(s * log_base)
        re = m * math.cos(s * angle_rate) - target_re
        im = -m * math.sin(s * angle_rate) - target_im
        return re * re + im * im

    speed = math.hypot(log_base, angle_rate) * _UP
    rates = abs(log_base) + abs(angle_rate)
    target_abs = abs(target_re) + abs(target_im)

    def lower_bound(a, b, mid, d2_mid):
        """A float lb with sqrt(d2_i) >= lb for every index i in [a, b]."""
        s_a = s_start + a * step
        s_b = s_start + b * step
        s_mid = s_start + mid * step
        rho = math.exp(max(s_a * log_base, s_b * log_base)) * _UP + _TINY
        h = math.nextafter(max(abs(s_mid - s_a), abs(s_b - s_mid)), math.inf)
        err = _eval_error(rho, max(abs(s_a), abs(s_b)), rates, target_abs)
        return math.sqrt(d2_mid) * _DOWN - (rho * speed * h + 2.0 * err) * _UP

    best = math.inf
    best_i = 0

    def consider(i, d2):
        nonlocal best, best_i
        if d2 < best or (d2 == best and i < best_i):
            best = d2
            best_i = i

    mid = (count - 1) // 2
    d2 = d2_at(mid)
    consider(mid, d2)
    stack = [(0, count - 1, mid, d2)]
    while stack:
        a, b, mid, d2 = stack.pop()
        if math.isfinite(d2):
            lb = lower_bound(a, b, mid, d2)
            if lb > 0.0 and lb * lb * _DOWN > best:
                continue
        if b - a < _LEAF_INDICES:
            for i in range(a, b + 1):
                if i != mid:
                    consider(i, d2_at(i))
            continue
        halves = []
        for lo, hi in ((a, mid - 1), (mid + 1, b)):
            m = (lo + hi) // 2
            d2m = d2_at(m)
            consider(m, d2m)
            halves.append((lo, hi, m, d2m))
        # the half with the smaller midpoint value is searched first
        halves.sort(key=lambda iv: iv[3], reverse=True)
        stack.extend(halves)
    return best_i, math.sqrt(best)


def _eval_error(rho, s_abs, rates, target_abs):
    """The error budget e: a bound on |sqrt(d2) - true distance| for every
    grid point with exp(s*log_base) <= rho and |s| <= s_abs, where rates is
    |log_base| + |angle_rate| and target_abs is |target_re| + |target_im|."""
    return _ERR_FACTOR * (rho * (s_abs * rates + 1.0) + target_abs) + _TINY
