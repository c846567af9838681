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

Spiral scan (branch and bound over index intervals, with a first-order bound,
Piyavskii 1972 and Shubert 1972, and a second-order one, Breiman and Cutler
1993). With lam = log_base and th = angle_rate taken as exact reals, grid
point i sits on gamma(s) = exp(s*lam) * exp(-i*s*th) at its computed
parameter s_i. On an index interval [a, b], s_i lies between s_a and s_b
(start + i*step is monotone in i under monotone rounding), so exp(s*lam) is
at most rho_max = exp(s_max*lam) there, s_max being the endpoint with the
larger s*lam; this holds for bases below 1 too. Let h bound |s_i - s_mid|
(the larger endpoint gap, rounded up). An interval is pruned when either
bound below exceeds the best d2 found.

First order. f(s) = |gamma(s) - z| has |f'(s)| <= |gamma'(s)| = exp(s*lam) *
sqrt(lam^2 + th^2), so f is L-Lipschitz on the interval with L = rho_max *
sqrt(lam^2 + th^2). If e bounds |sqrt(d2_i) - f(s_i)| for the computed
squared distance d2_i, every index in the interval has sqrt(d2_i) >=
sqrt(d2_mid) - L*h - 2e. This bound prunes well where f has a corner (a
target close to the spiral) but not near a smooth minimum, where it leaves
O(step**-1/2) points per minimum.

Second order. g(s) = f(s)^2 = |gamma|^2 - 2 Re(conj(z) gamma) + |z|^2 has
g'(s) = 2 Re(conj(gamma - z) (lam - i th) gamma) = 2 rho (re (lam cos - th
sin) - im (lam sin + th cos)), with rho = exp(s*lam), cos and sin of s*th,
and re, im the components of gamma - z: the kernel forms this slope from the
midpoint's own modulus, cosine, sine and components, so it costs no further
exp, cos or sin. As (rho^2)'' = 4 lam^2 rho^2 and |(lam - i th)^2| = lam^2 +
th^2, |g''| <= K = 4 lam^2 rho_max^2 + 2 rho_max (lam^2 + th^2) |z|_1 on the
interval, so by Taylor's theorem g(s_i) >= g(s_mid) - |g'(s_mid)| h - K h^2/2.
If E bounds |d2 - g(s)| and E' bounds |slope - g'(s)| for the computed d2
and slope at a grid point, every index in the interval has
  d2_i >= d2_mid - 2E - (|slope_mid| + E') h - K h^2/2.

The error budgets. Write u = 2**-53, rho = exp(s*lam), |z|_1 =
|target_re| + |target_im|, r = |lam| + |th|, and assume libm's exp has
relative error at most 2u and its cos and sin absolute error at most 2u,
with |cos|, |sin| <= 1 (glibc documents under 1 ulp for all three, which is
at most u for cos and sin). At a grid point:
  - fl(s*lam) is off by at most u|s*lam|, so the computed modulus m is
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
Altogether |sqrt(d2) - D| <= u*(rho*(2.03|s|*r + 13.3) + 2.01*|z|_1) while
nothing underflows. Products that land among the subnormals (below
2**-1022) are off by up to 2**-1075 absolutely instead: in the components
that adds at most a few times 2**-1075, and in re*re and im*im (when |re| or
|im| is below about 2**-511) it adds up to 2**-1074 to d2, hence up to
sqrt(2**-1074) = 2**-537 to sqrt(d2). The kernel takes, over an interval,
  e = 64u * (rho_max * (|s|_max * r + 1) + |z|_1) + 2**-530,
with rho_max padded by 2**-530 (which covers exp underflowing to within
2**-1074 of rho): at least 4.8 times the relative part, and the last term
at least 128 times the subnormal part (_eval_error). Then d2 = (D + t)^2
with |t| <= e, so |d2 - D^2| <= e (2D + e), and the kernel takes
  E = e * (2 (rho_max + |z|_1) + e),
which keeps both margins (_d2_error). The slope is
fl(2m * fl(fl(re*p) - fl(im*q))) with p = fl(fl(lam*cos) - fl(th*sin)) and
q = fl(fl(lam*sin) + fl(th*cos)), against P = lam cos - th sin and Q =
lam sin + th cos at s*th exactly, and S = rho + |z|_1 bounds |re|, |im|
and D:
  - p and q are within r*(u|s*th| + 2u) of P and Q before rounding; the
    two products round by at most u|lam| and u|th| and the sum by
    u*r*(1 + u), so p and q are within r*(u|s*th| + 4.01u) of P and Q, and
    |P|, |Q| <= r;
  - with the component errors above (at most 2S*(1.01u|s*lam| + u|s*th| +
    6.1u) for the two together), re*p - im*q is within r*S*u*(2.02|s*lam|
    + 4|s*th| + 20.3) of R*P - I*Q, R and I being the true components, and
    its three roundings add at most 4.03u*r*S; |R*P - I*Q| <= r*S;
  - 2m is exact, and m's error and the last rounding add 2*rho*r*S*u*
    (1.01|s*lam| + 3.01).
So |slope - g'(s)| <= 2u*rho*r*S*(3.03|s*lam| + 4|s*th| + 27.4) <=
55u*rho*r*S*(|s|*r + 1) while nothing underflows. Subnormal products add at
most 2**-1075 each: the four of p and q carried through |re| or |im| and
2m, the two of re*p and im*q through 2m, the last one, and the components'
few through |p| and 2m, in all at most 2**-1070 * (rho + 1) * (S + r + 1);
an exp that underflows (m within 2**-1074 of rho) adds at most
2**-1072 * r*S, which the relative part covers as rho_max >= 2**-530.
The kernel takes, over an interval,
  E' = 512u * rho_max * S * r * (|s|_max * r + 1)
       + 2**-530 * (rho_max + 1) * (S + r + 1),
with S = rho_max + |z|_1 (_slope_error): 9.3 times the relative part, and
2**540 times the subnormal part. The argument error of exp(s_max*lam) (at
most 745u relative) and the roundings of hypot, of K, of the bounds
themselves and of squaring the first-order one are absorbed by the margins
1 +- 2**-40, so a float bound never exceeds the real one and a pruned
interval holds only indices whose computed d2 exceeds the best.

Overflow: the analysis assumes d2_mid and the slope are finite. A midpoint
whose squares overflow (spiral modulus or target above about 1.3e154) has
d2_mid = inf although its true distance is finite, so it bounds nothing;
such an interval, or one whose slope overflowed or is NaN, is never pruned,
only split. An index whose own d2 is inf or NaN never wins, as in the dense
scan, so the bounds need not cover it.

Tie rule: an interval is pruned only when a bound exceeds the best d2 found
strictly, so every index attaining the computed minimum is evaluated; the
smallest of them is returned, as the dense scan's first minimal index. The
search is depth first with a stack of O(log count) intervals, so memory
stays bounded whatever the grid size.
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
_SLOPE_FACTOR = 512.0 * _U
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
    exp, cos, sin = math.exp, math.cos, math.sin
    mid_at = _midpoints(log_base, angle_rate, target_re, target_im, s_start, step)
    bound = _interval_bound(log_base, angle_rate, target_re, target_im)

    best = math.inf
    best_i = 0

    def consider(i, d2):
        nonlocal best, best_i
        if d2 < best or (d2 == best and i < best_i):
            best = d2
            best_i = i

    root = mid_at(0, count - 1)
    consider(root[2], root[3])
    stack = [root]
    while stack:
        a, b, mid, d2, slope = stack.pop()
        # no bound exceeds d2, so one can exceed best only when d2 does
        if d2 > best:
            s_a, s_b, s_mid = s_start + a * step, s_start + b * step, s_start + mid * step
            if bound(s_a, s_b, s_mid, d2, slope) > best:
                continue
        if b - a < _LEAF_INDICES:
            # the dense scan's expression, inline; mid again too: same bits
            for i in range(a, b + 1):
                s = s_start + i * step
                m = exp(s * log_base)
                re = m * cos(s * angle_rate) - target_re
                im = -m * sin(s * angle_rate) - target_im
                d2 = re * re + im * im
                if d2 < best or (d2 == best and i < best_i):
                    best = d2
                    best_i = i
            continue
        low = mid_at(a, mid - 1)
        high = mid_at(mid + 1, b)
        consider(low[2], low[3])
        consider(high[2], high[3])
        # the half with the smaller midpoint value is searched first
        if low[3] < high[3]:
            stack += (high, low)
        else:
            stack += (low, high)
    return best_i, math.sqrt(best)


def _midpoints(log_base, angle_rate, target_re, target_im, s_start, step):
    """mid_at(lo, hi): the interval (lo, hi, i, d2, slope) with i its middle
    index, d2 the dense scan's value there and slope the computed g'(s_i)."""
    exp, cos, sin = math.exp, math.cos, math.sin

    def mid_at(lo, hi):
        i = (lo + hi) // 2
        s = s_start + i * step
        m = exp(s * log_base)
        c = cos(s * angle_rate)
        sn = sin(s * angle_rate)
        re = m * c - target_re
        im = -m * sn - target_im
        slope = 2.0 * m * (re * (log_base * c - angle_rate * sn)
                           - im * (log_base * sn + angle_rate * c))
        return lo, hi, i, re * re + im * im, slope

    return mid_at


def _interval_bound(log_base, angle_rate, target_re, target_im):
    """bound(s_a, s_b, s_mid, d2_mid, slope_mid): a float lb with d2_i >= lb
    for every grid point i whose parameter lies between s_a and s_b, given the
    computed d2 and slope at s_mid, a grid parameter between them: the larger
    of the first- and second-order bounds of the module docstring, or -inf
    when d2_mid or the slope is inf or NaN."""
    exp, sqrt, nextafter, inf = math.exp, math.sqrt, math.nextafter, math.inf
    grows = log_base > 0.0
    speed = math.hypot(log_base, angle_rate) * _UP
    rates = abs(log_base) + abs(angle_rate)
    target_abs = abs(target_re) + abs(target_im)
    curve_rho = 2.0 * log_base * log_base  # K/2 = rho * (curve_rho * rho + curve_z)
    curve_z = (log_base * log_base + angle_rate * angle_rate) * target_abs

    def bound(s_a, s_b, s_mid, d2, slope):
        if not abs(slope) + d2 < inf:
            return -inf
        if s_b < s_a:  # a negative step
            s_a, s_b = s_b, s_a
        # conditional expressions, not max(): this runs once per interval
        rho = exp((s_b if grows else s_a) * log_base) * _UP + _TINY
        h = s_mid - s_a if s_mid - s_a > s_b - s_mid else s_b - s_mid
        h = nextafter(h, inf)
        s_abs = -s_a if -s_a > s_b else s_b
        e = _eval_error(rho, s_abs, rates, target_abs)
        first = sqrt(d2) * _DOWN - (rho * speed * h + 2.0 * e) * _UP
        first = first * first * _DOWN if first > 0.0 else -inf
        drop = (2.0 * _d2_error(e, rho + target_abs)
                + (abs(slope) + _slope_error(rho, s_abs, rates, target_abs)
                   + rho * (curve_rho * rho + curve_z) * h) * h)
        second = d2 * _DOWN - drop * _UP
        return second if second > first else first

    return bound


def _eval_error(rho, s_abs, rates, target_abs):
    """The error budget e: a bound on |sqrt(d2) - true distance| for every
    grid point with exp(s*log_base) <= rho and |s| <= s_abs, where rates is
    |log_base| + |angle_rate| and target_abs is |target_re| + |target_im|."""
    return _ERR_FACTOR * (rho * (s_abs * rates + 1.0) + target_abs) + _TINY


def _d2_error(e, spread):
    """E: a bound on |d2 - true distance**2| at a grid point where e bounds
    |sqrt(d2) - true distance| and rho + |target_re| + |target_im| <= spread."""
    return e * (2.0 * spread + e)


def _slope_error(rho, s_abs, rates, target_abs):
    """A bound on |computed slope - g'(s)| at every grid point with
    exp(s*log_base) <= rho and |s| <= s_abs (see the module docstring)."""
    return (_SLOPE_FACTOR * rho * (rho + target_abs) * rates * (s_abs * rates + 1.0)
            + _TINY * (rho + 1.0) * (rho + target_abs + rates + 1.0))
