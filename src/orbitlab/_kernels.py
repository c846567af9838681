"""Grid-scan kernels behind the density and spiral searches.

Both kernels are exact pruned searches: they return bit for bit what a dense
scan over every grid point returns, but evaluate only the points a rigorous
lower bound cannot rule out. Every value they do evaluate comes from the
dense scan's own expression in its own operation order, and each grid
parameter is start + i*step (never accumulated), so results depend only on
the inputs and the platform's libm.

Nearest distances (kd-tree best-match search; Friedman, Bentley and Finkel,
ACM TOMS 3(3), 1977). A point's squared distance is the float sum
``s = 0.0; s += t*t`` with ``t = q[d] - p[d]`` over the axes in order. For a
node with bounding box [lo, hi] the lower bound takes on each axis the gap
``q[d] - lo[d]`` (query below the box) or ``q[d] - hi[d]`` (above it), or 0.0
inside, and sums the squared gaps from 0.0 in the same axis order. IEEE
subtraction, multiplication and addition are monotone under rounding to
nearest, so for every point p in the box each rounded gap is no larger in
magnitude than the rounded ``q[d] - p[d]``, each rounded square no larger,
and each rounded partial sum no larger. The bound therefore never exceeds
the computed squared distance of any point in the box, with no slack, and a
node whose bound is at least the best value found holds no point that could
lower it. Only the minimum is returned, so ties need no bookkeeping.

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

import math
from operator import itemgetter

BACKEND = "python"  # recorded in every perfbench/run.py result

_LEAF_POINTS = 12  # kd-tree leaf size
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
    points = [tuple(cloud[j : j + dim]) for j in range(0, len(cloud), dim)]
    root = _kd_build(points, dim)
    dists = []
    near = points[0]
    for base in range(0, len(grid), dim):
        q = tuple(grid[base : base + dim])
        # warm start from the previous query's nearest sample
        best = 0.0
        for a, b in zip(q, near):
            t = a - b
            best += t * t
        stack = [(0.0, root)]
        while stack:
            bound, (_, _, kids, leaf) = stack.pop()
            if bound >= best:
                continue
            if kids is None:
                for p in leaf:
                    s = 0.0
                    for a, b in zip(q, p):
                        t = a - b
                        s += t * t
                    if s < best:
                        best = s
                        near = p
                continue
            first, second = [(_box_bound(q, kid), kid) for kid in kids]
            if first[0] < second[0]:
                first, second = second, first
            if first[0] < best:
                stack.append(first)
            if second[0] < best:
                stack.append(second)
        dists.append(math.sqrt(best))
    return dists


def _box_bound(q, node):
    """Float sum of the squared per-axis gaps from q to the node's box."""
    bound = 0.0
    for a, l, h in zip(q, node[0], node[1]):
        if a < l:
            t = a - l
            bound += t * t
        elif a > h:
            t = a - h
            bound += t * t
    return bound


def _kd_build(points, dim):
    """Node (lo, hi, kids, leaf): the points' bounding box, then either the
    two children split at the median of the widest axis and leaf None, or
    kids None and leaf the points."""
    columns = list(zip(*points))
    lo = tuple(map(min, columns))
    hi = tuple(map(max, columns))
    if len(points) <= _LEAF_POINTS:
        return (lo, hi, None, points)
    axis = max(range(dim), key=lambda d: hi[d] - lo[d])
    points = sorted(points, key=itemgetter(axis))
    mid = len(points) // 2
    return (lo, hi, (_kd_build(points[:mid], dim), _kd_build(points[mid:], dim)), None)


def spiral_min_scan(log_base, angle_rate, target_re, target_im, s_start, step, count):
    """Minimize |base^s * exp(-i*s*rate) - target| over the s grid; returns
    (first minimal index, distance)."""
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
