"""Orbit clouds and numerical density verdicts on finite-dimensional sections.

Verdicts here are always relative to a declared section (a finite list of
coordinates), a ball, and a grid; nothing claims density of the full
infinite-dimensional orbit. Grids over scalar sets and over balls are
deterministic functions of their parameters, so reports reproduce exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from ._kernels import nearest_distances
from .operators import (
    DomainMismatchError,
    OperatorSpec,
    SeqVector,
    UnsupportedOperatorError,
    Vector,
    apply,
    vector_inner,
    vector_norm,
    vector_scale,
)
from .scalar_sets import ScalarSet


class EmptyCloudError(ValueError):
    """The orbit cloud holds no samples; density queries are undefined."""


# ---------------------------------------------------------------------------
# orbit clouds


@dataclass(frozen=True)
class OrbitCloud:
    base_point: Vector
    operator: OperatorSpec
    samples: tuple[tuple[int, complex, Vector], ...]  # (iterate, scalar, point)
    horizon: int
    gamma_grid_size: int

    def __len__(self):
        return len(self.samples)


def generate_orbit(
    op: OperatorSpec,
    x: Vector,
    s: ScalarSet,
    horizon: int,
    gamma_grid: int,
    radial_window: Optional[tuple[float, float]] = None,
) -> OrbitCloud:
    """All samples gamma * T^n x for n <= horizon and gamma in the set's grid."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    dom = op.operator_domain()
    if dom == "scalar":
        if not isinstance(x, complex):
            x = complex(x)
    elif isinstance(dom, str):
        if not isinstance(x, SeqVector) or x.domain != dom:
            raise DomainMismatchError(f"base point must be a {dom!r} sequence vector")
    if gamma_grid < 1:
        raise ValueError("grid size must be positive")
    gammas = s.scalar_grid(gamma_grid, radial_window)
    samples = []
    iterate = x
    for n in range(horizon + 1):
        for g in gammas:
            samples.append((n, g, vector_scale(g, iterate)))
        if n < horizon:
            iterate = apply(op, iterate)
    return OrbitCloud(
        base_point=x,
        operator=op,
        samples=tuple(samples),
        horizon=horizon,
        gamma_grid_size=len(gammas),
    )


def project(point: Vector, section: Sequence[int]) -> tuple[complex, ...]:
    """Coordinates of the point on the declared section."""
    if isinstance(point, SeqVector):
        d = point.as_dict()
        return tuple(d.get(i, 0j) for i in section)
    if isinstance(point, complex):
        if tuple(section) != (0,):
            raise ValueError("a scalar point only has coordinate 0")
        return (point,)
    raise UnsupportedOperatorError("direct-sum points are not supported in density scans")


# ---------------------------------------------------------------------------
# epsilon density


COVERED = "covered_at_eps"
NOT_COVERED = "not_covered"
SOMEWHERE = "somewhere_witness"


class Ball(NamedTuple):
    center: tuple[complex, ...]
    radius: float


class Miss(NamedTuple):
    """A grid point left uncovered, with its nearest-sample distance."""

    point: tuple[complex, ...]
    distance: float


@dataclass(frozen=True)
class DensityReport:
    section: tuple[int, ...]
    center: tuple[complex, ...]
    radius: float
    epsilon: float
    grid_step: float
    grid_count: int
    covered_count: int
    covered_fraction: float
    verdict: str
    witness_ball: Optional[Ball]
    miss_witnesses: tuple[Miss, ...]
    # full scan data for the heat-map export; omitted from the JSON summary
    grid_points: tuple[tuple[complex, ...], ...] = field(default=(), metadata={"omit": True})
    distances: tuple[float, ...] = field(default=(), metadata={"omit": True})

    def heatmap_rows(self):
        """(grid point coords, nearest-sample distance) for every grid point."""
        return tuple(zip(self.grid_points, self.distances))


def _ball_grid(
    center: tuple[complex, ...], radius: float, step: float
) -> tuple[list[tuple[float, ...]], list[tuple[int, ...]]]:
    """The ball's grid points and, for each, its per-axis offset indices."""
    axes = _flat([center])
    steps = int(math.floor(2.0 * radius / step + 1e-12)) + 1
    offsets = [-radius + i * step for i in range(steps)]
    rsq = radius * radius * (1.0 + 1e-12)
    points: list[tuple[float, ...]] = []
    indices: list[tuple[int, ...]] = []

    def rec(prefix: list[float], index: list[int], acc: float, axis: int):
        if axis == len(axes):
            points.append(tuple(prefix))
            indices.append(tuple(index))
            return
        for k, off in enumerate(offsets):
            a = acc + off * off
            if a <= rsq:
                prefix.append(axes[axis] + off)
                index.append(k)
                rec(prefix, index, a, axis + 1)
                prefix.pop()
                index.pop()

    rec([], [], 0.0, 0)
    return points, indices


def epsilon_density(
    cloud: OrbitCloud,
    section: Sequence[int],
    center: Sequence[complex],
    radius: float,
    epsilon: float,
    grid_step: float,
) -> DensityReport:
    """Cover test of the ball's grid against the projected cloud.

    Every grid point's nearest-sample distance is computed; the verdict is
    covered when all distances are within epsilon, otherwise a fully covered
    sub-ball is searched for before declaring the region not covered.
    """
    section = tuple(int(i) for i in section)
    center = tuple(complex(c) for c in center)
    if len(center) != len(section):
        raise ValueError("center must list one coordinate per section index")
    if radius <= 0 or grid_step <= 0:
        raise ValueError("radius and grid step must be positive")
    if not epsilon > grid_step / 2.0:
        raise ValueError("epsilon must exceed half the grid step")
    if not cloud.samples:
        raise EmptyCloudError("orbit cloud has no samples")

    projected = [project(p, section) for _, _, p in cloud.samples]
    # bounding-box prefilter: anything farther than radius+epsilon from the
    # ball on some axis can never cover a grid point at epsilon
    keep: list[tuple[complex, ...]] = []
    reach = radius + epsilon
    for coords in projected:
        if all(
            abs(z.real - c.real) <= reach and abs(z.imag - c.imag) <= reach
            for z, c in zip(coords, center)
        ):
            keep.append(coords)
    if not keep:
        keep = projected

    grid, indices = _ball_grid(center, radius, grid_step)
    dists = nearest_distances([v for pt in grid for v in pt], _flat(keep), 2 * len(section))

    covered_flags = [d <= epsilon for d in dists]
    covered = sum(covered_flags)
    misses = [i for i in range(len(grid)) if not covered_flags[i]][:1000]

    if covered == len(grid):
        verdict, witness = COVERED, None
    else:
        witness = _somewhere_witness(grid, indices, covered_flags, radius, grid_step)
        verdict = SOMEWHERE if witness is not None else NOT_COVERED

    return DensityReport(
        section=section,
        center=center,
        radius=radius,
        epsilon=epsilon,
        grid_step=grid_step,
        grid_count=len(grid),
        covered_count=covered,
        covered_fraction=covered / len(grid) if grid else 0.0,
        verdict=verdict,
        witness_ball=witness,
        miss_witnesses=tuple(Miss(_floats_to_coords(grid[i]), dists[i]) for i in misses),
        grid_points=tuple(_floats_to_coords(pt) for pt in grid),
        distances=tuple(dists),
    )


def _flat(points) -> list[float]:
    """The real and imaginary parts of every coordinate of every point, in order."""
    return [x for coords in points for z in coords for x in (z.real, z.imag)]


def _floats_to_coords(pt: tuple[float, ...]) -> tuple[complex, ...]:
    return tuple(complex(pt[2 * i], pt[2 * i + 1]) for i in range(len(pt) // 2))


def _somewhere_witness(grid, indices, covered_flags, radius, grid_step):
    """First grid point whose surrounding sub-ball of grid points is fully
    covered (at least 3 of them), if any.

    Candidate neighbours come from a lattice stencil: the offset-index
    vectors of length at most sub_r/grid_step + 1. Coordinate rounding moves
    a grid point far less than one step (whenever the ball's coordinates are
    below about 10**14 steps), so every grid point that passes the float
    distance test lies at a stencil offset, and each point's count and
    verdict are those of a scan over the whole grid.
    """
    sub_r = max(2.0 * grid_step, radius / 4.0)
    sub_rsq = sub_r * sub_r * (1.0 + 1e-12)
    reach = sub_r / grid_step + 1.0
    w = int(reach)
    # nearest offsets first: an uncovered neighbour ends a point's scan early
    stencil = sorted(
        (d for d in itertools.product(range(-w, w + 1), repeat=len(indices[0]))
         if sum(k * k for k in d) <= reach * reach),
        key=lambda d: sum(k * k for k in d),
    )
    position = {idx: j for j, idx in enumerate(indices)}
    for i, pt in enumerate(grid):
        if not covered_flags[i]:
            continue
        count = 0
        good = True
        here = indices[i]
        for d in stencil:
            j = position.get(tuple(map(operator.add, here, d)))
            if j is None:
                continue
            s = sum((a - b) ** 2 for a, b in zip(pt, grid[j]))
            if s <= sub_rsq:
                count += 1
                if not covered_flags[j]:
                    good = False
                    break
        if good and count >= 3:
            return Ball(_floats_to_coords(pt), sub_r)
    return None


# ---------------------------------------------------------------------------
# d-density


@dataclass(frozen=True)
class DDenseResult:
    ok: bool
    witnesses: tuple[tuple[tuple[complex, ...], float], ...]  # (center, nearest distance)


def d_dense_check(
    cloud: OrbitCloud,
    section: Sequence[int],
    d: float,
    centers: Sequence[Sequence[complex]],
) -> DDenseResult:
    """True iff every open ball of radius d around the centers holds a sample."""
    if d <= 0:
        raise ValueError("ball radius must be positive")
    if not cloud.samples:
        raise EmptyCloudError("orbit cloud has no samples")
    section = tuple(int(i) for i in section)
    centers = [tuple(complex(c) for c in ctr) for ctr in centers]
    cloud_coords = (project(p, section) for _, _, p in cloud.samples)
    dists = nearest_distances(_flat(centers), _flat(cloud_coords), 2 * len(section))
    witnesses = tuple(
        (centers[i], dists[i]) for i in range(len(centers)) if not dists[i] < d
    )
    return DDenseResult(ok=not witnesses, witnesses=witnesses)


# ---------------------------------------------------------------------------
# boundedness certificates


def boundedness_certificates(op: OperatorSpec, x: Vector, horizon: int) -> tuple[float, float]:
    """Exact (max, min) of ||T^n x|| over 0 <= n <= horizon."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    sup = inf = vector_norm(x)
    cur = x
    for _ in range(horizon):
        cur = apply(op, cur)
        nrm = vector_norm(cur)
        sup = max(sup, nrm)
        inf = min(inf, nrm)
    return sup, inf


# ---------------------------------------------------------------------------
# positive-multiplier estimation


@dataclass(frozen=True)
class LambdaEstimate:
    iterate: int
    epsilon: float
    phase_grid: int
    detected: tuple[tuple[float, float], ...]  # (multiplier, slack)

    def multipliers(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.detected)


def scalar_lambda_oracle(c: complex, n: int, horizon: int) -> tuple[float, ...]:
    """Closed-form multiplier set for the scalar operator c*Id with base 1:
    {|c|^(n-m) : n <= m <= horizon}, sorted ascending."""
    mags = sorted({abs(c) ** (n - m) for m in range(n, horizon + 1)})
    return tuple(mags)


def lambda_set_estimate(
    op: OperatorSpec,
    x: Vector,
    n: int,
    cloud: OrbitCloud,
    epsilon: float,
    phase_grid: int = 360,
) -> LambdaEstimate:
    """Positive multipliers lambda with some m >= n and phase theta on the
    grid making lambda*e^(i theta)*T^m x land within epsilon of T^n x.

    The cloud must be generated with the one-point scalar set {1}; candidate
    multipliers are the norm ratios ||T^n x|| / ||T^m x||. The angular
    discretization error (pi/N times the scaled sample norm) is added to the
    acceptance threshold so a true match never fails by grid phase alone.
    """
    if not cloud.samples:
        raise EmptyCloudError("orbit cloud has no samples")
    if any(g != 1 for _, g, _ in cloud.samples):
        raise ValueError("multiplier estimation needs a cloud with scalar grid {1}")
    if cloud.operator != op or cloud.base_point != x:
        raise ValueError("cloud was not generated from this operator and base point")
    if n > cloud.horizon:
        raise ValueError("iterate index beyond the cloud horizon")

    points: dict[int, Vector] = {}
    for m, _, p in cloud.samples:
        points.setdefault(m, p)
    target = points[n]
    norm_t = vector_norm(target)
    if norm_t == 0:
        return LambdaEstimate(iterate=n, epsilon=epsilon, phase_grid=phase_grid, detected=())

    ms = [m for m in range(n, cloud.horizon + 1) if m in points]
    norms = {m: vector_norm(points[m]) for m in ms}
    candidates: list[float] = []
    for m in ms:
        if norms[m] > 0:
            lam = norm_t / norms[m]
            if lam not in candidates:
                candidates.append(lam)

    sector = 2.0 * math.pi / phase_grid
    detected = []
    for lam in candidates:
        best = math.inf
        hit = False
        for m in ms:
            u = points[m]
            nu = norms[m]
            if nu == 0:
                continue
            a = lam * lam * nu * nu + norm_t * norm_t
            p = vector_inner(u, target)
            mag = abs(p)
            if mag == 0:
                d2 = a
            else:
                k = round((-math.atan2(p.imag, p.real)) / sector)
                theta = k * sector
                re = (p * complex(math.cos(theta), math.sin(theta))).real
                d2 = a - 2.0 * lam * re
            dist = math.sqrt(d2) if d2 > 0 else 0.0
            best = min(best, dist)
            if dist <= epsilon + (math.pi / phase_grid) * lam * nu:
                hit = True
        if hit:
            detected.append((lam, best))
    detected.sort()
    return LambdaEstimate(
        iterate=n, epsilon=epsilon, phase_grid=phase_grid, detected=tuple(detected)
    )


def multiplicative_closure_report(est: LambdaEstimate, tol: float = 1e-9) -> dict:
    """For exact detections (slack 0), report whether pairwise products are
    themselves detected within tol; informational, not asserted."""
    exact = [lam for lam, slack in est.detected if slack == 0.0]
    all_vals = est.multipliers()
    products = []
    for a in exact:
        for b in exact:
            prod = a * b
            inside = any(abs(prod - v) <= tol * max(1.0, abs(prod)) for v in all_vals)
            products.append({"factors": [a, b], "product": prod, "detected": inside})
    return {"exact_members": exact, "products": products}
