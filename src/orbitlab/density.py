"""Orbit clouds and numerical density verdicts on finite-dimensional sections.

Every query here walks the plain orbit T^n x (n = 0, ..., horizon) through
one helper, _orbit: the orbit cloud scales its iterates by a scalar grid,
the boundedness certificates take their norms, and the multiplier estimate
compares them with one another. Verdicts are always relative to a declared
section (a finite list of coordinates), a ball, and a grid; nothing claims
density of the full infinite-dimensional orbit. Grids over scalar sets and
over balls are deterministic functions of their parameters, so reports
reproduce exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from ._kernels import nearest_distances
from .jsonio import PreconditionError
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

if TYPE_CHECKING:
    from .scalar_sets import ScalarSet


class EmptyCloudError(PreconditionError):
    """The orbit cloud holds no samples; density queries are undefined."""


# ---------------------------------------------------------------------------
# orbit clouds


def _orbit(op: OperatorSpec, x: Vector, horizon: int) -> tuple[Vector, ...]:
    """T^n x for 0 <= n <= horizon. A number x becomes a point of C; a
    sequence vector must lie on the operator's domain."""
    dom = op.operator_domain()
    if dom == "scalar":
        if not isinstance(x, complex):
            x = complex(x)
    elif isinstance(dom, str):
        if not isinstance(x, SeqVector) or x.domain != dom:
            raise DomainMismatchError(f"base point must be a {dom!r} sequence vector")
    iterates = [x]
    for _ in range(horizon):
        iterates.append(apply(op, iterates[-1]))
    return tuple(iterates)


@dataclass(frozen=True)
class OrbitCloud:
    """The samples gamma * T^n x for n <= horizon and gamma in the scalar
    grid, kept as the iterates T^n x (n = 0, ..., horizon) and the grid; a
    sample's scaled vector is only formed when samples is read."""

    operator: OperatorSpec
    iterates: tuple[Vector, ...]
    gammas: tuple[complex, ...]

    def __len__(self):
        return len(self.iterates) * len(self.gammas)

    @property
    def samples(self) -> tuple[tuple[int, complex, Vector], ...]:
        """(iterate, scalar, point) for every sample, n major."""
        return tuple(
            (n, g, vector_scale(g, it)) for n, it in enumerate(self.iterates) for g in self.gammas
        )

    def section_coords(self, section: tuple[int, ...]) -> list[tuple[complex, ...]]:
        """[project(p, section) for _, _, p in self.samples], bit for bit,
        with only the section's coordinates scaled: vector_scale keeps
        0 + g*v where g*v != 0 and drops the entry otherwise, which project
        reads as 0j; a number is scaled to g*v as it is."""
        out = []
        for it in self.iterates:
            if isinstance(it, SeqVector):
                d = it.as_dict()
                coords = [d.get(i) for i in section]
                for g in self.gammas:
                    out.append(
                        tuple(0j if v is None or (w := g * v) == 0 else 0 + w for v in coords)
                    )
            else:
                (z,) = project(it, section)  # a number; a direct sum is refused
                out.extend((g * z,) for g in self.gammas)
        return out


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
        raise PreconditionError("horizon must be nonnegative")
    iterates = _orbit(op, x, horizon)
    if gamma_grid < 1:
        raise PreconditionError("grid size must be positive")
    return OrbitCloud(op, iterates, tuple(s.scalar_grid(gamma_grid, radial_window)))


def project(point: Vector, section: Sequence[int]) -> tuple[complex, ...]:
    """Coordinates of the point on the declared section."""
    if isinstance(point, SeqVector):
        d = point.as_dict()
        return tuple(d.get(i, 0j) for i in section)
    if isinstance(point, complex):
        if tuple(section) != (0,):
            raise PreconditionError("a scalar point only has coordinate 0")
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
        raise PreconditionError("center must list one coordinate per section index")
    if radius <= 0 or grid_step <= 0:
        raise PreconditionError("radius and grid step must be positive")
    if not epsilon > grid_step / 2.0:
        raise PreconditionError("epsilon must exceed half the grid step")
    if not len(cloud):
        raise EmptyCloudError("orbit cloud has no samples")

    projected = cloud.section_coords(section)
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
        raise PreconditionError("ball radius must be positive")
    if not len(cloud):
        raise EmptyCloudError("orbit cloud has no samples")
    section = tuple(int(i) for i in section)
    centers = [tuple(complex(c) for c in ctr) for ctr in centers]
    cloud_coords = cloud.section_coords(section)
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
        raise PreconditionError("horizon must be at least 1")
    norms = [vector_norm(it) for it in _orbit(op, x, horizon)]
    return max(norms), min(norms)


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
    horizon: int,
    epsilon: float,
    phase_grid: int = 360,
) -> LambdaEstimate:
    """Positive multipliers lambda with some n <= m <= horizon and phase
    theta on the grid making lambda*e^(i theta)*T^m x land within epsilon of
    T^n x.

    Candidate multipliers are the norm ratios ||T^n x|| / ||T^m x||. The
    angular discretization error (pi/N times the scaled sample norm) is added
    to the acceptance threshold so a true match never fails by grid phase
    alone. An orbit whose norm ||T^m x|| or inner product <T^m x, T^n x> is
    inf or NaN is refused, naming the horizon and the first such m.
    """
    if horizon < 0:
        raise PreconditionError(f"horizon: {horizon} is negative")
    if not 0 <= n <= horizon:
        raise PreconditionError(f"iterate: {n} is outside 0..{horizon}, the horizon")
    if phase_grid < 1:
        raise PreconditionError(f"phase_grid: {phase_grid} is not positive")
    if phase_grid > 2**53:  # the phase step divides by float(phase_grid)
        raise PreconditionError("phase_grid: above 2**53, where a float stops holding it exactly")
    if epsilon < 0:
        raise PreconditionError(f"epsilon: {epsilon!r} is negative")
    points = _orbit(op, x, horizon)
    target, norm_t = points[n], vector_norm(points[n])
    sector = 2.0 * math.pi / phase_grid
    # per nonzero T^m x: its norm, and the real part of its inner product
    # with the target turned by the nearest grid phase (None where it is 0)
    rows = []
    for m in range(n, horizon + 1):
        nu, p = vector_norm(points[m]), vector_inner(points[m], target)
        if not (math.isfinite(nu) and cmath.isfinite(p)):
            raise PreconditionError(
                f"horizon: at m = {m}, ||T^m x|| = {nu!r} and <T^m x, T^n x> = {p!r}; "
                "the orbit leaves float range"
            )
        if nu != 0 and norm_t != 0:  # a zero target has no multipliers
            turn = round(-math.atan2(p.imag, p.real) / sector) * sector
            re = (p * complex(math.cos(turn), math.sin(turn))).real if p != 0 else None
            rows.append((nu, re))

    detected = []
    for lam in dict.fromkeys(norm_t / nu for nu, _ in rows):
        dists, hit = [], False
        for nu, re in rows:
            a = lam * lam * nu * nu + norm_t * norm_t
            d2 = a if re is None else a - 2.0 * lam * re
            dists.append(math.sqrt(d2) if d2 > 0 else 0.0)
            hit = hit or dists[-1] <= epsilon + math.pi / phase_grid * lam * nu
        if hit:
            detected.append((lam, min(dists)))
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
