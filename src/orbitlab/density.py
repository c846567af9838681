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

import bisect
import cmath
import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .jsonio import Field, PreconditionError, Record
from .operators import (
    DomainMismatchError,
    OperatorSpec,
    SeqVector,
    UnsupportedOperatorError,
    Vector,
    apply,
    on_domain,
    vector_inner,
    vector_norm,
    vector_scale,
)

if TYPE_CHECKING:
    from .scalar_sets import ScalarSet


def nearest_distances(grid, cloud, dim):
    """_kernels.nearest_distances, imported on the first call: a process that
    scans no grid never compiles the kernels. The scan calls this module
    attribute, so a patched one applies."""
    from ._kernels import nearest_distances as kernel

    return kernel(grid, cloud, dim)


class EmptyCloudError(PreconditionError):
    """The orbit cloud holds no samples; density queries are undefined."""


# ---------------------------------------------------------------------------
# orbit clouds


def _orbit(op: OperatorSpec, x: Vector, horizon: int) -> tuple[Vector, ...]:
    """T^n x for 0 <= n <= horizon. A number x becomes a point of C; any
    other x must lie on the operator's domain."""
    dom = op.operator_domain()
    if dom == "scalar" and not isinstance(x, complex):
        x = complex(x)
    if not on_domain(x, dom):
        raise DomainMismatchError(f"base point is not a vector on the {dom!r} domain")
    iterates = [x]
    for _ in range(horizon):
        iterates.append(apply(op, iterates[-1]))
    return tuple(iterates)


class OrbitCloud(Record):
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

    def section_coords(self, section: tuple[int, ...]) -> list[float]:
        """The real and imaginary parts of project(p, section) for every p in
        self.samples, in order and bit for bit, with only the section's
        coordinates scaled: vector_scale keeps 0 + g*v where g*v != 0 and
        drops the entry otherwise, which project reads as 0j; a number is
        scaled to g*v as it is."""
        out = []
        for it in self.iterates:
            if isinstance(it, SeqVector):
                d = it.as_dict()
                coords = [d.get(i) for i in section]
                for g in self.gammas:
                    for v in coords:
                        if v is None or (w := g * v) == 0:
                            out += (0.0, 0.0)
                        else:
                            w = 0 + w
                            out += (w.real, w.imag)
            else:
                (z,) = project(it, section)  # a number; a direct sum is refused
                for g in self.gammas:
                    w = g * z
                    out += (w.real, w.imag)
        return out


def generate_orbit(
    op: OperatorSpec,
    x: Vector,
    s: ScalarSet,
    horizon: int,
    gamma_grid: int,
    radial_window: Optional[tuple[float, float]] = None,
) -> OrbitCloud:
    """All samples gamma * T^n x for n <= horizon and gamma in the set's grid.
    A cloud of more than CLOUD_CAP samples is refused before either is built,
    and a grid point past float range before the orbit walk."""
    if horizon < 0:
        raise PreconditionError(f"horizon: {horizon} is negative")
    if gamma_grid < 1:
        raise PreconditionError(f"gamma_grid: {gamma_grid} is not positive")
    if (horizon + 1) * gamma_grid > CLOUD_CAP:
        field = "gamma_grid" if gamma_grid > CLOUD_CAP else "horizon"
        raise PreconditionError(
            f"{field}: (horizon + 1) * gamma_grid is more than {CLOUD_CAP:,} samples"
        )
    grid = tuple(s.scalar_grid(gamma_grid, radial_window))
    for g in grid:
        if not cmath.isfinite(g):
            raise PreconditionError(f"set: scalar grid point {g!r} is not finite")
    return OrbitCloud(op, _orbit(op, x, horizon), grid)


def project(point: Vector, section: Sequence[int]) -> tuple[complex, ...]:
    """Coordinates of the point on the declared section."""
    if isinstance(point, SeqVector):
        d = point.as_dict()
        return tuple(d.get(i, 0j) for i in section)
    if isinstance(point, complex):
        if tuple(section) != (0,):
            raise PreconditionError("section: a scalar point only has coordinate 0")
        return (point,)
    raise UnsupportedOperatorError("direct-sum points are not supported in density scans")


# ---------------------------------------------------------------------------
# epsilon density


COVERED = "covered_at_eps"
NOT_COVERED = "not_covered"
SOMEWHERE = "somewhere_witness"
# the most lattice points a ball grid's bounding box may hold
BALL_BOX_CAP = 10**6
# the most samples an orbit cloud may hold
CLOUD_CAP = 10**6
# the most (iterate, candidate multiplier) pairs a multiplier estimate may compare
SCAN_CAP = 10**6


class Ball(NamedTuple):
    center: tuple[complex, ...]
    radius: float


class Miss(NamedTuple):
    """A grid point left uncovered, with its distance to the nearest sample
    the prefilter kept (see epsilon_density), which may exceed the nearest
    sample's."""

    point: tuple[complex, ...]
    distance: float


class DensityReport(Record):
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
    grid_points: tuple[tuple[float, ...], ...] = Field((), omit=True)
    distances: tuple[float, ...] = Field((), omit=True)  # to kept samples

    def heatmap_rows(self):
        """(grid point, distance) for every grid point, the point as the real
        and imaginary parts of its coordinates and the distance as in
        epsilon_density: the nearest sample's when at most epsilon."""
        return tuple(zip(self.grid_points, self.distances))


def _ball_grid(
    center: tuple[complex, ...], radius: float, step: float
) -> tuple[list[tuple[float, ...]], list[tuple[int, ...]]]:
    """The ball's grid points and, for each, its per-axis offset indices. A
    bounding box of more than BALL_BOX_CAP lattice points is refused first."""
    axes = _flat([center])
    # radius / step * 2.0 is 2.0 * radius / step, without its overflow past 2**1023
    steps = int(min(radius / step * 2.0 + 1e-12, BALL_BOX_CAP)) + 1
    if steps ** len(axes) > BALL_BOX_CAP:
        raise PreconditionError(
            f"grid_step: {step!r} puts more than {BALL_BOX_CAP:,} lattice points in the "
            "bounding box of the ball"
        )
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

    Every grid point's distance to the samples that a bounding-box prefilter
    keeps (each section float within radius + epsilon of the center's; the
    whole cloud when none is kept) is computed. A sample that fails it is
    farther than epsilon from every grid point (but for the ball edge's
    1e-12 relative slack), so a distance at most epsilon is the
    nearest-sample distance, bit for bit, and one above epsilon may exceed
    it. The verdict is covered when all distances are within epsilon,
    otherwise a fully covered sub-ball is searched for before declaring the
    region not covered.
    """
    section = tuple(int(i) for i in section)
    center = tuple(complex(c) for c in center)
    if not section:
        raise PreconditionError("section: lists no coordinate")
    if len(center) != len(section):
        raise PreconditionError("ball.center: must list one coordinate per section index")
    for field, x in (("ball.radius", radius), ("grid_step", grid_step)):
        if x <= 0:
            raise PreconditionError(f"{field}: {x!r} is not positive")
    if not epsilon > grid_step / 2.0:
        raise PreconditionError(f"epsilon: {epsilon!r} does not exceed half the grid step")
    if not len(cloud):
        raise EmptyCloudError("orbit cloud has no samples")

    grid, indices = _ball_grid(center, radius, grid_step)
    if not grid:  # a verdict over no point would be vacuous
        raise PreconditionError(f"grid_step: {grid_step!r} puts no lattice point in the ball")
    axes = _flat([center])
    dim = len(axes)
    flat = cloud.section_coords(section)
    # bounding-box prefilter: anything farther than radius+epsilon from the
    # ball on some axis can never cover a grid point at epsilon
    reach = radius + epsilon
    near = [abs(x - c) <= reach for x, c in zip(flat, itertools.cycle(axes))]
    # a sample is kept when all dim of its floats are near
    keep = list(itertools.chain.from_iterable(
        itertools.compress(zip(*[iter(flat)] * dim), map(all, zip(*[iter(near)] * dim)))
    ))
    dists = nearest_distances(list(itertools.chain.from_iterable(grid)), keep or flat, dim)

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
        covered_fraction=covered / len(grid),
        verdict=verdict,
        witness_ball=witness,
        miss_witnesses=tuple(Miss(_floats_to_coords(grid[i]), dists[i]) for i in misses),
        grid_points=tuple(grid),
        distances=tuple(dists),
    )


def _flat(points) -> list[float]:
    """The real and imaginary parts of every coordinate of every point, in order."""
    return [x for coords in points for z in coords for x in (z.real, z.imag)]


def _floats_to_coords(pt: tuple[float, ...]) -> tuple[complex, ...]:
    return tuple(map(complex, pt[::2], pt[1::2]))


@functools.lru_cache(maxsize=16)
def _stencil(reach: float, dim: int) -> tuple[tuple[int, ...], ...]:
    """Offsets of length <= reach, nearest first: an uncovered one ends a scan early."""
    w, top, out = int(reach), reach * reach, [((), 0)]
    for _ in range(dim):  # in product order, as ties stay; no prefix past reach grows
        out = [(d + (k,), n + k * k) for d, n in out for k in range(-w, w + 1) if n + k * k <= top]
    return tuple(d for d, _ in sorted(out, key=operator.itemgetter(1)))


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
    reach = max(2.0, radius / 4.0 / grid_step) + 1.0  # sub_r / grid_step + 1.0, never inf
    stencil = _stencil(reach, len(indices[0]))
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
            s = 0  # added left to right, as sum() did before Python 3.12
            try:
                for a, b in zip(pt, grid[j]):
                    s += (a - b) ** 2
            except OverflowError:  # a square past float range; float ** raises there
                s = math.inf
            if s <= sub_rsq:
                count += 1
                if not covered_flags[j]:
                    good = False
                    break
        if good and count >= 3:
            return Ball(_floats_to_coords(pt), sub_r)
    return None


# ---------------------------------------------------------------------------
# boundedness certificates


def boundedness_certificates(op: OperatorSpec, x: Vector, horizon: int) -> tuple[float, float]:
    """(max, min) of ||T^n x|| over 0 <= n <= horizon, as float norms: each
    norm is a float evaluation of the exact iterate, not an exact value."""
    if horizon < 1:
        raise PreconditionError("horizon must be at least 1")
    norms = [vector_norm(it) for it in _orbit(op, x, horizon)]
    return max(norms), min(norms)


# ---------------------------------------------------------------------------
# positive-multiplier estimation


class LambdaEstimate(Record):
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
    inf or NaN, or whose multiplier overflows, is refused, naming the horizon
    and the first such m. So is a horizon whose walk would hold more than
    CLOUD_CAP iterates, or whose scan would compare more than SCAN_CAP
    (iterate, candidate) pairs: the scan costs O(horizon**2). A multiplier
    whose square leaves the normal float range squares lambda * ||T^m x||
    instead; a distance whose square still passes float range reads inf.
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
    if horizon + 1 > CLOUD_CAP:  # the walk holds every iterate, as a cloud does
        raise PreconditionError(f"horizon: horizon + 1 is more than {CLOUD_CAP:,} iterates")
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
            if not math.isfinite(norm_t / nu):
                raise PreconditionError(
                    f"horizon: at m = {m}, the multiplier ||T^n x|| / ||T^m x|| = "
                    f"{norm_t!r} / {nu!r} passes float range"
                )
            turn = round(-math.atan2(p.imag, p.real) / sector) * sector
            re = (p * complex(math.cos(turn), math.sin(turn))).real if p != 0 else None
            rows.append((nu, re))

    candidates = dict.fromkeys(norm_t / nu for nu, _ in rows)
    if len(candidates) * len(rows) > SCAN_CAP:
        raise PreconditionError(
            f"horizon: {len(candidates):,} candidate multipliers against {len(rows):,} "
            f"iterates is more than {SCAN_CAP:,} comparisons"
        )
    detected = []
    for lam in candidates:
        dists, hit = [], False
        off_range = not 2.0**-1022 <= lam * lam < math.inf
        for nu, re in rows:
            a = ((lam * nu) * (lam * nu) if off_range else lam * lam * nu * nu) + norm_t * norm_t
            d2 = a if re is None else a - 2.0 * lam * re
            dists.append(math.sqrt(d2) if d2 > 0 else 0.0)
            hit = hit or dists[-1] <= epsilon + math.pi / phase_grid * lam * nu
        if hit:
            detected.append((lam, min(dists)))
    detected.sort()
    return LambdaEstimate(
        iterate=n, epsilon=epsilon, phase_grid=phase_grid, detected=tuple(detected)
    )


def multiplicative_closure_report(est: LambdaEstimate) -> dict:
    """For exact detections (slack 0), report whether pairwise products are
    themselves detected within a relative 1e-9; informational, not asserted."""
    exact = [lam for lam, slack in est.detected if slack == 0.0]
    all_vals = est.multipliers()  # sorted ascending
    products = []
    for a in exact:
        for b in exact:
            prod = a * b
            # fl(prod - v) is monotone in v: the nearest multiplier is beside prod's place
            i = bisect.bisect_left(all_vals, prod)
            near = all_vals[max(i - 1, 0):i + 1]
            inside = any(abs(prod - v) <= 1e-9 * max(1.0, abs(prod)) for v in near)
            products.append({"factors": [a, b], "product": prod, "detected": inside})
    return {"exact_members": exact, "products": products}
