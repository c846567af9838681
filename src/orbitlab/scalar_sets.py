"""Symbolic scalar sets in the complex plane and their classification.

A ScalarSet is a closed-form region description (finite point lists, circles,
rings, arcs, sectors, logarithmic spirals, geometric point sequences, unions,
scalings, and rotation closures). Everything a verdict depends on is decided
from the symbolic tree, never from floating-point sampling: the modulus set
is computed as a canonical union of closed intervals plus geometric tails,
and the two classification verdicts (does scaled-orbit density force orbit
density, and the somewhere-dense variant) follow from boundedness, distance
from zero, and interior emptiness of that modulus set.

Angles are always carried symbolically (AngleSpec): whether an angle is a
rational multiple of pi cannot be recovered from a float, and the rotation
group it generates is finite exactly in the rational case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import jsonio
from ._exact import X2, XC, XC_ONE

_TWO_PI = 2.0 * math.pi
_ANGLE_TOL = 1e-9


class EmptyScalarSetError(ValueError):
    """The scalar set denotes the empty set or {0}; classification is undefined."""


class UndecidableDensityError(ValueError):
    """Density in the plane is not decidable for this set description."""


# ---------------------------------------------------------------------------
# angle specifications


@dataclass(frozen=True)
class AngleSpec:
    """An angle in radians, tagged as pi-rational (p*pi/q) or declared irrational."""

    kind: str  # "pi_rational" | "irrational"
    p: int = 0
    q: int = 1
    declared: float = 0.0
    tag: str = ""

    @classmethod
    def rational_pi(cls, p: int, q: int) -> "AngleSpec":
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g:
            p, q = p // g, q // g
        angle = cls(kind="pi_rational", p=p, q=q)
        try:
            finite = math.isfinite(angle.value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("angle p*pi/q is beyond float range")
        return angle

    @classmethod
    def irrational(cls, value: float, tag: str = "") -> "AngleSpec":
        if not math.isfinite(value):
            raise ValueError("declared angle must be finite")
        return cls(kind="irrational", declared=float(value), tag=tag)

    @property
    def value(self) -> float:
        if self.kind == "pi_rational":
            return self.p * math.pi / self.q
        return self.declared

    def group_order(self) -> Optional[int]:
        """Order of the rotation group generated by exp(i*angle); None if infinite."""
        if self.kind != "pi_rational":
            return None
        return (2 * self.q) // math.gcd(self.p, 2 * self.q)

    def to_json(self) -> dict:
        if self.kind == "pi_rational":
            return {"pi_rational": [self.p, self.q]}
        return {"irrational": self.declared, "tag": self.tag}

    @classmethod
    def from_json(cls, obj, path: str) -> "AngleSpec":
        if isinstance(obj, dict) and "pi_rational" in obj:
            p, q = jsonio.decode_key(tuple[int, int], obj, "pi_rational", path)
            return jsonio.construct(cls.rational_pi, f"{path}.pi_rational", p, q)
        return cls.irrational(
            jsonio.decode_key(float, obj, "irrational", path),
            jsonio.decode_key(str, obj, "tag", path, ""),
        )


# ---------------------------------------------------------------------------
# scalar set variants


@dataclass(frozen=True)
class ScalarSet(jsonio.Family):
    """Base class; use the concrete variants."""

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class FinitePoints(ScalarSet, kind="finite_points"):
    points: tuple[complex, ...]

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(complex(p) for p in points))

    def contains(self, z, tol=1e-9):
        return any(abs(z - p) <= tol for p in self.points)


@dataclass(frozen=True)
class Circle(ScalarSet, kind="circle"):
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("circle radius must be positive and finite")

    def contains(self, z, tol=1e-9):
        return abs(abs(z) - self.radius) <= tol


@dataclass(frozen=True)
class Annulus(ScalarSet, kind="annulus"):
    """All z with inner_radius <= |z| <= outer_radius (a closed ring)."""

    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not (0 < self.inner_radius <= self.outer_radius < math.inf):
            raise ValueError("annulus needs 0 < inner_radius <= outer_radius < inf")

    def contains(self, z, tol=1e-9):
        return self.inner_radius - tol <= abs(z) <= self.outer_radius + tol


def _angle_between(theta: float, lo: float, hi: float, tol: float) -> bool:
    span = hi - lo
    if span >= _TWO_PI - tol:
        return True
    t = (theta - lo) % _TWO_PI
    return t <= span + tol or t >= _TWO_PI - tol


@dataclass(frozen=True)
class Arc(ScalarSet, kind="arc"):
    radius: float
    angle_lo: float
    angle_hi: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("arc radius must be positive and finite")
        if self.angle_hi < self.angle_lo:
            raise ValueError("arc needs angle_lo <= angle_hi")

    def contains(self, z, tol=1e-9):
        if abs(abs(z) - self.radius) > tol:
            return False
        return _angle_between(math.atan2(z.imag, z.real), self.angle_lo, self.angle_hi, tol)


@dataclass(frozen=True)
class Sector(ScalarSet, kind="sector"):
    """{r*exp(i*a) : radius_lo <= r <= radius_hi, angle_lo <= a <= angle_hi}."""

    radius_lo: float
    radius_hi: float = field(metadata={"null": math.inf})  # math.inf allowed; null in JSON
    angle_lo: float
    angle_hi: float

    def __post_init__(self):
        if not (0 <= self.radius_lo <= self.radius_hi):
            raise ValueError("sector needs 0 <= radius_lo <= radius_hi")
        if self.angle_hi < self.angle_lo:
            raise ValueError("sector needs angle_lo <= angle_hi")

    def contains(self, z, tol=1e-9):
        r = abs(z)
        if not (self.radius_lo - tol <= r <= self.radius_hi + tol):
            return False
        if r <= tol:
            return self.radius_lo <= tol
        return _angle_between(math.atan2(z.imag, z.real), self.angle_lo, self.angle_hi, tol)


def positive_ray() -> Sector:
    """The nonnegative real axis [0, inf) as a degenerate sector."""
    return Sector(0.0, math.inf, 0.0, 0.0)


@dataclass(frozen=True)
class LogSpiral(ScalarSet, kind="log_spiral"):
    """{base^t * exp(-i*t*rate) : t real}; base > 0, base != 1."""

    base: float
    rate: AngleSpec

    def __post_init__(self):
        if not (self.base > 0 and self.base != 1.0 and math.isfinite(self.base)):
            raise ValueError("spiral base must be positive, finite and != 1")

    def point_at(self, t: float) -> complex:
        return self.base ** t * complex(math.cos(t * self.rate.value), -math.sin(t * self.rate.value))

    def contains(self, z, tol=1e-9):
        r = abs(z)
        if r == 0.0:
            return False
        t = math.log(r) / math.log(self.base)
        target = (-t * self.rate.value) % _TWO_PI
        actual = math.atan2(z.imag, z.real) % _TWO_PI
        diff = abs(target - actual)
        return min(diff, _TWO_PI - diff) <= tol


@dataclass(frozen=True)
class Geometric(ScalarSet, kind="geometric"):
    """The point sequence {base^j : j >= 0}; |base| != 1 so moduli form a tail."""

    base: complex

    def __init__(self, base):
        object.__setattr__(self, "base", complex(base))
        m = abs(self.base)
        if m == 0 or m == 1.0 or not math.isfinite(m):
            raise ValueError("geometric base must satisfy 0 < |base| != 1")

    def contains(self, z, tol=1e-9):
        r = abs(z)
        if r == 0.0:
            return False
        j = round(math.log(r) / math.log(abs(self.base)))
        if j < 0:
            return False
        return abs(z - self.base ** j) <= tol * max(1.0, r)


@dataclass(frozen=True)
class Union(ScalarSet, kind="union"):
    members: tuple[ScalarSet, ...]

    def __init__(self, *members):
        if len(members) == 1 and isinstance(members[0], (list, tuple)):
            members = tuple(members[0])
        if not members:
            raise ValueError("union must be non-empty")
        object.__setattr__(self, "members", tuple(members))

    def contains(self, z, tol=1e-9):
        return any(m.contains(z, tol) for m in self.members)


@dataclass(frozen=True)
class Scaled(ScalarSet, kind="scaled"):
    factor: complex
    inner: ScalarSet

    def __init__(self, factor, inner):
        factor = complex(factor)
        if factor == 0:
            raise ValueError("scaling factor must be nonzero")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "inner", inner)

    def contains(self, z, tol=1e-9):
        return self.inner.contains(z / self.factor, tol / max(1.0, abs(self.factor)))


@dataclass(frozen=True)
class CircleProduct(ScalarSet, kind="circle_product"):
    """Closure of {g*z : g in inner, |z| = 1}: rotation-invariant, fixed by its moduli."""

    inner: ScalarSet

    def contains(self, z, tol=1e-9):
        return modulus_set(self.inner).contains(abs(z), tol)


# ---------------------------------------------------------------------------
# modulus sets


@dataclass(frozen=True)
class ModulusSet:
    """Closure of {|z| : z in set} as closed intervals plus geometric tails.

    intervals: sorted disjoint (lo, hi) with lo <= hi, hi may be inf.
    tails: (scale, ratio) denoting {scale*ratio^j : j >= 0}; ratio < 1 tails
    accumulate at 0 (the closure includes 0), ratio > 1 tails are unbounded.
    """

    intervals: tuple[tuple[float, float], ...] = ()
    tails: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def canonical(intervals, tails=()) -> "ModulusSet":
        ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
        merged: list[tuple[float, float]] = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        tl = tuple(sorted(set((float(s), float(r)) for s, r in tails)))
        return ModulusSet(tuple(merged), tl)

    @property
    def unbounded(self) -> bool:
        if any(hi == math.inf for _, hi in self.intervals):
            return True
        return any(r > 1 for _, r in self.tails)

    def sup(self) -> float:
        best = 0.0
        for _, hi in self.intervals:
            best = max(best, hi)
        for s, r in self.tails:
            best = math.inf if r > 1 else max(best, s)
        return best

    def inf_positive(self) -> float:
        """Infimum of the positive part of the closure (0 if 0 is a limit point)."""
        best = math.inf
        for lo, hi in self.intervals:
            if hi <= 0:
                continue  # the isolated point {0}
            best = min(best, lo)  # lo == 0 with hi > 0 means moduli reach down to 0
        for s, r in self.tails:
            best = 0.0 if r < 1 else min(best, s)
        return best

    def has_interior(self) -> bool:
        return any(hi > lo for lo, hi in self.intervals)

    def contains(self, x: float, tol: float = 1e-9) -> bool:
        for lo, hi in self.intervals:
            if lo - tol <= x <= hi + tol:
                return True
        for s, r in self.tails:
            if r < 1 and x <= tol:
                return True
            if x > 0 and s > 0:
                j = round(math.log(x / s) / math.log(r))
                if j >= 0 and abs(s * r ** j - x) <= tol * max(1.0, x):
                    return True
        return False

    def merge(self, other: "ModulusSet") -> "ModulusSet":
        return ModulusSet.canonical(self.intervals + other.intervals, self.tails + other.tails)

    def scaled(self, factor: float) -> "ModulusSet":
        factor = abs(factor)
        return ModulusSet.canonical(
            [(lo * factor, hi * factor) for lo, hi in self.intervals],
            [(s * factor, r) for s, r in self.tails],
        )

    def to_json(self) -> dict:
        return {
            "intervals": [[lo, hi if hi != math.inf else None] for lo, hi in self.intervals],
            "tails": [[s, r] for s, r in self.tails],
            "unbounded": self.unbounded,
        }


def modulus_set(s: ScalarSet) -> ModulusSet:
    """Closure of the moduli of the set, as a canonical ModulusSet."""
    if isinstance(s, FinitePoints):
        return ModulusSet.canonical([(abs(p), abs(p)) for p in s.points])
    if isinstance(s, Circle):
        return ModulusSet.canonical([(s.radius, s.radius)])
    if isinstance(s, Annulus):
        return ModulusSet.canonical([(s.inner_radius, s.outer_radius)])
    if isinstance(s, Arc):
        return ModulusSet.canonical([(s.radius, s.radius)])
    if isinstance(s, Sector):
        if s.radius_hi == s.radius_lo == 0:
            return ModulusSet.canonical([(0.0, 0.0)])
        return ModulusSet.canonical([(s.radius_lo, s.radius_hi)])
    if isinstance(s, LogSpiral):
        # moduli {base^t : t real} = (0, inf); the closure adds 0
        return ModulusSet.canonical([(0.0, math.inf)])
    if isinstance(s, Geometric):
        return ModulusSet.canonical([], [(1.0, abs(s.base))])
    if isinstance(s, Union):
        out = ModulusSet()
        for m in s.members:
            out = out.merge(modulus_set(m))
        return out
    if isinstance(s, Scaled):
        return modulus_set(s.inner).scaled(abs(s.factor))
    if isinstance(s, CircleProduct):
        return modulus_set(s.inner)
    raise TypeError(f"unknown scalar set variant {type(s).__name__}")


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationResult:
    nonempty_nonzero: bool
    bounded: bool
    bounded_away_zero: bool
    modulus_empty_interior: bool
    is_hypercyclic_scalar_set: bool
    is_somewhere_hypercyclic_scalar_set: bool
    explanation: tuple[str, ...] = field(default_factory=tuple)


def strip_zero(s: ScalarSet) -> Optional[ScalarSet]:
    """Remove exact zero points; None if nothing nonzero remains."""
    if isinstance(s, FinitePoints):
        pts = tuple(p for p in s.points if p != 0)
        return FinitePoints(pts) if pts else None
    if isinstance(s, Union):
        kept = [m for m in (strip_zero(m) for m in s.members) if m is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else Union(kept)
    if isinstance(s, Scaled):
        inner = strip_zero(s.inner)
        return None if inner is None else Scaled(s.factor, inner)
    if isinstance(s, CircleProduct):
        inner = strip_zero(s.inner)
        return None if inner is None else CircleProduct(inner)
    if isinstance(s, Sector) and s.radius_hi == 0:
        return None  # the degenerate sector {0}
    return s


def classify(s: ScalarSet) -> ClassificationResult:
    """Decide both scalar-set verdicts from the modulus set of the set minus {0}.

    The strong verdict holds iff the nonzero part is non-empty, bounded and
    bounded away from 0; the somewhere-dense verdict additionally requires the
    modulus closure to contain no interval of positive length.
    """
    stripped = strip_zero(s)
    if stripped is None:
        raise EmptyScalarSetError("scalar set denotes the empty set or {0}")
    ms = modulus_set(stripped)
    bounded = not ms.unbounded and math.isfinite(ms.sup())
    inf_pos = ms.inf_positive()
    away = inf_pos > 0
    empty_interior = not ms.has_interior()

    notes = []
    notes.append("nonzero part is non-empty")
    sup = ms.sup()
    notes.append(f"modulus set bounded (sup = {sup})" if bounded else "modulus set unbounded")
    notes.append(
        f"modulus set bounded away from 0 (inf = {inf_pos})"
        if away
        else "moduli reach arbitrarily close to 0"
    )
    notes.append(
        "modulus closure contains no interval of positive length"
        if empty_interior
        else "modulus closure contains an interval of positive length"
    )

    hyper = bounded and away
    somewhere = hyper and empty_interior
    return ClassificationResult(
        nonempty_nonzero=True,
        bounded=bounded,
        bounded_away_zero=away,
        modulus_empty_interior=empty_interior,
        is_hypercyclic_scalar_set=hyper,
        is_somewhere_hypercyclic_scalar_set=somewhere,
        explanation=tuple(notes),
    )


# ---------------------------------------------------------------------------
# rotation products


def is_rotation_invariant(s: ScalarSet) -> bool:
    if isinstance(s, (Circle, Annulus, CircleProduct)):
        return True
    if isinstance(s, Sector) and s.angle_hi - s.angle_lo >= _TWO_PI:
        return True
    if isinstance(s, Union):
        return all(is_rotation_invariant(m) for m in s.members)
    if isinstance(s, Scaled):
        return is_rotation_invariant(s.inner)
    return False


def rotate(s: ScalarSet, phase: float) -> ScalarSet:
    """The set multiplied by exp(i*phase)."""
    if is_rotation_invariant(s):
        return s
    if isinstance(s, FinitePoints):
        w = complex(math.cos(phase), math.sin(phase))
        return FinitePoints(tuple(w * p for p in s.points))
    if isinstance(s, Arc):
        return Arc(s.radius, s.angle_lo + phase, s.angle_hi + phase)
    if isinstance(s, Sector):
        return Sector(s.radius_lo, s.radius_hi, s.angle_lo + phase, s.angle_hi + phase)
    if isinstance(s, Union):
        return Union(tuple(rotate(m, phase) for m in s.members))
    if isinstance(s, Scaled):
        w = complex(math.cos(phase), math.sin(phase))
        return Scaled(s.factor * w, s.inner)
    # spirals, geometric sequences: keep the rotation as a scaling
    w = complex(math.cos(phase), math.sin(phase))
    return Scaled(w, s)


def rotation_group_product(s: ScalarSet, angle: AngleSpec) -> ScalarSet:
    """Product of the set with the rotation group generated by exp(i*angle).

    Rational multiples of pi generate a finite group: the result is the union
    of finitely many rotated copies. Otherwise the group is dense in the unit
    circle and the closed product is the rotation closure of the set.
    """
    order = angle.group_order()
    if order is None:
        if is_rotation_invariant(s):
            return s
        return CircleProduct(s)
    if order == 1:
        return s
    if is_rotation_invariant(s):
        return s
    step = angle.value
    if isinstance(s, FinitePoints):
        pts = []
        for k in range(order):
            w = complex(math.cos(k * step), math.sin(k * step))
            pts.extend(w * p for p in s.points)
        return FinitePoints(tuple(pts))
    return Union(tuple(rotate(s, k * step) for k in range(order)))


# ---------------------------------------------------------------------------
# density in the plane


def _coverage_leaves(s: ScalarSet, phase: float, factor: float, out: list) -> None:
    """Collect (angle_lo, angle_hi, r_lo, r_hi) patches; None angles mean full turn.

    Finite point lists, geometric sequences and spirals are nowhere dense and
    can never complete two-dimensional coverage, so they contribute nothing.
    """
    if isinstance(s, (FinitePoints, Geometric, LogSpiral)):
        return
    if isinstance(s, Circle):
        out.append((None, None, s.radius * factor, s.radius * factor))
    elif isinstance(s, Annulus):
        out.append((None, None, s.inner_radius * factor, s.outer_radius * factor))
    elif isinstance(s, Arc):
        if s.angle_hi - s.angle_lo >= _TWO_PI:
            out.append((None, None, s.radius * factor, s.radius * factor))
        else:
            out.append((s.angle_lo + phase, s.angle_hi + phase, s.radius * factor, s.radius * factor))
    elif isinstance(s, Sector):
        if s.angle_hi - s.angle_lo >= _TWO_PI:
            out.append((None, None, s.radius_lo * factor, s.radius_hi * factor))
        else:
            out.append(
                (s.angle_lo + phase, s.angle_hi + phase, s.radius_lo * factor, s.radius_hi * factor)
            )
    elif isinstance(s, CircleProduct):
        for lo, hi in modulus_set(s.inner).intervals:
            out.append((None, None, lo * factor, hi * factor))
    elif isinstance(s, Union):
        for m in s.members:
            _coverage_leaves(m, phase, factor, out)
    elif isinstance(s, Scaled):
        _coverage_leaves(s.inner, phase + math.atan2(s.factor.imag, s.factor.real), factor * abs(s.factor), out)
    else:
        raise UndecidableDensityError(
            f"density in the plane is not decidable for variant {type(s).__name__}"
        )


def _radial_union_covers(intervals: list[tuple[float, float]]) -> bool:
    """True iff the closed intervals union to all of [0, inf)."""
    ivs = sorted(intervals)
    reach = 0.0
    started = False
    for lo, hi in ivs:
        if lo > reach or (not started and lo > 0.0):
            return False
        started = True
        reach = max(reach, hi)
        if reach == math.inf:
            return True
    return False


def is_dense_in_plane(s: ScalarSet) -> bool:
    """Decide whether the closure of the set is the whole complex plane.

    The set is decomposed into angular patches with radial intervals. The
    plane is covered iff in every angular cell (delimited by patch endpoint
    angles) the active radial intervals union to [0, inf). Nowhere-dense
    variants never contribute. Raises UndecidableDensityError only for
    unrecognized variants, never guesses.
    """
    patches: list = []
    _coverage_leaves(s, 0.0, 1.0, patches)
    if not patches:
        return False

    full = [(rlo, rhi) for alo, ahi, rlo, rhi in patches if alo is None]
    arcs = [
        (alo % _TWO_PI, (alo % _TWO_PI) + (ahi - alo), rlo, rhi)
        for alo, ahi, rlo, rhi in patches
        if alo is not None
    ]
    if not arcs:
        return _radial_union_covers(full)

    cuts = set()
    for alo, ahi, _, _ in arcs:
        cuts.add(alo % _TWO_PI)
        cuts.add(ahi % _TWO_PI)
    angles = sorted(cuts)
    # midpoints of consecutive cells around the circle
    probes = []
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)] if i + 1 < len(angles) else angles[0] + _TWO_PI
        probes.append((a + b) / 2.0)
        probes.append(a)
    for theta in probes:
        radial = list(full)
        for alo, ahi, rlo, rhi in arcs:
            if _angle_between(theta, alo, ahi, _ANGLE_TOL):
                radial.append((rlo, rhi))
        if not _radial_union_covers(radial):
            return False
    return True


# ---------------------------------------------------------------------------
# deterministic modulus resolvers (sampler contract for the construction builders)


def _log2_abs(z: complex) -> float:
    return math.log2(abs(z))


def pick_modulus_at_least(s: ScalarSet, min_log2: float) -> Optional[XC]:
    """Deterministic member with log2 |value| >= min_log2, as an exact XC.

    The threshold is on a log scale so required magnitudes beyond float range
    stay expressible. Interval-type variants answer with exact powers of two
    whenever possible. Every pick is dyadic (built from floats and powers of
    two), so its X2 parts are canonical: odd numerator, denominator 1.
    Returns None when the set has no such member.
    """
    return _pick(s, min_log2, True)


def pick_modulus_at_most(s: ScalarSet, max_log2: float) -> Optional[XC]:
    """Deterministic nonzero member with log2 |value| <= max_log2 (exact XC)."""
    return _pick(s, max_log2, False)


def _pick(s: ScalarSet, bound: float, at_least: bool) -> Optional[XC]:
    def fits(z: complex) -> bool:
        lg = _log2_abs(z)
        return lg >= bound if at_least else lg <= bound

    if isinstance(s, FinitePoints):
        for p in s.points:
            if p != 0 and fits(p):
                return XC.from_complex(p)
        return None
    if isinstance(s, Geometric):
        lb = _log2_abs(s.base)
        if lb > 0 if at_least else lb < 0:
            j = max(0, math.ceil(bound / lb))
        elif bound > 0 if at_least else bound < 0:
            return None
        else:
            j = 0
        return _cpow_exact(XC.from_complex(s.base), j)
    if isinstance(s, (Circle, Arc)):
        if not fits(complex(s.radius)):
            return None
        ang = s.angle_lo if isinstance(s, Arc) else 0.0
        return XC.from_complex(s.radius * complex(math.cos(ang), math.sin(ang)))
    if isinstance(s, (Annulus, Sector)):
        lo, hi, ang = (
            (s.inner_radius, s.outer_radius, 0.0)
            if isinstance(s, Annulus)
            else (s.radius_lo, s.radius_hi, s.angle_lo)
        )
        pick = _interval_pick_at_least if at_least else _interval_pick_at_most
        r = pick(lo, hi, bound)
        return None if r is None else _rotated(r, complex(math.cos(ang), math.sin(ang)))
    if isinstance(s, LogSpiral):
        k = math.ceil(bound) if at_least else math.floor(bound)
        a = k * math.log(2) / math.log(s.base) * s.rate.value
        return _rotated(X2.pow2(k), complex(math.cos(a), -math.sin(a)))
    if isinstance(s, Union):
        for m in s.members:
            got = _pick(m, bound, at_least)
            if got is not None:
                return got
        return None
    if isinstance(s, Scaled):
        got = _pick(s.inner, bound - _log2_abs(s.factor), at_least)
        return None if got is None else got * XC.from_complex(s.factor)
    if isinstance(s, CircleProduct):
        return _pick(s.inner, bound, at_least)
    raise TypeError(f"unknown scalar set variant {type(s).__name__}")


def _interval_pick_at_least(lo, hi, min_log2):
    if hi == 0 or (hi != math.inf and _log2_abs(complex(hi)) < min_log2):
        return None
    k = math.ceil(min_log2)
    if lo > 0 and math.log2(lo) >= min_log2:
        r = X2.from_float(lo)
    elif hi == math.inf or k <= math.log2(hi):
        r = X2.pow2(k)
        if lo > 0 and r < X2.from_float(lo):
            r = X2.from_float(lo)
    else:
        r = X2.from_float(hi)
    return r


def _interval_pick_at_most(lo, hi, max_log2):
    if hi == 0:
        return None
    if lo > 0 and math.log2(lo) > max_log2:
        return None
    r = X2.pow2(math.floor(max_log2))
    if lo > 0 and r < X2.from_float(lo):
        r = X2.from_float(lo)
    if hi != math.inf and r > X2.from_float(hi):
        r = X2.from_float(hi)
    return r


def _rotated(r: X2, phase: complex) -> XC:
    """r times the float phase, exactly."""
    return XC(r, X2.ZERO) * XC.from_complex(phase)


def _cpow_exact(base: XC, j: int) -> XC:
    """base**j exactly, by squaring: for a power-of-two base every product
    only adds exponents."""
    out = XC_ONE
    while j:
        if j & 1:
            out = out * base
        base = base * base
        j >>= 1
    return out


# ---------------------------------------------------------------------------
# JSON codec


def from_json(obj, path: str) -> ScalarSet:
    return jsonio.decode(ScalarSet, obj, path)
