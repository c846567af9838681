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
from typing import Optional

from . import jsonio
from .jsonio import Field, PreconditionError, Record


class _ExactOnFirstUse:
    """Stands in for _exact's X2 or XC until the first exact pick, which
    imports _exact and binds both names here to its classes: a process that
    picks no member (classify, density) never compiles _exact."""

    def __init__(self, name: str):
        self.name = name

    def _bind(self):
        from . import _exact

        globals().update(X2=_exact.X2, XC=_exact.XC)
        return getattr(_exact, self.name)

    def __getattr__(self, attr):
        return getattr(self._bind(), attr)

    def __call__(self, *args):
        return self._bind()(*args)


X2, XC = _ExactOnFirstUse("X2"), _ExactOnFirstUse("XC")

_TWO_PI = 2.0 * math.pi
_ANGLE_TOL = 1e-9


class EmptyScalarSetError(PreconditionError):
    """The scalar set denotes the empty set or {0}; classification is undefined."""


class UndecidableDensityError(PreconditionError):
    """Density in the plane is not decidable for this set description."""


# ---------------------------------------------------------------------------
# angle specifications


class AngleSpec(Record):
    """An angle in radians, tagged as pi-rational (p*pi/q) or declared irrational."""

    kind: str  # "pi_rational" | "irrational"
    p: int = 0
    q: int = 1
    declared: float = 0.0
    tag: str = ""

    @classmethod
    def rational_pi(cls, p: int, q: int) -> "AngleSpec":
        if q == 0:
            raise PreconditionError("denominator must be nonzero")
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
            raise PreconditionError("angle p*pi/q is beyond float range")
        return angle

    @classmethod
    def irrational(cls, value: float, tag: str = "") -> "AngleSpec":
        if not math.isfinite(value):
            raise PreconditionError("declared angle must be finite")
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
            jsonio.check_keys(obj, ("pi_rational",), path)
            p, q = jsonio.decode_key(tuple[int, int], obj, "pi_rational", path)
            return jsonio.construct(cls.rational_pi, f"{path}.pi_rational", p, q)
        jsonio.check_keys(obj, ("irrational", "tag"), path)
        return cls.irrational(
            jsonio.decode_key(float, obj, "irrational", path),
            jsonio.decode_key(str, obj, "tag", path, ""),
        )


# ---------------------------------------------------------------------------
# scalar set variants


class ScalarSet(jsonio.Family):
    """Base class; use the concrete variants.

    Every variant implements contains(z, tol); modulus_set(), the closure of
    its moduli as a canonical ModulusSet; scalar_grid(count, radial_window),
    count >= 1 deterministic sample points, where a radius end at 0 or inf
    takes radial_window's end (default (1e-6, 1e6); a log_spiral without a
    window samples t in [-20, 20] instead) and every finite positive radius
    is the set's own; and _pick(bound, at_least), a nonzero member with
    log2 |value| >= bound (or <= bound) as an exact XC, or None.
    The methods below are defaults.
    """

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def strip_zero(self) -> Optional["ScalarSet"]:
        """The set without its exact zero points; None if nothing nonzero remains."""
        return self

    def is_rotation_invariant(self) -> bool:
        return False

    def rotate(self, phase: float) -> "ScalarSet":
        """The set times exp(i*phase), here kept as a scaling."""
        return self if self.is_rotation_invariant() else Scaled(_cis(phase), self)

    def _group_product(self, step: float, order: int) -> "ScalarSet":
        """The union of the set rotated by k*step for 0 <= k < order."""
        return Union(tuple(self.rotate(k * step) for k in range(order)))

    def _coverage_leaves(self, phase: float, factor: float, out: list) -> None:
        """Append the (angle_lo, angle_hi, r_lo, r_hi) patches of the set
        times factor*exp(i*phase); None angles mean a full turn."""
        raise UndecidableDensityError(
            f"density in the plane is not decidable for variant {type(self).__name__}"
        )


class FinitePoints(ScalarSet, kind="finite_points"):
    points: tuple[complex, ...]

    def contains(self, z, tol=1e-9):
        return any(abs(z - p) <= tol for p in self.points)

    def modulus_set(self):
        return ModulusSet.canonical([(abs(p), abs(p)) for p in self.points])

    def scalar_grid(self, count, radial_window=None):
        return list(self.points[:count])

    def _pick(self, bound, at_least):
        for p in self.points:
            if p != 0 and _fits(p, bound, at_least):
                return XC.from_complex(p)
        return None

    def strip_zero(self):
        pts = tuple(p for p in self.points if p != 0)
        return FinitePoints(pts) if pts else None

    def rotate(self, phase):
        w = _cis(phase)
        return FinitePoints(tuple(w * p for p in self.points))

    def _group_product(self, step, order):
        return FinitePoints(tuple(p for k in range(order) for p in self.rotate(k * step).points))

    def _coverage_leaves(self, phase, factor, out):
        pass  # nowhere dense: no coverage of the plane


class _Ring:
    """The ring sector {r*exp(i*a) : r_lo <= r <= r_hi, a_lo <= a <= a_hi}.

    A mixin, not a ScalarSet: each variant returns (r_lo, r_hi, a_lo, a_hi)
    from _bounds() and inherits its behaviour from here. r_hi may be inf;
    an angle span of a full turn or more is the whole ring.
    """

    def contains(self, z, tol=1e-9):
        r_lo, r_hi, a_lo, a_hi = self._bounds()
        r = abs(z)
        # r - r_hi and r_lo - r are exact near the ends (Sterbenz), where
        # r_hi + tol and r_lo - tol would round; r <= r_hi keeps r = r_hi = inf
        if not ((r <= r_hi or r - r_hi <= tol) and r_lo - r <= tol):
            return False
        if r <= tol:
            return r_lo <= tol
        return _angle_between(math.atan2(z.imag, z.real), a_lo, a_hi, tol)

    def modulus_set(self):
        return ModulusSet.canonical([self._bounds()[:2]])

    def scalar_grid(self, count, radial_window=None):
        r_lo, r_hi, a_lo, a_hi = self._bounds()
        w_lo, w_hi = radial_window or DEFAULT_RADIAL_WINDOW
        lo = r_lo if r_lo > 0 else max(r_lo, w_lo)  # no negative radius
        hi = max(lo, r_hi if r_hi < math.inf else w_hi)
        nr = 1 if hi == lo else max(1, math.isqrt(count))
        radii = _geomspace(lo, hi, nr) if lo > 0 else _linspace(lo, hi, nr)
        na = -(-count // nr)
        if self.is_rotation_invariant():
            angles = [a_lo + _TWO_PI * k / na for k in range(na)]
        else:
            angles = _linspace(a_lo, a_hi, na)
        return [r * _cis(a) for r in radii for a in angles][:count]

    def _pick(self, bound, at_least):
        r_lo, r_hi, a_lo, _ = self._bounds()
        if r_lo < r_hi:
            return _interval_pick(r_lo, r_hi, a_lo, bound, at_least)
        if r_hi > 0 and _fits(r_hi, bound, at_least):
            return XC.from_complex(r_hi * _cis(a_lo))
        return None

    def strip_zero(self):
        return None if self._bounds()[1] == 0 else self  # the degenerate sector {0}

    def is_rotation_invariant(self):
        _, _, a_lo, a_hi = self._bounds()
        return a_hi - a_lo >= _TWO_PI

    def rotate(self, phase):
        """The same kind with its two angle fields (its last two) turned by phase."""
        if self.is_rotation_invariant():
            return self
        *radii, a_lo, a_hi = self._values()
        return type(self)(*radii, a_lo + phase, a_hi + phase)

    def _coverage_leaves(self, phase, factor, out):
        r_lo, r_hi, a_lo, a_hi = self._bounds()
        turn = (None, None) if self.is_rotation_invariant() else (a_lo + phase, a_hi + phase)
        out.append((*turn, r_lo * factor, r_hi * factor))


def _angle_between(theta: float, lo: float, hi: float, tol: float) -> bool:
    span = hi - lo
    if span >= _TWO_PI - tol:
        return True
    t = (theta - lo) % _TWO_PI
    return t <= span + tol or t >= _TWO_PI - tol


class Circle(_Ring, ScalarSet, kind="circle"):
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise PreconditionError("circle radius must be positive and finite")

    def _bounds(self):
        return (self.radius, self.radius, 0.0, _TWO_PI)


class Annulus(_Ring, ScalarSet, kind="annulus"):
    """All z with inner_radius <= |z| <= outer_radius (a closed ring)."""

    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not (0 < self.inner_radius <= self.outer_radius < math.inf):
            raise PreconditionError("annulus needs 0 < inner_radius <= outer_radius < inf")

    def _bounds(self):
        return (self.inner_radius, self.outer_radius, 0.0, _TWO_PI)


class Arc(_Ring, ScalarSet, kind="arc"):
    radius: float
    angle_lo: float
    angle_hi: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise PreconditionError("arc radius must be positive and finite")
        if self.angle_hi < self.angle_lo:
            raise PreconditionError("arc needs angle_lo <= angle_hi")

    def _bounds(self):
        return (self.radius, self.radius, self.angle_lo, self.angle_hi)


class Sector(_Ring, ScalarSet, kind="sector"):
    """{r*exp(i*a) : radius_lo <= r <= radius_hi, angle_lo <= a <= angle_hi}."""

    radius_lo: float
    radius_hi: float = Field(null=math.inf)  # math.inf allowed; null in JSON
    angle_lo: float
    angle_hi: float

    def __post_init__(self):
        if not (0 <= self.radius_lo <= self.radius_hi):
            raise PreconditionError("sector needs 0 <= radius_lo <= radius_hi")
        if self.angle_hi < self.angle_lo:
            raise PreconditionError("sector needs angle_lo <= angle_hi")

    def _bounds(self):
        return (self.radius_lo, self.radius_hi, self.angle_lo, self.angle_hi)


def positive_ray() -> Sector:
    """The nonnegative real axis [0, inf) as a degenerate sector."""
    return Sector(0.0, math.inf, 0.0, 0.0)


class LogSpiral(ScalarSet, kind="log_spiral"):
    """{base^t * exp(-i*t*rate) : t real}; base > 0, base != 1."""

    base: float
    rate: AngleSpec

    def __post_init__(self):
        if not (self.base > 0 and self.base != 1.0 and math.isfinite(self.base)):
            raise PreconditionError("spiral base must be positive, finite and != 1")

    def point_at(self, t: float) -> complex:
        try:
            r = self.base ** t
        except OverflowError:
            raise PreconditionError(f"set: spiral modulus base**{t!r} is past float range") from None
        return r * self._turn(t)

    def _turn(self, t: float) -> complex:
        a = t * self.rate.value
        if not math.isfinite(a):
            raise PreconditionError(f"set: spiral angle {t!r} * rate is past float range")
        return complex(math.cos(a), -math.sin(a))

    def contains(self, z, tol=1e-9):
        r = abs(z)
        if r == 0.0:
            return False
        t = math.log(r) / math.log(self.base)
        target = (-t * self.rate.value) % _TWO_PI
        actual = math.atan2(z.imag, z.real) % _TWO_PI
        diff = abs(target - actual)
        return min(diff, _TWO_PI - diff) <= tol

    def modulus_set(self):
        # moduli {base^t : t real} = (0, inf); the closure adds 0
        return ModulusSet.canonical([(0.0, math.inf)])

    def scalar_grid(self, count, radial_window=None):
        if radial_window is None:
            t_lo, t_hi = -20.0, 20.0
        else:
            if min(radial_window) <= 0:  # maybe after a scaled set divided it
                raise PreconditionError(f"radial_window: {radial_window} has an end <= 0 on a spiral")
            lb = math.log(self.base)
            t_lo, t_hi = sorted(math.log(w) / lb for w in radial_window)
        return [self.point_at(t) for t in _linspace(t_lo, t_hi, count)]

    def _pick(self, bound, at_least):
        k = math.ceil(bound) if at_least else math.floor(bound)
        return _rotated(X2.pow2(k), self._turn(k * math.log(2) / math.log(self.base)))

    def _coverage_leaves(self, phase, factor, out):
        pass  # nowhere dense: no coverage of the plane


class Geometric(ScalarSet, kind="geometric"):
    """The point sequence {base^j : j >= 0}; |base| != 1 so moduli form a tail."""

    base: complex

    def __post_init__(self):
        m = abs(self.base)
        if m == 0 or m == 1.0 or not math.isfinite(m):
            raise PreconditionError("geometric base must satisfy 0 < |base| != 1")

    def contains(self, z, tol=1e-9):
        r = abs(z)
        if r == 0.0:
            return False
        j = round(math.log(r) / math.log(abs(self.base)))
        if j < 0:
            return False
        return abs(z - self.base ** j) <= tol * max(1.0, r)

    def modulus_set(self):
        return ModulusSet.canonical([], [(1.0, abs(self.base))])

    def scalar_grid(self, count, radial_window=None):
        out = []
        for j in range(count):
            try:
                out.append(self.base ** j)
            except OverflowError:
                raise PreconditionError(
                    f"gamma_grid: {count} reaches base**{j}, past float range"
                ) from None
        return out

    def _pick(self, bound, at_least):
        lb = _log2_abs(self.base)
        if lb > 0 if at_least else lb < 0:
            j = max(0, math.ceil(bound / lb))
        elif bound > 0 if at_least else bound < 0:
            return None
        else:
            j = 0
        return XC.from_complex(self.base).power(j)

    def _coverage_leaves(self, phase, factor, out):
        pass  # nowhere dense: no coverage of the plane


class Union(ScalarSet, kind="union"):
    members: tuple[ScalarSet, ...]

    def __init__(self, *members):
        object.__setattr__(self, "members", jsonio.members(members, "union must be non-empty"))

    def contains(self, z, tol=1e-9):
        return any(m.contains(z, tol) for m in self.members)

    def modulus_set(self):
        out = ModulusSet()
        for m in self.members:
            out = out.merge(m.modulus_set())
        return out

    def scalar_grid(self, count, radial_window=None):
        base, extra = divmod(count, len(self.members))
        out: list[complex] = []
        for i, m in enumerate(self.members):
            take = base + (1 if i < extra else 0)
            if take:
                out.extend(m.scalar_grid(take, radial_window))
        return out[:count]

    def _pick(self, bound, at_least):
        for m in self.members:
            got = m._pick(bound, at_least)
            if got is not None:
                return got
        return None

    def strip_zero(self):
        kept = [m for m in (m.strip_zero() for m in self.members) if m is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else Union(kept)

    def is_rotation_invariant(self):
        return all(m.is_rotation_invariant() for m in self.members)

    def rotate(self, phase):
        return Union(tuple(m.rotate(phase) for m in self.members))

    def _coverage_leaves(self, phase, factor, out):
        for m in self.members:
            m._coverage_leaves(phase, factor, out)


class Scaled(ScalarSet, kind="scaled"):
    factor: complex
    inner: ScalarSet

    def __post_init__(self):
        if self.factor == 0:
            raise PreconditionError("scaling factor must be nonzero")

    def contains(self, z, tol=1e-9):
        return self.inner.contains(z / self.factor, tol / max(1.0, abs(self.factor)))

    def modulus_set(self):
        return self.inner.modulus_set().scaled(abs(self.factor))

    def scalar_grid(self, count, radial_window=None):
        rw = radial_window
        if rw is not None:
            f = abs(self.factor)
            rw = (rw[0] / f, rw[1] / f)
        return [self.factor * z for z in self.inner.scalar_grid(count, rw)]

    def _pick(self, bound, at_least):
        got = self.inner._pick(bound - _log2_abs(self.factor), at_least)
        return None if got is None else got * XC.from_complex(self.factor)

    def strip_zero(self):
        inner = self.inner.strip_zero()
        return None if inner is None else Scaled(self.factor, inner)

    def is_rotation_invariant(self):
        return self.inner.is_rotation_invariant()

    def rotate(self, phase):
        return self if self.is_rotation_invariant() else Scaled(self.factor * _cis(phase), self.inner)

    def _coverage_leaves(self, phase, factor, out):
        f = self.factor
        self.inner._coverage_leaves(phase + math.atan2(f.imag, f.real), factor * abs(f), out)


class CircleProduct(ScalarSet, kind="circle_product"):
    """Closure of {g*z : g in inner, |z| = 1}: rotation-invariant, fixed by its moduli."""

    inner: ScalarSet

    def contains(self, z, tol=1e-9):
        return self.inner.modulus_set().contains(abs(z), tol)

    def modulus_set(self):
        return self.inner.modulus_set()

    def scalar_grid(self, count, radial_window=None):
        na = min(count, 12)
        out = []
        for p in self.inner.scalar_grid(-(-count // na), radial_window):
            for k in range(na):
                out.append(p * _cis(_TWO_PI * k / na))
                if len(out) == count:
                    return out
        return out

    def _pick(self, bound, at_least):
        return self.inner._pick(bound, at_least)

    def strip_zero(self):
        inner = self.inner.strip_zero()
        return None if inner is None else CircleProduct(inner)

    def is_rotation_invariant(self):
        return True

    def _coverage_leaves(self, phase, factor, out):
        for lo, hi in self.inner.modulus_set().intervals:
            out.append((None, None, lo * factor, hi * factor))


# ---------------------------------------------------------------------------
# modulus sets


class ModulusSet(Record):
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
        intervals = [(lo, hi if hi != math.inf else None) for lo, hi in self.intervals]
        return {"intervals": intervals, "tails": self.tails, "unbounded": self.unbounded}


def modulus_set(s: ScalarSet) -> ModulusSet:
    """Closure of the moduli of the set, as a canonical ModulusSet."""
    return s.modulus_set()


# ---------------------------------------------------------------------------
# classification


class ClassificationResult(Record):
    nonempty_nonzero: bool
    bounded: bool
    bounded_away_zero: bool
    modulus_empty_interior: bool
    is_hypercyclic_scalar_set: bool
    is_somewhere_hypercyclic_scalar_set: bool
    explanation: tuple[str, ...] = ()


def classify(s: ScalarSet) -> ClassificationResult:
    """Decide both scalar-set verdicts from the modulus set of the set minus {0}.

    The strong verdict holds iff the nonzero part is non-empty, bounded and
    bounded away from 0; the somewhere-dense verdict additionally requires the
    modulus closure to contain no interval of positive length.
    """
    stripped = s.strip_zero()
    if stripped is None:
        raise EmptyScalarSetError("set: scalar set denotes the empty set or {0}")
    ms = stripped.modulus_set()
    sup = ms.sup()
    sup_text = f"sup = {sup}" if sup < math.inf else "sup past float range"
    bounded = not ms.unbounded
    inf_pos = ms.inf_positive()
    away = inf_pos > 0
    empty_interior = not ms.has_interior()
    notes = (
        "nonzero part is non-empty",
        f"modulus set bounded ({sup_text})" if bounded else "modulus set unbounded",
        f"modulus set bounded away from 0 (inf = {inf_pos})"
        if away
        else "moduli reach arbitrarily close to 0",
        "modulus closure contains no interval of positive length"
        if empty_interior
        else "modulus closure contains an interval of positive length",
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
        explanation=notes,
    )


# ---------------------------------------------------------------------------
# rotation products


def rotation_group_product(s: ScalarSet, angle: AngleSpec) -> ScalarSet:
    """Product of the set with the rotation group generated by exp(i*angle).

    Rational multiples of pi generate a finite group: the result is the union
    of finitely many rotated copies. Otherwise the group is dense in the unit
    circle and the closed product is the rotation closure of the set.
    """
    order = angle.group_order()
    if order == 1 or s.is_rotation_invariant():
        return s
    if order is None:
        return CircleProduct(s)
    return s._group_product(angle.value, order)


# ---------------------------------------------------------------------------
# density in the plane


def _radial_union_covers(intervals: list[tuple[float, float]]) -> bool:
    """True iff the closed intervals union to all of [0, inf)."""
    reach = 0.0
    for lo, hi in sorted(intervals):
        if lo > reach:
            return False
        reach = max(reach, hi)
        if reach == math.inf:
            return True
    return False


def is_dense_in_plane(s: ScalarSet) -> bool:
    """Decide whether the closure of the set is the whole complex plane.

    The set is decomposed into angular patches with radial intervals. The
    plane is covered iff in every angular cell (delimited by patch endpoint
    angles, or one cut at 0 if there are none) the active radial intervals
    union to [0, inf); one loop probes each cell at its start and midpoint.
    Nowhere-dense variants never contribute. Raises UndecidableDensityError
    only for unrecognized variants, never guesses.
    """
    patches: list = []
    s._coverage_leaves(0.0, 1.0, patches)
    full = [(rlo, rhi) for alo, ahi, rlo, rhi in patches if alo is None]
    arcs = [(alo % _TWO_PI, alo % _TWO_PI + (ahi - alo), rlo, rhi)
            for alo, ahi, rlo, rhi in patches if alo is not None]
    angles = sorted({a % _TWO_PI for arc in arcs for a in arc[:2]}) or [0.0]
    for a, b in zip(angles, angles[1:] + [angles[0] + _TWO_PI]):
        for theta in ((a + b) / 2.0, a):
            radial = full + [(rlo, rhi) for alo, ahi, rlo, rhi in arcs
                             if _angle_between(theta, alo, ahi, _ANGLE_TOL)]
            if not _radial_union_covers(radial):
                return False
    return True


# ---------------------------------------------------------------------------
# deterministic modulus resolvers (sampler contract for the construction builders)


def _log2_abs(z: complex) -> float:
    return math.log2(abs(z))


def _fits(z: complex, bound: float, at_least: bool) -> bool:
    lg = _log2_abs(z)
    return lg >= bound if at_least else lg <= bound


def pick_modulus_at_least(s: ScalarSet, min_log2: float) -> Optional[XC]:
    """Deterministic member with log2 |value| >= min_log2, as an exact XC.

    The threshold is on a log scale so required magnitudes beyond float range
    stay expressible. Interval-type variants answer with exact powers of two
    whenever possible. Every pick is dyadic (built from floats and powers of
    two), so its X2 parts are canonical: odd numerator, denominator 1.
    Returns None when the set has no such member.
    """
    return s._pick(min_log2, True)


def pick_modulus_at_most(s: ScalarSet, max_log2: float) -> Optional[XC]:
    """Deterministic nonzero member with log2 |value| <= max_log2 (exact XC)."""
    return s._pick(max_log2, False)


def _interval_pick(lo, hi, angle, bound, at_least):
    """A radius in [lo, hi], lo < hi, that fits the bound, turned by the angle exactly."""
    if at_least:
        if hi != math.inf and _log2_abs(complex(hi)) < bound:
            return None
        k = math.ceil(bound)
        if lo > 0 and math.log2(lo) >= bound:
            r = X2.from_float(lo)
        elif hi == math.inf or k <= math.log2(hi):
            r = X2.pow2(k)
            if lo > 0 and r < X2.from_float(lo):
                r = X2.from_float(lo)
        else:
            r = X2.from_float(hi)
    else:
        if lo > 0 and math.log2(lo) > bound:
            return None
        r = X2.pow2(math.floor(bound))
        if lo > 0 and r < X2.from_float(lo):
            r = X2.from_float(lo)
        if hi != math.inf and r > X2.from_float(hi):
            r = X2.from_float(hi)
    return _rotated(r, _cis(angle))


def _rotated(r: X2, phase: complex) -> XC:
    """r times the float phase, exactly."""
    return XC(r, X2.ZERO) * XC.from_complex(phase)


# ---------------------------------------------------------------------------
# deterministic scalar grids


DEFAULT_RADIAL_WINDOW = (1e-6, 1e6)


def _cis(a: float) -> complex:
    return complex(math.cos(a), math.sin(a))


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count == 1 or hi == lo:
        return [lo] * count
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    if count == 1 or hi == lo:
        return [lo] * count
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio ** i for i in range(count)]


# ---------------------------------------------------------------------------
# JSON codec


def from_json(obj, path: str) -> ScalarSet:
    return jsonio.decode(ScalarSet, obj, path)
