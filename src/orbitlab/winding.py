"""Winding numbers of closed curves avoiding the origin, and the integer
bookkeeping behind the orbit-parametrization obstruction.

Curves come in four representations: sampled point lists, analytic segments
of the unit-circle parametrization over [1, b] (phi(t) = exp(2*pi*i*(t-1)/(b-1))),
constant paths, and concatenations. _join chains walks by principal-branch
turns: a sampled curve joins its points, a concatenation its parts, and the
closing step is one more join. A result is flagged confident when every step
turns less than pi/2, and a step through the origin, which leaves the index
undefined, is refused. Analytic segments and constants are exact.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional

from . import jsonio
from .jsonio import Field, PreconditionError, Record

_TWO_PI = 2.0 * math.pi
CLOSURE_TOL = 1e-9
CONFIDENT_MAX_TURN = math.pi / 2.0


class CurveNotClosedError(PreconditionError):
    """Winding numbers are defined for closed curves only."""


class ParamRangeError(PreconditionError):
    """Parameter outside [1, b]."""


def unit_circle_param(t: float, b: float) -> complex:
    """The [1, b] parametrization of the unit circle: exp(2*pi*i*(t-1)/(b-1)).

    Exact at the quarter points: u in {0, 1} gives 1, u = 1/2 gives -1.
    """
    if b <= 1:
        raise PreconditionError("parametrization needs b > 1")
    if not (1.0 <= t <= b):
        raise ParamRangeError(f"parameter {t} outside [1, {b}]")
    u = (t - 1.0) / (b - 1.0)
    if u == 0.0 or u == 1.0:
        return 1.0 + 0.0j
    if u == 0.5:
        return -1.0 + 0.0j
    return cmath.exp(2.0j * math.pi * u)


def _through_origin(a: complex, b: complex) -> bool:
    """Whether the segment from a to b (finite, nonzero) passes through 0:
    cross product 0 and dot product < 0, each exact times q s u w > 0."""
    if a.real * b.real > 0 or a.imag * b.imag > 0:  # a rounded product keeps its sign,
        return False  # so b is no negative multiple of a
    (p, q), (r, s) = a.real.as_integer_ratio(), a.imag.as_integer_ratio()
    (t, u), (v, w) = b.real.as_integer_ratio(), b.imag.as_integer_ratio()
    return p * v * s * u == r * t * q * w and p * t * s * w + r * v * q * u < 0


class _Walk(NamedTuple):
    total_turn: float
    max_step: float
    min_modulus: float
    start: complex
    end: complex


def _join(walks, step: str) -> _Walk:
    """The walks chained end to start by principal turns; a junction through
    0 is refused, named step.format(i, i + 1) from walks[i] to walks[i + 1]."""
    total, max_step, min_mod = 0.0, 0.0, math.inf
    for i, (turn, max_turn, modulus, start, stop) in enumerate(walks):
        if i:
            if _through_origin(end, start):
                raise PreconditionError(f"{step.format(i - 1, i)} passes through 0")
            junction = cmath.phase(start / end)
            total += junction
            max_step = max(max_step, abs(junction))
        total += turn
        max_step = max(max_step, max_turn)
        min_mod = min(min_mod, modulus)
        end = stop
    return _Walk(total, max_step, min_mod, walks[0].start, end)


class CircleCurve(jsonio.Family):
    """Base class; use the concrete variants. Every variant implements
    _walk(), the _Walk of the curve, and reverse(), the curve walked backwards."""


class SampledCurve(CircleCurve, kind="sampled"):
    points: tuple[complex, ...]

    def __init__(self, points):
        pts = tuple(complex(p) for p in points)
        if len(pts) < 2:
            raise PreconditionError("sampled curve needs at least two points")
        if any(p == 0 or not cmath.isfinite(p) for p in pts):
            raise PreconditionError("curve points must be finite and avoid the origin")
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            if _through_origin(a, b):
                raise PreconditionError(f"the step from point {i} to {i + 1} passes through 0")
        object.__setattr__(self, "points", pts)

    def _walk(self):
        return _join([_Walk(0.0, 0.0, abs(p), p, p) for p in self.points], "the step from point {} to {}")

    def reverse(self):
        return SampledCurve(tuple(reversed(self.points)))


class ParamSegment(CircleCurve, kind="param_segment"):
    """t in [0,1] mapped to unit_circle_param(lerp(start, end, t), b)."""

    b: float
    start: float = Field(key="from")
    end: float = Field(key="to")

    def __post_init__(self):
        if self.b <= 1:
            raise PreconditionError("segment needs b > 1")
        for v in (self.start, self.end):
            if not (1.0 <= v <= self.b):
                raise ParamRangeError(f"segment endpoint {v} outside [1, {self.b}]")
        if not math.isfinite(self.turn):
            raise PreconditionError("segment turn 2*pi*(to - from)/(b - 1) is beyond float range")

    @property
    def turn(self) -> float:
        """The angle walked, in radians. This operation order is the one
        reports were recorded with."""
        return _TWO_PI * (self.end - self.start) / (self.b - 1.0)

    def _walk(self):
        start, end = unit_circle_param(self.start, self.b), unit_circle_param(self.end, self.b)
        return _Walk(self.turn, 0.0, 1.0, start, end)

    def reverse(self):
        return ParamSegment(self.b, self.end, self.start)


class ConstantCurve(CircleCurve, kind="constant"):
    value: complex

    def __init__(self, value):
        value = complex(value)
        if value == 0 or not cmath.isfinite(value):
            raise PreconditionError("constant curve must be finite and avoid the origin")
        object.__setattr__(self, "value", value)

    def _walk(self):
        return _Walk(0.0, 0.0, abs(self.value), self.value, self.value)

    def reverse(self):
        return self


class ConcatCurve(CircleCurve, kind="concat"):
    parts: tuple[CircleCurve, ...]

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], (list, tuple)):
            parts = tuple(parts[0])
        if not parts:
            raise PreconditionError("concatenation needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))

    def _walk(self):
        return _join([p._walk() for p in self.parts], "the junction from part {} to {}")

    def reverse(self):
        return ConcatCurve(tuple(p.reverse() for p in reversed(self.parts)))


class WindingResult(Record):
    index: int
    min_modulus: float
    max_step_turn: float
    confident: bool


def winding_number(curve: CircleCurve) -> WindingResult:
    """Winding index around the origin of a closed curve.

    Curves must return to their start within 1e-9 (relative beyond modulus
    1); a nonzero closing step is joined like any other, so it adds its turn
    and is refused through the origin. The result is confident when no step
    (including junctions) turns by pi/2 or more.
    """
    w = curve._walk()
    gap = abs(w.start - w.end)
    if gap > CLOSURE_TOL * max(1.0, abs(w.start)):
        raise CurveNotClosedError(f"endpoints differ by {gap:.3e}")
    if gap > 0.0:  # z / z is not always 1: (49+1j) / (49+1j) turns by 2.3e-18
        w = _join((w, _Walk(0.0, 0.0, math.inf, w.start, w.start)), "the closing step")
    return WindingResult(
        index=round(w.total_turn / _TWO_PI),
        min_modulus=w.min_modulus,
        max_step_turn=w.max_step,
        confident=w.max_step < CONFIDENT_MAX_TURN,
    )


def concat_additivity_check(parts) -> bool:
    """Whether the concatenation's index equals the sum of the parts' indices.

    Exact whenever all parts are closed curves through a common basepoint
    (junction increments vanish); with distinct basepoints the junction
    polygon can contribute its own winding.
    """
    parts = tuple(parts)
    indices = [winding_number(p).index for p in parts]
    whole = winding_number(ConcatCurve(parts)).index
    return whole == sum(indices)


class AuditVerdict(Record):
    verdict: str  # "contradiction" | "consistent"
    reason: str
    segment_index: Optional[int] = None


def contradiction_audit(n_list, segment_index: Optional[int] = None) -> AuditVerdict:
    """Audit the chain n * w = 1 for every n in n_list.

    With a free segment index (None): consistent iff some integer w solves
    all equations, which happens only when n_list = {1}. With w given:
    consistent iff every n satisfies n * w = 1. Two or more distinct indices
    are always contradictory, which is the decisive impossibility when the
    iterate indices grow without bound.
    """
    ns = sorted(set(int(n) for n in n_list))
    if not ns or any(n < 1 for n in ns):
        raise PreconditionError("need a non-empty list of positive integers")
    if segment_index is not None:
        w = int(segment_index)
        bad = [n for n in ns if n * w != 1]
        if not bad:
            return AuditVerdict("consistent", f"w = {w} satisfies n*w = 1 for all n", w)
        return AuditVerdict(
            "contradiction", f"n*w = 1 fails for n = {bad[0]} with w = {w}", w
        )
    if ns == [1]:
        return AuditVerdict("consistent", "w = 1 solves 1*w = 1", 1)
    return AuditVerdict(
        "contradiction",
        f"no integer w satisfies n*w = 1 for all n in {ns}",
        None,
    )
