"""Winding numbers of closed curves avoiding the origin, and the integer
bookkeeping behind the orbit-parametrization obstruction.

Curves come in four representations: sampled point lists, analytic segments
of the unit-circle parametrization over [1, b] (phi(t) = exp(2*pi*i*(t-1)/(b-1))),
constant paths, and concatenations. Sampled curves accumulate principal-branch
angle increments; a result is flagged confident when every step turns less
than pi/2, leaving no branch ambiguity. Analytic segments and constants are
evaluated in closed form, exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

from . import jsonio
from .jsonio import PreconditionError

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


@dataclass(frozen=True)
class _Walk:
    total_turn: float
    max_step: float
    min_modulus: float
    start: complex
    end: complex


@dataclass(frozen=True)
class CircleCurve(jsonio.Family):
    """Base class; use the concrete variants. Every variant implements
    _walk(), the _Walk of the curve, and reverse(), the curve walked backwards."""


@dataclass(frozen=True)
class SampledCurve(CircleCurve, kind="sampled"):
    points: tuple[complex, ...]
    closed: bool = True

    def __init__(self, points, closed=True):
        pts = tuple(complex(p) for p in points)
        if len(pts) < 2:
            raise PreconditionError("sampled curve needs at least two points")
        if any(p == 0 for p in pts):
            raise PreconditionError("curve points must avoid the origin")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", bool(closed))

    def _walk(self):
        pts = self.points
        total = 0.0
        max_step = 0.0
        for a, b in zip(pts, pts[1:]):
            inc = cmath.phase(b / a)
            total += inc
            max_step = max(max_step, abs(inc))
        return _Walk(total, max_step, min(abs(p) for p in pts), pts[0], pts[-1])

    def reverse(self):
        return SampledCurve(tuple(reversed(self.points)), self.closed)


@dataclass(frozen=True)
class ParamSegment(CircleCurve, kind="param_segment"):
    """t in [0,1] mapped to unit_circle_param(lerp(start, end, t), b)."""

    b: float
    start: float = field(metadata={"key": "from"})
    end: float = field(metadata={"key": "to"})

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


@dataclass(frozen=True)
class ConstantCurve(CircleCurve, kind="constant"):
    value: complex

    def __init__(self, value):
        value = complex(value)
        if value == 0:
            raise PreconditionError("constant curve must avoid the origin")
        object.__setattr__(self, "value", value)

    def _walk(self):
        return _Walk(0.0, 0.0, abs(self.value), self.value, self.value)

    def reverse(self):
        return self


@dataclass(frozen=True)
class ConcatCurve(CircleCurve, kind="concat"):
    parts: tuple[CircleCurve, ...]

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], (list, tuple)):
            parts = tuple(parts[0])
        if not parts:
            raise PreconditionError("concatenation needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))

    def _walk(self):
        walks = [p._walk() for p in self.parts]
        total = 0.0
        max_step = 0.0
        min_mod = math.inf
        for i, w in enumerate(walks):
            total += w.total_turn
            max_step = max(max_step, w.max_step)
            min_mod = min(min_mod, w.min_modulus)
            if i + 1 < len(walks):
                junction = cmath.phase(walks[i + 1].start / w.end)
                total += junction
                max_step = max(max_step, abs(junction))
        return _Walk(total, max_step, min_mod, walks[0].start, walks[-1].end)

    def reverse(self):
        return ConcatCurve(tuple(p.reverse() for p in reversed(self.parts)))


@dataclass(frozen=True)
class WindingResult:
    index: int
    min_modulus: float
    max_step_turn: float
    confident: bool


def winding_number(curve: CircleCurve) -> WindingResult:
    """Winding index around the origin of a closed curve.

    Sampled curves must return to their start within 1e-9; the small closing
    step is included in the accumulated turn. The result is confident when no
    step (including junctions) turns by pi/2 or more.
    """
    w = curve._walk()
    gap = abs(w.start - w.end)
    if gap > CLOSURE_TOL * max(1.0, abs(w.start)):
        raise CurveNotClosedError(f"curve endpoints differ by {gap:.3e}")
    total = w.total_turn
    max_step = w.max_step
    if gap > 0.0:
        closing = cmath.phase(w.start / w.end)
        total += closing
        max_step = max(max_step, abs(closing))
    index = round(total / _TWO_PI)
    return WindingResult(
        index=index,
        min_modulus=w.min_modulus,
        max_step_turn=max_step,
        confident=max_step < CONFIDENT_MAX_TURN,
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


@dataclass(frozen=True)
class AuditVerdict:
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
