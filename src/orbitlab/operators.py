"""Sequence-space vectors and the symbolic operator catalog.

Vectors are finitely supported complex sequences stored as sparse index maps;
every catalog operator maps finite support to finite support, so all actions
are computed exactly (no truncation dimension exists). The catalog covers the
unilateral shifts, weighted bilateral shifts with piecewise-constant weights,
scalar multiplication on the one-dimensional space C, scalar multiples, and
finite direct sums.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Union as TUnion

from . import jsonio
from .jsonio import PreconditionError

UNILATERAL = "uni"
BILATERAL = "bi"


class DomainMismatchError(PreconditionError):
    """Vector domain does not match the operator's domain."""


class UnsupportedOperatorError(PreconditionError):
    """Operator outside the closed-form catalog for this query."""


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class SeqVector:
    """Finitely supported sequence; unilateral indices are >= 0."""

    domain: str
    entries: tuple[tuple[int, complex], ...]

    @classmethod
    def make(cls, domain: str, entries) -> "SeqVector":
        if domain not in (UNILATERAL, BILATERAL):
            raise PreconditionError(f"unknown domain {domain!r}")
        items = dict(entries).items() if isinstance(entries, dict) else entries
        cleaned: dict[int, complex] = {}
        for idx, val in items:
            idx = int(idx)
            val = complex(val)
            if val == 0:
                continue
            if domain == UNILATERAL and idx < 0:
                raise PreconditionError("unilateral vectors have nonnegative indices only")
            cleaned[idx] = cleaned.get(idx, 0) + val
        return cls(domain, tuple(sorted((i, v) for i, v in cleaned.items() if v != 0)))

    @classmethod
    def _from_sorted(cls, domain: str, entries) -> "SeqVector":
        """make() for entries already sorted by unique valid index: keeps its
        zero drop and its `0 + v` (which turns -0.0 parts into 0.0), skips the
        validation, merge and sort."""
        return cls(domain, tuple((i, 0 + v) for i, v in entries if v != 0))

    @classmethod
    def basis(cls, index: int, domain: str = UNILATERAL) -> "SeqVector":
        return cls.make(domain, [(index, 1.0 + 0.0j)])

    @classmethod
    def zero(cls, domain: str = UNILATERAL) -> "SeqVector":
        return cls.make(domain, [])

    def as_dict(self) -> dict[int, complex]:
        return dict(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def degree(self) -> int:
        """Largest nonnegative support index (0 when none): the reach of the vector."""
        top = [i for i, _ in self.entries if i >= 0]
        return max(top) if top else 0

    def norm_sq(self) -> float:
        # added left to right: sum() of floats is compensated from Python
        # 3.12 on, which would move the last bits of reported norms
        s = 0.0
        for _, v in self.entries:
            s += v.real * v.real + v.imag * v.imag
        return s

    def norm(self) -> float:
        """sqrt(norm_sq()), rescaled where the squares leave float range."""
        s = self.norm_sq()
        if 0.0 < s < math.inf or not self.entries:
            return math.sqrt(s)
        return _rescaled_norm([v for _, v in self.entries], s)

    def add(self, other: "SeqVector") -> "SeqVector":
        if other.domain != self.domain:
            raise DomainMismatchError("cannot add vectors on different domains")
        out = self.as_dict()
        for i, v in other.entries:
            out[i] = out.get(i, 0) + v
        return SeqVector.make(self.domain, out)

    def sub(self, other: "SeqVector") -> "SeqVector":
        return self.add(other.scale(-1))

    def scale(self, c: complex) -> "SeqVector":
        return SeqVector._from_sorted(self.domain, [(i, c * v) for i, v in self.entries])

    def inner(self, other: "SeqVector") -> complex:
        if other.domain != self.domain:
            raise DomainMismatchError("cannot pair vectors on different domains")
        rhs = other.as_dict()
        return sum(v * rhs[i].conjugate() for i, v in self.entries if i in rhs)

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "entries": [[i, v.real, v.imag] for i, v in self.entries],
        }

    @classmethod
    def from_json(cls, obj, path: str) -> "SeqVector":
        jsonio.check_keys(obj, ("domain", "entries"), path)
        domain = jsonio.decode_key(str, obj, "domain", path)
        entries = jsonio.decode_key(tuple[tuple[int, float, float], ...], obj, "entries", path)
        pairs = [(i, complex(re, im)) for i, re, im in entries]
        return jsonio.construct(cls.make, path, domain, pairs)


Vector = TUnion[SeqVector, complex, tuple]


def vector_norm(v: Vector) -> float:
    if isinstance(v, SeqVector):
        return v.norm()
    if isinstance(v, tuple):
        # added left to right, as in norm_sq
        norms = [vector_norm(b) for b in v]
        s = 0.0
        for x in norms:
            s += _square(x)
        return math.sqrt(s) if 0.0 < s < math.inf else _rescaled_norm(norms, s)
    return abs(v)


def _rescaled_norm(parts, plain: float) -> float:
    """The norm of the parts (complex or float) when `plain`, the plain sum of
    their squared moduli, is inf, or 0.0 for nonzero parts: the parts are
    first scaled by the power of two that brings their largest real or
    imaginary part into [0.5, 1). All-zero parts, or an inf or nan part,
    give sqrt(plain)."""
    top = max((max(abs(z.real), abs(z.imag)) for z in parts), default=0.0)
    if not 0.0 < top < math.inf:
        return math.sqrt(plain)
    e = math.frexp(top)[1]
    scaled = 0.0
    for z in parts:
        re, im = math.ldexp(z.real, -e), math.ldexp(z.imag, -e)
        scaled += re * re + im * im
    try:
        return math.ldexp(math.sqrt(scaled), e)
    except OverflowError:  # the norm itself is past the largest float
        return math.inf


def _square(x: float) -> float:
    """x ** 2, or inf where that overflows. x * x is no substitute: it can
    differ in the last bit, because float ** 2 rounds through libm pow."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def vector_scale(c: complex, v: Vector) -> Vector:
    if isinstance(v, SeqVector):
        return v.scale(c)
    if isinstance(v, tuple):
        return tuple(vector_scale(c, b) for b in v)
    return c * v


def _same_shape(a: Vector, b: Vector) -> type:
    """The shared type of two vectors; DomainMismatchError if they differ in shape."""
    if type(a) is not type(b) or (type(a) is tuple and len(a) != len(b)):
        raise DomainMismatchError("cannot combine vectors of different shapes")
    return type(a)


def vector_sub(a: Vector, b: Vector) -> Vector:
    kind = _same_shape(a, b)
    if kind is SeqVector:
        return a.sub(b)
    return tuple(map(vector_sub, a, b)) if kind is tuple else a - b


def vector_inner(a: Vector, b: Vector) -> complex:
    kind = _same_shape(a, b)
    if kind is SeqVector:
        return a.inner(b)
    return sum(map(vector_inner, a, b)) if kind is tuple else a * b.conjugate()


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightSpec:
    """Piecewise-constant weights over the integers.

    weight(i) = values[k] where k counts breakpoints <= i; values has one more
    element than breakpoints. All values must be nonzero.
    """

    breakpoints: tuple[int, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise PreconditionError("need exactly len(breakpoints)+1 values")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise PreconditionError("breakpoints must be strictly increasing")
        if any(v == 0 for v in self.values):
            raise PreconditionError("weights must be nonzero")

    def weight(self, i: int) -> complex:
        return self.values[bisect_right(self.breakpoints, i)]

    def window_product(self, lo: int, hi: int) -> complex:
        """Product of weight(i) for lo <= i <= hi (1 for an empty window)."""
        if hi < lo:
            return 1.0 + 0.0j
        prod = 1.0 + 0.0j
        edges = [lo] + [b for b in self.breakpoints if lo < b <= hi] + [hi + 1]
        for a, b in zip(edges, edges[1:]):
            prod *= self.weight(a) ** (b - a)
        return prod

    def inverse_shifted(self) -> "WeightSpec":
        """Weights nu with nu_i = 1/weight(i+1): the forward inverse of the
        backward shift with these weights."""
        return WeightSpec(
            tuple(b - 1 for b in self.breakpoints),
            tuple(1 / complex(v) for v in self.values),
        )


def doubling_weights() -> WeightSpec:
    """Weight 2 on positive indices, 1 elsewhere (the standard bilateral instance)."""
    return WeightSpec((1,), (1.0 + 0.0j, 2.0 + 0.0j))


# ---------------------------------------------------------------------------
# operator catalog


@dataclass(frozen=True)
class OperatorSpec(jsonio.Family):
    """Base class; use the concrete variants.

    Every variant implements _power(n, v, outer), its one action: op^n v for
    n >= 1, each step followed by the factors `outer` (inside out) of the
    scalar multiples around op; apply(v) is one step. Every variant also
    implements power_norm_bound(n) (see the module functions). The shifts
    carry `domain` and `step` (+1 forward, -1 backward) as plain class
    attributes, which are no dataclass fields and so stay out of the JSON form.
    """

    def operator_domain(self):
        """"uni", "bi" or "scalar", or a tuple of these for a direct sum."""
        return self.domain

    def apply(self, v: Vector) -> Vector:
        return self._power(1, v, ())

    def adjoint_point_spectrum(self) -> Optional[frozenset]:
        """Point spectrum of the adjoint; None = unknown."""
        return None


def _shift_power(op, n: int, v: Vector, outer: tuple) -> SeqVector:
    """The shifts' _power: each entry follows its own path (see power_apply)."""
    if not isinstance(v, SeqVector) or v.domain != op.domain:
        raise DomainMismatchError(f"operator expects a {op.domain!r} sequence vector")
    weights = getattr(op, "weights", None)
    out = []
    for i, c in v.entries:
        # the unilateral backward shift drops index 0: entry i lives i steps
        if weights is None and op.step < 0 and n > i:
            continue
        moved = _walk(i, c, n, op.step, weights, outer)
        if moved is not None:
            out.append(moved)
    return SeqVector._from_sorted(op.domain, out)


def _shift_norm_bound(op, n: int) -> float:
    """The sup over j of |product of n consecutive weights| ending (backward)
    or starting (forward) at j: exact for piecewise-constant weights."""
    w = getattr(op, "weights", None)
    if w is None or n == 0:
        return 1.0
    best = max(abs(w.values[0]) ** n, abs(w.values[-1]) ** n)
    if not w.breakpoints:
        return best
    lo_bp, hi_bp = w.breakpoints[0], w.breakpoints[-1]
    if op.step < 0:
        candidates = range(lo_bp - 1, hi_bp + n)
        windows = ((j - n + 1, j) for j in candidates)
    else:
        candidates = range(lo_bp - n, hi_bp + 1)
        windows = ((j, j + n - 1) for j in candidates)
    for a, b in windows:
        best = max(best, abs(w.window_product(a, b)))
    return best


@dataclass(frozen=True)
class BackwardShift(OperatorSpec, kind="backward_shift"):
    """(x0, x1, ...) -> (x1, x2, ...) on unilateral sequences."""

    domain, step = UNILATERAL, -1
    _power, power_norm_bound = _shift_power, _shift_norm_bound

    def adjoint_point_spectrum(self):
        # a standard fact, not derived here: the adjoint is the isometric
        # forward shift, which has no eigenvalues
        return frozenset()


@dataclass(frozen=True)
class ForwardShift(OperatorSpec, kind="forward_shift"):
    """(x0, x1, ...) -> (0, x0, x1, ...) on unilateral sequences."""

    domain, step = UNILATERAL, 1
    _power, power_norm_bound = _shift_power, _shift_norm_bound


@dataclass(frozen=True)
class WeightedBackward(OperatorSpec, kind="weighted_backward"):
    """Bilateral backward shift: e_j -> weight(j) * e_{j-1}."""

    weights: WeightSpec
    domain, step = BILATERAL, -1
    _power, power_norm_bound = _shift_power, _shift_norm_bound


@dataclass(frozen=True)
class WeightedForward(OperatorSpec, kind="weighted_forward"):
    """Bilateral forward shift: e_j -> weight(j) * e_{j+1}."""

    weights: WeightSpec
    domain, step = BILATERAL, 1
    _power, power_norm_bound = _shift_power, _shift_norm_bound


@dataclass(frozen=True)
class ScalarOnC(OperatorSpec, kind="scalar_on_c"):
    """Multiplication by a fixed scalar on the one-dimensional space C."""

    value: complex
    domain = "scalar"

    def __init__(self, value):
        object.__setattr__(self, "value", complex(value))

    def _power(self, n, v, outer):
        if not isinstance(v, complex):
            raise DomainMismatchError("scalar operator acts on complex numbers")
        for _ in range(n):
            v = self.value * v
            for f in outer:
                v = f * v
        return v

    def power_norm_bound(self, n):
        return abs(self.value) ** n

    def adjoint_point_spectrum(self):
        return frozenset({self.value.conjugate()})


@dataclass(frozen=True)
class ScalarMultiple(OperatorSpec, kind="scalar_multiple"):
    factor: complex
    inner: OperatorSpec

    def __init__(self, factor, inner):
        object.__setattr__(self, "factor", complex(factor))
        object.__setattr__(self, "inner", inner)

    def operator_domain(self):
        return self.inner.operator_domain()

    def power_norm_bound(self, n):
        return abs(self.factor) ** n * self.inner.power_norm_bound(n)

    def _power(self, n, v, outer):
        return self.inner._power(n, v, (self.factor,) + outer)

    def adjoint_point_spectrum(self):
        inner = self.inner.adjoint_point_spectrum()
        if inner is None:
            return None
        f = self.factor.conjugate()
        return frozenset({f * lam for lam in inner})


@dataclass(frozen=True)
class DirectSum(OperatorSpec, kind="direct_sum"):
    """Blockwise action on tuples of vectors, one block per summand."""

    blocks: tuple[OperatorSpec, ...]

    def __init__(self, *blocks):
        if len(blocks) == 1 and isinstance(blocks[0], (list, tuple)):
            blocks = tuple(blocks[0])
        if not blocks:
            raise PreconditionError("direct sum needs at least one block")
        object.__setattr__(self, "blocks", tuple(blocks))

    def _pairs(self, v):
        """(block, vector) pairs of v, a tuple with one vector per block."""
        if not (isinstance(v, tuple) and len(v) == len(self.blocks)):
            raise DomainMismatchError("direct sum acts on tuples matching its blocks")
        return zip(self.blocks, v)

    def operator_domain(self):
        return tuple(b.operator_domain() for b in self.blocks)

    def power_norm_bound(self, n):
        return max(b.power_norm_bound(n) for b in self.blocks)

    def _power(self, n, v, outer):
        return tuple(b._power(n, x, outer) for b, x in self._pairs(v))

    def adjoint_point_spectrum(self):
        out = set()
        for b in self.blocks:
            spec = b.adjoint_point_spectrum()
            if spec is None:
                return None
            out.update(spec)
        return frozenset(out)


def apply(op: OperatorSpec, v: Vector) -> Vector:
    """Exact image of v under op; raises DomainMismatchError on shape errors."""
    return op.apply(v)


def power_apply(op: OperatorSpec, n: int, v: Vector) -> Vector:
    """op applied n times, folded entry by entry.

    Catalog shifts move distinct indices to distinct indices, so each entry
    of a sequence vector follows its own path. Along it the fold does the
    multiplications of n calls of apply in their order (the weight, then the
    ScalarMultiple factors from the inside out), each followed by make()'s
    zero drop and `0 + c`, so the result is bitwise that of n calls of apply.
    factor**n would not be: complex.__pow__ stops multiplying above n = 100.
    """
    if n < 0:
        raise PreconditionError("power must be nonnegative")
    return v if n == 0 else op._power(n, v, ())


def _walk(i: int, c: complex, n: int, step: int, weights, outer: tuple):
    """(index, value) of entry c at index i after n steps; None once it is 0."""
    for _ in range(n):
        if weights is not None:
            c = weights.weight(i) * c
        i += step
        if c == 0:
            return None
        c = 0 + c
        for f in outer:
            c = f * c
            if c == 0:
                return None
            c = 0 + c
    return i, c


def power_norm_bound(op: OperatorSpec, n: int) -> float:
    """An upper bound for the operator norm of op^n (not necessarily attained)."""
    if n < 0:
        raise PreconditionError("power must be nonnegative")
    return op.power_norm_bound(n)


def adjoint_point_spectrum(op: OperatorSpec) -> Optional[frozenset]:
    """Point spectrum of the adjoint, for the closed-form catalog; None = unknown."""
    return op.adjoint_point_spectrum()
