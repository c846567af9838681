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
import sys
from bisect import bisect_right
from itertools import accumulate
from typing import Optional, Union as TUnion

from . import jsonio
from .jsonio import PreconditionError, Record

UNILATERAL = "uni"
BILATERAL = "bi"


class DomainMismatchError(PreconditionError):
    """Vector domain does not match the operator's domain."""


class UnsupportedOperatorError(PreconditionError):
    """Operator outside the closed-form catalog for this query."""


# ---------------------------------------------------------------------------
# vectors


class SeqVector(Record):
    """Finitely supported sequence; unilateral indices are >= 0."""

    domain: str
    entries: tuple[tuple[int, complex], ...]

    def __init__(self, domain: str, entries: tuple[tuple[int, complex], ...]):
        # written out, not Record's: the builders make thousands per job
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", entries)

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
        return _norm_sq(self.entries)

    def norm(self) -> float:
        return entries_norm(self.entries)

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
        # added left to right from the int 0, as sum() did before 3.12
        s = 0
        for i, v in self.entries:
            if i in rhs:
                s += v * rhs[i].conjugate()
        return s

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
    try:
        return abs(v)
    except OverflowError:  # finite parts whose modulus passes the largest float
        return math.inf


def _norm_sq(entries) -> float:
    # added left to right: sum() of floats is compensated from Python
    # 3.12 on, which would move the last bits of reported norms
    s = 0.0
    for _, v in entries:
        s += v.real * v.real + v.imag * v.imag
    return s


def entries_norm(entries) -> float:
    """SeqVector.norm of these (index, value) entries: the root of their
    _norm_sq, rescaled where the squares leave float range."""
    s = _norm_sq(entries)
    if 0.0 < s < math.inf or not entries:
        return math.sqrt(s)
    return _rescaled_norm([v for _, v in entries], s)


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
    if kind is not tuple:
        return a * b.conjugate()
    s = 0  # added left to right, as in SeqVector.inner
    for x, y in zip(a, b):
        s += vector_inner(x, y)
    return s


def vector_same(a: Vector, b: Vector) -> bool:
    """Whether a and b hold the same bits. Unlike ==, signed zeros differ
    (scalar-domain values are not normalised by `0 + c`), and NaN, which
    never equals itself, never matches."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(vector_same, a, b))
    if type(a) is SeqVector:
        return (
            a.domain == b.domain
            and len(a.entries) == len(b.entries)
            and all(i == j and _same_number(c, d) for (i, c), (j, d) in zip(a.entries, b.entries))
        )
    return _same_number(a, b)


def _same_number(c: complex, d: complex) -> bool:
    return (
        c == d
        and math.copysign(1.0, c.real) == math.copysign(1.0, d.real)
        and math.copysign(1.0, c.imag) == math.copysign(1.0, d.imag)
    )


def on_domain(v, dom) -> bool:
    """Whether v is a vector on the operator_domain() dom: a complex on
    "scalar", a SeqVector of that domain on "uni" or "bi", and on a direct
    sum a tuple with one vector per block."""
    if isinstance(v, SeqVector):  # first: the shifts check one per step
        return v.domain == dom
    if type(dom) is tuple:
        return isinstance(v, tuple) and len(v) == len(dom) and all(map(on_domain, v, dom))
    return dom == "scalar" and isinstance(v, complex)


def decode_vector(obj, dom, path: str) -> Vector:
    """The config vector obj on the operator_domain() dom: an [re, im] pair
    on C, a SeqVector object on sequence spaces, and on a direct sum a list
    with one vector per block. A value that is no vector on dom is a
    PreconditionError naming its path, e.g. `target_vectors[2][0]`."""
    if type(dom) is not tuple:
        v = jsonio.decode(complex if dom == "scalar" else SeqVector, obj, path)
        if on_domain(v, dom):
            return v
    elif type(obj) is list and len(obj) == len(dom):
        return tuple(decode_vector(x, d, f"{path}[{i}]") for i, (x, d) in enumerate(zip(obj, dom)))
    raise PreconditionError(f"{path}: {obj!r} is not a vector on the {dom!r} domain")


# ---------------------------------------------------------------------------
# weights


class WeightSpec(Record):
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

    def runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(k, count) for each run of count equal weights values[k] in
        lo..hi, in index order (none for an empty window)."""
        if hi < lo:
            return []
        edges = [lo] + [b for b in self.breakpoints if lo < b <= hi] + [hi + 1]
        return [(bisect_right(self.breakpoints, a), b - a) for a, b in zip(edges, edges[1:])]

    def window_product(self, lo: int, hi: int) -> complex:
        """Product of weight(i) for lo <= i <= hi (1 for an empty window)."""
        prod = 1.0 + 0.0j
        for k, count in self.runs(lo, hi):
            prod *= self.values[k] ** count
        return prod

    def window_log2(self, lo: int, hi: int) -> float:
        """log2 |window_product(lo, hi)|, summed run by run: it cannot overflow."""
        return sum(count * math.log2(abs(self.values[k])) for k, count in self.runs(lo, hi))

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


class OperatorSpec(jsonio.Family):
    """Base class; use the concrete variants.

    Every variant implements _power(n, v, outer), its one action: op^n v for
    n >= 1, each step followed by the factors `outer` (inside out) of the
    scalar multiples around op; apply(v) is one step. Every variant also
    implements power_norm_bound(n) and its log2 form log2_norm_bound(n).
    dyadic_chain(outer) is None but on the unweighted shifts and the scalar
    multiples around them (see DyadicChain). The shifts carry `domain` and
    `step` (+1 forward, -1 backward) as plain class attributes, which are no
    record fields and so stay out of the JSON form.
    """

    def operator_domain(self):
        """"uni", "bi" or "scalar", or a tuple of these for a direct sum."""
        return self.domain

    def apply(self, v: Vector) -> Vector:
        return self._power(1, v, ())

    def adjoint_point_spectrum(self) -> Optional[frozenset]:
        """Point spectrum of the adjoint; None = unknown."""
        return None

    def dyadic_chain(self, outer: tuple = ()) -> Optional["DyadicChain"]:
        return None


def _shift_power(op, n: int, v: Vector, outer: tuple) -> SeqVector:
    """The shifts' _power: each entry follows its own path (see power_apply).
    _walk drops zeros and applies `0 + c` itself, and the indices move in
    order, so the entries are already those _from_sorted would keep."""
    if not on_domain(v, op.domain):
        raise DomainMismatchError(f"operator expects a {op.domain!r} sequence vector")
    if not v.entries:
        return v
    weights = getattr(op, "weights", None)
    out = []
    for i, c in v.entries:
        # the unilateral backward shift drops index 0: entry i lives i steps
        if weights is None and op.step < 0 and n > i:
            continue
        moved = _walk(i, c, n, op.step, weights, outer)
        if moved is not None:
            out.append(moved)
    return SeqVector(op.domain, tuple(out))


def _shift_norm_bound(op, n: int) -> float:
    """The sup over j of |product of n consecutive weights| ending (backward)
    or starting (forward) at j: exact for piecewise-constant weights."""
    w = getattr(op, "weights", None)
    if w is None or n == 0:
        return 1.0
    best = max(abs(w.values[0]) ** n, abs(w.values[-1]) ** n)
    for a, b in _windows(w, n):
        best = max(best, abs(w.window_product(a, b)))
    return best


def _shift_log2_bound(op, n: int) -> float:
    w = getattr(op, "weights", None)
    if w is None or n == 0:
        return 0.0
    best = n * math.log2(abs(w.values[0]))
    for a, b in _windows(w, n):
        best = max(best, w.window_log2(a, b))
    return best


def _windows(w: WeightSpec, n: int):
    """The windows (lo, hi) of n consecutive weights, the same set for both
    directions, whose lo or hi + 1 is a breakpoint. Moving a window by one
    adds log |weight(hi + 1)| and takes log |weight(lo)|, a difference that
    changes only where lo or hi + 1 passes a breakpoint: the log of the
    window product is piecewise linear in lo with its kinks at these
    windows, which hold its sup, the two constant tails included."""
    return {(a, a + n - 1) for b in w.breakpoints for a in (b, b - n)}


def _shift_chain(op, outer: tuple = ()) -> Optional["DyadicChain"]:
    return DyadicChain.of(op.step, outer)


class BackwardShift(OperatorSpec, kind="backward_shift"):
    """(x0, x1, ...) -> (x1, x2, ...) on unilateral sequences."""

    domain, step = UNILATERAL, -1
    _power, power_norm_bound = _shift_power, _shift_norm_bound
    log2_norm_bound, dyadic_chain = _shift_log2_bound, _shift_chain

    def adjoint_point_spectrum(self):
        # a standard fact, not derived here: the adjoint is the isometric
        # forward shift, which has no eigenvalues
        return frozenset()


class ForwardShift(OperatorSpec, kind="forward_shift"):
    """(x0, x1, ...) -> (0, x0, x1, ...) on unilateral sequences."""

    domain, step = UNILATERAL, 1
    _power, power_norm_bound = _shift_power, _shift_norm_bound
    log2_norm_bound, dyadic_chain = _shift_log2_bound, _shift_chain


class WeightedBackward(OperatorSpec, kind="weighted_backward"):
    """Bilateral backward shift: e_j -> weight(j) * e_{j-1}."""

    weights: WeightSpec
    domain, step = BILATERAL, -1
    _power, power_norm_bound = _shift_power, _shift_norm_bound
    log2_norm_bound = _shift_log2_bound


class WeightedForward(OperatorSpec, kind="weighted_forward"):
    """Bilateral forward shift: e_j -> weight(j) * e_{j+1}."""

    weights: WeightSpec
    domain, step = BILATERAL, 1
    _power, power_norm_bound = _shift_power, _shift_norm_bound
    log2_norm_bound = _shift_log2_bound


class ScalarOnC(OperatorSpec, kind="scalar_on_c"):
    """Multiplication by a fixed scalar on the one-dimensional space C."""

    value: complex
    domain = "scalar"

    def __init__(self, value):
        object.__setattr__(self, "value", complex(value))

    def _power(self, n, v, outer):
        if not on_domain(v, self.domain):
            raise DomainMismatchError("scalar operator acts on complex numbers")
        for _ in range(n):
            v = self.value * v
            for f in outer:
                v = f * v
        return v

    def power_norm_bound(self, n):
        return abs(self.value) ** n

    def log2_norm_bound(self, n):
        return _log2_power(abs(self.value), n)

    def adjoint_point_spectrum(self):
        return frozenset({self.value.conjugate()})


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

    def log2_norm_bound(self, n):
        return _log2_power(abs(self.factor), n) + self.inner.log2_norm_bound(n)

    def dyadic_chain(self, outer=()):
        return self.inner.dyadic_chain((self.factor,) + outer)

    def _power(self, n, v, outer):
        return self.inner._power(n, v, (self.factor,) + outer)

    def adjoint_point_spectrum(self):
        inner = self.inner.adjoint_point_spectrum()
        if inner is None:
            return None
        f = self.factor.conjugate()
        return frozenset({f * lam for lam in inner})


class DirectSum(OperatorSpec, kind="direct_sum"):
    """Blockwise action on tuples of vectors, one block per summand."""

    blocks: tuple[OperatorSpec, ...]

    def __init__(self, *blocks):
        if len(blocks) == 1 and isinstance(blocks[0], (list, tuple)):
            blocks = tuple(blocks[0])
        if not blocks:
            raise PreconditionError("direct sum needs at least one block")
        object.__setattr__(self, "blocks", tuple(blocks))

    def operator_domain(self):
        return tuple(b.operator_domain() for b in self.blocks)

    def power_norm_bound(self, n):
        return max(b.power_norm_bound(n) for b in self.blocks)

    def log2_norm_bound(self, n):
        return max(b.log2_norm_bound(n) for b in self.blocks)

    def _power(self, n, v, outer):
        if not on_domain(v, self.operator_domain()):
            raise DomainMismatchError("direct sum acts on tuples of vectors, one per block")
        return tuple(b._power(n, x, outer) for b, x in zip(self.blocks, v))

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
    return op._power(1, v, ())


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


class DyadicChain:
    """An unweighted unilateral shift with the ScalarMultiple factors around
    it, every factor i**q * 2**k: k and q are those of their product, lo and
    hi the least and greatest k of their partial products, 1 included."""

    __slots__ = ("step", "k", "q", "lo", "hi")

    @classmethod
    def of(cls, step, factors) -> Optional["DyadicChain"]:
        units = list(map(_dyadic, factors))
        if None in units:
            return None
        chain, sums = object.__new__(cls), list(accumulate((k for k, _ in units), initial=0))
        chain.step, chain.k, chain.q = step, sums[-1], sum(q for _, q in units)
        chain.lo, chain.hi = min(sums), max(sums)
        return chain

    def path(self, n: int):
        """(shift, e, q, lo, hi) for any entry that n steps keep at an index
        >= 0: it moves to its index + shift, its value is multiplied by
        i**q * 2**e, and by a power of two from 2**lo to 2**hi after each
        factor on the way."""
        if not n:
            return 0, 0, 0, 0, 0
        k, top = self.k, (n - 1) * self.k
        return n * self.step, n * k, n * self.q, min(0, top) + self.lo, max(0, top) + self.hi


def _dyadic(z: complex) -> Optional[tuple[int, int]]:
    """(k, q) with z == i**q * 2**k, or None when z is no such number."""
    for q, x in enumerate((z.real, z.imag, -z.real, -z.imag)):
        if math.frexp(x)[0] == 0.5 and not (z.imag if q % 2 == 0 else z.real):
            return math.frexp(x)[1] - 1, q
    return None


def power_norm_bound(op: OperatorSpec, n: int) -> float:
    """An upper bound for the operator norm of op^n (not necessarily
    attained): op.power_norm_bound(n), a product of float powers, where it
    is a positive normal float. Elsewhere a power may have left float range
    on the way (an OverflowError, 0.0 * inf), so the bound is taken as
    2 ** op.log2_norm_bound(n), which sums logarithms: inf past the largest
    float, never NaN."""
    if n < 0:
        raise PreconditionError("power must be nonnegative")
    try:
        plain = op.power_norm_bound(n)
        if sys.float_info.min <= plain < math.inf:
            return plain
    except OverflowError:
        pass
    try:
        return 2.0 ** op.log2_norm_bound(n)
    except OverflowError:
        return math.inf


def _log2_power(x: float, n: int) -> float:
    """log2(x ** n) for x >= 0 and n >= 0."""
    return n * math.log2(x) if x else -math.inf if n else 0.0


def adjoint_point_spectrum(op: OperatorSpec) -> Optional[frozenset]:
    """Point spectrum of the adjoint, for the closed-form catalog; None = unknown."""
    return op.adjoint_point_spectrum()
