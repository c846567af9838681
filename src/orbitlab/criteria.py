"""Numerical checker for the hypercyclicity criterion on catalog operators.

The three asymptotic conditions (T^{n_k} x -> 0 on a dense in-set, S_{n_k} y
-> 0 on a dense out-set, T^{n_k} S_{n_k} y -> y) are finitized as: final
residual within tolerance AND a nonincreasing residual tail over the last
five indices. The trend guard blocks false positives from residuals that dip
momentarily while diverging. Right inverses are given symbolically as an
operator S with S_{n} = S^n (for example S = F/2 against 2B).

Closed form for dyadic pairs. T and S are dyadic chains
(operators.DyadicChain) when each is an unweighted unilateral shift whose
ScalarMultiple factors are all +-2^k or +-2^k i. Multiplying by such a
number swaps and negates the parts of a complex value and scales them by
2^k, exactly while every nonzero part stays normal (a zero part stays zero,
up to a sign that no norm sees). Where S moves forward it drops no entry,
so every entry moves alike: n steps of S, then n of T, take (i, c) to
(i + shift, i^q 2^E c), with shift, E and q summed along the pair of paths
of that index (DyadicChain.path), and one pair serves all targets. An index
fits (_fits) where, along both paths, after each factor inside a step,
every nonzero part of every target entry stays normal (_room). Its row is
then formed in closed form; at the first index that does not fit (2B
against F/2 at index 1023: 2^-1022 is the least normal float) the
telescoped walk takes the remaining indices, to the same report. It goes on
from S^n y at the last closed index n, which _moved builds with the bits n
calls of apply give. Any other pair, or a target off the domain, walks from
the start. Each row is formed as the decay walk reaches its index, so a
refusal comes before any later row.

The closed rows by exact scaling. S^n y is i^q 2^E y, shifted. _norm_sq
squares each part, adds an entry's two squares and adds that to a running
sum; scaling the parts by 2^E scales each exact result by 4^E, and
rounding commutes with that while the rounded value and its scaled twin
are both normal and finite (one that rounds up to 2^-1022 once scaled does
so in the subnormal grid too). So where E lies in _square_room, bounded by
the targets' least nonzero square and largest sum, the S norms are
ldexp(||y||, E), and elsewhere (2B against F/2 from index 512 on) the
entries_norm of the entries scaled by 2^E. A round trip that brings every
entry back to its index with the factor 1 (_home, as for 2B against F/2)
misses by 0.0; any other goes through vector_sub and vector_norm of its
image, formed by _times.

The forward-decay walk makes one criteria.apply per index and vector, but
a sequence vector that apply returned empty stays as it is (T 0 = 0); once
the whole row is zero, _iterates yields it again and check_criterion keeps
its peak, so 2B is applied to e_j only j + 1 times. The first step applies
T to every vector, so one off the domain is refused even if it is zero.
The S walk of the round trips is the same walk: once F/2 has underflowed
every target (Rolewicz from index 1075), the zero row comes back, and its
round trips (T^n 0 - y = -y) and norms are the ones already formed.

The walk's round trips are telescoped along the index sequence, and only
their norms are kept. For consecutive indices p < n, b = T^(n-p) S^n y is
computed first. Where b == S^p y, the norm at p is reused; otherwise T^p b
finishes the n steps, which power_apply gives with the bits of n calls of
apply. Equality is enough: == ignores only the sign of a zero part, and
NaN equals nothing. A catalog step only multiplies, adds and drops zeros,
so a zero's sign never reaches a nonzero part or a NaN, and T^p b equals
T^p S^p y up to zero signs. vector_sub writes `0 + c` on sequences, and
every norm squares its parts, so both misses have the same norm bits.
Reuse applies wherever S is an exact right inverse of T along the orbit of
y (a dyadic pair past float range, and many states of inexact pairs);
there a round trip costs n - p steps instead of n, and a full index
sequence up to N costs O(N) steps per target instead of O(N^2). The walk
holds only the rows at the current and the previous index; the closed form
one pair of paths per index.

A residual norm that is not finite (an overflow to inf, or NaN) is refused
at its index with NonFiniteResidualError naming its vector: max() would
hide a NaN (max(0.0, nan) is 0.0), and a report cannot hold either.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .jsonio import PreconditionError, Record
from .operators import (
    DomainMismatchError,
    OperatorSpec,
    SeqVector,
    Vector,
    _norm_sq,
    apply,
    entries_norm,
    on_domain,
    power_apply,
    vector_norm,
    vector_sub,
)

TAIL_GUARD = 5
# the most indices a config may list; the CLI refuses more before building them
INDEX_CAP = 10**6


class NonFiniteResidualError(PreconditionError):
    """A residual norm overflowed to inf or is NaN."""


class CriterionInstance(Record):
    operator: OperatorSpec
    right_inverse: OperatorSpec
    decay_vectors: tuple[Vector, ...]  # the set where T^{n_k} x -> 0 is demanded
    target_vectors: tuple[Vector, ...]  # the set where S and T*S conditions act
    indices: tuple[int, ...]
    tolerance: float = 1e-9

    def __post_init__(self):
        for field in ("decay_vectors", "target_vectors"):
            if not getattr(self, field):
                raise PreconditionError(f"{field}: the test family is empty")
        acts_on, dom = self.right_inverse.operator_domain(), self.operator.operator_domain()
        if acts_on != dom:
            raise DomainMismatchError(
                f"right_inverse: acts on {acts_on!r}, but operator acts on {dom!r}"
            )
        idx = list(self.indices)
        if idx != sorted(set(idx)) or any(i < 0 for i in idx) or not idx:
            raise PreconditionError("indices: must be strictly increasing and nonnegative")
        if not self.tolerance >= 0.0:  # NaN too: no residual is ever within it
            raise PreconditionError(f"tolerance: must be nonnegative, got {self.tolerance!r}")


class Traces(NamedTuple):
    """The three residual traces, one peak per index."""

    forward_decay: tuple[float, ...]
    inverse_decay: tuple[float, ...]
    roundtrip: tuple[float, ...]


class CriterionReport(Record):
    passes: bool
    final_residuals: tuple[float, float, float]
    tail_nonincreasing: tuple[bool, bool, bool]
    traces: Traces


def _iterates(op: OperatorSpec, vecs, indices, done: int = 0):
    """vecs under op^n for each n in indices, computed incrementally from
    vecs as op^done of the vectors (done below every index); only the
    latest row is held, so memory does not grow with the largest index.
    A zero sequence vector that apply returned stays as it is (T 0 = 0);
    once the whole row is zero, that same row object comes back."""
    zero = False
    for n in indices:
        while done < n and not zero:
            vecs = [v if done and _empty(v) else apply(op, v) for v in vecs]
            done, zero = done + 1, all(map(_empty, vecs))
        yield vecs


def _empty(v) -> bool:
    return type(v) is SeqVector and not v.entries


def _round_trips(op: OperatorSpec, s_rows, targets, indices):
    """Per index n, the norms of S^n y, its row of s_rows, and of
    T^n S^n y - y over the targets, telescoped as the module docstring says.
    A zero row comes back from _iterates as the same object, and its norms
    with it: T^n 0 - y = -y."""
    last = None
    for n, row in zip(indices, s_rows):
        if row is not last:
            trips = []
            for j, (sy, y) in enumerate(zip(row, targets)):
                if last is None:
                    image = power_apply(op, n, sy)
                else:
                    b = power_apply(op, n - p, sy)
                    if b == last[j]:
                        trips.append(norms[1][j])
                        continue
                    image = power_apply(op, p, b)
                trips.append(vector_norm(vector_sub(image, y)))
            p, last, norms = n, row, (list(map(vector_norm, row)), trips)
        yield norms


def _peak(norms, field: str, trace: str, n: int) -> float:
    """The largest of norms, one per vector of the field; a non-finite norm
    raises NonFiniteResidualError naming its vector."""
    if math.isfinite(sum(norms)):  # inf or NaN in any norm carries into the sum
        return max(norms)
    for i, x in enumerate(norms):
        if not math.isfinite(x):
            raise NonFiniteResidualError(
                f"{field}[{i}]: non-finite {trace} residual {x!r} at index {n}"
            )
    return max(norms)


def _target_rows(inst: CriterionInstance):
    """Per index, the norms of S^n y and of T^n S^n y - y over the targets,
    each row formed when it is asked for: in closed form while the index
    fits (see the module docstring), then from the telescoped walk."""
    T, S, targets, indices = inst.operator, inst.right_inverse, inst.target_vectors, inst.indices
    s, t, done, start = S.dyadic_chain(), T.dyadic_chain(), 0, targets
    if s and t and s.step > 0 and all(on_domain(y, S.operator_domain()) for y in targets):
        room, (floor, ceil) = _room(c for y in targets for _, c in y.entries), _square_room(targets)
        norms, zeros = [entries_norm(y.entries) for y in targets], [0.0] * len(targets)
        for n in indices:
            p, r = s.path(n), t.path(n)
            if not _fits(p, r, room):
                break
            e = p[1]
            if floor <= e <= ceil:
                s_norms = [math.ldexp(x, e) for x in norms]
            else:  # i^q does not move a norm
                s_norms = [entries_norm([(i, _times(c, e, 0)) for i, c in y.entries])
                           for y in targets]
            yield s_norms, zeros if _home(p, r) else [_miss_norm(y, p, r) for y in targets]
            done += 1
        if 0 < done < len(indices):  # the walk goes on from the last closed row's S^n y
            start = [_moved(y, *s.path(indices[done - 1])[:3]) for y in targets]
    rest, begin = indices[done:], indices[done - 1] if done else 0
    yield from _round_trips(T, _iterates(S, start, rest, begin), targets, rest)


def _moved(y: SeqVector, shift: int, e: int, q: int) -> SeqVector:
    """y with every entry moved to its index + shift and multiplied by
    i^q 2^e, in the bits the walk gives where its parts stay normal: a zero
    entry dropped and `0 + c` applied, so no zero part keeps a sign."""
    return SeqVector(y.domain, tuple((i + shift, 0 + _times(c, e, q)) for i, c in y.entries if c))


def _miss_norm(y: SeqVector, p, r) -> float:
    """The norm of T^n S^n y - y, with every entry of y moved along p, then r."""
    image = _moved(y, p[0] + r[0], p[1] + r[1], p[2] + r[2])
    return vector_norm(vector_sub(image, y))


def _fits(p, r, room) -> bool:
    """Whether the S path p, then the T path r, keep every partial product
    within room (see _room)."""
    floor, ceil = room
    return floor <= p[3] and p[4] <= ceil and floor <= p[1] + r[3] and p[1] + r[4] <= ceil


def _home(p, r) -> bool:
    """Whether the paths p, then r, bring an entry back to its index with
    the factor 1."""
    return not (p[0] + r[0] or p[1] + r[1] or (p[2] + r[2]) % 4)


def _room(values) -> tuple:
    """(floor, ceil): every nonzero part of these values times 2**e is a
    normal float for floor <= e <= ceil; an empty range where a part is not
    finite."""
    parts = [x for c in values for x in (c.real, c.imag) if x]
    if not all(map(math.isfinite, parts)):
        return math.inf, -math.inf
    exps = [math.frexp(x)[1] for x in parts]
    return (-1021 - min(exps), 1024 - max(exps)) if exps else (-math.inf, math.inf)


def _square_room(targets) -> tuple:
    """(floor, ceil): for floor <= e <= ceil, every nonzero square, pairwise
    sum and partial sum of _norm_sq over these sequence vectors is a normal
    float both as it is and times 4**e; an empty range where one is not."""
    squares = [x * x for y in targets for _, c in y.entries for x in (c.real, c.imag) if x]
    if not squares:
        return -math.inf, math.inf
    least, most = min(squares), max(_norm_sq(y.entries) for y in targets)
    if not (sys.float_info.min <= least and most < math.inf):
        return math.inf, -math.inf
    return -((1021 + math.frexp(least)[1]) // 2), (1024 - math.frexp(most)[1]) // 2


def _times(c: complex, e: int, q: int) -> complex:
    """i^q 2^e c, exactly where its parts stay normal."""
    a, b = ((c.real, c.imag), (-c.imag, c.real), (-c.real, -c.imag), (c.imag, -c.real))[q % 4]
    return complex(math.ldexp(a, e), math.ldexp(b, e))


def check_criterion(inst: CriterionInstance) -> CriterionReport:
    """Evaluate the three residual traces along the instance's index sequence,
    taking each index's peaks as the decay walk reaches it."""
    indices = inst.indices
    decay_rows = _iterates(inst.operator, inst.decay_vectors, indices)
    rows = _target_rows(inst)
    traces, last = Traces([], [], []), None
    for n, decay, (s_norms, trip_norms) in zip(indices, decay_rows, rows):
        if decay is not last:  # a zero row comes back as the same object
            last, peak = decay, _peak(
                list(map(vector_norm, decay)), "decay_vectors", "forward_decay", n)
        traces.forward_decay.append(peak)
        traces.inverse_decay.append(_peak(s_norms, "target_vectors", "inverse_decay", n))
        traces.roundtrip.append(_peak(trip_norms, "target_vectors", "roundtrip", n))
    traces = Traces(*map(tuple, traces))
    finals = tuple(t[-1] for t in traces)
    tails = tuple(_tail_nonincreasing(t) for t in traces)
    passes = all(f <= inst.tolerance for f in finals) and all(tails)
    return CriterionReport(
        passes=passes,
        final_residuals=finals,  # type: ignore[arg-type]
        tail_nonincreasing=tails,  # type: ignore[arg-type]
        traces=traces,
    )


def _tail_nonincreasing(trace) -> bool:
    tail = trace[-TAIL_GUARD:]
    return all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
