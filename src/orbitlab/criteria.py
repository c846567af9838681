"""Numerical checker for the hypercyclicity criterion on catalog operators.

The three asymptotic conditions (T^{n_k} x -> 0 on a dense in-set, S_{n_k} y
-> 0 on a dense out-set, T^{n_k} S_{n_k} y -> y) are finitized as: final
residual within tolerance AND a nonincreasing residual tail over the last
five indices. The trend guard blocks false positives from residuals that dip
momentarily while diverging. Right inverses are given symbolically as an
operator S with S_{n} = S^n (for example S = F/2 against 2B).

Closed form for dyadic pairs. T and S are dyadic chains
(operators.DyadicChain) when every weight value, ScalarMultiple factor and
ScalarOnC value is +-2^k or +-2^k i. Multiplying by such a number swaps and
negates the parts of a complex value and scales them by 2^k, exactly while
every nonzero part stays normal (a zero part stays zero, up to a sign that
no norm sees). So the walk takes an entry (i, c) in n steps to
(i + n*step, i^q 2^E c), with E and q summed along its path
(DyadicChain.path). The S rows are formed from that rule and normed as the
walk norms them (operators.entries_norm; vector_norm on C and direct sums).
A round trip that brings every entry back to its index with the factor 1
(2B against F/2) misses by 0.0; any other goes through vector_sub and
vector_norm.

The range check runs once, before any row: at every listed index, along
S^n and then T^n, after each weight and each factor inside a step, every
nonzero part of every target entry must stay normal. The log2 of the
partial products is linear along each run of equal weights, so
DyadicChain.path takes its extremes at the run ends, widened by the
factors' partial sums. Unweighted chains that drop no entry move every
entry alike: one pair of paths per index then serves all targets, against
the least room of their entries. An instance out of range (2B against F/2
from index 1023 on: 2^-1022 is the least normal float), a pair that is not
dyadic or a target off the domain walks as below, to the same report. The
rows are formed as the decay walk reaches their index, so a refusal comes
before any later row.

Shared paths by exact scaling. Where every entry moves alike, S^n y is
i^q 2^E y, shifted. _norm_sq squares each part, adds an entry's two squares
and adds that to a running sum; scaling the parts by 2^E scales each exact
result by 4^E, and rounding commutes with that while the rounded value and
its scaled twin are both normal and finite (one that rounds up to 2^-1022
once scaled does so in the subnormal grid too). So where E lies in
_square_room, bounded by the targets' least nonzero square and largest sum,
and the trip comes home, a row is ldexp(||y||, E) per target and a round
trip of 0.0; any other row goes through _norms (2B against F/2 from index
512 on).

The forward-decay walk makes one criteria.apply per index and vector, but
a sequence vector that apply returned empty stays as it is (T 0 = 0); once
the whole row is zero, _iterates yields it again and check_criterion keeps
its peak, so 2B is applied to e_j only j + 1 times. The first step applies
T to every vector, so one off the domain is refused even if it is zero.

The walk's round trips are telescoped along the index sequence. For
consecutive indices p < n, b = T^(n-p) S^n y is computed first. Where b
holds the same bits as S^p y, T^n S^n y = T^p b is bit for bit T^p S^p y,
so the miss at p is reused; otherwise T^p b finishes the n steps.
power_apply equals n calls of apply bit for bit, so both ways give the bits
of the direct T^n S^n y. Reuse applies wherever S is an exact right inverse
of T along the orbit of y (a dyadic pair past float range, and many states
of inexact pairs); there a round trip costs n - p steps instead of n, and a
full index sequence up to N costs O(N) steps per target instead of O(N^2).
The walk holds only the rows at the current and the previous index; the
closed form, where every entry moves alike, one pair of paths per index.

A residual norm that is not finite (an overflow to inf, or NaN) is refused
at its index with NonFiniteResidualError naming its vector: max() would
hide a NaN (max(0.0, nan) is 0.0), and a report cannot hold either.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
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
    vector_same,
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


def _iterates(op: OperatorSpec, vecs, indices):
    """vecs under op^n for each n in indices, computed incrementally; only
    the latest row is held, so memory does not grow with the largest index.
    A zero sequence vector that apply returned stays as it is (T 0 = 0);
    once the whole row is zero, that same row object comes back."""
    done, zero = 0, False
    for n in indices:
        while done < n and not zero:
            vecs = [v if done and _empty(v) else apply(op, v) for v in vecs]
            done, zero = done + 1, all(map(_empty, vecs))
        yield vecs


def _empty(v) -> bool:
    return type(v) is SeqVector and not v.entries


def _round_trips(op: OperatorSpec, s_rows, targets, indices):
    """For each index n, its row S^n y of s_rows and the pairs (T^n S^n y - y,
    its norm) for the targets y, telescoped as the module docstring says."""
    prev = None
    for n, row in zip(indices, s_rows):
        trips = []
        for j, (sy, y) in enumerate(zip(row, targets)):
            if prev is None:
                image = power_apply(op, n, sy)
            else:
                p, p_row, p_trips = prev
                b = power_apply(op, n - p, sy)
                if vector_same(b, p_row[j]):
                    trips.append(p_trips[j])
                    continue
                image = power_apply(op, p, b)
            miss = vector_sub(image, y)
            trips.append((miss, vector_norm(miss)))
        yield row, trips
        prev = n, row, trips


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


def _closed_rows(inst: CriterionInstance):
    """Per index, the norms of S^n y and of T^n S^n y - y over the targets,
    in closed form (see the module docstring), each row formed when it is
    asked for; None where the instance must walk."""
    S, T = inst.right_inverse.dyadic_chain(), inst.operator.dyadic_chain()
    dom, targets, indices = inst.operator.operator_domain(), inst.target_vectors, inst.indices
    if S is None or T is None or not all(on_domain(y, dom) for y in targets):
        return None
    if type(S) is not tuple and S.weights is T.weights is None and not S.drops and all(
            type(y) is SeqVector for y in targets):
        # every entry moves alike: one pair of paths per index serves them all
        room = _room(c for y in targets for _, c in y.entries)
        paths = [(S.path(0, n), T.path(n * S.step, n)) for n in indices]
        return _shared_rows(targets, paths) if all(_fits(p, r, room) for p, r in paths) else None
    if any(_moves(S, T, y, n) is None for n in indices for y in targets):
        return None
    return (tuple(zip(*(_norms(y, _moves(S, T, y, n)) for y in targets))) for n in indices)


def _shared_rows(targets, paths):
    """The _norms rows for shared paths (p, r), one pair per index: the
    target norms times 2**p[1] and a round trip of 0.0 where the trip comes
    home and p[1] lies in _square_room, else _norms itself."""
    norms, (floor, ceil) = [entries_norm(y.entries) for y in targets], _square_room(targets)
    zeros = [0.0] * len(targets)
    for p, r in paths:
        home = _home(p, r)
        if home and floor <= p[1] <= ceil:
            yield [math.ldexp(x, p[1]) for x in norms], zeros
        else:
            yield tuple(zip(*(_norms(y, (y.entries, repeat((p, r)), home)) for y in targets)))


def _moves(S, T, y: Vector, n: int):
    """(entries, paths, home) for y, one per block of a direct sum: each
    entry's pair (S.path(i, n), the path of T^n from its end), None once
    dropped, and whether every entry comes back home (_home). None where a
    part leaves the normal range."""
    if type(y) is tuple:
        blocks = [_moves(s, t, b, n) for s, t, b in zip(S, T, y)]
        return None if None in blocks else blocks
    entries, paths, home = y.entries if type(y) is SeqVector else ((0, y),), [], True
    for i, c in entries:
        p = S.path(i, n)
        r = p and T.path(i + p[0], n)
        if p and not _fits(p, r, _room((c,))):
            return None
        paths.append((p, r))
        home = home and _home(p, r)
    return entries, paths, home


def _fits(p, r, room) -> bool:
    """Whether the S path p, then the T path r, keep every partial product
    within room (see _room)."""
    floor, ceil = room
    return floor <= p[3] and p[4] <= ceil and (
        not r or floor <= p[1] + r[3] and p[1] + r[4] <= ceil)


def _home(p, r) -> bool:
    """Whether the paths p, then r, bring an entry back to its index with
    the factor 1."""
    return bool(r) and not (p[0] + r[0] or p[1] + r[1] or (p[2] + r[2]) % 4)


def _norms(y: Vector, moves) -> tuple:
    """(norm of S^n y, norm of T^n S^n y - y) from the _moves of y."""
    if type(y) is tuple:
        # vector_norm of a tuple of block norms is the direct-sum norm
        return tuple(map(vector_norm, zip(*map(_norms, y, moves))))
    (entries, paths, home), ldexp, seq = moves, math.ldexp, type(y) is SeqVector
    moved = [(i, complex(ldexp(c.real, p[1]), ldexp(c.imag, p[1])))
             for (i, c), (p, _) in zip(entries, paths) if p]  # i^q does not move a norm
    s_norm = entries_norm(moved) if seq else vector_norm(moved[0][1])
    if home:  # T^n S^n y - y is empty
        return s_norm, 0.0
    image = [(i + p[0] + r[0], _times(c, p[1] + r[1], p[2] + r[2]))
             for (i, c), (p, r) in zip(entries, paths) if r]
    image = SeqVector(y.domain, tuple(image)) if seq else image[0][1]
    return s_norm, vector_norm(vector_sub(image, y))


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
    op, indices, targets = inst.operator, inst.indices, inst.target_vectors
    decay_rows = _iterates(op, inst.decay_vectors, indices)
    rows = _closed_rows(inst)
    if rows is None:  # the walk
        trips = _round_trips(op, _iterates(inst.right_inverse, targets, indices), targets, indices)
        rows = ((list(map(vector_norm, s_row)), [r for _, r in trip]) for s_row, trip in trips)
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
