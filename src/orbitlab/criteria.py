"""Numerical checker for the hypercyclicity criterion on catalog operators.

The three asymptotic conditions (T^{n_k} x -> 0 on a dense in-set, S_{n_k} y
-> 0 on a dense out-set, T^{n_k} S_{n_k} y -> y) are finitized as: final
residual within tolerance AND a nonincreasing residual tail over the last
five indices. The trend guard blocks false positives from residuals that dip
momentarily while diverging. Right inverses are given symbolically as an
operator S with S_{n} = S^n (for example S = F/2 against 2B).

The round trips are telescoped along the index sequence. For consecutive
indices p < n, b = T^(n-p) S^n y is computed first. Where b holds the same
bits as S^p y, T^n S^n y = T^p b is bit for bit T^p S^p y, so the miss at p
is reused; otherwise T^p b finishes the n steps. power_apply equals n calls
of apply bit for bit, so both ways give the bits of the direct T^n S^n y.
Reuse applies wherever S is an exact right inverse of T along the orbit of
y (dyadic weights and factors, such as 2B with F/2, and many states of
inexact pairs); there a round trip costs n - p steps instead of n, and a
full index sequence up to N costs O(N) steps per target instead of O(N^2).
The iterates are streamed: only the rows at the current and the previous
index are held, so memory does not grow with N.

A residual norm that is not finite (an overflow to inf, or NaN) is refused
with NonFiniteResidualError naming its vector and index: max() would hide
a NaN (max(0.0, nan) is 0.0), and a report cannot hold either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .jsonio import PreconditionError
from .operators import (
    OperatorSpec,
    SeqVector,
    Vector,
    apply,
    power_apply,
    vector_norm,
    vector_sub,
)

TAIL_GUARD = 5
DEFAULT_TOLERANCE = 1e-9


class NonFiniteResidualError(PreconditionError):
    """A residual norm overflowed to inf or is NaN."""


@dataclass(frozen=True)
class CriterionInstance:
    operator: OperatorSpec
    right_inverse: OperatorSpec
    decay_vectors: tuple[Vector, ...]  # the set where T^{n_k} x -> 0 is demanded
    target_vectors: tuple[Vector, ...]  # the set where S and T*S conditions act
    indices: tuple[int, ...]
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not self.decay_vectors or not self.target_vectors:
            raise PreconditionError("both test families must be non-empty")
        idx = list(self.indices)
        if idx != sorted(set(idx)) or any(i < 0 for i in idx) or not idx:
            raise PreconditionError("indices must be strictly increasing and nonnegative")


class Traces(NamedTuple):
    """The three residual traces, one peak per index."""

    forward_decay: tuple[float, ...]
    inverse_decay: tuple[float, ...]
    roundtrip: tuple[float, ...]


@dataclass(frozen=True)
class CriterionReport:
    passes: bool
    final_residuals: tuple[float, float, float]
    tail_nonincreasing: tuple[bool, bool, bool]
    traces: Traces


def _iterates(op: OperatorSpec, vecs, indices):
    """vecs under op^n for each n in indices, computed incrementally; only
    the latest row is held, so memory does not grow with the largest index."""
    done = 0
    for n in indices:
        for _ in range(n - done):
            vecs = [apply(op, v) for v in vecs]
        done = n
        yield vecs


def _same(a: Vector, b: Vector) -> bool:
    """Whether a and b hold the same bits. Unlike ==, signed zeros differ
    (scalar-domain values are not normalised by `0 + c`), and NaN, which
    never equals itself, never matches."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
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
                if _same(b, p_row[j]):
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
    for i, x in enumerate(norms):
        if not math.isfinite(x):
            raise NonFiniteResidualError(
                f"{field}[{i}]: non-finite {trace} residual {x!r} at index {n}"
            )
    return max(norms)


def check_criterion(inst: CriterionInstance) -> CriterionReport:
    """Evaluate the three residual traces along the instance's index sequence."""
    op, indices, targets = inst.operator, inst.indices, inst.target_vectors
    forward, inverse, roundtrip = [], [], []
    for row in _iterates(op, inst.decay_vectors, indices):
        forward.append(list(map(vector_norm, row)))
    s_rows = _iterates(inst.right_inverse, targets, indices)
    for row, trips in _round_trips(op, s_rows, targets, indices):
        inverse.append(list(map(vector_norm, row)))
        roundtrip.append([norm for _, norm in trips])

    r1_trace = []
    r2_trace = []
    r3_trace = []
    for k, n in enumerate(indices):
        r1_trace.append(_peak(forward[k], "decay_vectors", "forward_decay", n))
        r2_trace.append(_peak(inverse[k], "target_vectors", "inverse_decay", n))
        r3_trace.append(_peak(roundtrip[k], "target_vectors", "roundtrip", n))

    traces = Traces(tuple(r1_trace), tuple(r2_trace), tuple(r3_trace))
    finals = tuple(t[-1] for t in traces)
    tails = tuple(_tail_nonincreasing(t) for t in traces)
    passes = all(f <= inst.tolerance for f in finals) and all(tails)
    return CriterionReport(
        passes=passes,
        final_residuals=finals,  # type: ignore[arg-type]
        tail_nonincreasing=tails,  # type: ignore[arg-type]
        traces=traces,
    )


def kitai_mode(inst: CriterionInstance) -> CriterionReport:
    """Same check with the index sequence forced to 0, 1, ..., max(indices):
    the full-sequence (Kitai-style) specialization."""
    return check_criterion(replace(inst, indices=tuple(range(inst.indices[-1] + 1))))


def _tail_nonincreasing(trace) -> bool:
    tail = trace[-TAIL_GUARD:]
    return all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
