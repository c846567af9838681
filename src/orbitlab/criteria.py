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
All three traces come from one walk: only the rows at the current and the
previous index are held, so memory does not grow with N.

A residual norm that is not finite (an overflow to inf, or NaN) is refused
at its index with NonFiniteResidualError naming its vector: max() would
hide a NaN (max(0.0, nan) is 0.0), and a report cannot hold either.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .jsonio import PreconditionError, Record
from .operators import (
    DomainMismatchError,
    OperatorSpec,
    Vector,
    apply,
    power_apply,
    vector_norm,
    vector_same,
    vector_sub,
)

TAIL_GUARD = 5


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
    the latest row is held, so memory does not grow with the largest index."""
    done = 0
    for n in indices:
        for _ in range(n - done):
            vecs = [apply(op, v) for v in vecs]
        done = n
        yield vecs


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
    for i, x in enumerate(norms):
        if not math.isfinite(x):
            raise NonFiniteResidualError(
                f"{field}[{i}]: non-finite {trace} residual {x!r} at index {n}"
            )
    return max(norms)


def check_criterion(inst: CriterionInstance) -> CriterionReport:
    """Evaluate the three residual traces along the instance's index sequence,
    taking each index's peaks as the walk reaches it."""
    op, indices, targets = inst.operator, inst.indices, inst.target_vectors
    decay_rows = _iterates(op, inst.decay_vectors, indices)
    trips = _round_trips(op, _iterates(inst.right_inverse, targets, indices), targets, indices)
    traces = Traces([], [], [])
    for n, decay, (s_row, trip) in zip(indices, decay_rows, trips):
        traces.forward_decay.append(
            _peak(list(map(vector_norm, decay)), "decay_vectors", "forward_decay", n))
        traces.inverse_decay.append(
            _peak(list(map(vector_norm, s_row)), "target_vectors", "inverse_decay", n))
        traces.roundtrip.append(_peak([r for _, r in trip], "target_vectors", "roundtrip", n))
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
