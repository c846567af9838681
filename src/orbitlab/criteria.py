"""Numerical checker for the hypercyclicity criterion on catalog operators.

The three asymptotic conditions (T^{n_k} x -> 0 on a dense in-set, S_{n_k} y
-> 0 on a dense out-set, T^{n_k} S_{n_k} y -> y) are finitized as: final
residual within tolerance AND a nonincreasing residual tail over the last
five indices. The trend guard blocks false positives from residuals that dip
momentarily while diverging. Right inverses are given symbolically as an
operator S with S_{n} = S^n (for example S = F/2 against 2B).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .operators import (
    DomainMismatchError,
    OperatorSpec,
    Vector,
    apply,
    power_apply,
    vector_norm,
    vector_sub,
)

TAIL_GUARD = 5
DEFAULT_TOLERANCE = 1e-9


class MapDomainMismatchError(ValueError):
    """The right-inverse map does not act on the test vectors' domain."""


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
            raise ValueError("both test families must be non-empty")
        idx = list(self.indices)
        if idx != sorted(set(idx)) or any(i < 0 for i in idx) or not idx:
            raise ValueError("indices must be strictly increasing and nonnegative")


@dataclass(frozen=True)
class CriterionReport:
    passes: bool
    final_residuals: tuple[float, float, float]
    traces: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    tail_nonincreasing: tuple[bool, bool, bool]

    def to_json(self) -> dict:
        return {
            "passes": self.passes,
            "final_residuals": list(self.final_residuals),
            "tail_nonincreasing": list(self.tail_nonincreasing),
            "traces": {
                "forward_decay": list(self.traces[0]),
                "inverse_decay": list(self.traces[1]),
                "roundtrip": list(self.traces[2]),
            },
        }


def _iterates(op: OperatorSpec, vecs, upto: int):
    """vecs under op^0..op^upto, computed incrementally."""
    rows = [list(vecs)]
    for _ in range(upto):
        rows.append([apply(op, v) for v in rows[-1]])
    return rows


def check_criterion(inst: CriterionInstance) -> CriterionReport:
    """Evaluate the three residual traces along the instance's index sequence."""
    top = inst.indices[-1]
    targets = inst.target_vectors
    try:
        t_rows = _iterates(inst.operator, inst.decay_vectors, top)
        s_rows = _iterates(inst.right_inverse, targets, top)
        # T^n S^n y - y for each target y
        misses = [
            [vector_sub(power_apply(inst.operator, n, sy), y) for sy, y in zip(s_rows[n], targets)]
            for n in inst.indices
        ]
    except DomainMismatchError as exc:
        # a map that does not act on the vectors; any other error is a fault
        raise MapDomainMismatchError(str(exc)) from exc

    r1_trace = []
    r2_trace = []
    r3_trace = []
    for n, row in zip(inst.indices, misses):
        r1_trace.append(max(vector_norm(v) for v in t_rows[n]))
        r2_trace.append(max(vector_norm(v) for v in s_rows[n]))
        r3 = 0.0
        for miss in row:
            r3 = max(r3, vector_norm(miss))
        r3_trace.append(r3)

    traces = (tuple(r1_trace), tuple(r2_trace), tuple(r3_trace))
    finals = tuple(t[-1] for t in traces)
    tails = tuple(_tail_nonincreasing(t) for t in traces)
    passes = all(f <= inst.tolerance for f in finals) and all(tails)
    return CriterionReport(
        passes=passes,
        final_residuals=finals,  # type: ignore[arg-type]
        traces=traces,
        tail_nonincreasing=tails,  # type: ignore[arg-type]
    )


def kitai_mode(inst: CriterionInstance) -> CriterionReport:
    """Same check with the index sequence forced to 0, 1, ..., max(indices):
    the full-sequence (Kitai-style) specialization."""
    return check_criterion(replace(inst, indices=tuple(range(inst.indices[-1] + 1))))


def _tail_nonincreasing(trace) -> bool:
    tail = trace[-TAIL_GUARD:]
    return all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
