"""Hypercyclicity criterion checker: pass/fail instances and the trend guard."""

import math
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    CriterionInstance,
    DirectSum,
    ForwardShift,
    ScalarMultiple,
    ScalarOnC,
    SeqVector,
    WeightedBackward,
    WeightedForward,
    WeightSpec,
    check_criterion,
    criteria,
    jsonio,
    kitai_mode,
    operators,
    power_apply,
)
from orbitlab.operators import DomainMismatchError, vector_norm, vector_sub

e = lambda j: SeqVector.basis(j, "uni")  # noqa: E731
BASIS6 = tuple(e(j) for j in range(6))


def rolewicz_instance(upto=40, tolerance=1e-9):
    return CriterionInstance(
        operator=ScalarMultiple(2.0, BackwardShift()),
        right_inverse=ScalarMultiple(0.5, ForwardShift()),
        decay_vectors=BASIS6,
        target_vectors=BASIS6,
        indices=tuple(range(upto + 1)),
        tolerance=tolerance,
    )


class TestRolewicz:
    def test_passes_with_exact_residuals(self):
        report = check_criterion(rolewicz_instance())
        assert report.passes
        r1, r2, r3 = report.traces
        # (2B)^n annihilates every e_j for n > 5, exactly
        assert all(v == 0.0 for v in r1[6:])
        # the round trip (2B)^n (F/2)^n is the identity on all of c00, exactly
        assert all(v == 0.0 for v in r3)
        # (F/2)^n halves the norm each step: exactly 2^-n
        for n, v in enumerate(r2):
            assert v == 2.0 ** -n
        assert report.final_residuals == (0.0, 2.0 ** -40, 0.0)

    def test_roundtrip_zero_on_random_vectors(self):
        import random

        rng = random.Random(5)
        vecs = tuple(
            SeqVector.make(
                "uni",
                [(rng.randrange(0, 9), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(5)],
            )
            for _ in range(6)
        )
        inst = CriterionInstance(
            operator=ScalarMultiple(2.0, BackwardShift()),
            right_inverse=ScalarMultiple(0.5, ForwardShift()),
            decay_vectors=vecs,
            target_vectors=vecs,
            indices=tuple(range(20)),
        )
        report = check_criterion(inst)
        assert all(v == 0.0 for v in report.traces[2])


class TestFailures:
    def test_plain_backward_shift_fails_on_inverse_decay(self):
        inst = CriterionInstance(
            operator=BackwardShift(),
            right_inverse=ForwardShift(),
            decay_vectors=BASIS6,
            target_vectors=BASIS6,
            indices=tuple(range(41)),
        )
        report = check_criterion(inst)
        assert not report.passes
        # the forward shift is an isometry: its residual never decays
        assert report.traces[1][-1] == 1.0
        assert report.traces[2][-1] == 0.0

    def test_expanding_scalar_fails_on_forward_growth(self):
        inst = CriterionInstance(
            operator=ScalarOnC(2.0),
            right_inverse=ScalarOnC(0.5),
            decay_vectors=(1.0 + 0j,),
            target_vectors=(1.0 + 0j,),
            indices=tuple(range(41)),
        )
        report = check_criterion(inst)
        assert not report.passes
        assert report.traces[0][-1] == 2.0 ** 40
        assert not report.tail_nonincreasing[0]

    def test_trend_guard_blocks_divergence_even_at_huge_tolerance(self):
        inst = CriterionInstance(
            operator=ScalarOnC(2.0),
            right_inverse=ScalarOnC(0.5),
            decay_vectors=(1.0 + 0j,),
            target_vectors=(1.0 + 0j,),
            indices=tuple(range(41)),
            tolerance=1e99,
        )
        report = check_criterion(inst)
        assert not report.passes  # residuals increase across the guarded tail


class TestModes:
    def test_kitai_mode_fills_the_sequence(self):
        sparse = CriterionInstance(
            operator=ScalarMultiple(2.0, BackwardShift()),
            right_inverse=ScalarMultiple(0.5, ForwardShift()),
            decay_vectors=BASIS6,
            target_vectors=BASIS6,
            indices=tuple(range(0, 41, 5)),
        )
        full = kitai_mode(sparse)
        assert full.passes
        assert len(full.traces[0]) == 41

    def test_pass_is_monotone_in_tolerance(self):
        tight = check_criterion(rolewicz_instance(tolerance=1e-13))
        loose = check_criterion(rolewicz_instance(tolerance=1e-9))
        assert not tight.passes  # final r2 = 2^-40 ~ 9.1e-13 exceeds 1e-13
        assert loose.passes

    def test_report_serializes(self):
        report = check_criterion(rolewicz_instance(upto=10))
        blob = jsonio.encode(report)
        assert list(blob) == ["passes", "final_residuals", "tail_nonincreasing", "traces"]
        assert list(blob["traces"]) == ["forward_decay", "inverse_decay", "roundtrip"]
        assert blob["traces"]["roundtrip"] == list(report.traces.roundtrip)


class TestValidation:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            CriterionInstance(
                operator=BackwardShift(),
                right_inverse=ForwardShift(),
                decay_vectors=BASIS6,
                target_vectors=BASIS6,
                indices=(3, 1),
            )

    def test_domain_mismatch_is_reported(self):
        inst = CriterionInstance(
            operator=BackwardShift(),
            right_inverse=ScalarOnC(0.5),
            decay_vectors=BASIS6,
            target_vectors=BASIS6,
            indices=(0, 1, 2),
        )
        with pytest.raises(DomainMismatchError):
            check_criterion(inst)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=6))
@example([(536870913.0, 0.0), (5.34533871137612e16, 0.0)])  # x * x differs in the last bit
def test_block_norms_match_the_power_formula_bit_for_bit(pairs):
    """Block norms of a direct sum square as x ** 2 did, bit for bit, while
    the sum of those squares stays in float range. Past it (inf, or 0.0 for
    nonzero blocks) the norm is rescaled: within a few ulps of math.hypot,
    and inf only where that passes the largest float."""

    def old(norms):
        try:
            return math.sqrt(sum(b ** 2 for b in norms))
        except OverflowError:
            return math.inf

    def check(v, norms):
        got, plain, ref = vector_norm(v), old(norms), math.hypot(*norms)
        if 0.0 < plain < math.inf or not any(norms):
            assert got.hex() == plain.hex()
        elif math.isinf(got) or math.isinf(ref):
            assert min(got, ref) >= (1 - 2.0**-50) * sys.float_info.max
        else:
            assert math.isclose(got, ref, rel_tol=2.0**-50, abs_tol=2.0**-1070)

    a = tuple(complex(x, 0.0) for x, _ in pairs)
    b = tuple(complex(y, 0.0) for _, y in pairs)
    check(a, [vector_norm(x) for x in a])
    check(vector_sub(a, b), [abs(x - y) for x, y in zip(a, b)])


# ---------------------------------------------------------------------------
# telescoped round trips: bit for bit the direct formula, linear work


def _bits(v):
    """v as bytes: equal exactly when the vectors hold the same bits."""
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    if isinstance(v, SeqVector):
        return v.domain, tuple((i, _bits(c)) for i, c in v.entries)
    return struct.pack("dd", v.real, v.imag)


def _trace_bits(trace):
    return struct.pack(f"{len(trace)}d", *trace)


_FACTORS = [2.0, 0.5, 3.0, 1 / 3, 1.1, 1 / 1.1, 1j, -1j, 0.6 + 0.8j, 0.6 - 0.8j]
# scalar-domain values keep signed zeros, which == cannot tell apart
_SCALARS = _FACTORS + [complex(-2.0, 0.0), complex(-0.5, 0.0), complex(2.0, -0.0),
                       complex(-0.0, 1.0), complex(1.0, -0.0)]
_PARTS = st.sampled_from([1.0, -1.0, 0.5, 3.0, 0.0, -0.0])


@st.composite
def _block(draw):
    """(T, S, vector strategy) of one domain; S is often T's exact inverse."""
    kind = draw(st.sampled_from(["uni", "bi", "scalar"]))
    if kind == "scalar":
        t = draw(st.sampled_from(_SCALARS))
        s = draw(st.sampled_from([1 / t] + _SCALARS))
        return ScalarOnC(t), ScalarOnC(s), st.builds(complex, _PARTS, _PARTS)
    f = draw(st.sampled_from(_FACTORS))
    g = draw(st.sampled_from([1 / f] + _FACTORS))
    if kind == "uni":
        op, inv = BackwardShift(), ForwardShift()
    else:
        bps = tuple(sorted(draw(st.sets(st.integers(-3, 3), max_size=2))))
        values = tuple(draw(st.lists(st.sampled_from(_FACTORS), min_size=len(bps) + 1,
                                     max_size=len(bps) + 1)))
        weights = WeightSpec(bps, values)
        op, inv = WeightedBackward(weights), WeightedForward(weights.inverse_shifted())
    lo = 0 if kind == "uni" else -4
    entries = st.lists(st.tuples(st.integers(lo, 6), st.builds(complex, _PARTS, _PARTS)),
                       max_size=4)
    vectors = entries.map(lambda e: SeqVector.make(kind, e))
    return ScalarMultiple(f, op), ScalarMultiple(g, inv), vectors


@st.composite
def _instances(draw):
    blocks = draw(st.lists(_block(), min_size=1, max_size=2))
    if len(blocks) == 1 and draw(st.booleans()):
        op, inv, vectors = blocks[0]
    else:
        op = DirectSum(*(b[0] for b in blocks))
        inv = DirectSum(*(b[1] for b in blocks))
        vectors = st.tuples(*(b[2] for b in blocks))
    indices = draw(st.sets(st.integers(0, 40), min_size=1, max_size=12))
    return CriterionInstance(
        operator=op,
        right_inverse=inv,
        decay_vectors=tuple(draw(st.lists(vectors, min_size=1, max_size=3))),
        target_vectors=tuple(draw(st.lists(vectors, min_size=1, max_size=3))),
        indices=tuple(sorted(indices)),
    )


# -2 * -0.5 turns 1+0j into 1-0j, which == takes for the target itself
_SIGNED_ZERO = CriterionInstance(
    operator=ScalarOnC(-2.0),
    right_inverse=ScalarOnC(-0.5),
    decay_vectors=(1 + 0j,),
    target_vectors=(1 + 0j,),
    indices=(0, 1),
)


@settings(max_examples=400, deadline=None)
@given(_instances())
@example(_SIGNED_ZERO)
def test_telescoped_round_trips_match_the_direct_formula_bit_for_bit(inst):
    """check_criterion against the direct per-index formula: each miss
    T^n S^n y - y bit for bit, and all three traces."""
    T, S, indices, targets = inst.operator, inst.right_inverse, inst.indices, inst.target_vectors
    s_rows = [[power_apply(S, n, y) for y in targets] for n in indices]
    direct = [[vector_sub(power_apply(T, n, sy), y) for sy, y in zip(row, targets)]
              for n, row in zip(indices, s_rows)]
    trips = criteria._round_trips(T, s_rows, targets, indices)
    assert [[_bits(m) for m, _ in row] for _, row in trips] == [list(map(_bits, row)) for row in direct]

    peak = lambda vecs: max(map(vector_norm, vecs))  # noqa: E731
    expected = (
        [peak(power_apply(T, n, x) for x in inst.decay_vectors) for n in indices],
        list(map(peak, s_rows)),
        list(map(peak, direct)),
    )
    report = check_criterion(inst)
    assert list(map(_trace_bits, report.traces)) == list(map(_trace_bits, expected))


def test_exact_round_trips_walk_linearly_many_steps(monkeypatch):
    """Rolewicz at N=2000: the telescoped round trips reuse every miss, so
    the whole check walks O(N) entry steps per target, not about N^2 / 2."""
    steps = 0
    walk = operators._walk

    def counting(i, c, n, *rest):
        nonlocal steps
        steps += n
        return walk(i, c, n, *rest)

    monkeypatch.setattr(operators, "_walk", counting)
    inst = rolewicz_instance(upto=2000)
    check_criterion(inst)
    assert 0 < steps <= 4 * 2000 * len(inst.target_vectors)
