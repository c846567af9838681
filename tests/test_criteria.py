"""Hypercyclicity criterion checker: pass/fail instances and the trend guard."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    CriterionInstance,
    ForwardShift,
    ScalarMultiple,
    ScalarOnC,
    SeqVector,
    check_criterion,
    kitai_mode,
)
from orbitlab.criteria import MapDomainMismatchError
from orbitlab.operators import vector_norm, vector_sub

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
        blob = report.to_json()
        assert set(blob["traces"]) == {"forward_decay", "inverse_decay", "roundtrip"}


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
        with pytest.raises(MapDomainMismatchError):
            check_criterion(inst)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=6))
@example([(536870913.0, 0.0), (5.34533871137612e16, 0.0)])  # x * x differs in the last bit
def test_block_norms_match_the_power_formula_bit_for_bit(pairs):
    """Block norms of a direct sum square as x ** 2 did, bit for bit, and
    reach inf where x ** 2 raised OverflowError."""

    def old(norms):
        try:
            return math.sqrt(sum(b ** 2 for b in norms))
        except OverflowError:
            return math.inf

    a = tuple(complex(x, 0.0) for x, _ in pairs)
    b = tuple(complex(y, 0.0) for _, y in pairs)
    assert vector_norm(a).hex() == old(vector_norm(x) for x in a).hex()
    assert vector_norm(vector_sub(a, b)).hex() == old(abs(x - y) for x, y in zip(a, b)).hex()
