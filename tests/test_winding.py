"""Winding numbers: closed-form segments, sampled curves, concatenation, audits."""

import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlab import (
    ConcatCurve,
    ConstantCurve,
    CurveNotClosedError,
    ParamSegment,
    SampledCurve,
    concat_additivity_check,
    contradiction_audit,
    unit_circle_param,
    winding_number,
)
from orbitlab import jsonio
from orbitlab.jsonio import PreconditionError
from orbitlab.winding import CircleCurve, ParamRangeError

# finite floats of every size, subnormals included; scaled by up to 4 they stay finite
_FINITE = st.floats(-1e307, 1e307, allow_subnormal=True)


def circle_points(count=720, turns=1, radius=1.0, phase=0.0):
    return [
        radius * cmath.exp(1j * (phase + 2 * math.pi * turns * k / count))
        for k in range(count + 1)
    ]


def loop(turns, count=360):
    """Closed sampled loop through 1 with the given winding number."""
    return SampledCurve(circle_points(count=max(8, count * abs(turns) or 8), turns=turns))


class TestParametrization:
    @pytest.mark.parametrize("b", [1.5, 2.0, 10.0])
    def test_quarter_values_exact(self, b):
        assert unit_circle_param(1.0, b) == 1.0 + 0.0j
        assert unit_circle_param(b, b) == 1.0 + 0.0j
        assert unit_circle_param((1.0 + b) / 2.0, b) == -1.0 + 0.0j

    def test_out_of_range(self):
        with pytest.raises(ParamRangeError):
            unit_circle_param(0.5, 2.0)
        with pytest.raises(ParamRangeError):
            unit_circle_param(2.5, 2.0)


class TestWindingNumber:
    @pytest.mark.parametrize("b", [1.5, 2.0, 10.0])
    def test_descending_segment_winds_minus_one(self, b):
        res = winding_number(ParamSegment(b, b, 1.0))
        assert res.index == -1
        assert res.confident

    def test_sampled_unit_circle(self):
        res = winding_number(SampledCurve(circle_points(720)))
        assert res.index == 1
        assert res.confident
        assert abs(res.min_modulus - 1.0) <= 1e-12

    def test_constant_curve_is_flat(self):
        res = winding_number(ConstantCurve(cmath.exp(0.3j)))
        assert res.index == 0 and res.confident

    def test_square_is_right_but_unconfident(self):
        square = SampledCurve([1, 1j, -1, -1j, 1])
        res = winding_number(square)
        assert res.index == 1
        assert not res.confident  # quarter-turn steps leave no margin

    @pytest.mark.parametrize("points", [[1, -1, 1], [1j, 0.5, -1j, -2j, 1j], [1e-300, -1e300]])
    def test_step_through_the_origin_is_refused(self, points):
        with pytest.raises(PreconditionError, match="passes through 0"):
            SampledCurve(points)

    def test_junction_through_the_origin_is_refused(self):
        # each part avoids 0, but the junction from -1 to 1 passes through it
        curve = ConcatCurve(SampledCurve([1, 1j, -1]), SampledCurve([1, -1j, 1]))
        with pytest.raises(PreconditionError, match="^the junction from part 0 to 1 passes through 0$"):
            winding_number(curve)

    def test_closing_step_through_the_origin_is_refused(self):
        # closed within 1e-9, but the closing step from -1e-12 to 1e-12 meets 0
        curve = SampledCurve([1e-12, 1, 1j, -1e-12])
        with pytest.raises(PreconditionError, match="^the closing step passes through 0$"):
            winding_number(curve)

    def test_exactly_closed_curve_takes_no_closing_step(self):
        # (49+1j) / (49+1j) has a phase of about 2.3e-18, not 0.0: a curve
        # that ends where it starts must not pick that turn up
        assert cmath.phase((49 + 1j) / (49 + 1j)) != 0.0
        assert winding_number(ConstantCurve(49 + 1j)).max_step_turn == 0.0

    @settings(max_examples=300, deadline=None)
    @given(_FINITE, _FINITE, _FINITE, _FINITE, st.sampled_from([-4.0, -1.0, -0.5, 0.5, 2.0, None]))
    def test_step_refusal_matches_the_exact_segment(self, ar, ai, br, bi, scale):
        # b on the line through a and 0 (exactly, by a power of two) or drawn freely
        a = complex(ar, ai)
        b = complex(br, bi) if scale is None else a * scale
        assume(a != 0 and b != 0)
        fa, fb = [(Fraction(z.real), Fraction(z.imag)) for z in (a, b)]
        cross = fa[0] * fb[1] - fa[1] * fb[0]
        dot = fa[0] * fb[0] + fa[1] * fb[1]
        through = cross == 0 and dot < 0
        if through:
            with pytest.raises(PreconditionError, match="step from point 0 to 1"):
                SampledCurve([a, b])
        else:
            SampledCurve([a, b])

    def test_double_loop(self):
        res = winding_number(SampledCurve(circle_points(720, turns=2)))
        assert res.index == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-3, 3), st.integers(0, 1000))
    def test_reversal_negates_index(self, turns, seed):
        if turns == 0:
            turns = 1
        rng = random.Random(seed)
        phase = rng.uniform(0, 2 * math.pi)
        curve = SampledCurve(circle_points(360 * abs(turns), turns=turns, phase=phase))
        assert winding_number(curve.reverse()).index == -winding_number(curve).index

    def test_open_curves_are_rejected(self):
        arc = SampledCurve([cmath.exp(1j * a) for a in [0.0, 0.5, 1.0, 1.5]])
        with pytest.raises(CurveNotClosedError):
            winding_number(arc)
        with pytest.raises(CurveNotClosedError):
            winding_number(ParamSegment(2.0, 1.0, 1.6))


class TestConcat:
    def test_two_circles_add(self):
        c = loop(1)
        assert winding_number(ConcatCurve(c, c)).index == 2
        assert concat_additivity_check([c, c])

    def test_circle_plus_reversal_cancels(self):
        c = loop(1)
        assert winding_number(ConcatCurve(c, c.reverse())).index == 0
        assert concat_additivity_check([c, c.reverse()])

    @pytest.mark.parametrize("w,n", [(1, 3), (1, 7), (2, 4), (-1, 5)])
    def test_orbit_chain_composition(self, w, n):
        """n segment copies of index w, two constant paths, then the
        descending closing segment: total n*w - 1."""
        seg = loop(w)
        chain = [seg] * n + [ConstantCurve(1.0), ConstantCurve(1.0), ParamSegment(2.0, 2.0, 1.0)]
        got = winding_number(ConcatCurve(chain))
        assert got.index == n * w - 1
        assert concat_additivity_check(chain)

    def test_random_compositions_are_additive(self):
        rng = random.Random(2024)
        pool = [loop(1), loop(-1), loop(2), ConstantCurve(1.0), ParamSegment(2.0, 2.0, 1.0)]
        for _ in range(10):
            parts = [rng.choice(pool) for _ in range(rng.randrange(2, 6))]
            assert concat_additivity_check(parts)


class TestHomotopySurrogate:
    def test_interpolation_preserves_index(self):
        base = circle_points(720)
        wobble = [
            (1.0 + 0.3 * math.sin(3 * 2 * math.pi * k / 720))
            * cmath.exp(1j * (2 * math.pi * k / 720 + 0.2 * math.sin(2 * math.pi * k / 720)))
            for k in range(721)
        ]
        for step in range(100):
            s = step / 99.0
            mixed = [(1 - s) * p + s * q for p, q in zip(base, wobble)]
            curve = SampledCurve(mixed)
            res = winding_number(curve)
            assert res.min_modulus >= 0.5
            assert res.index == 1


class TestContradictionAudit:
    def test_two_indices_are_contradictory(self):
        assert contradiction_audit([3, 5]).verdict == "contradiction"

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 99])
    def test_consecutive_indices_always_contradict(self, n):
        assert contradiction_audit([n, n + 1]).verdict == "contradiction"
        for w in (-2, -1, 0, 1, 2, 7):
            assert contradiction_audit([n, n + 1], w).verdict == "contradiction"

    def test_single_index_one_is_consistent(self):
        assert contradiction_audit([1], 1).verdict == "consistent"
        assert contradiction_audit([1]).verdict == "consistent"

    def test_even_index_has_no_integer_solution(self):
        assert contradiction_audit([2]).verdict == "contradiction"
        assert contradiction_audit([2], 1).verdict == "contradiction"

    def test_fixed_index_checks_every_equation(self):
        assert contradiction_audit([1, 3], 1).verdict == "contradiction"

    def test_validation(self):
        with pytest.raises(ValueError):
            contradiction_audit([])
        with pytest.raises(ValueError):
            contradiction_audit([0, 2])


class TestJson:
    @pytest.mark.parametrize(
        "curve",
        [
            SampledCurve([1, 1j, -1, -1j, 1]),
            ParamSegment(2.0, 2.0, 1.0),
            ConstantCurve(cmath.exp(0.4j)),
            ConcatCurve(ConstantCurve(1.0), ParamSegment(1.5, 1.5, 1.0)),
        ],
    )
    def test_round_trip(self, curve):
        assert jsonio.decode(CircleCurve, json.loads(jsonio.dumps(curve)), "curve") == curve
