"""Exact shift actions, norm bounds, and the adjoint point-spectrum catalog."""

import cmath
import json
import math
import random
import time
from fractions import Fraction
from functools import reduce
from operator import add

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    BackwardShift,
    DirectSum,
    DomainMismatchError,
    ForwardShift,
    ScalarMultiple,
    ScalarOnC,
    SeqVector,
    WeightedBackward,
    WeightedForward,
    WeightSpec,
    adjoint_point_spectrum,
    apply,
    doubling_weights,
    power_apply,
    power_norm_bound,
)
from orbitlab import jsonio, operators
from orbitlab.operators import vector_norm

e = lambda j: SeqVector.basis(j, "uni")  # noqa: E731
be = lambda j: SeqVector.basis(j, "bi")  # noqa: E731

B = BackwardShift()
F = ForwardShift()
BW = WeightedBackward(doubling_weights())
FW = WeightedForward(doubling_weights().inverse_shifted())


def random_vector(rng, domain="uni", size=6):
    lo = 0 if domain == "uni" else -8
    entries = [
        (rng.randrange(lo, 9), complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        for _ in range(size)
    ]
    return SeqVector.make(domain, entries)


class TestApply:
    def test_backward_kills_e0(self):
        assert apply(B, e(0)).is_zero

    def test_weighted_backward_on_e1(self):
        assert apply(BW, be(1)) == be(0).scale(2.0)

    def test_weighted_backward_weight_is_one_left_of_origin(self):
        assert apply(BW, be(0)) == be(-1)
        assert apply(BW, be(-3)) == be(-4)

    def test_backward_after_forward_is_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            v = random_vector(rng)
            assert apply(B, apply(F, v)) == v

    def test_weighted_inverse_identity(self):
        rng = random.Random(8)
        for _ in range(20):
            v = random_vector(rng, "bi")
            assert apply(BW, apply(FW, v)) == v

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            apply(B, be(0))
        with pytest.raises(DomainMismatchError):
            apply(BW, e(0))
        with pytest.raises(DomainMismatchError):
            apply(ScalarOnC(2.0), e(0))

    def test_direct_sum_acts_blockwise(self):
        op = DirectSum(ScalarOnC(2.0), B)
        got = apply(op, (1.0 + 0j, e(3)))
        assert got == (2.0 + 0j, e(2))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["B", "F", "BW", "FW", "2B"]),
        st.integers(0, 10 ** 6),
        st.integers(0, 10 ** 6),
    )
    def test_linearity_exact(self, name, seed_u, seed_v):
        # scaling by dyadic reals commutes with the catalog weights exactly
        op = {"B": B, "F": F, "BW": BW, "FW": FW, "2B": ScalarMultiple(2.0, B)}[name]
        domain = "bi" if name in ("BW", "FW") else "uni"
        u = random_vector(random.Random(seed_u), domain)
        v = random_vector(random.Random(seed_v), domain)
        alpha, beta = 0.75, -2.5
        lhs = apply(op, u.scale(alpha).add(v.scale(beta)))
        rhs = apply(op, u).scale(alpha).add(apply(op, v).scale(beta))
        assert lhs == rhs


class TestPowerApply:
    def test_backward_power_on_basis(self):
        for n in range(8):
            for m in range(8):
                got = power_apply(B, n, e(m))
                assert got == (e(m - n) if n <= m else SeqVector.zero("uni"))

    def test_weighted_power_collects_weights(self):
        # hand iteration: weights at indices 3, 2, 1 are all 2
        w = doubling_weights()
        expected = w.weight(3) * w.weight(2) * w.weight(1)
        assert expected == 8
        assert power_apply(BW, 3, be(3)) == be(0).scale(8.0)

    def test_scalar_rotation_dilation_power(self):
        c = 2.0 * cmath.exp(-1j)
        got = power_apply(ScalarOnC(c), 5, 1.0 + 0j)
        want = 2.0 ** 5 * cmath.exp(-5j)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power_apply(B, -1, e(0))

    def test_domain_checked_from_the_first_step(self):
        assert power_apply(B, 0, be(0)) == be(0)
        for op, v in [(B, be(0)), (BW, e(0)), (ScalarOnC(2.0), e(0)), (DirectSum(B, F), e(0))]:
            with pytest.raises(DomainMismatchError):
                power_apply(op, 3, v)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 400))
    def test_matches_repeated_apply_bitwise(self, data, n):
        op = data.draw(_operators())
        v = data.draw(_vectors(op.operator_domain()))
        got, want = power_apply(op, n, v), _power_brute(op, n, v)
        assert _bits(got) == _bits(want)
        assert _norm_bits(got) == _norm_bits(want)


    @pytest.mark.parametrize(
        "op",
        [
            WeightedForward(WeightSpec((2,), (1e-200, math.inf))),
            ScalarMultiple(1e-200, WeightedForward(WeightSpec((2,), (1.0, math.inf)))),
        ],
    )
    def test_entry_dropped_at_zero_stays_dropped(self, op):
        # the entry underflows to 0 before reaching the infinite weight; kept,
        # it would come back as nan
        assert power_apply(op, 4, be(0)).is_zero
        assert _bits(power_apply(op, 4, be(0))) == _bits(_power_brute(op, 4, be(0)))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_each_variant_has_one_action():
    # apply is written once, in the base class, as one step of _power; the
    # base class has no _power, so every variant defines or inherits its own
    variants = list(_subclasses(operators.OperatorSpec))
    assert set(operators.OperatorSpec.kinds.values()) <= set(variants)
    assert [cls for cls in variants if "apply" in vars(cls)] == []
    base = vars(operators.OperatorSpec).get("_power")
    for cls in operators.OperatorSpec.kinds.values():
        assert getattr(cls, "_power", base) is not base, cls


def _power_brute(op, n, v):
    """op^n v as n calls of apply: the reference power_apply must equal."""
    for _ in range(n):
        v = apply(op, v)
    return v


def _norm_bits(v):
    try:
        return vector_norm(v).hex()
    except OverflowError:  # a block norm past 1.3e154 squares with float ** 2
        return "OverflowError"


def _bits(v):
    if isinstance(v, tuple):
        return tuple(_bits(b) for b in v)
    if isinstance(v, complex):
        return (v.real.hex(), v.imag.hex())
    return (v.domain, tuple((i, c.real.hex(), c.imag.hex()) for i, c in v.entries))


# non-dyadic values, so every product rounds; small and large moduli reach
# underflow (entries dropped as zero) and overflow, and an infinite weight
# past a breakpoint turns an entry that was not dropped at zero into nan
_ODD_SCALARS = [
    1.1 + 0.3j, 0.9 - 0.45j, -1.3j, 0.97 + 0.29j, 1e-3 + 2j, 0.7, 3.0, 2.0, 0.5, -2.0,
    1e-100, complex(math.inf, 0.0),
]


@st.composite
def _weights(draw):
    cuts = sorted(draw(st.sets(st.integers(-10, 10), max_size=3)))
    size = len(cuts) + 1
    vals = draw(st.lists(st.sampled_from(_ODD_SCALARS), min_size=size, max_size=size))
    return WeightSpec(tuple(cuts), tuple(vals))


@st.composite
def _operators(draw, depth=0):
    # two levels of composites (scalar multiples of direct sums and the
    # reverse, multiples of multiples), then leaves
    kinds = ["B", "F", "BW", "FW", "C", "SM", "SM2", "DS"]
    kind = draw(st.sampled_from(kinds if depth < 2 else kinds[:5]))
    if kind == "B":
        return B
    if kind == "F":
        return F
    if kind in ("BW", "FW"):
        cls = WeightedBackward if kind == "BW" else WeightedForward
        return cls(draw(_weights()))
    if kind == "C":
        return ScalarOnC(draw(st.sampled_from(_ODD_SCALARS)))
    if kind in ("SM", "SM2"):
        inner = draw(_operators(depth + 1))
        if kind == "SM2":
            inner = ScalarMultiple(draw(st.sampled_from(_ODD_SCALARS)), inner)
        return ScalarMultiple(draw(st.sampled_from(_ODD_SCALARS)), inner)
    blocks = draw(st.lists(_operators(depth + 1), min_size=1, max_size=3))
    return DirectSum(*blocks)


_values = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _vectors(draw, domain):
    if isinstance(domain, tuple):
        return tuple(draw(_vectors(d)) for d in domain)
    if domain == "scalar":
        return draw(_values)
    lo = 0 if domain == "uni" else -12
    entries = draw(st.lists(st.tuples(st.integers(lo, 12), _values), max_size=6))
    return SeqVector.make(domain, entries)


_MAGNITUDES = st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 1e-160, 0.3, 1.0, 7.5, 1e150, 1e200, 1e300])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(_MAGNITUDES, _MAGNITUDES, st.floats(0.5, 2.0), st.booleans(), st.booleans()),
        max_size=6,
    )
)
def test_norm_is_the_plain_sum_unless_the_squares_leave_float_range(parts):
    v = SeqVector.make(
        "uni",
        [(i, complex(a * f * (-1) ** s, b * (-1) ** t)) for i, (a, b, f, s, t) in enumerate(parts)],
    )
    squares = [z.real * z.real + z.imag * z.imag for _, z in v.entries]
    plain = reduce(add, squares, 0.0)  # left to right, as Python 3.11's sum
    assert v.norm_sq().hex() == plain.hex()
    if 0.0 < plain < math.inf or v.is_zero:
        assert v.norm().hex() == math.sqrt(plain).hex()
    else:  # moved off inf or 0.0: within a few ulps of the true norm
        mpmath.mp.dps = 50
        true = mpmath.sqrt(sum(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for _, z in v.entries))
        assert 0.0 < v.norm() < math.inf
        # a subnormal norm is rounded to a multiple of the smallest subnormal
        assert abs(mpmath.mpf(v.norm()) - true) <= 4 * 2.0**-52 * true + 2.0**-1074


def test_norm_past_the_largest_float_is_inf():
    assert SeqVector.make("uni", [(0, 1.7e308), (1, 1.7e308j)]).norm() == math.inf


@pytest.mark.parametrize("part", [1e200, 1e-200, 1.5e308, 5e-324])
def test_direct_sum_norm_past_the_squares_float_range(part):
    # each block's norm is right; the sum of their squares leaves float range
    block = SeqVector.make("uni", [(3, complex(0.0, part))])
    assert vector_norm((block,)) == vector_norm(((block,),)) == block.norm() == part
    pair = vector_norm((block, complex(part, 0.0), SeqVector.zero()))
    assert math.isclose(pair, math.sqrt(2) * part, rel_tol=2.0**-50)


def test_direct_sum_norm_past_the_largest_float_is_inf():
    block = SeqVector.make("uni", [(0, 1.7e308)])
    assert vector_norm((block, 1.7e308j)) == math.inf


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1e-150, 0.3, 1.0, 7.5, 1e150]), min_size=1, max_size=5))
def test_direct_sum_norm_in_float_range_is_the_plain_sum(parts):
    # squares by float ** 2, added left to right (Python 3.11's sum; 3.12's
    # compensates, which this loop does not follow)
    v = tuple(SeqVector.make("uni", [(0, x)]) if i % 2 else complex(0.0, x) for i, x in enumerate(parts))
    plain = reduce(add, [x ** 2 for x in parts], 0.0)
    assert 0.0 < plain < math.inf or not any(parts)
    assert vector_norm(v).hex() == math.sqrt(plain).hex()


_FOLD_PARTS = st.sampled_from([0.0, -0.0, 0.1, 1.0, 3.0, -1e16, 1e16])
_FOLD_VECTOR = st.dictionaries(
    st.integers(0, 4), st.builds(complex, _FOLD_PARTS, _FOLD_PARTS), max_size=4
).map(lambda d: SeqVector.make("uni", d))


def _sum_bits(z):
    return type(z), complex(z).real.hex(), complex(z).imag.hex()


@settings(max_examples=200, deadline=None)
@given(_FOLD_VECTOR, _FOLD_VECTOR, st.builds(complex, _FOLD_PARTS, _FOLD_PARTS))
def test_inner_products_add_left_to_right_from_int_zero(a, b, c):
    # Python 3.11's sum, which 3.12's compensated sum does not follow; an
    # empty pairing is the int 0
    rhs = b.as_dict()
    plain = reduce(add, [v * rhs[i].conjugate() for i, v in a.entries if i in rhs], 0)
    assert _sum_bits(a.inner(b)) == _sum_bits(plain)
    pair = reduce(add, [plain, c * c.conjugate()], 0)
    assert _sum_bits(operators.vector_inner((a, c), (b, c))) == _sum_bits(pair)
    assert _sum_bits(operators.vector_inner((), ())) == _sum_bits(0)


class TestPowerNormBound:
    def test_backward_shift_norm_one(self):
        assert power_norm_bound(B, 5) == 1.0

    def test_doubling_weights_bound_matches_brute_force(self):
        w = doubling_weights()
        for n in range(0, 11):
            assert power_norm_bound(BW, n) == 2.0 ** n
            brute = max(
                abs(math.prod(w.weight(i) for i in range(j - n + 1, j + 1)) or 1)
                for j in range(-30, 31)
            ) if n else 1.0
            assert power_norm_bound(BW, n) == brute

    def test_scalar_bound(self):
        assert power_norm_bound(ScalarOnC(-2.0 + 0j), 3) == 8.0

    def test_direct_sum_takes_max(self):
        op = DirectSum(ScalarOnC(3.0), B)
        assert power_norm_bound(op, 2) == 9.0

    def test_bound_dominates_action(self):
        rng = random.Random(9)
        ops = [(B, "uni"), (F, "uni"), (BW, "bi"), (FW, "bi"), (ScalarMultiple(2.0, B), "uni")]
        for op, domain in ops:
            for n in range(0, 21, 4):
                bound = power_norm_bound(op, n)
                for _ in range(5):
                    v = random_vector(rng, domain)
                    assert power_apply(op, n, v).norm() <= bound * v.norm() * (1 + 1e-9)

    def test_bound_past_float_range_is_inf(self):
        # each used to raise OverflowError; mapping that to inf alone
        # would make the second 0.5**2000 * inf, a NaN
        assert power_norm_bound(ScalarOnC(2.0), 2000) == math.inf
        halved_4b = ScalarMultiple(0.5, WeightedBackward(WeightSpec((), (4.0,))))
        assert power_norm_bound(halved_4b, 2000) == math.inf
        assert power_norm_bound(halved_4b, 1000) == 2.0 ** 1000  # 4**1000 overflows alone
        # 2**-1200 underflows to 0.0 before it meets 2**1000
        assert power_norm_bound(ScalarMultiple(2.0 ** -600, ScalarOnC(2.0 ** 500)), 2) == 2.0 ** -200

    def test_backward_orbit_nonincreasing(self):
        rng = random.Random(10)
        for _ in range(10):
            v = random_vector(rng)
            prev = v.norm()
            for _ in range(12):
                v = apply(B, v)
                cur = v.norm()
                assert cur <= prev * (1 + 1e-12)
                prev = cur


class TestAdjointPointSpectrum:
    def test_backward_shift_has_empty_answer(self):
        assert adjoint_point_spectrum(B) == frozenset()

    def test_scalar_conjugate(self):
        c = 2.0 * cmath.exp(-1j)
        assert adjoint_point_spectrum(ScalarOnC(c)) == frozenset({c.conjugate()})
        assert c.conjugate() == 2.0 * cmath.exp(1j)

    def test_direct_sum_with_rotation_block(self):
        theta = 0.7
        rot = ScalarOnC(cmath.exp(-1j * theta))
        rolewicz = ScalarMultiple(2.0, B)
        op = DirectSum(rot, rolewicz)
        assert adjoint_point_spectrum(op) == frozenset({cmath.exp(1j * theta)})

    def test_weighted_shift_is_unknown(self):
        assert adjoint_point_spectrum(BW) is None
        assert adjoint_point_spectrum(DirectSum(ScalarOnC(1.0), BW)) is None
        assert adjoint_point_spectrum(F) is None


class TestWeightSpec:
    def test_window_product(self):
        w = doubling_weights()
        assert w.window_product(1, 3) == 8
        assert w.window_product(-2, 0) == 1
        assert w.window_product(0, 1) == 2
        assert w.window_product(5, 4) == 1  # empty window

    def test_inverse_shifted_matches_reciprocal(self):
        w = doubling_weights()
        nu = w.inverse_shifted()
        for i in range(-5, 6):
            assert nu.weight(i) == 1 / w.weight(i + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec((1,), (1.0, 0.0))
        with pytest.raises(ValueError):
            WeightSpec((2, 1), (1.0, 2.0, 3.0))


class TestSerialization:
    def test_vector_round_trip(self):
        v = SeqVector.make("bi", [(-3, 1 + 2j), (4, -0.5j)])
        assert SeqVector.from_json(v.to_json(), "v") == v

    @pytest.mark.parametrize(
        "op",
        [
            B,
            F,
            BW,
            FW,
            ScalarOnC(2.0 * cmath.exp(-1j)),
            ScalarMultiple(2.0, BackwardShift()),
            DirectSum(ScalarOnC(1j), WeightedBackward(doubling_weights())),
        ],
    )
    def test_operator_round_trip(self, op):
        assert jsonio.decode(operators.OperatorSpec, json.loads(jsonio.dumps(op)), "operator") == op

    def test_images_drop_negative_zero_parts_like_make(self):
        # stored as given, bypassing make(): the parts keep their -0.0 signs
        v = SeqVector("uni", ((1, complex(-0.0, 2.0)), (2, complex(3.0, -0.0))))
        shifted = [(0, complex(-0.0, 2.0)), (1, complex(3.0, -0.0))]
        assert _bits(apply(B, v)) == _bits(SeqVector.make("uni", shifted))
        assert _bits(v.scale(1)) == _bits(SeqVector.make("uni", v.entries))
        assert "-0.0" not in repr(power_apply(B, 1, v).to_json())

    def test_unilateral_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            SeqVector.make("uni", [(-1, 1.0)])


# parts that underflow to zero under a weight or factor, and -0.0 parts
_SHIFT_PARTS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.3, -1.0, 7.5, 1e300])


@st.composite
def _shift_actions(draw):
    """A catalog shift, bare or inside one or two scalar multiples, and a
    vector on its domain stored as given (bypassing make()), so that its
    parts may be -0.0."""
    op = draw(st.sampled_from([B, F, WeightedBackward, WeightedForward]))
    if op not in (B, F):
        op = op(draw(_weights()))
    for factor in draw(st.lists(st.sampled_from(_ODD_SCALARS), max_size=2)):
        op = ScalarMultiple(factor, op)
    domain = op.operator_domain()
    indices = sorted(draw(st.sets(st.integers(0 if domain == "uni" else -12, 12), max_size=6)))
    values = [complex(draw(_SHIFT_PARTS), draw(_SHIFT_PARTS)) for _ in indices]
    return op, SeqVector(domain, tuple((i, c) for i, c in zip(indices, values) if c != 0))


@settings(max_examples=400, deadline=None)
@given(_shift_actions(), st.integers(1, 3))
def test_shift_images_are_canonical_entries_in_index_order(case, n):
    # the form make() gives: nonzero entries, no -0.0 part, indices ascending
    op, v = case
    for image in (apply(op, v), power_apply(op, n, v)):
        indices = [i for i, _ in image.entries]
        assert indices == sorted(set(indices))
        for _, c in image.entries:
            assert c != 0
            assert all(p != 0 or math.copysign(1.0, p) > 0 for p in (c.real, c.imag))


# ---------------------------------------------------------------------------
# power_norm_bound against an exact-logarithm reference


_BOUND_VALUES = [2.0, 0.5, 4.0, 0.25, 2.0 ** 300, 2.0 ** -300, 1.1, 3.0, 0.9, -2.0, 1j,
                 0.6 + 0.8j, 0.0]


def _log2_exact(x: float) -> float:
    """log2 of the float x > 0 from its exact ratio of integers."""
    r = Fraction(x)
    return math.log2(r.numerator) - math.log2(r.denominator)


def _reference_log2(op, n):
    """log2 of the exact bound sup |window product| * |factors|**n, by brute
    force over every window of n consecutive weights near the breakpoints."""
    if isinstance(op, DirectSum):
        return max(_reference_log2(b, n) for b in op.blocks)
    if isinstance(op, (ScalarOnC, ScalarMultiple)):
        x = abs(op.value if isinstance(op, ScalarOnC) else op.factor)
        inner = 0.0 if isinstance(op, ScalarOnC) else _reference_log2(op.inner, n)
        return inner + (0.0 if n == 0 else n * _log2_exact(x) if x else -math.inf)
    w = getattr(op, "weights", None)
    if w is None or n == 0:
        return 0.0
    bps = list(w.breakpoints)
    ends = [-math.inf] + bps + [math.inf]  # piece k covers ends[k] <= i < ends[k + 1]
    logs = [_log2_exact(abs(v)) for v in w.values]
    best = -math.inf
    for j in range((bps[0] if bps else 0) - n - 1, (bps[-1] if bps else 0) + 2):
        counts = [max(0, min(j + n, b) - max(j, a)) for a, b in zip(ends, ends[1:])]
        best = max(best, sum(c * lg for c, lg in zip(counts, logs) if c))
    return best


@st.composite
def _bound_ops(draw, depth=2):
    kinds = ["scalar", "shift", "multiple", "sum"] if depth else ["scalar", "shift"]
    kind = draw(st.sampled_from(kinds))
    value = st.sampled_from(_BOUND_VALUES)
    if kind == "scalar":
        return ScalarOnC(draw(value))
    if kind == "multiple":
        return ScalarMultiple(draw(value), draw(_bound_ops(depth - 1)))
    if kind == "sum":
        return DirectSum(draw(_bound_ops(depth - 1)), draw(_bound_ops(depth - 1)))
    bps = tuple(sorted(draw(st.sets(st.integers(-5, 5), max_size=2))))
    values = tuple(draw(value.filter(bool)) for _ in range(len(bps) + 1))
    shift = draw(st.sampled_from([WeightedBackward, WeightedForward, None]))
    return shift(WeightSpec(bps, values)) if shift else draw(st.sampled_from([B, F]))


@settings(max_examples=200, deadline=None)
@given(_bound_ops(), st.integers(0, 5000))
def test_power_norm_bound_matches_an_exact_log2_reference(op, n):
    """inf where the exact bound passes float range, within 1e-8 of it where
    it is a normal float, never NaN; today's float product is kept wherever
    it is within 1e-10 of the reference."""
    got, ref = power_norm_bound(op, n), _reference_log2(op, n)
    assert not math.isnan(got)
    if ref > 1024 + 1e-6:
        assert got == math.inf
    elif -1021 < ref < 1024 - 1e-6:
        assert math.isclose(got, 2.0 ** ref, rel_tol=1e-8)
        try:
            plain = op.power_norm_bound(n)
        except OverflowError:
            return
        if math.isclose(plain, 2.0 ** ref, rel_tol=1e-10):
            assert got == plain
    elif ref < -1080:
        assert got == 0.0


def _full_window_walk(w, n, product):
    """The sup of product over every window of n consecutive weights from
    the left tail to the right one, the tails' own powers included."""
    tails = [product(w.breakpoints[0] - n, w.breakpoints[0] - 1),
             product(w.breakpoints[-1], w.breakpoints[-1] + n - 1)]
    return max(tails + [product(a, a + n - 1)
                        for a in range(w.breakpoints[0] - n, w.breakpoints[-1] + 1)])


@st.composite
def _weighted_shifts(draw):
    bps = tuple(sorted(draw(st.sets(st.integers(-5, 5), min_size=1, max_size=3))))
    values = tuple(draw(st.sampled_from(_BOUND_VALUES[:-1])) for _ in range(len(bps) + 1))
    return draw(st.sampled_from([WeightedBackward, WeightedForward]))(WeightSpec(bps, values))


@settings(max_examples=200, deadline=None)
@given(_weighted_shifts(), st.integers(1, 300))
def test_shift_bounds_take_the_full_window_walks_sup(op, n):
    """The windows that start or end at a breakpoint hold the sup of all: the
    log2 bound is the full walk's within 1e-12, and the float bound within a
    relative 1e-12 where the walk's is a positive finite float (different
    windows' products round differently, so along a stretch of equal exact
    products the float sup may differ in its last bits)."""
    w = op.weights
    assert math.isclose(op.log2_norm_bound(n), _full_window_walk(w, n, w.window_log2),
                        rel_tol=1e-12, abs_tol=1e-12)
    try:
        plain = _full_window_walk(w, n, lambda a, b: abs(w.window_product(a, b)))
    except OverflowError:
        return
    if 0.0 < plain < math.inf:
        assert math.isclose(op.power_norm_bound(n), plain, rel_tol=1e-12)


def test_weighted_power_norm_bound_is_fast_at_a_million():
    """The doubling weights at n = 10**6: 2**(10**6) passes float range,
    found from a handful of windows instead of a million."""
    start = time.perf_counter()
    assert power_norm_bound(WeightedBackward(doubling_weights()), 10**6) == math.inf
    assert time.perf_counter() - start < 0.01
