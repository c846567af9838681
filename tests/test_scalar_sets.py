"""Scalar set classification, modulus sets, rotation products, plane density."""

import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    AngleSpec,
    Annulus,
    Arc,
    Circle,
    CircleProduct,
    EmptyScalarSetError,
    FinitePoints,
    Geometric,
    LogSpiral,
    ModulusSet,
    ScalarSet,
    Scaled,
    Sector,
    UndecidableDensityError,
    Union,
    classify,
    is_dense_in_plane,
    modulus_set,
    positive_ray,
    rotation_group_product,
)
from orbitlab import jsonio, scalar_sets
from orbitlab._exact import X2, XC

IRR = AngleSpec.irrational(1.0, "one radian")


class TestModulusSet:
    def test_ring(self):
        ms = modulus_set(Annulus(1, 2))
        assert ms.intervals == ((1.0, 2.0),)
        assert not ms.unbounded

    def test_two_circles(self):
        ms = modulus_set(Union(Circle(1), Circle(3)))
        assert ms.intervals == ((1.0, 1.0), (3.0, 3.0))

    def test_spiral_closure_fills_all_radii(self):
        spiral = LogSpiral(2.0, IRR)
        ms = modulus_set(spiral)
        assert ms.intervals == ((0.0, math.inf),)
        assert ms.unbounded
        # oracle: sample the parameter line and confirm every dyadic radius is hit
        for k in range(-20, 21):
            radius = 2.0 ** k
            assert ms.contains(radius)
            assert abs(abs(spiral.point_at(float(k))) - radius) <= 1e-9 * radius
        for t in [x / 7 for x in range(-50, 51)]:
            assert ms.contains(abs(spiral.point_at(t)))

    def test_union_merges_componentwise(self):
        parts = [Annulus(1, 2), Circle(5), Geometric(0.5), Sector(3, 4, 0, 1)]
        for a in parts:
            for b in parts:
                assert modulus_set(Union(a, b)) == modulus_set(a).merge(modulus_set(b))

    def test_interval_merging_is_exact(self):
        ms = ModulusSet.canonical([(1.0, 2.0), (2.0, 3.0), (5.0, 6.0)])
        assert ms.intervals == ((1.0, 3.0), (5.0, 6.0))
        gap = ModulusSet.canonical([(1.0, 2.0), (2.0 + 1e-12, 3.0)])
        assert len(gap.intervals) == 2  # no tolerance merging

    def test_scaling(self):
        assert modulus_set(Scaled(5j, Circle(1))).intervals == ((5.0, 5.0),)


class TestClassify:
    @pytest.mark.parametrize(
        "scalar_set,hyper,somewhere",
        [
            (Circle(1), True, True),
            (Annulus(1, 2), True, False),
            (Union(Circle(1), Circle(3)), True, True),
            (positive_ray(), False, False),
            (Geometric(0.5), False, False),
            (Scaled(5j, Circle(1)), True, True),
            (LogSpiral(2.0, IRR), False, False),
            (Geometric(3.0), False, False),
            (FinitePoints([1.0, 2j, -3.0]), True, True),
        ],
    )
    def test_verdict_table(self, scalar_set, hyper, somewhere):
        res = classify(scalar_set)
        assert res.is_hypercyclic_scalar_set == hyper
        assert res.is_somewhere_hypercyclic_scalar_set == somewhere

    def test_verdict_formula_invariants(self):
        for s in [Circle(1), Annulus(1, 2), positive_ray(), Geometric(0.5)]:
            res = classify(s)
            assert res.is_hypercyclic_scalar_set == (
                res.nonempty_nonzero and res.bounded and res.bounded_away_zero
            )
            if res.is_somewhere_hypercyclic_scalar_set:
                assert res.is_hypercyclic_scalar_set

    def test_bounded_is_the_unilateral_builders_test(self):
        # one rule: bounded iff the unilateral scheme refuses the set, also
        # where a geometric tail's scale has overflowed to inf
        for s in [Circle(1), positive_ray(), Geometric(3.0), Scaled(1e300, Annulus(1, 1e10)),
                  Scaled(1e300, Scaled(1e300, Geometric(0.5)))]:
            assert classify(s).bounded is not s.modulus_set().unbounded, s

    def test_bounded_note_says_when_its_sup_passes_float_range(self):
        assert classify(Circle(2.0)).explanation[1] == "modulus set bounded (sup = 2.0)"
        past = classify(Scaled(1e300, Scaled(1e300, Geometric(0.5))))
        assert past.explanation[1] == "modulus set bounded (sup past float range)"

    def test_zero_is_stripped(self):
        with_zero = FinitePoints([0.0, 1.0, 1j])
        assert classify(with_zero) == classify(FinitePoints([1.0, 1j]))

    def test_empty_and_zero_only_raise(self):
        with pytest.raises(EmptyScalarSetError):
            classify(FinitePoints([]))
        with pytest.raises(EmptyScalarSetError):
            classify(FinitePoints([0.0]))
        with pytest.raises(EmptyScalarSetError):
            classify(Sector(0.0, 0.0, 0.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(
            [
                Circle(1),
                Annulus(1, 2),
                Union(Circle(1), Circle(3)),
                Geometric(0.5),
                positive_ray(),
                FinitePoints([1.0, 2j]),
            ]
        ),
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        ),
    )
    def test_dilation_invariance(self, s, c):
        base = classify(s)
        scaled = classify(Scaled(c, s))
        assert scaled.is_hypercyclic_scalar_set == base.is_hypercyclic_scalar_set
        assert (
            scaled.is_somewhere_hypercyclic_scalar_set
            == base.is_somewhere_hypercyclic_scalar_set
        )
        assert scaled.bounded == base.bounded
        assert scaled.bounded_away_zero == base.bounded_away_zero


class TestRotationGroupProduct:
    def test_sector_spread_by_its_own_width_fills_plane(self):
        theta = AngleSpec.rational_pi(1, 3)
        sector = Sector(0.0, math.inf, 0.0, theta.value)
        spread = rotation_group_product(sector, theta)
        assert is_dense_in_plane(spread)

    def test_wider_rational_rotation_leaves_gaps(self):
        theta = AngleSpec.rational_pi(1, 3)
        narrow = Sector(0.0, math.inf, 0.0, AngleSpec.rational_pi(1, 4).value)
        spread = rotation_group_product(narrow, theta)
        assert not is_dense_in_plane(spread)

    def test_circle_absorbs_any_rotation(self):
        assert rotation_group_product(Circle(1), IRR) == Circle(1)
        assert rotation_group_product(Circle(1), AngleSpec.rational_pi(1, 5)) == Circle(1)

    def test_fourth_roots_of_unity(self):
        got = rotation_group_product(FinitePoints([1.0]), AngleSpec.rational_pi(1, 2))
        assert isinstance(got, FinitePoints)
        pts = sorted(got.points, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        expected = sorted([1, 1j, -1, -1j], key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(pts, expected))

    def test_group_orders(self):
        assert AngleSpec.rational_pi(1, 2).group_order() == 4
        assert AngleSpec.rational_pi(2, 3).group_order() == 3
        assert AngleSpec.rational_pi(0, 1).group_order() == 1
        assert IRR.group_order() is None

    def test_membership_matches_brute_force_rotation(self):
        theta = AngleSpec.rational_pi(2, 3)  # order 3
        base = Arc(1.5, 0.2, 0.9)
        product = rotation_group_product(base, theta)
        order = theta.group_order()
        rng = random.Random(42)
        pts = []
        for _ in range(10_000):
            r = rng.uniform(0.5, 2.5)
            a = rng.uniform(0.0, 2 * math.pi)
            pts.append(r * cmath.exp(1j * a))
        # seed points that genuinely lie on the rotated copies
        for k in range(order):
            for t in [0.0, 0.33, 1.0]:
                ang = 0.2 + t * 0.7 + k * theta.value
                pts.append(1.5 * cmath.exp(1j * ang))
        for z in pts:
            direct = product.contains(z, 1e-9)
            brute = any(
                base.contains(z * cmath.exp(-1j * k * theta.value), 1e-9)
                for k in range(order)
            )
            assert direct == brute


class TestDenseInPlane:
    def test_full_sector_is_the_plane(self):
        assert is_dense_in_plane(Sector(0.0, math.inf, 0.0, 2 * math.pi))

    def test_spiral_rotation_closure_is_dense(self):
        spread = rotation_group_product(LogSpiral(2.0, IRR), IRR)
        assert isinstance(spread, CircleProduct)
        assert is_dense_in_plane(spread)

    def test_two_circles_miss_radii(self):
        assert not is_dense_in_plane(Union(Circle(1), Circle(3)))

    def test_half_plane_union_covers(self):
        top = Sector(0.0, math.inf, 0.0, math.pi)
        bottom = Sector(0.0, math.inf, math.pi, 2 * math.pi)
        assert is_dense_in_plane(Union(top, bottom))

    def test_radial_gap_is_detected(self):
        inner = Sector(0.0, 1.0, 0.0, 2 * math.pi)
        outer = Sector(2.0, math.inf, 0.0, 2 * math.pi)
        assert not is_dense_in_plane(Union(inner, outer))
        touching = Union(inner, Sector(1.0, math.inf, 0.0, 2 * math.pi))
        assert is_dense_in_plane(touching)

    def test_nowhere_dense_variants_are_never_dense(self):
        assert not is_dense_in_plane(LogSpiral(2.0, IRR))
        assert not is_dense_in_plane(Geometric(0.5))
        assert not is_dense_in_plane(FinitePoints([1.0, 2.0]))
        assert not is_dense_in_plane(positive_ray())

    def test_dense_sets_pass_the_disk_oracle(self):
        dense_sets = [
            rotation_group_product(LogSpiral(2.0, IRR), IRR),
            Union(
                Sector(0.0, math.inf, 0.0, math.pi),
                Sector(0.0, math.inf, math.pi, 2 * math.pi),
            ),
        ]
        for s in dense_sets:
            assert is_dense_in_plane(s)
            for re in range(-10, 11, 5):
                for im in range(-10, 11, 5):
                    center = complex(re, im)
                    probe = center if center != 0 else complex(0.05, 0.0)
                    assert s.contains(probe, 1e-9)

    def test_unknown_variant_is_undecidable_not_guessed(self):
        class Mystery(ScalarSet):
            def contains(self, z, tol=1e-9):
                return False

        with pytest.raises(UndecidableDensityError):
            is_dense_in_plane(Mystery())


class TestResolvers:
    def test_ray_picks_exact_powers_of_two(self):
        got = scalar_sets.pick_modulus_at_least(positive_ray(), 10.3)
        assert got is not None
        re, im = got.re, got.im
        assert im == X2.ZERO and re == X2.from_int(2 ** 11)

    def test_geometric_small_picks(self):
        got = scalar_sets.pick_modulus_at_most(Geometric(0.5), -7.5)
        re, im = got.re, got.im
        assert im == X2.ZERO
        assert float(re) == 2.0 ** -8

    def test_bounded_sets_refuse_large_requests(self):
        assert scalar_sets.pick_modulus_at_least(Annulus(1, 2), 10.0) is None
        assert scalar_sets.pick_modulus_at_most(Annulus(1, 2), -10.0) is None

    def test_picked_values_are_members(self):
        for s in [Annulus(1, 4), Circle(2), Sector(0.5, 8.0, 0.3, 1.0), LogSpiral(2.0, IRR)]:
            got = scalar_sets.pick_modulus_at_least(s, 1.0)
            assert got is not None
            z = complex(float(got.re), float(got.im))
            assert s.contains(z, 1e-9)
            assert abs(z) >= 2.0 * (1 - 1e-12)


# The resolvers as they were written over Fractions: a reference the XC
# picks must equal exactly, part for part and in canonical X2 form.


def _ref_pair(z):
    return (Fraction(z.real), Fraction(z.imag))


def _ref_scale(pair, factor):
    fre, fim = Fraction(factor.real), Fraction(factor.imag)
    re, im = pair
    return (re * fre - im * fim, re * fim + im * fre)


def _ref_cpow(pair, j):
    re, im = pair
    if im == 0:
        return (re ** j, Fraction(0))
    out = (Fraction(1), Fraction(0))
    while j:
        if j & 1:
            out = (out[0] * pair[0] - out[1] * pair[1], out[0] * pair[1] + out[1] * pair[0])
        pair = (pair[0] * pair[0] - pair[1] * pair[1], 2 * pair[0] * pair[1])
        j >>= 1
    return out


def _ref_phase(angle):
    return complex(math.cos(angle), math.sin(angle))


def _ref_pick(s, t, at_least):
    """The old pick_modulus_at_least (at_least) or pick_modulus_at_most."""
    ok = (lambda lg: lg >= t) if at_least else (lambda lg: lg <= t)
    if isinstance(s, FinitePoints):
        for p in s.points:
            if p != 0 and ok(math.log2(abs(p))):
                return _ref_pair(p)
        return None
    if isinstance(s, Geometric):
        lb = math.log2(abs(s.base))
        if lb > 0 if at_least else lb < 0:
            j = max(0, math.ceil(t / lb))
        elif t > 0 if at_least else t < 0:
            return None
        else:
            j = 0
        return _ref_cpow(_ref_pair(s.base), j)
    if isinstance(s, (Circle, Arc)):
        if ok(math.log2(abs(s.radius))):
            ang = s.angle_lo if isinstance(s, Arc) else 0.0
            return _ref_pair(s.radius * _ref_phase(ang))
        return None
    if isinstance(s, (Annulus, Sector)):
        lo, hi, ang = (
            (s.inner_radius, s.outer_radius, 0.0)
            if isinstance(s, Annulus)
            else (s.radius_lo, s.radius_hi, s.angle_lo)
        )
        if at_least:
            if hi == 0 or (hi != math.inf and math.log2(hi) < t):
                return None
            k = math.ceil(t)
            if lo > 0 and math.log2(lo) >= t:
                r = Fraction(lo)
            elif hi == math.inf or k <= math.log2(hi):
                r = Fraction(2) ** k
                if lo > 0 and r < Fraction(lo):
                    r = Fraction(lo)
            else:
                r = Fraction(hi)
        else:
            if hi == 0 or (lo > 0 and math.log2(lo) > t):
                return None
            r = Fraction(2) ** math.floor(t)
            if lo > 0 and r < Fraction(lo):
                r = Fraction(lo)
            if hi != math.inf and r > Fraction(hi):
                r = Fraction(hi)
        if ang == 0.0:
            return (r, Fraction(0))
        return _ref_scale((r, Fraction(0)), _ref_phase(ang))
    if isinstance(s, LogSpiral):
        k = math.ceil(t) if at_least else math.floor(t)
        u = k * math.log(2) / math.log(s.base)
        phase = complex(math.cos(u * s.rate.value), -math.sin(u * s.rate.value))
        return _ref_scale((Fraction(2) ** k, Fraction(0)), phase)
    if isinstance(s, Union):
        for m in s.members:
            got = _ref_pick(m, t, at_least)
            if got is not None:
                return got
        return None
    if isinstance(s, Scaled):
        got = _ref_pick(s.inner, t - math.log2(abs(s.factor)), at_least)
        return None if got is None else _ref_scale(got, s.factor)
    if isinstance(s, CircleProduct):
        return _ref_pick(s.inner, t, at_least)
    raise TypeError(type(s).__name__)


PICK_SETS = [
    FinitePoints([0.0, 0.3 + 0.1j, 5.0, -2j, 1e-7, 3e8 - 1e8j]),
    Geometric(0.5),
    Geometric(3.0),
    Geometric(-0.75),
    Geometric(0.6 + 0.3j),
    Geometric(1.1 - 0.7j),
    Circle(1.7),
    Arc(0.3, 0.4, 1.9),
    Annulus(1, 4),
    Annulus(0.1, 0.3),
    Sector(0.5, 8.0, 0.3, 1.0),
    Sector(0.0, math.inf, 0.0, 0.0),
    Sector(1e-3, math.inf, -2.5, 0.5),
    LogSpiral(2.0, IRR),
    LogSpiral(0.3, AngleSpec.rational_pi(3, 7)),
    Union(Annulus(1, 2), Geometric(0.5), Circle(100.0)),
    Scaled(0.3 - 1.2j, Sector(0.0, math.inf, 0.7, 0.7)),
    Scaled(1e-5, Scaled(7.0 + 1j, Geometric(2.5))),
    CircleProduct(LogSpiral(2.0, IRR)),
]


def _canonical(x):
    return (x.num, x.den, x.exp)


class TestPicksMatchFractionReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PICK_SETS),
        st.floats(min_value=-300.0, max_value=300.0),
        st.booleans(),
    )
    def test_pick_equals_old_fraction_resolver(self, s, t, at_least):
        pick = (
            scalar_sets.pick_modulus_at_least(s, t)
            if at_least
            else scalar_sets.pick_modulus_at_most(s, t)
        )
        ref = _ref_pick(s, t, at_least)
        if ref is None:
            assert pick is None
            return
        want_re, want_im = X2.from_fraction(ref[0]), X2.from_fraction(ref[1])
        assert want_re == pick.re and want_im == pick.im
        # both are dyadic, so the canonical forms agree bit for bit
        assert _canonical(pick.re) == _canonical(want_re) and pick.re.den == 1
        assert _canonical(pick.im) == _canonical(want_im) and pick.im.den == 1

    @pytest.mark.parametrize("t", [-84_309_546.0, -1e6, 1e6])
    def test_far_geometric_picks_are_exponent_shifts(self, t):
        s = Geometric(0.5) if t < 0 else Geometric(2.0)
        pick = (
            scalar_sets.pick_modulus_at_most(s, t)
            if t < 0
            else scalar_sets.pick_modulus_at_least(s, t)
        )
        assert _canonical(pick.re) == (1, 1, int(t)) and pick.im == X2.ZERO


def _xc_cpow(base, j):
    """base**j by XC square-and-multiply: the reference for XC.power."""
    out = XC(X2.ONE, X2.ZERO)
    while j:
        if j & 1:
            out = out * base
        base = base * base
        j >>= 1
    return out


@pytest.mark.parametrize("base", [0.5, 0.25j, -0.5, -0.5j, 0.3, 0.3 + 0.4j, 1.5 + 1.25j, 2.0, 1 / 0.3])
def test_integer_pair_powers_match_xc_square_and_multiply(base):
    x = XC.from_complex(complex(base))
    for j in [*range(70), 100, 277, 1000, 4097]:
        got, want = x.power(j), _xc_cpow(x, j)
        assert [_canonical(got.re), _canonical(got.im)] == [_canonical(want.re), _canonical(want.im)]


_RING_METHODS = (
    "contains", "modulus_set", "scalar_grid", "_pick", "strip_zero", "is_rotation_invariant",
    "_coverage_leaves", "rotate",
)
_LOG_RADII = st.floats(min_value=-9.0, max_value=9.0).map(lambda e: 10.0 ** e)


def _ring_answers(s, z, tol, window, t, phase, factor):
    """Everything a ring sector answers, as plain comparable values."""
    picks = [s._pick(t, at_least) for at_least in (True, False)]
    leaves: list = []
    s._coverage_leaves(phase, factor, leaves)
    r_lo, r_hi, _, _ = s._bounds()
    complement = Union(s, Sector(0.0, r_lo, 0.0, 2 * math.pi),
                       Sector(r_hi, math.inf, 0.0, 2 * math.pi))
    return (
        [s.contains(p, tol) for p in (z, 0j, complex(tol), *s.scalar_grid(7))],
        s.modulus_set(),
        s.scalar_grid(9),
        s.scalar_grid(9, window),
        [None if p is None else (p.re, p.im) for p in picks],
        leaves,
        s.strip_zero() is s,
        s.is_rotation_invariant(),
        s.rotate(phase)._bounds(),
        is_dense_in_plane(s),
        is_dense_in_plane(complement),
    )


class TestRingSectors:
    """Circle, Annulus and Arc are ring sectors: each answers as its Sector twin."""

    def test_ring_variants_keep_only_their_bounds(self):
        for cls in (Circle, Annulus, Arc, Sector):
            assert not set(_RING_METHODS) & set(vars(cls)), cls.__name__

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_LOG_RADII, min_size=2, max_size=2).map(sorted),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.complex_numbers(max_magnitude=1e9, allow_nan=False, allow_infinity=False),
        st.sampled_from([1e-9, 1e-3]),
        st.one_of(st.none(), st.lists(_LOG_RADII, min_size=2, max_size=2).map(sorted)),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-4.0, max_value=4.0),
        _LOG_RADII,
    )
    def test_ring_variants_match_their_sector_twins(
        self, radii, angle, span, z, tol, window, t, phase, factor
    ):
        (lo, hi), full = radii, 2 * math.pi
        pairs = [
            (Circle(lo), Sector(lo, lo, 0.0, full)),
            (Annulus(lo, hi), Sector(lo, hi, 0.0, full)),
            (Arc(lo, angle, angle + span), Sector(lo, lo, angle, angle + span)),
        ]
        for ring, twin in pairs:
            got = _ring_answers(ring, z, tol, window, t, phase, factor)
            assert got == _ring_answers(twin, z, tol, window, t, phase, factor), ring

    def test_sector_grid_keeps_its_finite_positive_radii(self):
        # only an end at 0 or inf takes the radial window's end
        grid = Sector(1e-7, 1.0, 0.0, 1.0).scalar_grid(16)
        assert grid[0] == 1e-7 and min(map(abs, grid)) == pytest.approx(1e-7)
        assert max(map(abs, Sector(1.0, 1e7, 0.0, 1.0).scalar_grid(16))) == pytest.approx(1e7)
        assert min(map(abs, positive_ray().scalar_grid(16))) == 1e-6

    def test_full_turn_arc_is_rotation_invariant(self):
        arc = Arc(2.0, 0.5, 0.5 + 2 * math.pi)
        assert arc.is_rotation_invariant() and arc.rotate(1.0) is arc
        # the full-turn grid, which does not repeat its end point
        turn = [0.5 + 2 * math.pi * k / 8 for k in range(8)]
        assert arc.scalar_grid(8) == [2.0 * complex(math.cos(a), math.sin(a)) for a in turn]

    @pytest.mark.parametrize("r", [1.0e7, 14684608.488427665])
    def test_contains_does_not_round_the_ends(self, r):
        # one float step at r is 2**-29 (1.9e-9), more than tol = 1e-9, so
        # r - tol and r + tol round to the neighbouring floats
        below, above = math.nextafter(r, 0.0), math.nextafter(r, math.inf)
        for ring in (Circle(r), Arc(r, 0.0, 0.0)):
            assert ring.contains(complex(r, 0.0))
            assert not ring.contains(complex(below, 0.0))
            assert not ring.contains(complex(above, 0.0))
        assert not Annulus(r, 2 * r).contains(complex(below, 0.0))
        assert not Sector(r / 2, r, 0.0, 1.0).contains(complex(above, 0.0))
        # an unbounded ring still takes a modulus that overflows to inf
        assert Scaled(1e-300, positive_ray()).contains(1e10 + 0j)


class TestJson:
    @pytest.mark.parametrize(
        "s",
        [
            FinitePoints([1.0, 2j]),
            Circle(1.5),
            Annulus(1, 2),
            Arc(2.0, 0.1, 0.7),
            Sector(0.0, math.inf, 0.0, 0.0),
            LogSpiral(2.0, IRR),
            LogSpiral(0.5, AngleSpec.rational_pi(3, 7)),
            Geometric(0.5),
            Union(Circle(1), Circle(3)),
            Scaled(5j, Circle(1)),
            CircleProduct(LogSpiral(2.0, IRR)),
        ],
    )
    def test_round_trip(self, s):
        assert jsonio.decode(ScalarSet, json.loads(jsonio.dumps(s)), "set") == s
