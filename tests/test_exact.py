"""Exact scalars: the canonical X2 form and the cell-grid residual sum."""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import (
    Geometric,
    _exact,
    build_bilateral,
    build_unilateral,
    default_target_family,
    positive_ray,
)
from orbitlab._exact import X2, _two_val, cell_sum, x2_sum


def _parts(x: X2):
    return x.num, x.den, x.exp


# ---------------------------------------------------------------------------
# X2.__init__: the odd-mantissa fast path keeps the canonical form


def _canonical(num, den, exp):
    """The canonical form by 2-adic valuations, as X2 computed it before the
    odd fast path."""
    if den < 0:
        num, den = -num, -den
    if num == 0:
        return 0, 1, 0
    vn, vd = _two_val(num), _two_val(den)
    return num >> vn, den >> vd, exp + vn - vd


_small = st.integers(-(1 << 70), 1 << 70)
_odd = st.builds(lambda k: 2 * k + 1, _small)
_even = st.builds(lambda k, s: k << s, _small, st.integers(1, 200))
_kilobit = st.integers(-(1 << 4096), 1 << 4096)
_mantissas = st.one_of(_small, _odd, _even, _kilobit)


@given(
    num=_mantissas,
    den=_mantissas.filter(lambda d: d != 0),
    exp=st.integers(-(1 << 40), 1 << 40),
)
@settings(max_examples=400, deadline=None)
def test_x2_init_matches_two_adic_canonical_form(num, den, exp):
    assert _parts(X2(num, den, exp)) == _canonical(num, den, exp)


# ---------------------------------------------------------------------------
# products, differences and order of canonical values


def _values(exps):
    """Canonical values built by __init__: zero, negatives, odd denominators."""
    return st.builds(X2, _mantissas, _mantissas.filter(bool), exps)


_wide = st.integers(-(1 << 40), 1 << 40)


@given(a=_values(_wide), b=_values(_wide))
@example(a=X2(0), b=X2(-3, 5, 7))
@example(a=X2(-3, 5, 7), b=X2(0))
@settings(max_examples=400, deadline=None)
def test_products_keep_the_canonical_triple(a, b):
    assert _parts(a * b) == _parts(X2(a.num * b.num, a.den * b.den, a.exp + b.exp))
    assert _parts(X2.ZERO) == (0, 1, 0)


# a sum aligns the exponents, so their gap stays small here
@given(a=_values(st.integers(-2000, 2000)), b=_values(st.integers(-2000, 2000)))
@example(a=X2(0), b=X2(-3, 5, 7))
@example(a=X2(-3, 5, 7), b=X2(0))
@example(a=X2(0), b=X2(0))
@settings(max_examples=400, deadline=None)
def test_differences_are_sums_of_the_negation(a, b):
    assert _parts(a - b) == _parts(a + (-b))


# exponents close together, so that the magnitude brackets often overlap
# and the mantissas decide
_near = st.builds(X2, _small, _small.filter(bool), st.integers(-80, 80))


@given(a=_near, b=_near)
@example(a=X2(3, 5, 0), b=X2(6, 10, 0))
@example(a=X2(-1, 3, 0), b=X2(-1, 3, 1))
@settings(max_examples=400, deadline=None)
def test_order_agrees_with_fractions(a, b):
    fa, fb = a.to_fraction(), b.to_fraction()
    assert a._cmp(b) == (fa > fb) - (fa < fb)
    assert (a < b, a <= b, a == b, a >= b, a > b) == (
        fa < fb, fa <= fb, fa == fb, fa >= fb, fa > fb)


def test_shared_zero_is_unchanged_by_builds():
    build_bilateral(Geometric(0.5), default_target_family(11, "bi"), 10)
    build_unilateral(positive_ray(), default_target_family(11, "uni"), 10)
    assert _parts(X2.ZERO) == (0, 1, 0)
    assert _parts(X2(0) * X2(5, 3, 9)) == (0, 1, 0)


# ---------------------------------------------------------------------------
# cell_sum: float(), round_up_bits(64) and `<= bound` read the stand-in as
# they read the exact sum


def _place(mantissa: int, gap: int, top: int) -> X2:
    """The odd mantissa placed so that its top-bit bound is top - gap."""
    return X2(mantissa, 1, top - gap - mantissa.bit_length())


def _readings(x: X2, bound: X2):
    return float(x), _parts(x.round_up_bits(64)), x <= bound


def _check_against_exact(terms, bound, exact=None):
    """cell_sum(terms, bound) reads like exact (default: the exact sum); a
    result that is not the exact sum itself needs dyadic terms."""
    exact = x2_sum(terms) if exact is None else exact
    got = cell_sum(terms, bound)
    assert _readings(got, bound) == _readings(exact, bound)
    if any(t.den != 1 for t in terms):
        assert _parts(got) == _parts(exact)
    return got


_mantissa = st.integers(0, (1 << 80) - 1).map(lambda m: 2 * m + 1)


@st.composite
def _term_lists(draw):
    """Positive terms whose largest has top-bit bound `top`: near terms up to
    4000 bits below it (on the 2^(top - 300) floor grid or in its tail), and
    now and then a non-dyadic one. Float range is crossed at both ends."""
    top = draw(st.integers(-1200, 1200))
    grid_only = draw(st.integers(0, 3)) == 0
    gaps = st.integers(0, 100) if grid_only else st.integers(0, 4000)
    mants = st.integers(0, 60).map(lambda m: 2 * m + 1) if grid_only else _mantissa
    terms = [_place(draw(mants), 0, top)]
    terms += [_place(m, g, top) for m, g in draw(st.lists(st.tuples(mants, gaps), max_size=8))]
    if draw(st.integers(0, 9)) == 0:
        terms.append(X2(draw(_mantissa), 3, top - draw(gaps) - 84))
    return draw(st.permutations(terms)), top


def _grid_bounds(top: int, near: X2):
    """Multiples of the cell width 2^(top - 100) at and next to near."""
    grid = top - 100
    up = near.round_up_bits(64)  # dyadic, just above near
    shift = up.exp - grid
    cell = up.num << shift if shift >= 0 else up.num >> -shift
    return st.builds(lambda k: X2(cell + k, 1, grid), st.integers(-2, 3))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cell_sum_reads_like_the_exact_sum(data):
    terms, top = data.draw(_term_lists())
    exact = x2_sum(terms)
    off_grid = st.builds(lambda m, e: X2(m, 1, top - e), _mantissa, st.integers(101, 400))
    bound = data.draw(st.one_of(_grid_bounds(top, exact), st.just(exact), off_grid))
    _check_against_exact(terms, bound, exact)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_cell_sum_over_exponent_spreads_up_to_2_pow_40(data):
    """Terms up to 2^40 bits below the largest cannot be summed exactly here.
    Each far term lies below 2^(top - 4096), so at most four of them add
    less than 2^(top - 4094): less than the lowest bit of the near part, at
    or above 2^(top - 3081). Moved to 3500 bits below the top they still do,
    so the sum keeps every bit above that and stays nonzero below it, and
    every reading is unchanged: the reference is the moved list's exact sum."""
    top = data.draw(st.integers(-500, 500))
    near = [_place(data.draw(_mantissa), 0, top)] + [
        _place(m, g, top)
        for m, g in data.draw(st.lists(st.tuples(_mantissa, st.integers(0, 3000)), max_size=5))
    ]
    far = data.draw(st.lists(
        st.tuples(_mantissa, st.integers(4096, 1 << 40)), min_size=1, max_size=4))
    terms = near + [_place(m, g, top) for m, g in far]
    moved = near + [_place(m, 3500, top) for m, _ in far]
    exact = x2_sum(moved)
    bound = data.draw(_grid_bounds(top, exact))
    got = _check_against_exact(moved, bound, exact)
    if _parts(got) == _parts(exact):
        return  # the cell was undecided, so the far terms would be summed exactly
    # the floored sum and the tail count do not see where below the floor
    # grid a tail term lies: the far list gets the same stand-in
    with mock.patch.object(_exact, "x2_sum", side_effect=AssertionError("exact fallback")):
        assert _parts(cell_sum(terms, bound)) == _parts(got)


@example(top=300, tail=1)
@given(top=st.integers(-1100, 1100), tail=st.integers(1, 3))
def test_cell_touching_a_power_of_two(top, tail):
    # just below 2^top: float() and round_up_bits(64) round up to it
    below = [X2((1 << 300) - 1, 1, top - 300)] + [X2(1, 1, top - 305)] * tail
    # just above 2^top, on the left edge of its cell
    above = [X2(1, 1, top), X2(1, 1, top - 400)]
    for terms in (below, above):
        exact = x2_sum(terms)
        for bound in (X2(1, 1, top), X2(3, 1, top - 1), X2((1 << 99) + 1, 1, top - 99)):
            _check_against_exact(terms, bound, exact)


def test_sum_exactly_on_the_grid_is_returned_exact():
    terms = [X2(3, 1, 10), X2(1, 1, -250), X2(5, 1, 0)]
    assert _parts(cell_sum(terms, X2.pow2(-60))) == _parts(x2_sum(terms))


def test_undecided_cell_falls_back_to_the_exact_sum():
    # the floored sum 2^300 - 1 plus two tail terms may reach the cell edge
    # 2^300, and does: the exact sum is 2^300, not a cell midpoint
    terms = [X2((1 << 300) - 1), X2(1, 1, -1), X2(1, 1, -1)]
    got = cell_sum(terms, X2.pow2(301))
    assert _parts(got) == (1, 1, 300)
    # one tail term stays inside the cell below 2^300: its midpoint
    assert _parts(cell_sum(terms[:2], X2.pow2(301))) == ((1 << 101) - 1, 1, 199)


def test_bound_off_the_cell_grid_falls_back_to_the_exact_sum():
    terms = [X2((1 << 300) - 1), X2(1, 1, -1)]
    assert _parts(cell_sum(terms, X2(1, 1, 150))) == _parts(x2_sum(terms))


# ---------------------------------------------------------------------------
# non-dyadic values: bounds read the value, sums keep one denominator

_odd_factor = st.builds(lambda k: 2 * k + 1, st.integers(0, 1 << 80))


@given(
    a=st.integers(0, 1 << 4096), b=_odd_factor, q=_odd_factor, e=st.integers(-5000, 5000),
)
@example(a=1, b=3, q=3, e=0)
@example(a=(1 << 64) + 1, b=1, q=9, e=-5)
@settings(max_examples=400, deadline=None)
def test_round_up_bits_depends_on_the_value_only(a, b, q, e):
    x = X2(a, b, e)
    up = x.round_up_bits(64)
    assert x.to_fraction() <= up.to_fraction() <= x.to_fraction() * (1 + Fraction(1, 1 << 63))
    assert _parts(X2(a * q, b * q, e).round_up_bits(64)) == _parts(up)


@given(data=st.data())
@example(data=None)
@settings(max_examples=300, deadline=None)
def test_non_dyadic_sums_equal_fraction_sums(data):
    """Denominators are powers of one odd base (a non-dyadic stage's terms)
    or unrelated odd numbers; the sum and its bound do not depend on the order."""
    if data is None:  # a stage of Geometric(0.3): powers of 3^4 and 5^4 mixed
        terms = [X2(7, 81, -3), X2(1, 625, 2), X2(5, 81 * 81, 0), X2(3, 1, -9)]
    else:
        base = data.draw(st.integers(1, 500)) * 2 + 1
        dens = st.one_of(st.integers(0, 10).map(lambda p: base**p), _odd_factor)
        terms = data.draw(st.lists(
            st.builds(X2, st.integers(1, 1 << 120), dens, st.integers(-300, 300)),
            min_size=1, max_size=12))
    exact = sum(t.to_fraction() for t in terms)
    got = x2_sum(terms)
    assert got.to_fraction() == exact
    assert x2_sum(reversed(terms)).to_fraction() == exact
    assert _parts(x2_sum(reversed(terms)).round_up_bits(64)) == _parts(got.round_up_bits(64))
    signed = [-t if i % 2 else t for i, t in enumerate(terms)]
    assert x2_sum(signed).to_fraction() == sum(t.to_fraction() for t in signed)
