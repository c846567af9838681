"""Certified construction traces and the spiral counterexample scenario."""

import cmath
import math
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitlab import (
    AngleSpec,
    Annulus,
    Arc,
    BackwardShift,
    BoundedScalarSetError,
    Circle,
    CircleProduct,
    FinitePoints,
    ForwardShift,
    Geometric,
    LogSpiral,
    NotAccumulatingAtZeroError,
    ScanRangeError,
    Scaled,
    Sector,
    SeqVector,
    SpiralBaseOneError,
    TargetFamily,
    Union,
    WeightedBackward,
    WeightedForward,
    build_bilateral,
    build_spiral_scenario,
    build_unilateral,
    default_target_family,
    doubling_weights,
    positive_ray,
    power_apply,
    spiral_distance_to,
)
from orbitlab._exact import X2, XC, cell_sum, xvec_from_seq, xvec_norm_sq, xvec_sub
from orbitlab import jsonio
from orbitlab.jsonio import PreconditionError
from orbitlab.constructions import (
    SHIFT_CAP, ShiftSearchLimitError, _shift, _ShiftNorms, _Stages, _weight_log2)
from orbitlab.scalar_sets import pick_modulus_at_least, pick_modulus_at_most

IRR = AngleSpec.irrational(1.0, "one radian")

# frozen on first run: grid minimum of |2^s e^{-is} + 1| over s in [-20, 20], step 1e-4
SPIRAL_DELTA = 0.8627708680493394


def unit(j, domain="uni"):
    return SeqVector.basis(j, domain)


class TestDefault8Family:
    def test_first_level_enumeration_is_fixed(self):
        fam = default_target_family(8, "uni")
        # level 0: single coordinate, values ordered by (|a|+|b|, a, b)
        expected_first = [-1.0, -1j, 1j, 1.0]
        for vec, val in zip(fam.vectors, expected_first):
            assert vec == SeqVector.make("uni", [(0, val)])

    def test_deterministic_and_duplicate_free(self):
        fam1 = default_target_family(40, "uni")
        fam2 = default_target_family(40, "uni")
        assert fam1 == fam2
        assert len({v.entries for v in fam1.vectors}) == 40

    def test_bilateral_reaches_negative_support(self):
        fam = default_target_family(60, "bi")
        assert any(min(v.support()) < 0 for v in fam.vectors)

    def test_rejects_zero_targets(self):
        with pytest.raises(ValueError):
            TargetFamily((SeqVector.zero("uni"),))


class TestUnilateralBuild:
    def test_residuals_within_certified_bound_exactly(self):
        fam = default_target_family(21, "uni")
        trace = build_unilateral(positive_ray(), fam, 20)
        for k, rsq in enumerate(trace.residual_sq_exact):
            assert rsq <= X2.pow2(-2 * k)  # exact comparison, no float slack
        assert all(
            c["target_small"] and c["dominates_previous"] and c["shift_gap"]
            for c in trace.conditions
        )

    def test_shift_choices_are_minimal(self):
        # targets e_k have degree k; re-derive the smallest admissible shifts
        fam = TargetFamily(tuple(unit(k) for k in range(6)))
        trace = build_unilateral(positive_ray(), fam, 5)
        shifts = [c.shift for c in trace.choices]
        expected = []
        for k in range(6):
            expected.append(0 if k == 0 else max(expected[i] + i for i in range(k)) + 1)
        assert shifts == expected
        for k in range(1, 6):
            assert shifts[k] >= shifts[k - 1] + k

    def test_single_target_is_exact(self):
        trace = build_unilateral(positive_ray(), TargetFamily((unit(0),)), 0)
        assert trace.residual_sq_exact[0].is_zero
        assert trace.residuals == (0.0,)

    def test_bounded_scalar_set_is_rejected(self):
        fam = default_target_family(3, "uni")
        with pytest.raises(BoundedScalarSetError):
            build_unilateral(Annulus(1, 2), fam, 2)

    def test_scalars_grow_and_stay_in_the_set(self):
        fam = default_target_family(6, "uni")
        trace = build_unilateral(positive_ray(), fam, 5)
        mods = [c.modulus_log2() for c in trace.choices]
        assert mods == sorted(mods)
        for c in trace.choices:
            assert c.scalar.im == X2.ZERO and c.scalar.re > X2.ZERO  # on the nonnegative ray

    def test_geometric_growth_sampler_works(self):
        fam = default_target_family(6, "uni")
        trace = build_unilateral(Geometric(3.0), fam, 5)
        for k, rsq in enumerate(trace.residual_sq_exact):
            assert rsq <= X2.pow2(-2 * k)

    def test_reported_residuals_read_the_exact_sums(self):
        trace = build_unilateral(positive_ray(), default_target_family(21, "uni"), 20)
        _assert_reports_read_exact(trace)


@pytest.mark.parametrize("build, domain", [(build_unilateral, "uni"), (build_bilateral, "bi")])
def test_negative_stages_are_refused_naming_stages(build, domain):
    sampler = positive_ray() if domain == "uni" else Geometric(0.5)
    with pytest.raises(ValueError, match="^stages: -1 is negative"):
        build(sampler, TargetFamily((unit(0, domain),)), -1)


def _assert_reports_read_exact(trace):
    """residuals and residual_sq_upper are what the exact residual squares give."""
    exact = trace.residual_sq_exact
    assert [(u.num, u.den, u.exp) for u in trace.residual_sq_upper] == [
        (u.num, u.den, u.exp) for u in (r.round_up_bits(64) for r in exact)
    ]
    assert trace.residuals == tuple(math.sqrt(float(r)) for r in exact)


# the catalog operators the exact shift stands for: B^n for n >= 0, F^-n for n < 0
_CATALOG = {
    "uni": (BackwardShift(), ForwardShift()),
    "bi": (WeightedBackward(doubling_weights()),
           WeightedForward(doubling_weights().inverse_shifted())),
}
_DYADIC = st.builds(lambda a, p: a * 2.0 ** p, st.integers(-255, 255), st.integers(-30, 30))


def _shift_norm_sq(items, n, domain):
    """The squared norm of _shift(y, n, domain), summed from the
    (index, |entry|^2) items of y in index order."""
    out = X2.ZERO
    for j, msq in items:
        if j < n and domain == "uni":
            continue
        out = out + X2(msq.num, msq.den, msq.exp + 2 * _weight_log2(domain, j, n))
    return out


@st.composite
def _shift_cases(draw):
    domain = draw(st.sampled_from(["uni", "bi"]))
    lo = 0 if domain == "uni" else -70
    index = st.integers(lo, 70)
    entries = draw(st.lists(st.tuples(index, st.builds(complex, _DYADIC, _DYADIC)), max_size=6))
    return SeqVector.make(domain, entries), draw(st.integers(-60, 60))


@settings(max_examples=400, deadline=None)
@given(_shift_cases())
def test_exact_shift_agrees_with_the_operator_catalog(case):
    v, n = case
    backward, forward = _CATALOG[v.domain]
    ref = power_apply(backward, n, v) if n >= 0 else power_apply(forward, -n, v)
    got = _shift(xvec_from_seq(v), n, v.domain)
    bits = lambda z: (z.real.hex(), z.imag.hex())  # noqa: E731
    assert sorted((j, bits(c.to_complex())) for j, c in got.items()) == [
        (j, bits(z)) for j, z in ref.entries
    ]
    items = [(j, c.mod_sq()) for j, c in sorted(xvec_from_seq(v).items())]
    norm_sq = _shift_norm_sq(items, n, v.domain)
    exact = xvec_norm_sq(got)
    assert (norm_sq.num, norm_sq.den, norm_sq.exp) == (exact.num, exact.den, exact.exp)


@settings(max_examples=300, deadline=None)
@given(_shift_cases(), st.integers(0, 60), st.integers(1, 16))
def test_shift_norm_closed_forms_equal_the_sum(case, d, q):
    # the same draws on the bilateral domain, at d past each end of the
    # support and at every shift from 3 below it to 3 above it; last_below
    # against the largest passing n of a window that holds it, for bounds
    # q/8 times a value near or inside the support or at one of its indices
    v, n = case
    v = SeqVector.make("bi", v.entries)
    assume(not v.is_zero)
    items = [(j, c.mod_sq()) for j, c in sorted(xvec_from_seq(v).items())]
    norms, c = _ShiftNorms(items), X2(3, 5, n)
    low, high = min(0, items[0][0]), max(0, items[-1][0])
    window = range(low - d - 8, high + d + 4)
    exact = {m: _shift_norm_sq(items, m, "bi") for m in window}
    for m in [low - d, high + d, *range(low - 3, high + 4)]:
        assert norms.at(m)._cmp(exact[m]) == 0
    ends = (low - d, low - 1, low, (low + high) // 2, high - 1, high, high + d)
    for t in [*ends, *(j for j, _ in items)]:
        bound = c * exact[t] * X2(q, 8)
        passes = [m for m in window if c * exact[m] < bound]
        assert passes == list(window[: len(passes)])  # a down-set holding the window's start
        want = None if passes[-1] == window[-1] else passes[-1]  # flat from high on
        assert norms.last_below(c, bound) == want


def test_last_below_solves_a_wide_support_without_walking_it():
    # |B^n y|^2 = 1e-6 + 4^n for -10**8 <= n <= 0: last_below solves each
    # index's segment in closed form, where a walk or a search would visit
    # up to 10**8 shifts or sum integers of 2 * 10**8 bits at each probe
    items = [(-10**8, X2.from_float(1e-6)), (0, X2.ONE)]
    start = time.perf_counter()
    norms = _ShiftNorms(items)
    for n in (-3, -2, -10**8 + 1):
        assert norms.at(n)._cmp(_shift_norm_sq(items, n, "bi")) == 0
    bound = X2.from_float(1e-6) + X2.pow2(-4)  # at(-2) exactly
    assert norms.last_below(X2.ONE, bound) == -3
    assert norms.last_below(X2(1, 1, 60), bound * X2.pow2(60)) == -3
    assert norms.last_below(X2.ONE, bound + X2.pow2(-200)) == -2
    assert norms.last_below(X2.ONE, X2(3)) is None
    # below the support, where at(n) = (1e-6 4^(10**8) + 1) 4^n
    far = X2.pow2(-2 * 10**8 - 100)
    n = norms.last_below(X2.ONE, far)
    assert n == -2 * 10**8 - 41
    assert _shift_norm_sq(items, n, "bi") < far <= _shift_norm_sq(items, n + 1, "bi")
    assert time.perf_counter() - start < 1.0


def _reference_bilateral(sampler, targets, stages):
    """The bilateral stage loop with a plain galloping and bisecting shift
    search, each probe summing the shifted norms and squaring the earlier
    moduli anew; returns the scalars, shifts and condition dicts."""
    run = _Stages("bilateral", "bi", targets, stages, NotAccumulatingAtZeroError)
    scalars, shifts, items, norm_sqs, degrees = (
        run.scalars, run.shifts, run.items, run.norm_sqs, run.degrees)
    for k in range(stages + 1):
        cap = 0.0
        for i in range(k):
            gi = scalars[i].mod_sq().log2() / 2.0
            cap = min(cap, -k + gi - (shifts[i] + degrees[i]) - norm_sqs[i].log2() / 2.0)
        run.pick(
            lambda want: pick_modulus_at_most(sampler, want), cap - 1.0,
            lambda s: all(
                s * X2.pow2(2 * (shifts[i] + degrees[i]) + 2 * k) * norm_sqs[i] < scalars[i].mod_sq()
                for i in range(k)
            ),
            "no scalar",
        )
        msq = scalars[k].mod_sq()
        four_k, half_sq = X2.pow2(2 * k), msq * X2.pow2(-2)

        def _shift_ok(m):
            return _shift_norm_sq(items[k], -m, "bi") * four_k < half_sq and all(
                scalars[i].mod_sq() * _shift_norm_sq(items[k], shifts[i] - m, "bi") * four_k
                < half_sq
                for i in range(k)
            )

        lo = 0 if k == 0 else max(shifts) + 1
        hi = max(lo, 1)
        while not _shift_ok(hi):
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if _shift_ok(mid):
                hi = mid
            else:
                lo = mid + 1
        shifts.append(lo)
    conditions = []
    for k in range(stages + 1):
        m_k, msq, four_k = shifts[k], scalars[k].mod_sq(), X2.pow2(2 * k)
        gaps = [m_k - shifts[i] for i in range(k)]
        conditions.append({
            "stage": k,
            "forward_image_small": _shift_norm_sq(items[k], -m_k, "bi") * four_k < msq,
            "cross_backward_small": all(
                scalars[i].mod_sq() * _shift_norm_sq(items[k], -n, "bi") * four_k < msq
                for i, n in enumerate(gaps)
            ),
            "cross_forward_small": all(
                msq * _shift_norm_sq(items[i], n, "bi") * four_k < scalars[i].mod_sq()
                for i, n in enumerate(gaps)
            ),
        })
    return scalars, shifts, conditions


def _reference_unilateral(sampler, targets, stages):
    """The unilateral stage loop squaring every earlier modulus anew; returns
    the scalars, shifts and condition dicts."""
    run = _Stages("unilateral", "uni", targets, stages, BoundedScalarSetError)
    scalars, shifts, norm_sqs, degrees = run.scalars, run.shifts, run.norm_sqs, run.degrees

    def dominant(k, msq):
        four_k = X2.pow2(2 * k)
        return {
            "target_small": norm_sqs[k] * four_k < msq,
            "dominates_previous": all(
                scalars[i].mod_sq() * norm_sqs[k] * four_k < msq for i in range(k)
            ),
        }

    for k in range(stages + 1):
        nsq = norm_sqs[k]
        need = k + nsq.log2() / 2.0
        for g in scalars:
            need = max(need, k + nsq.log2() / 2.0 + g.mod_sq().log2() / 2.0)
        run.pick(
            lambda want: pick_modulus_at_least(sampler, want), need + 1.0,
            lambda msq: all(dominant(k, msq).values()), "no scalar",
        )
        shifts.append(0 if k == 0 else max(shifts[i] + degrees[i] for i in range(k)) + 1)
    conditions = [
        {"stage": k, **dominant(k, scalars[k].mod_sq()),
         "shift_gap": all(shifts[k] > shifts[i] + degrees[i] for i in range(k))}
        for k in range(stages + 1)
    ]
    return scalars, shifts, conditions


def _bits(z):
    return [(x.num, x.den, x.exp) for x in (z.re, z.im)]


# wide supports with small far entries: at some stages the closed form's
# guess lies inside the search bracket but past the least shift
_WIDE = TargetFamily(tuple(SeqVector.make("bi", entries) for entries in (
    [(-8, 0.75), (-30, 2.0**-19)],
    [(-2, -1.0), (-11, -(2.0**-17))],
    [(-37, 3 * 2.0**-29)],
    [(-26, 2.0**-12)],
)))


@pytest.mark.parametrize(
    "build, reference, sampler, targets",
    [
        (build_bilateral, _reference_bilateral, Geometric(0.5), default_target_family(23, "bi")),
        (build_bilateral, _reference_bilateral, Geometric(0.25j), default_target_family(13, "bi")),
        (build_bilateral, _reference_bilateral, Geometric(0.3), default_target_family(6, "bi")),
        (build_bilateral, _reference_bilateral, Geometric(0.3 + 0.4j), default_target_family(6, "bi")),
        (build_bilateral, _reference_bilateral, Geometric(0.5), _WIDE),
        (build_bilateral, _reference_bilateral, Geometric(0.3), _WIDE),
        (build_unilateral, _reference_unilateral, positive_ray(), default_target_family(21, "uni")),
        (build_unilateral, _reference_unilateral, Geometric(2.0), default_target_family(21, "uni")),
        (build_unilateral, _reference_unilateral, Geometric(1 / 0.3), default_target_family(6, "uni")),
        (build_unilateral, _reference_unilateral, Geometric(1.5 + 1.25j), default_target_family(6, "uni")),
    ],
)
def test_builds_match_the_per_probe_reference(build, reference, sampler, targets):
    stages = len(targets) - 1
    trace = build(sampler, targets, stages)
    scalars, shifts, conditions = reference(sampler, targets, stages)
    assert [c.shift for c in trace.choices] == shifts
    assert [_bits(c.scalar) for c in trace.choices] == [_bits(g) for g in scalars]
    assert list(trace.conditions) == conditions
    # every residual term's (num, den, exp), not only its value
    got = [[(t.num, t.den, t.exp) for t in terms] for terms in trace.residual_terms]
    assert got == _reference_terms(targets, scalars, shifts)


def _reference_terms(targets, scalars, shifts):
    """Each stage's residual terms multiplied out: B^m x entry by entry times
    gamma_k, minus y_k, each entry's mod_sq() by sorted index."""
    domain, ys = targets.domain, [xvec_from_seq(v) for v in targets.vectors]
    x = {}
    for y, g, m in zip(ys, scalars, shifts):
        inv = XC(X2.ONE, X2.ZERO) / g
        for j, c in _shift(y, -m, domain).items():
            x[j] = x[j] + c * inv if j in x else c * inv
    out = []
    for y, g, m in zip(ys, scalars, shifts):
        diff = xvec_sub({j: c * g for j, c in _shift(x, m, domain).items()}, y)
        out.append([(t.num, t.den, t.exp) for t in (diff[i].mod_sq() for i in sorted(diff))])
    return out


_NONZERO = st.builds(complex, _DYADIC, _DYADIC).filter(bool)


@st.composite
def _bilateral_families(draw):
    """A bilateral sampler and up to ten targets (five for the non-dyadic
    bases) with first indices in -40..40 and degrees 0..40: supports up to
    80 wide, so earlier stages fall on both sides of the far splits."""
    base = draw(st.sampled_from([0.5, 0.25j, -0.5, 0.3, 0.3 + 0.4j]))
    count = draw(st.integers(1, 5 if base in (0.3, 0.3 + 0.4j) else 10))
    vectors = []
    for _ in range(count):
        first = draw(st.integers(-40, 40))
        last = draw(st.integers(first, 40))
        entries = draw(st.dictionaries(st.integers(first, last), _NONZERO, max_size=2))
        entries.update({first: draw(_NONZERO), last: draw(_NONZERO)})
        vectors.append(SeqVector.make("bi", list(entries.items())))
    return Geometric(base), TargetFamily(tuple(vectors))


def _stage_choices(self, bound, conditions):
    """_Stages.trace cut to what _reference_bilateral returns: the scalars,
    the shifts and the condition dicts. The stage loop is what the property
    below pins, and non-dyadic residual sums over wide supports take
    seconds."""
    return self.scalars, self.shifts, [{"stage": k, **conditions(k)} for k in range(len(self.shifts))]


# the far split's edge: at stage 1, m0 = 4 and y_1's first index is -2, so
# stage 0's shift 3 lies one past the split; its term holds at m0 only
# through at(-1) = |y_1|^2, a quarter of what the far form q[0] 4^-1 gives
@example((Geometric(0.5), TargetFamily((
    SeqVector.make("bi", [(0, -1.0)]), SeqVector.make("bi", [(-2, 2.0**-8)])))))
# y_1's degree 40 keeps stage 0 (shift 3) near stage 1 (shift 11) in the
# forward test: at(8) is taken pair by pair
@example((Geometric(0.5), TargetFamily((
    SeqVector.make("bi", [(0, 1.0)]), SeqVector.make("bi", [(0, 1.0), (40, 2.0**-30)])))))
# stage 37 of build22 passes the shift cap
@example((Geometric(0.5), default_target_family(38, "bi")))
@settings(max_examples=150, deadline=None)
@given(_bilateral_families())
def test_bilateral_stage_loop_matches_the_pairwise_reference(case):
    """Shifts, scalar bits and condition booleans of build_bilateral, whose
    far stages fold into running maxima, against the pairwise reference; a
    shift past the cap is refused naming the reference's shift."""
    sampler, targets = case
    stages = len(targets) - 1
    with mock.patch.object(_Stages, "trace", _stage_choices):
        try:
            scalars, shifts, conditions = build_bilateral(sampler, targets, stages)
        except ShiftSearchLimitError as err:
            k, m = map(int, re.search(r"\(stage (\d+) needs (\d+)\)$", str(err)).groups())
            assert _reference_bilateral(sampler, targets, k)[1][k] == m > SHIFT_CAP
            return
    want_scalars, want_shifts, want_conditions = _reference_bilateral(sampler, targets, stages)
    assert shifts == want_shifts
    assert list(map(_bits, scalars)) == list(map(_bits, want_scalars))
    assert conditions == want_conditions


def test_default_targets_search_near_stages_only():
    """build22 at K=22: the far prefix takes the decay terms of the earlier
    stages far from each target, so last_below is called at most 3 times
    per stage, not once per earlier stage."""
    calls = {"n": 0}
    last_below = _ShiftNorms.last_below

    def counting(self, c, bound):
        calls["n"] += 1
        return last_below(self, c, bound)

    with mock.patch.object(_ShiftNorms, "last_below", counting):
        build_bilateral(Geometric(0.5), default_target_family(23, "bi"), 22)
    assert calls["n"] <= 3 * 23


_UNI_PARTS = st.sampled_from([0.0, 0.3, -1.0, 1.0, 2.0**-40, 7.5, -(2.0**30)])


@st.composite
def _unilateral_cases(draw):
    """An unbounded sampler and one to seven nonzero unilateral targets."""
    sampler = draw(st.sampled_from(
        [positive_ray(), Geometric(2.0), Geometric(3.0), Geometric(-2.5), Geometric(1.5 + 1.25j)]))
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        entries = draw(st.dictionaries(
            st.integers(0, 6), st.builds(complex, _UNI_PARTS, _UNI_PARTS), min_size=1, max_size=3))
        v = SeqVector.make("uni", list(entries.items()))
        assume(not v.is_zero)
        vectors.append(v)
    return sampler, TargetFamily(tuple(vectors))


@settings(max_examples=60, deadline=None)
@given(_unilateral_cases())
def test_unilateral_conditions_match_the_pairwise_checks(case):
    # each stage's modulus against every earlier one, from the reported choices
    sampler, targets = case
    stages = len(targets) - 1
    trace = build_unilateral(sampler, targets, stages)
    msqs = [c.modulus_sq() for c in trace.choices]
    shifts = [c.shift for c in trace.choices]
    for k, cond in enumerate(trace.conditions):
        scaled = xvec_norm_sq(xvec_from_seq(targets[k])) * X2.pow2(2 * k)
        assert cond["target_small"] == (scaled < msqs[k])
        assert cond["dominates_previous"] == all(
            msqs[i] * scaled < msqs[k] for i in range(k))
        assert cond["shift_gap"] == all(
            shifts[k] > shifts[i] + targets[i].degree() for i in range(k))


_DIFF_SAMPLERS = {
    # on a dyadic axis, then Geometric(0.3)'s non-dyadic inverses and the
    # turned picks of 0.3+0.4j, a turned ray and a sector
    "bi": [Geometric(0.5), Geometric(0.25j), Geometric(-0.5), Geometric(0.3),
           Geometric(0.3 + 0.4j)],
    "uni": [positive_ray(), Geometric(2.0), Geometric(-2.5), Geometric(1 / 0.3),
            Geometric(1.5 + 1.25j), Sector(0.0, math.inf, 0.5, 0.5),
            Sector(1.0, math.inf, -1.0, 2.0)],
}


@st.composite
def _differential_builds(draw):
    """A scheme, one of its samplers and up to six targets: the default
    family, or explicit ones spread over up to 120 indices. Bilateral
    non-dyadic sums are exact and costly, so those draws stay smaller."""
    domain = draw(st.sampled_from(["uni", "bi"]))
    sampler = draw(st.sampled_from(_DIFF_SAMPLERS[domain]))
    small = domain == "bi" and sampler.base.real == 0.3
    count = draw(st.integers(1, 3 if small else 6))
    if draw(st.booleans()):
        return domain, sampler, default_target_family(count, domain)
    width = 12 if small else 60
    index = st.integers(0 if domain == "uni" else -width, width)
    vectors = []
    for _ in range(count):
        entries = draw(st.lists(st.tuples(index, st.builds(complex, _DYADIC, _DYADIC)),
                                min_size=1, max_size=3))
        v = SeqVector.make(domain, entries)
        assume(not v.is_zero)
        vectors.append(v)
    return domain, sampler, TargetFamily(tuple(vectors))


# stage 0: y_1's entry at 0 lands off y_0's support 2 bits above the near
# term its entry at -29 leaves on y_0's entry at -10, and its entry at 5
# lies far below the floor grid
@example(("bi", Geometric(0.5), TargetFamily((
    SeqVector.make("bi", [(0, 1.0), (-10, 1.0)]),
    SeqVector.make("bi", [(-29, 2.0**-20), (0, 1.0), (5, 2.0**-600)])))))
@settings(max_examples=120, deadline=None)
@given(_differential_builds())
def test_stage_sums_are_cell_sums_of_the_terms(case):
    """Each stage's sum, from integer pairs or the exact fallback, is
    cell_sum of the terms residual_terms forms afterwards, triple for
    triple, and reads as their exact sum does."""
    domain, sampler, targets = case
    build = build_unilateral if domain == "uni" else build_bilateral
    sums, residual_sq = [], _Stages.residual_sq

    def recording(self, k, limit):
        sums.append((limit, residual_sq(self, k, limit)))
        return sums[-1][1]

    with mock.patch.object(_Stages, "residual_sq", recording):
        trace = build(sampler, targets, len(targets) - 1)
    assert len(sums) == len(trace.residual_terms)
    for terms, (limit, got), exact in zip(trace.residual_terms, sums, trace.residual_sq_exact):
        assert _triple(got) == _triple(cell_sum(terms, limit))
        assert (float(got), _triple(got.round_up_bits(64)), got <= limit) == (
            float(exact), _triple(exact.round_up_bits(64)), exact <= limit)


def _triple(x: X2):
    return x.num, x.den, x.exp


@pytest.fixture(scope="module")
def trace():
    fam = default_target_family(16, "bi")
    return build_bilateral(Geometric(0.5), fam, 15)


class TestBilateralBuild:
    def test_residuals_within_certified_bound_exactly(self, trace):
        for k, rsq in enumerate(trace.residual_sq_exact):
            bound = X2.from_int((k + 1) * (k + 1)) * X2.pow2(-2 * k)
            assert rsq <= bound

    def test_all_condition_booleans_hold(self, trace):
        assert all(
            c["forward_image_small"] and c["cross_backward_small"] and c["cross_forward_small"]
            for c in trace.conditions
        )

    def test_scalar_apriori_bound_rederived(self, trace):
        # chosen |gamma_k| <= 2^-k |gamma_i| / (2^{m_i + deg y_i} ||y_i||), all i < k
        fam = default_target_family(16, "bi")
        norms = [xvec_norm_sq(xvec_from_seq(v)) for v in fam.vectors]
        degs = [v.degree() for v in fam.vectors]
        for k in range(1, trace.stages + 1):
            msq_k = trace.choices[k].scalar.mod_sq()
            for i in range(k):
                msq_i = trace.choices[i].scalar.mod_sq()
                m_i = trace.choices[i].shift
                lhs = msq_k * X2.pow2(2 * (m_i + degs[i]) + 2 * k) * norms[i]
                assert lhs < msq_i

    def test_scalars_shrink_doubly_exponentially(self, trace):
        logs = [c.modulus_log2() for c in trace.choices]
        assert logs == sorted(logs, reverse=True)
        assert logs[-1] < -100000  # far beyond float64 range, hence exact arithmetic

    def test_single_target_is_exact(self):
        trace = build_bilateral(Geometric(0.5), TargetFamily((unit(0, "bi"),)), 0)
        assert trace.residual_sq_exact[0].is_zero

    def test_reported_residuals_read_the_exact_sums(self, trace):
        _assert_reports_read_exact(trace)

    def test_non_dyadic_scalars_take_the_exact_sum(self):
        # 1/0.3^j is not dyadic, so the residual terms are not either
        trace = build_bilateral(Geometric(0.3), default_target_family(6, "bi"), 5)
        assert any(t.den != 1 for terms in trace.residual_terms for t in terms)
        for k, rsq in enumerate(trace.residual_sq_exact):
            assert rsq <= X2.from_int((k + 1) * (k + 1)) * X2.pow2(-2 * k)
        _assert_reports_read_exact(trace)
        assert all(v for c in trace.conditions for key, v in c.items() if key != "stage")

    def test_thirty_five_stages_in_bounded_memory(self):
        fam = default_target_family(36, "bi")
        tracemalloc.start()
        try:
            trace = build_bilateral(Geometric(0.5), fam, 35)
            jsonio.dumps(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert all(v for c in trace.conditions for key, v in c.items() if key != "stage")
        assert trace.choices[-1].shift > 1 << 34

    def test_bounded_away_scalar_set_is_rejected(self):
        fam = default_target_family(3, "bi")
        with pytest.raises(NotAccumulatingAtZeroError):
            build_bilateral(Annulus(1, 2), fam, 2)

    def test_trace_serializes_compactly(self, trace):
        text = jsonio.dumps(trace)
        assert len(text) < 200_000
        assert '"residual_sq_upper"' in text
        csv = trace.to_csv()
        assert csv.splitlines()[0] == "stage,modulus,modulus_log2,shift,residual"
        assert len(csv.splitlines()) == trace.stages + 2

    # X2(3, 3, exp) keeps its odd mantissas unreduced; at exp -2 it must
    # encode as {"num": 1, "exp2": -2}
    @pytest.mark.parametrize("num, den", [(1, 1), (-3, 1), (5, 1), (7, 3), (-1, 9), (3, 3)])
    @pytest.mark.parametrize("exp", [-70, -1, 0, 1, 70, -2])
    def test_x2_encoding_matches_the_fraction_encoding(self, num, den, exp):
        # the reference: the Fraction in lowest terms, a power-of-two
        # denominator written as its exponent
        fr = X2(num, den, exp).to_fraction()
        if fr.denominator & (fr.denominator - 1) == 0:
            expected = {"num": fr.numerator, "exp2": 1 - fr.denominator.bit_length()}
        else:
            expected = {"num": fr.numerator, "den": fr.denominator}
        assert X2(num, den, exp).to_json() == expected


class TestSpiralScenario:
    def test_pair_is_consistent(self):
        scn = build_spiral_scenario(2.0, IRR)
        assert scn.operator.value == complex(2 * math.cos(1.0), -2 * math.sin(1.0))
        assert scn.scalar_set.base == 2.0

    def test_base_one_is_rejected(self):
        with pytest.raises(SpiralBaseOneError):
            build_spiral_scenario(1.0, IRR)

    def test_orbit_points_stay_on_the_spiral(self):
        scn = build_spiral_scenario(2.0, IRR)
        for t in [-3.0, -0.5, 0.0, 0.7, 2.0]:
            for n in range(0, 6):
                z = scn.orbit_point(t, n)
                w = scn.scalar_set.point_at(t + n)
                assert abs(z - w) <= 1e-12 * max(1.0, abs(w))
                assert scn.scalar_set.contains(z, 1e-9)

    def test_distance_zero_at_base_point(self):
        scn = build_spiral_scenario(2.0, IRR)
        res = spiral_distance_to(scn, 1.0 + 0j, (-2.0, 2.0), 0.125)
        assert res.distance <= 1e-12
        assert res.argmin_s == 0.0

    def test_distance_zero_at_first_orbit_step(self):
        scn = build_spiral_scenario(2.0, IRR)
        target = scn.operator.value  # the spiral point at s = 1
        res = spiral_distance_to(scn, target, (-2.0, 2.0), 0.125)
        assert res.distance <= 1e-12
        assert res.argmin_s == 1.0

    def test_frozen_minimum_distance_to_minus_one(self):
        scn = build_spiral_scenario(2.0, IRR)
        res = spiral_distance_to(scn, -1.0 + 0j, (-20.0, 20.0), 1e-4)
        assert abs(res.distance - SPIRAL_DELTA) <= 1e-12
        assert res.tail_low_margin > res.distance
        assert res.tail_high_margin > res.distance

    def test_range_too_small_raises(self):
        scn = build_spiral_scenario(2.0, IRR)
        with pytest.raises(ScanRangeError):
            spiral_distance_to(scn, 2.0 ** 25 + 0j, (-20.0, 20.0), 0.01)
        with pytest.raises(ScanRangeError):
            # target modulus reachable only at the very edge of the range
            spiral_distance_to(scn, complex(0, 2.0 ** -20), (-20.0, 20.0), 0.5)

    def test_shrinking_spiral_tails(self):
        scn = build_spiral_scenario(0.5, IRR)
        res = spiral_distance_to(scn, -1.0 + 0j, (-20.0, 20.0), 1e-3)
        assert res.distance > 0
        assert res.tail_low_margin > res.distance

    def test_zero_target_rejected(self):
        scn = build_spiral_scenario(2.0, IRR)
        with pytest.raises(ValueError):
            spiral_distance_to(scn, 0j, (-1.0, 1.0), 0.1)


# ---------------------------------------------------------------------------
# one pick per stage: the slack in `want` leaves no pick inadmissible

_MODULI = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0))
# a part many binades below the other widens every integer-pair power
# (_cpow_exact) until a build takes seconds; the picks' slack does not
# depend on it
_ANGLES = st.floats(-3.0, 3.0).filter(lambda a: a == 0 or abs(a) > 1e-3)
_LEAF_SETS = st.one_of(  # the kinds some scheme accepts first
    st.builds(lambda m, a: Geometric(cmath.rect(m, a)), _MODULI, _ANGLES),
    st.builds(lambda b, r: LogSpiral(b, AngleSpec.irrational(r)), _MODULI, st.floats(-10.0, 10.0)),
    st.builds(lambda lo, hi, a, w: Sector(lo, hi, a, a + w), st.sampled_from([0.0, 0.5]),
              st.sampled_from([2.0, math.inf]), _ANGLES, st.floats(0.0, 3.0)),
    st.builds(FinitePoints, st.lists(st.builds(cmath.rect, _MODULI, _ANGLES), min_size=1, max_size=3)),
    st.builds(Circle, _MODULI),
    st.builds(lambda lo, w: Annulus(lo, lo + w), _MODULI, st.floats(0.0, 5.0)),
    st.builds(lambda r, a, w: Arc(r, a, a + w), _MODULI, _ANGLES, st.floats(0.0, 3.0)),
)
_SAMPLERS = st.one_of(
    _LEAF_SETS,
    st.builds(Union, _LEAF_SETS, _LEAF_SETS),
    st.builds(lambda m, a, inner: Scaled(cmath.rect(m, a), inner), _MODULI, _ANGLES, _LEAF_SETS),
    st.builds(CircleProduct, _LEAF_SETS),
)


@settings(max_examples=300, deadline=None)
@given(sampler=_SAMPLERS, stages=st.integers(0, 5))
def test_every_pick_passes_its_exact_test_at_once(sampler, stages):
    """Both builders over drawn samplers of every kind: a set either
    refuses the scheme or gives each stage an admissible scalar on the
    first ask, so no internal fault (RuntimeError) is raised."""
    for build, domain in ((build_unilateral, "uni"), (build_bilateral, "bi")):
        try:
            build(sampler, default_target_family(stages + 1, domain), stages)
        except PreconditionError:
            pass
