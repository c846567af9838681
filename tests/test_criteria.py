"""Hypercyclicity criterion checker: pass/fail instances and the trend guard."""

import hashlib
import json
import math
import re
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
    def test_pass_is_monotone_in_tolerance(self):
        tight = check_criterion(rolewicz_instance(tolerance=1e-13))
        loose = check_criterion(rolewicz_instance(tolerance=1e-9))
        assert not tight.passes  # final r2 = 2^-40 ~ 9.1e-13 exceeds 1e-13
        assert loose.passes

    def test_report_serializes(self):
        report = check_criterion(rolewicz_instance(upto=10))
        blob = json.loads(jsonio.dumps(report))
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
        # refused when the instance is built, before any walk
        with pytest.raises(DomainMismatchError, match="^right_inverse: acts on 'scalar', but "
                           "operator acts on 'uni'$"):
            CriterionInstance(
                operator=BackwardShift(),
                right_inverse=ScalarOnC(0.5),
                decay_vectors=BASIS6,
                target_vectors=BASIS6,
                indices=(0, 1, 2),
            )


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


# the powers of two past 2**±300 take dyadic chains out of float range
# within a few steps, so both sides of the closed form's range check run
_FACTORS = [2.0, 0.5, 3.0, 1 / 3, 1.1, 1 / 1.1, 1j, -1j, 0.6 + 0.8j, 0.6 - 0.8j,
            2.0 ** 300, 2.0 ** -300, 2.0 ** 600, 2.0 ** -600]
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
    # an index near 1022, where 2^-n passes the least normal float
    indices |= draw(st.sets(st.integers(1015, 1030), max_size=1))
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


# each S step multiplies by 2^-600 before 2^600: for the 2^-500 entry that
# partial product underflows, so the walk drops it after one step
_IN_STEP = CriterionInstance(
    operator=ScalarMultiple(2.0 ** -600, ScalarMultiple(2.0 ** 600, BackwardShift())),
    right_inverse=ScalarMultiple(2.0 ** 600, ScalarMultiple(2.0 ** -600, ForwardShift())),
    decay_vectors=(e(0),),
    target_vectors=(e(0), SeqVector.make("uni", [(2, 2.0 ** -500)])),
    indices=(0, 1, 3),
)


# 2^-600 F leaves the normal range at index 2 and its 2^-1200 underflows;
# the closed form takes 0 and 1, the walk the rest
_FACTOR_600 = CriterionInstance(
    operator=ScalarMultiple(2.0 ** 600, BackwardShift()),
    right_inverse=ScalarMultiple(2.0 ** -600, ForwardShift()),
    decay_vectors=(e(0),),
    target_vectors=(e(0), e(2)),
    indices=(0, 1, 2, 5),
)


# T's in-step 2^-600 underflows the 2^-500 entry at index 1 (4 * 2^-500 *
# 2^-600) but not at index 40 (4^40 * 2^-500 * 2^-600): the closed form
# stops at index 1, although later indices fit again
_LATE_FIT = CriterionInstance(
    operator=ScalarMultiple(2.0 ** 600, ScalarMultiple(2.0 ** -600, BackwardShift())),
    right_inverse=ScalarMultiple(4.0, ForwardShift()),
    decay_vectors=(e(0),),
    target_vectors=(SeqVector.make("uni", [(2, 2.0 ** -500)]),),
    indices=(0, 1, 40, 41),
)


# a backward S drops entries, so it walks
_BACKWARD_S = CriterionInstance(
    operator=ForwardShift(),
    right_inverse=BackwardShift(),
    decay_vectors=(e(0),),
    target_vectors=(e(0), e(3)),
    indices=(0, 1, 2, 5),
)


# every S^n y is a zero of some signs, and T = 1-0j moves only those signs:
# T^(n-p) S^n y == S^p y at each later index, although the bits differ
_ZERO_SIGNS = CriterionInstance(
    operator=DirectSum(ScalarOnC(complex(1, -0.0))),
    right_inverse=DirectSum(ScalarOnC(3 + 0j)),
    decay_vectors=((complex(3, -0.0),),),
    target_vectors=((complex(-0.0, 0.0),),),
    indices=(4, 8, 20, 21, 29, 31),
)


def _refusal(traces, inst):
    """The NonFiniteResidualError message check_criterion gives for these
    per-index norm lists, or None where every norm is finite."""
    fields = ("decay_vectors", "target_vectors", "target_vectors")
    for n, rows in zip(inst.indices, zip(*traces)):
        for field, name, norms in zip(fields, criteria.Traces._fields, rows):
            for i, x in enumerate(norms):
                if not math.isfinite(x):
                    return f"{field}[{i}]: non-finite {name} residual {x!r} at index {n}"
    return None


@settings(max_examples=400, deadline=None)
@given(_instances())
@example(_SIGNED_ZERO)
@example(_IN_STEP)
@example(_FACTOR_600)
@example(_BACKWARD_S)
@example(_LATE_FIT)
@example(_ZERO_SIGNS)
@example(CriterionInstance(**{**rolewicz_instance().__dict__,
                              "indices": (0, 3, 1020, 1022, 1023, 1025)}))
def test_telescoped_round_trips_match_the_direct_formula_bit_for_bit(inst):
    """check_criterion against the direct per-index formula: the norm of
    each miss T^n S^n y - y bit for bit, and all three traces, or the same
    refusal where a residual is not finite. Dyadic pairs in float range take the
    closed form up to the first index out of range, and the walk after it;
    every other instance walks."""
    T, S, indices, targets = inst.operator, inst.right_inverse, inst.indices, inst.target_vectors
    s_rows = [[power_apply(S, n, y) for y in targets] for n in indices]
    direct = [[vector_sub(power_apply(T, n, sy), y) for sy, y in zip(row, targets)]
              for n, row in zip(indices, s_rows)]
    norms = lambda vecs: list(map(vector_norm, vecs))  # noqa: E731
    hexes = lambda xs: list(map(float.hex, xs))  # noqa: E731
    trips = criteria._round_trips(T, s_rows, targets, indices)
    assert [hexes(row) for _, row in trips] == [hexes(norms(row)) for row in direct]

    rows = (
        [norms(power_apply(T, n, x) for x in inst.decay_vectors) for n in indices],
        list(map(norms, s_rows)),
        list(map(norms, direct)),
    )
    refusal = _refusal(rows, inst)
    if refusal is not None:
        with pytest.raises(criteria.NonFiniteResidualError, match=f"^{re.escape(refusal)}$"):
            check_criterion(inst)
        return
    expected = [list(map(max, trace)) for trace in rows]
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


def _apply_calls(monkeypatch):
    """A counter of the criteria.apply calls."""
    calls = {"n": 0}
    apply = criteria.apply

    def counting(op, v):
        calls["n"] += 1
        return apply(op, v)

    monkeypatch.setattr(criteria, "apply", counting)
    return calls


def test_non_finite_residual_is_refused_before_any_later_row(monkeypatch):
    """2B against 2F: T^n S^n e_j = 4^n e_j leaves float range at n = 512.
    The closed form holds up to index 511, the walk takes one step on from
    S^511 y, refuses at 512 and forms no S row past it; the decay walk
    stops applying 2B to e_j once it is zero, after j + 1 steps."""
    calls = _apply_calls(monkeypatch)
    inst = CriterionInstance(
        operator=ScalarMultiple(2.0, BackwardShift()),
        right_inverse=ScalarMultiple(2.0, ForwardShift()),
        decay_vectors=BASIS6,
        target_vectors=BASIS6,
        indices=tuple(range(4001)),
    )
    with pytest.raises(criteria.NonFiniteResidualError,
                       match=r"^target_vectors\[0\]: non-finite roundtrip residual inf at index 512$"):
        check_criterion(inst)
    assert calls["n"] == 1 + 2 + 3 + 4 + 5 + 6 + len(inst.target_vectors)


# ---------------------------------------------------------------------------
# closed form for dyadic pairs: which instances walk


def _walked_steps(monkeypatch, step):
    """A counter of the _walk steps taken in the given direction."""
    steps = {"n": 0}
    walk = operators._walk

    def counting(i, c, n, direction, *rest):
        if direction == step:
            steps["n"] += n
        return walk(i, c, n, direction, *rest)

    monkeypatch.setattr(operators, "_walk", counting)
    return steps


def _digest(report):
    return hashlib.sha256(jsonio.dumps(report).encode()).hexdigest()


@pytest.mark.parametrize("indices, digest", [
    (tuple(range(321)), "c4c7d52f67dd8ffad37be0345b048c9b7a2f569bd874c7ce08e1bd941eb9f410"),
    ((0, 500, 1000), "907a5d59ef738476566a172c5300ae05b822c055f56f253b6200ca2a7b8f4ed8"),
])
def test_rolewicz_in_float_range_never_walks_s(indices, digest, monkeypatch):
    """2^-1000 is still normal, so F/2 is never walked; the reports keep the
    digests the walk wrote before the closed form."""
    steps = _walked_steps(monkeypatch, +1)  # S = F/2 moves forward
    inst = CriterionInstance(**{**rolewicz_instance().__dict__, "indices": indices})
    assert _digest(check_criterion(inst)) == digest
    assert steps["n"] == 0


def test_closed_form_hands_the_walk_the_indices_past_float_range(monkeypatch):
    """Rolewicz at N=2000: the closed form holds up to index 1022, and
    _round_trips walks exactly the indices 1023..2000."""
    walked = []
    round_trips = criteria._round_trips

    def recording(op, s_rows, targets, indices):
        walked.extend(indices)
        return round_trips(op, s_rows, targets, indices)

    monkeypatch.setattr(criteria, "_round_trips", recording)
    check_criterion(rolewicz_instance(upto=2000))
    assert walked == list(range(1023, 2001))


def test_hand_off_walks_on_from_the_last_closed_row(monkeypatch):
    """Rolewicz at N=2000: the walk starts from S^1022 y, which the closed
    form builds exactly, so F/2 is applied to each target from index 1023
    until 2^-n underflows at 1075 (53 steps), and 2B to e_j j + 1 times."""
    calls = _apply_calls(monkeypatch)
    check_criterion(rolewicz_instance(upto=2000))
    assert calls["n"] == 6 + 5 + 4 + 3 + 2 + 1 + 53 * 6


def _power_calls(monkeypatch):
    """A counter of the criteria.power_apply calls."""
    calls = {"n": 0}
    power = criteria.power_apply

    def counting(op, n, v):
        calls["n"] += 1
        return power(op, n, v)

    monkeypatch.setattr(criteria, "power_apply", counting)
    return calls


def test_zero_rows_make_no_round_trip_past_underflow(monkeypatch):
    """Rolewicz: (F/2)^n e_j underflows to zero at index 1075 for every
    target, so every later index reuses the zero row's round trips and
    norms: no power_apply call after index 1075, and the same report."""
    calls = _power_calls(monkeypatch)
    counts = []
    for upto in (1075, 2000):
        calls["n"] = 0
        report = check_criterion(rolewicz_instance(upto=upto))
        counts.append(calls["n"])
    assert counts[0] == counts[1] > 0
    assert _digest(report) == "a29991ff4b211a4d2392ad3cf7e8d085fd0ab2aed030d87cb1f25bbd439e6689"


def test_round_trips_equal_up_to_zero_signs_are_reused(monkeypatch):
    """On _ZERO_SIGNS each later index finds T^(n-p) S^n y == S^p y, so its
    round trip costs one power_apply call, not two, and the report keeps
    the bits of the direct formula."""
    calls = _power_calls(monkeypatch)
    report = check_criterion(_ZERO_SIGNS)
    assert calls["n"] == len(_ZERO_SIGNS.indices)
    assert _digest(report) == "fe7e74665c3f76815daa707a1d01806de79ada7d20b0d706bd725fddd93f2e01"


@pytest.mark.parametrize("factor", [0.5, -0.5j, 0.25 + 0j])
def test_hand_off_row_holds_the_bits_of_the_walk(factor):
    """The row the walk goes on from, built by _moved along S's path, is
    bit for bit n calls of apply, signed zeros included, up to the last
    index whose parts all stay normal."""
    S = ScalarMultiple(factor, ForwardShift())
    targets = BASIS6 + (SeqVector.make("uni", [(0, -3.0 + 0j), (2, 1.5 - 2.0**-60j)]),)
    chain = S.dyadic_chain()
    for n in (1, 7, 900 // -chain.k):  # the least part, 2^-60, ends at 2^-960
        for y in targets:
            assert _bits(criteria._moved(y, *chain.path(n)[:3])) == _bits(power_apply(S, n, y))


def test_rolewicz_past_float_range_walks(monkeypatch):
    """2^-2000 underflows: the instance walks, and its report is unchanged."""
    steps = _walked_steps(monkeypatch, +1)
    report = check_criterion(rolewicz_instance(upto=2000))
    assert steps["n"] > 0
    assert _digest(report) == "a29991ff4b211a4d2392ad3cf7e8d085fd0ab2aed030d87cb1f25bbd439e6689"


def test_closed_form_refuses_a_non_finite_norm_as_the_walk_does(monkeypatch):
    """Two entries near the largest float under B against F: each stays
    normal, but their norm passes float range at the first index."""
    big = SeqVector.make("uni", [(0, 1.5e308), (1, 1.5e308)])
    inst = CriterionInstance(
        operator=BackwardShift(),
        right_inverse=ForwardShift(),
        decay_vectors=BASIS6,
        target_vectors=(e(0), big),
        indices=(3, 4, 9),
    )
    message = r"^target_vectors\[1\]: non-finite inverse_decay residual inf at index 3$"
    steps = _walked_steps(monkeypatch, +1)
    with pytest.raises(criteria.NonFiniteResidualError, match=message):
        check_criterion(inst)
    assert steps["n"] == 0
    monkeypatch.setattr(criteria, "_fits", lambda p, r, room: False)
    with pytest.raises(criteria.NonFiniteResidualError, match=message):
        check_criterion(inst)
    assert steps["n"] > 0


def test_closed_form_forms_no_row_past_a_refused_index(monkeypatch):
    """B against F takes the closed form; a decay vector whose norm passes
    float range is refused at index 0, and only that index's row is formed."""
    calls = 0
    target_rows = criteria._target_rows

    def counting(inst):
        nonlocal calls
        for row in target_rows(inst):
            calls += 1
            yield row

    monkeypatch.setattr(criteria, "_target_rows", counting)
    inst = CriterionInstance(
        operator=BackwardShift(),
        right_inverse=ForwardShift(),
        decay_vectors=(SeqVector.make("uni", [(0, 1.5e308), (1, 1.5e308)]),),
        target_vectors=BASIS6,
        indices=tuple(range(20001)),
    )
    with pytest.raises(criteria.NonFiniteResidualError,
                       match=r"^decay_vectors\[0\]: non-finite forward_decay residual inf at index 0$"):
        check_criterion(inst)
    assert calls == 1


# ---------------------------------------------------------------------------
# shared paths by exact scaling, and a decay walk that stops at zero


def _near(exponents):
    """Parts m * 2**e with m a full-mantissa float in [1, 2), or zero."""
    return st.one_of(
        st.just(0.0),
        st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from([1.0, -1.0]),
                  st.floats(1.0, 2.0, exclude_max=True), st.sampled_from(exponents)))


_NEAR_EDGES = list(range(-503, -496)) + list(range(-2, 3)) + list(range(497, 504))
_SCALED_TARGETS = st.lists(
    st.lists(st.tuples(st.integers(0, 6), st.builds(complex, _near(_NEAR_EDGES), _near(_NEAR_EDGES))),
             max_size=3).map(lambda entries: SeqVector.make("uni", entries)),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_SCALED_TARGETS, st.sampled_from([2.0, 0.5, 2j, -0.5j, -2.0]), st.booleans())
@example([e(0), e(3)], 0.5, True)
def test_shared_rows_scale_the_norms_bit_for_bit(targets, factor, home):
    """Every row of _target_rows equals the direct formula bit for bit: the
    scaled norms where the square range holds, the norms of the scaled
    entries past it, and the walk where a part leaves the normal range.
    Parts near 2**-500, 1 and 2**500 put its edges at |e| of about 11 and
    511 (505-515 for targets of 1.0), and the indices cross both where the
    parts themselves stay normal; a trip that turns by i is not home."""
    S = ScalarMultiple(factor, ForwardShift())
    T = ScalarMultiple((1 if home else 1j) / factor, BackwardShift())
    indices = (*range(32), *range(500, 524))
    inst = CriterionInstance(operator=T, right_inverse=S, decay_vectors=(e(0),),
                             target_vectors=tuple(targets), indices=indices)
    s_row, done = targets, 0
    for n, (s_norms, trip_norms) in zip(indices, criteria._target_rows(inst)):
        s_row, done = [power_apply(S, n - done, sy) for sy in s_row], n  # S^n y, step by step
        want = ([vector_norm(sy) for sy in s_row],
                [vector_norm(vector_sub(power_apply(T, n, sy), y)) for sy, y in zip(s_row, targets)])
        assert [list(map(float.hex, s_norms)), list(map(float.hex, trip_norms))] == [
            list(map(float.hex, w)) for w in want]


def _decay_instance(decay, indices=(0, 1, 2, 3, 7, 8, 20)):
    return CriterionInstance(**{**rolewicz_instance().__dict__, "decay_vectors": decay,
                                "indices": indices})


@settings(max_examples=300, deadline=None)
@given(_instances())
@example(_decay_instance((SeqVector.zero(), e(2), SeqVector.make("uni", [(0, 2.0 ** 1000)]))))
@example(_decay_instance((SeqVector.zero(),), indices=(1, 2, 5)))
def test_decay_walk_that_skips_zeros_matches_the_full_walk(inst):
    """_iterates leaves a zero sequence vector alone once apply returned it,
    and yields the same row object once the whole row is zero: every row
    holds the bits of T^n x, and the forward-decay trace is that of a full
    walk. Bilateral, scalar and direct-sum vectors never count as zero; a
    vector may be zero from the start."""
    T, decay, indices = inst.operator, inst.decay_vectors, inst.indices
    full = [[power_apply(T, n, x) for x in decay] for n in indices]
    rows = list(criteria._iterates(T, decay, indices))
    assert [list(map(_bits, row)) for row in rows] == [list(map(_bits, row)) for row in full]
    for before, row in zip(rows, rows[1:]):
        zero = all(type(v) is SeqVector and not v.entries for v in before)
        assert (row is before) == (zero and before is not decay)
    try:
        report = check_criterion(inst)
    except criteria.NonFiniteResidualError:
        return  # test_telescoped_round_trips_... checks the refusals
    peaks = [max(map(vector_norm, row)) for row in full]
    assert _trace_bits(report.traces.forward_decay) == _trace_bits(peaks)


def test_rolewicz_decay_walk_applies_2b_21_times(monkeypatch):
    """At N=320, 2B is applied to e_j only until it is zero, j + 1 times."""
    calls = _apply_calls(monkeypatch)
    check_criterion(rolewicz_instance(upto=320))
    assert calls["n"] == 6 + 5 + 4 + 3 + 2 + 1


def test_a_zero_decay_vector_off_the_domain_is_refused():
    """The first step applies T to every decay vector, zero or not."""
    inst = _decay_instance((e(0), SeqVector.zero("bi")))
    with pytest.raises(DomainMismatchError):
        check_criterion(inst)
