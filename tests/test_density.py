"""Orbit clouds, epsilon-density verdicts, d-density, multiplier estimates."""

import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import (
    AngleSpec,
    BackwardShift,
    DirectSum,
    FinitePoints,
    ScalarMultiple,
    ScalarOnC,
    SeqVector,
    TargetFamily,
    WeightedBackward,
    boundedness_certificates,
    build_spiral_scenario,
    build_unilateral,
    doubling_weights,
    epsilon_density,
    generate_orbit,
    lambda_set_estimate,
    positive_ray,
    scalar_lambda_oracle,
)
from orbitlab import density
from orbitlab.density import COVERED, NOT_COVERED, SOMEWHERE
from orbitlab.operators import (
    UnsupportedOperatorError,
    power_apply,
    vector_inner,
    vector_norm,
    vector_scale,
)

IRR = AngleSpec.irrational(1.0, "one radian")
ONE = FinitePoints([1.0 + 0j])

e = lambda j: SeqVector.basis(j, "uni")  # noqa: E731
be = lambda j: SeqVector.basis(j, "bi")  # noqa: E731


class TestGenerateOrbit:
    def test_backward_shift_walks_down(self):
        cloud = generate_orbit(BackwardShift(), e(5), ONE, 10, 1)
        by_n = {n: p for n, _, p in cloud.samples}
        for n in range(6):
            assert by_n[n] == e(5 - n)
        for n in range(6, 11):
            assert by_n[n].is_zero

    def test_rolewicz_reaches_scaled_basis(self):
        cloud = generate_orbit(ScalarMultiple(2.0, BackwardShift()), e(6), ONE, 6, 1)
        by_n = {n: p for n, _, p in cloud.samples}
        assert by_n[6] == e(0).scale(64.0)  # hand computation: 2^6

    def test_spiral_cloud_stays_on_spiral(self):
        scn = build_spiral_scenario(2.0, IRR)
        cloud = generate_orbit(scn.operator, 1.0 + 0j, scn.scalar_set, 10, 20)
        assert len(cloud) == 11 * 20
        for _, _, z in cloud.samples:
            assert scn.scalar_set.contains(z, 1e-6)

    def test_samples_rederive_exactly(self):
        cloud = generate_orbit(
            ScalarMultiple(2.0, BackwardShift()), e(8), FinitePoints([1.0, 2j, -0.5, 0.25j]), 30, 4
        )
        rng = random.Random(3)
        picks = rng.sample(range(len(cloud.samples)), 100)
        for i in picks:
            n, g, p = cloud.samples[i]
            assert p == vector_scale(g, power_apply(cloud.operator, n, cloud.iterates[0]))

    def test_domain_checks(self):
        from orbitlab import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            generate_orbit(BackwardShift(), be(0), ONE, 2, 1)

    def test_samples_are_only_built_when_read(self, monkeypatch):
        cloud = generate_orbit(BackwardShift(), e(3), FinitePoints([1.0, 2j, -0.5]), 4, 3)
        monkeypatch.setattr(density, "vector_scale", None)  # any scaling would fail
        assert len(cloud) == 15
        coords = cloud.section_coords((2,))
        monkeypatch.undo()
        assert _hex(coords) == _flat_bits([density.project(p, (2,)) for _, _, p in cloud.samples])


# parts whose products underflow to (signed) zeros, land among the
# subnormals, overflow or turn into nan
_PARTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e-200, -1e-200, 5e-324, -5e-324, 1e-310, 1.5, -2.5, 1e200, -1e308,
         math.inf, -math.inf]
    ),
    st.floats(-1e3, 1e3),
)
_COMPLEX = st.builds(complex, _PARTS, _PARTS)


@st.composite
def _projection_case(draw):
    """A cloud of a few iterates on one domain ("uni", "bi", "scalar" or a
    direct sum) and its scalar grid, and a section that may leave the
    iterates' supports."""
    kind = draw(st.sampled_from(["uni", "bi", "scalar", "sum"]))
    count = draw(st.integers(1, 3))
    if kind == "scalar":
        iterates = [draw(_COMPLEX) for _ in range(count)]
        section = draw(st.sampled_from([(0,), (0,), (1,), (0, 0)]))
    else:
        lo = -3 if kind == "bi" else 0
        vectors = st.dictionaries(st.integers(lo, 5), _COMPLEX, max_size=5).map(
            lambda d: SeqVector.make("bi" if kind == "bi" else "uni", d)
        )
        iterates = [draw(vectors) for _ in range(count)]
        if kind == "sum":
            iterates = [(v, draw(_COMPLEX)) for v in iterates]
        section = tuple(draw(st.lists(st.integers(-4, 8), min_size=1, max_size=4)))
    gammas = tuple(draw(st.lists(_COMPLEX, min_size=1, max_size=4)))
    cloud = density.OrbitCloud(BackwardShift(), tuple(iterates), gammas)
    return cloud, section


def _hex(floats):
    return [x.hex() for x in floats]


def _flat_bits(points):
    """The bits of the real and imaginary parts of every coordinate, in order."""
    return _hex(x for p in points for z in p for x in (z.real, z.imag))


def _or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_projection_case())
@example((  # g*v underflows to -0.0 + 0.0j and is dropped; project reads 0j
    density.OrbitCloud(BackwardShift(), (e(0).scale(1e-200),), (-1e-200 + 0j,)),
    (0,),
))
@example((  # g*v is -0.0 - 2j, and 0 + g*v turns its real part into 0.0
    density.OrbitCloud(BackwardShift(), (SeqVector.make("uni", {0: 1j}),), (-2 + 0j,)),
    (0,),
))
def test_section_coords_match_projected_samples(case):
    cloud, section = case
    want = _or_error(lambda: _flat_bits(density.project(p, section) for _, _, p in cloud.samples))
    assert _or_error(lambda: _hex(cloud.section_coords(section))) == want


def test_direct_sum_cloud_is_refused():
    op = DirectSum(BackwardShift(), ScalarOnC(0.5))
    cloud = generate_orbit(op, (e(2), 1.0 + 0j), ONE, 3, 1)
    with pytest.raises(UnsupportedOperatorError):
        cloud.section_coords((0,))
    with pytest.raises(UnsupportedOperatorError):
        epsilon_density(cloud, [0], [0j], 0.4, 0.3, 0.2)


def _net_fixture():
    """Build targets that form an exact lattice net of a disk in the e0
    coordinate, preceded by warm-up stages so the net residuals are small."""
    center = 0.1 + 0j
    radius = 0.4
    step = 0.2
    lattice = []
    for i in range(-2, 3):
        for j in range(-2, 3):
            z = center + complex(i * step, j * step)
            if abs(z - center) <= radius + 1e-12:
                lattice.append(z)
    warmups = [e(1), e(2), e(3), e(4)]
    targets = warmups + [SeqVector.make("uni", [(0, z)]) for z in lattice]
    fam = TargetFamily(tuple(targets))
    trace = build_unilateral(positive_ray(), fam, len(targets) - 1)
    return center, radius, step, lattice, trace


class TestEpsilonDensity:
    def test_self_cover(self):
        pts = [complex(a / 5, b / 5) for a in range(-5, 6) for b in range(-5, 6)]
        cloud = generate_orbit(ScalarOnC(1.0), 1.0 + 0j, FinitePoints(pts), 0, len(pts))
        rep = epsilon_density(cloud, [0], [0j], 0.8, 0.15, 0.2)
        assert rep.verdict == COVERED
        assert rep.covered_fraction == 1.0

    def test_construction_cloud_covers_target_net(self):
        center, radius, step, lattice, trace = _net_fixture()
        gammas = [complex(float(c.scalar.re), float(c.scalar.im)) for c in trace.choices]
        horizon = max(c.shift for c in trace.choices)
        cloud = generate_orbit(
            BackwardShift(), trace.partial_sum, FinitePoints(gammas), horizon, len(gammas)
        )
        rep = epsilon_density(cloud, [0], [center], radius, 0.15, step)
        assert rep.verdict == COVERED
        assert rep.covered_fraction == 1.0
        assert rep.grid_count == len(lattice)

    def test_far_ball_is_not_covered(self):
        cloud = generate_orbit(ScalarOnC(1.0), 1.0 + 0j, ONE, 0, 1)
        rep = epsilon_density(cloud, [0], [5.0 + 0j], 0.3, 0.2, 0.1)
        assert rep.verdict == NOT_COVERED
        assert rep.covered_count == 0
        assert rep.miss_witnesses
        # covered fraction agrees with the witness count
        assert rep.grid_count - rep.covered_count == len(rep.miss_witnesses)
        assert rep.covered_fraction == rep.covered_count / rep.grid_count
        # each row is a grid point's floats and its kernel distance, bit for bit
        grid, _ = density._ball_grid((5.0 + 0j,), 0.3, 0.1)
        rows = rep.heatmap_rows()
        assert [_hex(pt) for pt, _ in rows] == [_hex(pt) for pt in grid]
        flat_grid = [x for pt in grid for x in pt]
        assert _hex(d for _, d in rows) == _hex(density.nearest_distances(flat_grid, [1.0, 0.0], 2))

    def test_half_covered_ball_yields_witness(self):
        pts = [
            complex(a / 10, b / 10)
            for a in range(0, 6)
            for b in range(-5, 6)
            if abs(complex(a / 10, b / 10)) <= 0.45
        ]
        cloud = generate_orbit(ScalarOnC(1.0), 1.0 + 0j, FinitePoints(pts), 0, len(pts))
        rep = epsilon_density(cloud, [0], [0j], 0.4, 0.06, 0.1)
        assert rep.verdict == SOMEWHERE
        assert rep.witness_ball is not None
        assert 0 < rep.covered_fraction < 1

    def test_monotone_in_epsilon(self):
        cloud = generate_orbit(
            ScalarOnC(1.0), 1.0 + 0j, FinitePoints([0.1 + 0.1j, -0.2j, 0.3]), 0, 3
        )
        small = epsilon_density(cloud, [0], [0j], 0.35, 0.21, 0.4)
        big = epsilon_density(cloud, [0], [0j], 0.35, 0.42, 0.4)
        assert big.covered_count >= small.covered_count
        if small.verdict == COVERED:
            assert big.verdict == COVERED

    def test_precondition_checks(self):
        cloud = generate_orbit(ScalarOnC(1.0), 1.0 + 0j, ONE, 0, 1)
        with pytest.raises(ValueError):
            epsilon_density(cloud, [0], [0j], 0.4, 0.05, 0.2)  # eps <= step/2
        hollow = density.OrbitCloud(ScalarOnC(1.0), (), ())
        with pytest.raises(density.EmptyCloudError):
            epsilon_density(hollow, [0], [0j], 0.4, 0.3, 0.2)


def _witness_brute(grid, covered_flags, radius, grid_step):
    """Reference: each covered grid point against every grid point."""
    sub_r = max(2.0 * grid_step, radius / 4.0)
    sub_rsq = sub_r * sub_r * (1.0 + 1e-12)
    for i, pt in enumerate(grid):
        if not covered_flags[i]:
            continue
        count = 0
        good = True
        for j, other in enumerate(grid):
            if sum((a - b) ** 2 for a, b in zip(pt, other)) <= sub_rsq:
                count += 1
                if not covered_flags[j]:
                    good = False
                    break
        if good and count >= 3:
            return (density._floats_to_coords(pt), sub_r)
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.tuples(st.complex_numbers(max_magnitude=3.0), st.integers(2, 8)).map(
            lambda c: ((c[0],), c[1])
        ),
        st.tuples(st.complex_numbers(max_magnitude=3.0), st.complex_numbers(max_magnitude=3.0)).map(
            lambda c: (c, 2)
        ),
    ),
    st.floats(0.05, 1.0),
    st.floats(0.5, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_somewhere_witness_matches_full_scan(ball, radius, covered_share, seed):
    center, steps_per_radius = ball
    grid_step = radius / steps_per_radius
    grid, indices = density._ball_grid(center, radius, grid_step)
    rng = random.Random(seed)
    flags = [rng.random() < covered_share for _ in grid]
    found = density._somewhere_witness(grid, indices, flags, radius, grid_step)
    assert found == _witness_brute(grid, flags, radius, grid_step)


@st.composite
def _prefilter_case(draw):
    """A cloud of one- or two-coordinate samples around a ball: some far off,
    some with one coordinate at the prefilter's reach or one ulp past it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([1, 2]))
    center = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(width))
    radius = rng.uniform(0.05, 1.0)
    grid_step = radius / rng.randint(1, 6 if width == 1 else 2)
    epsilon = grid_step * rng.uniform(0.51, 2.0)
    reach = radius + epsilon
    axes = [x for z in center for x in (z.real, z.imag)]

    def coord(c):
        kind = rng.random()
        if kind < 0.15:
            edge = c + rng.choice([-reach, reach])
            return rng.choice([edge, math.nextafter(edge, c), math.nextafter(edge, -c)])
        return c + rng.uniform(-3.0, 3.0) * reach

    iterates = []
    for _ in range(draw(st.integers(1, 60))):
        parts = [coord(c) for c in axes]
        coords = map(complex, parts[::2], parts[1::2])
        iterates.append(SeqVector.make("uni", dict(enumerate(coords))))
    cloud = density.OrbitCloud(BackwardShift(), tuple(iterates), (1 + 0j,))
    return cloud, tuple(range(width)), center, radius, epsilon, grid_step


@settings(max_examples=200, deadline=None)
@given(_prefilter_case())
def test_prefilter_moves_only_distances_above_epsilon(case):
    # the kernel sees only the samples the bounding-box prefilter keeps, so a
    # distance above epsilon may be to a kept sample rather than the nearest
    cloud, section, center, radius, epsilon, grid_step = case
    rep = epsilon_density(cloud, section, center, radius, epsilon, grid_step)
    flat_grid = [x for pt in rep.grid_points for x in pt]
    full = density.nearest_distances(flat_grid, cloud.section_coords(section), 2 * len(section))
    assert [d <= epsilon for d in rep.distances] == [d <= epsilon for d in full]
    for got, want in zip(rep.distances, full):
        if want <= epsilon:
            assert got.hex() == want.hex()
        else:
            assert got >= want


class TestBoundedness:
    def test_backward_orbit_below_base_norm(self):
        x = SeqVector.make("uni", [(0, 1.0), (3, 2j), (7, -0.5)])
        sup, inf = boundedness_certificates(BackwardShift(), x, 20)
        assert sup == x.norm()
        assert inf == 0.0

    def test_weighted_shift_norms_by_hand(self):
        sup, inf = boundedness_certificates(WeightedBackward(doubling_weights()), be(1), 5)
        # norms along the orbit: 1, 2, 2, 2, 2, 2
        assert (sup, inf) == (2.0, 1.0)

    def test_scalar_growth(self):
        sup, inf = boundedness_certificates(ScalarOnC(2.0), 1.0 + 0j, 4)
        assert (sup, inf) == (16.0, 1.0)

    def test_number_base_point_becomes_a_point_of_c(self):
        assert boundedness_certificates(ScalarOnC(0.5), 1.0, 3) == (1.0, 0.125)


@st.composite
def _scalar_windows(draw):
    """(c, iterate n, horizon) for criterion 7's comparison at horizons up to
    998: |c|^(horizon + n) = 2^(+-e) with 1 <= e <= 1000, so every norm,
    inner product and multiplier of the orbit stays in float range, and |c|
    stays clear of the moduli within a few ulps of 1, where neighbouring
    multipliers merge."""
    horizon = draw(st.integers(1, 998))
    n = draw(st.integers(0, min(5, horizon)))
    e = draw(st.floats(1.0, 1000.0)) * draw(st.sampled_from([1, -1]))
    return cmath.rect(2.0 ** (e / (horizon + n)), draw(st.floats(-3.2, 3.2))), n, horizon


class TestLambdaEstimate:
    @pytest.mark.parametrize("c", [0.5 + 0j, 2.0 * cmath.exp(-1j)])
    def test_matches_scalar_oracle(self, c):
        horizon = 30
        for n in range(0, 6):
            est = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n, horizon, 1e-6)
            got = est.multipliers()
            want = scalar_lambda_oracle(c, n, horizon)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-6 * max(1.0, abs(w))

    @settings(max_examples=60, deadline=None)
    @given(_scalar_windows())
    @example((0.5 + 0j, 3, 600)).via("lam * lam overflows")
    @example((1.5 + 0j, 0, 998)).via("lam * lam underflows")
    def test_matches_scalar_oracle_to_the_float_range(self, case):
        c, n, horizon = case
        got = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n, horizon, 1e-6).multipliers()
        want = scalar_lambda_oracle(c, n, horizon)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-6 * max(1.0, abs(w))

    def test_unit_multiplier_always_detected(self):
        for n in range(0, 5):
            est = lambda_set_estimate(ScalarOnC(0.5 + 0j), 1.0 + 0j, n, 10, 1e-6)
            assert any(abs(lam - 1.0) <= 1e-12 for lam in est.multipliers())

    def test_oracle_window_monotonicity_exact(self):
        # the detected family grows with the iterate when the horizon moves
        # along with it, mirroring the unbounded tail
        for c in (0.5 + 0j, 2.0 * cmath.exp(-1j)):
            for n in range(0, 5):
                a = set(scalar_lambda_oracle(c, n, 30 + n))
                b = set(scalar_lambda_oracle(c, n + 1, 31 + n))
                assert a.issubset(b)

    def test_estimator_window_monotonicity(self):
        c = 0.5 + 0j
        for n in range(0, 4):
            got_a = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n, 20 + n, 1e-6).multipliers()
            got_b = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n + 1, 21 + n, 1e-6).multipliers()
            for lam in got_a:
                assert any(abs(lam - mu) <= 1e-9 * max(1.0, lam) for mu in got_b)

    def test_exact_members_multiply_on_the_oracle(self):
        # membership via integer exponents of |c| is closed under products
        horizon = 30
        n = 2
        exponents = set(range(0, horizon - n + 1))  # |c|^-j for j in this set
        for a in list(exponents)[:8]:
            for b in list(exponents)[:8]:
                if a + b <= horizon - n:
                    assert (a + b) in exponents

    def test_multiplicative_closure_report_on_dyadic_scalar(self):
        c = 0.5 + 0j
        est = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, 2, 12, 1e-9)
        exact = [lam for lam, slack in est.detected if slack == 0.0]
        assert exact  # powers of two give exactly zero slack
        report = density.multiplicative_closure_report(est)
        assert report["exact_members"] == exact
        small_products = [
            item for item in report["products"] if item["product"] <= max(est.multipliers())
        ]
        assert small_products and all(item["detected"] for item in small_products)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_closure_checks_the_two_neighbours_as_a_full_scan_would(self, data):
        exact = data.draw(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=5))
        vals = set(exact) | set(data.draw(st.lists(st.floats(1e-12, 1e12), max_size=10)))
        for a in exact:
            for b in exact:
                # a multiplier just inside or just outside the relative tolerance
                rel = data.draw(st.sampled_from([None, 0.0, 0.999e-9, 1e-9, 1.001e-9, 3e-9]))
                if rel is not None:
                    sign = data.draw(st.sampled_from([1.0, -1.0]))
                    vals.add(a * b + sign * rel * max(1.0, a * b))
        vals = {v for v in vals if v > 0}
        detected = tuple(sorted((v, 0.0 if v in exact else 0.5) for v in vals))
        est = density.LambdaEstimate(iterate=0, epsilon=0.0, phase_grid=1, detected=detected)
        scan = [
            any(abs(a * b - v) <= 1e-9 * max(1.0, abs(a * b)) for v in est.multipliers())
            for a in sorted(set(exact))
            for b in sorted(set(exact))
        ]
        report = density.multiplicative_closure_report(est)
        assert [item["detected"] for item in report["products"]] == scan

    @pytest.mark.parametrize(
        "n, horizon, phase_grid, field",
        [
            (1, -1, 360, "horizon"),
            (-1, -1, 0, "horizon"),  # horizon is checked first
            (-1, 5, 360, "iterate"),
            (6, 5, 360, "iterate"),
            (-1, 5, 0, "iterate"),  # then the iterate
            (1, 5, 0, "phase_grid"),
            (1, 5, -5, "phase_grid"),
        ],
    )
    def test_bad_arguments_are_refused_naming_their_field(self, n, horizon, phase_grid, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            lambda_set_estimate(ScalarOnC(0.5), 1.0 + 0j, n, horizon, 1e-6, phase_grid)

    def test_base_point_off_the_operator_domain_is_refused(self):
        from orbitlab import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            lambda_set_estimate(BackwardShift(), be(1), 0, 3, 0.1)

    @pytest.mark.parametrize(
        "x, n, m",
        [
            (1e300 + 0j, 0, 0),  # <x, x> overflows at once
            (1e150 + 0j, 0, 28),  # ||T^28 x|| = 2^28 * 1e150 fits; <T^28 x, x> does not
            (1.0 + 0j, 0, 1024),  # ||T^1024 x|| itself is inf
        ],
    )
    def test_non_finite_orbit_is_refused_naming_horizon_and_m(self, x, n, m):
        with pytest.raises(ValueError, match=rf"^horizon: at m = {m}, .* leaves float range$"):
            lambda_set_estimate(ScalarOnC(2.0), x, n, 1100, 1e-6)


def _lambda_reference(op, x, n, horizon, epsilon, phase_grid):
    """The estimate's detections as computed from the samples of an orbit
    cloud over the scalar grid {1}: one norm per sample, and one inner
    product per candidate and sample."""
    points = {m: p for m, _, p in generate_orbit(op, x, ONE, horizon, 1).samples}
    target = points[n]
    norm_t = vector_norm(target)
    if norm_t == 0:
        return ()
    ms = range(n, horizon + 1)
    norms = {m: vector_norm(points[m]) for m in ms}
    candidates = []
    for m in ms:
        if norms[m] > 0 and norm_t / norms[m] not in candidates:
            candidates.append(norm_t / norms[m])
    sector = 2.0 * math.pi / phase_grid
    detected = []
    for lam in candidates:
        best, hit = math.inf, False
        for m in ms:
            nu = norms[m]
            if nu == 0:
                continue
            if 2.0**-1022 <= lam * lam < math.inf:
                a = lam * lam * nu * nu + norm_t * norm_t
            else:  # the scan's fallback for a square out of the normal range
                a = (lam * nu) * (lam * nu) + norm_t * norm_t
            p = vector_inner(points[m], target)
            if abs(p) == 0:
                d2 = a
            else:
                theta = round((-math.atan2(p.imag, p.real)) / sector) * sector
                d2 = a - 2.0 * lam * (p * complex(math.cos(theta), math.sin(theta))).real
            dist = math.sqrt(d2) if d2 > 0 else 0.0
            best = min(best, dist)
            hit = hit or dist <= epsilon + (math.pi / phase_grid) * lam * nu
        if hit:
            detected.append((lam, best))
    return tuple(sorted(detected))


def _reportable_orbit(op, x, n, horizon):
    """Whether every ||T^m x|| and <T^m x, T^n x> for n <= m <= horizon is
    finite, and so is every multiplier ||T^n x|| / ||T^m x|| of nonzero norms."""
    target = power_apply(op, n, x)
    norm_t = vector_norm(target)
    for m in range(n, horizon + 1):
        u = power_apply(op, m, x)
        nu = vector_norm(u)
        if not (cmath.isfinite(nu) and cmath.isfinite(vector_inner(u, target))):
            return False
        if nu != 0 and norm_t != 0 and not math.isfinite(norm_t / nu):
            return False
    return True


# signed zeros, dyadic and non-dyadic parts, and a few that overflow
_ORBIT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e150, -1e300]),
    st.floats(-3.0, 3.0),
)
_ORBIT_COMPLEX = st.builds(complex, _ORBIT_PARTS, _ORBIT_PARTS)
_UNI_POINT = st.dictionaries(st.integers(0, 8), _ORBIT_COMPLEX, max_size=6).map(
    lambda d: SeqVector.make("uni", d)
)


@st.composite
def _lambda_case(draw):
    """An operator from the catalog, a base point on its domain, and the
    estimate's iterate, horizon, epsilon and phase grid."""
    c = draw(_ORBIT_COMPLEX)
    kind = draw(st.sampled_from(["scalar", "uni", "bi", "sum"]))
    if kind == "scalar":
        op, x = ScalarOnC(c), draw(_ORBIT_COMPLEX)
    elif kind == "uni":
        op, x = ScalarMultiple(c, BackwardShift()), draw(_UNI_POINT)
    elif kind == "bi":
        op = WeightedBackward(doubling_weights())
        x = SeqVector.make("bi", draw(st.dictionaries(st.integers(-4, 4), _ORBIT_COMPLEX)))
    else:
        op = DirectSum(ScalarOnC(c), ScalarMultiple(draw(_ORBIT_COMPLEX), BackwardShift()))
        x = (draw(_ORBIT_COMPLEX), draw(_UNI_POINT))
    horizon = draw(st.integers(0, 12))
    n = draw(st.integers(0, horizon))
    epsilon = draw(st.sampled_from([1e-9, 1e-6, 0.05, 0.5, 2.0]))
    return op, x, n, horizon, epsilon, draw(st.sampled_from([1, 2, 7, 90, 360]))


def _bits(detected):
    return [(lam.hex(), slack.hex()) for lam, slack in detected]


@settings(max_examples=400, deadline=None)
@given(_lambda_case())
@example((ScalarOnC(-0.5 - 0j), -1.0 - 0j, 3, 30, 1e-6, 360))  # signed-zero parts
@example((ScalarMultiple(2.0, BackwardShift()), e(5).add(e(2).scale(-0.5j)), 1, 8, 0.05, 90))
@example((ScalarMultiple(0.5j, BackwardShift()), e(4).scale(-0.0 - 1j), 0, 6, 0.5, 7))
# a multiplier 1e150 / 6.7e-183 past float range, though every norm is finite
@example((DirectSum(ScalarOnC(0j), ScalarMultiple(1.8826148143035846e-111j, BackwardShift())),
          (0j, SeqVector("uni", ((3, 1e150j),))), 0, 3, 1e-9, 1))
def test_estimate_matches_the_sampled_cloud_bit_for_bit(case):
    op, x, n, horizon, epsilon, phase_grid = case
    try:
        got = lambda_set_estimate(op, x, n, horizon, epsilon, phase_grid)
    except ValueError as exc:
        assert str(exc).startswith("horizon: ")
        assert not _reportable_orbit(op, x, n, horizon)
        return
    want = _lambda_reference(op, x, n, horizon, epsilon, phase_grid)
    assert _bits(got.detected) == _bits(want)


class TestScalarGrid:
    def test_grids_are_members(self):
        from orbitlab import Annulus, Arc, Circle, LogSpiral, Sector, Union

        sets = [
            Circle(2.0),
            Arc(1.0, 0.2, 1.0),
            Annulus(1.0, 3.0),
            Sector(0.0, math.inf, 0.0, 1.0),
            LogSpiral(2.0, IRR),
            Union(Circle(1.0), Circle(3.0)),
        ]
        for s in sets:
            for z in s.scalar_grid(25):
                assert s.contains(z, 1e-6)

    def test_grid_sizes(self):
        from orbitlab import Circle

        assert len(ONE.scalar_grid(5)) == 1  # finite sets cap at their size
        assert len(Circle(1.0).scalar_grid(7)) == 7
