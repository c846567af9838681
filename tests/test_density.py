"""Orbit clouds, epsilon-density verdicts, d-density, multiplier estimates."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    AngleSpec,
    BackwardShift,
    FinitePoints,
    ScalarMultiple,
    ScalarOnC,
    SeqVector,
    TargetFamily,
    WeightedBackward,
    boundedness_certificates,
    build_spiral_scenario,
    build_unilateral,
    d_dense_check,
    doubling_weights,
    epsilon_density,
    generate_orbit,
    lambda_set_estimate,
    positive_ray,
    scalar_lambda_oracle,
)
from orbitlab import density
from orbitlab.density import COVERED, NOT_COVERED, SOMEWHERE
from orbitlab.operators import power_apply, vector_scale

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
            assert p == vector_scale(g, power_apply(cloud.operator, n, cloud.base_point))

    def test_domain_checks(self):
        from orbitlab import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            generate_orbit(BackwardShift(), be(0), ONE, 2, 1)


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

    def test_net_cloud_is_d_dense(self):
        center, radius, step, lattice, trace = _net_fixture()
        gammas = [complex(float(c.scalar.re), float(c.scalar.im)) for c in trace.choices]
        horizon = max(c.shift for c in trace.choices)
        cloud = generate_orbit(
            BackwardShift(), trace.partial_sum, FinitePoints(gammas), horizon, len(gammas)
        )
        rng = random.Random(11)
        centers = []
        for _ in range(50):
            a = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0, radius - 0.05)
            centers.append((center + r * cmath.exp(1j * a),))
        res = d_dense_check(cloud, [0], 0.25, centers)
        assert res.ok
        lonely = d_dense_check(cloud, [0], 0.25, [(complex(50.0, 0.0),)])
        assert not lonely.ok and len(lonely.witnesses) == 1

    def test_single_point_cloud_misses_disjoint_balls(self):
        cloud = generate_orbit(ScalarOnC(1.0), 1.0 + 0j, ONE, 0, 1)
        res = d_dense_check(cloud, [0], 0.5, [(5.0 + 0j,), (-5.0 + 0j,)])
        assert not res.ok and len(res.witnesses) == 2
        near = d_dense_check(cloud, [0], 0.5, [(1.2 + 0j,)])
        assert near.ok

    def test_far_ball_is_not_covered(self):
        cloud = generate_orbit(ScalarOnC(1.0), 1.0 + 0j, ONE, 0, 1)
        rep = epsilon_density(cloud, [0], [5.0 + 0j], 0.3, 0.2, 0.1)
        assert rep.verdict == NOT_COVERED
        assert rep.covered_count == 0
        assert rep.miss_witnesses
        # covered fraction agrees with the witness count
        assert rep.grid_count - rep.covered_count == len(rep.miss_witnesses)
        assert rep.covered_fraction == rep.covered_count / rep.grid_count
        assert len(rep.heatmap_rows()) == rep.grid_count

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
        hollow = density.OrbitCloud(1.0 + 0j, ScalarOnC(1.0), (), 0, 0)
        with pytest.raises(density.EmptyCloudError):
            epsilon_density(hollow, [0], [0j], 0.4, 0.3, 0.2)
        with pytest.raises(density.EmptyCloudError):
            d_dense_check(hollow, [0], 0.5, [(0j,)])


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


class TestLambdaEstimate:
    @pytest.mark.parametrize("c", [0.5 + 0j, 2.0 * cmath.exp(-1j)])
    def test_matches_scalar_oracle(self, c):
        horizon = 30
        cloud = generate_orbit(ScalarOnC(c), 1.0 + 0j, ONE, horizon, 1)
        for n in range(0, 6):
            est = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n, cloud, 1e-6)
            got = est.multipliers()
            want = scalar_lambda_oracle(c, n, horizon)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-6 * max(1.0, abs(w))

    def test_unit_multiplier_always_detected(self):
        cloud = generate_orbit(ScalarOnC(0.5 + 0j), 1.0 + 0j, ONE, 10, 1)
        for n in range(0, 5):
            est = lambda_set_estimate(ScalarOnC(0.5 + 0j), 1.0 + 0j, n, cloud, 1e-6)
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
            cloud_a = generate_orbit(ScalarOnC(c), 1.0 + 0j, ONE, 20 + n, 1)
            cloud_b = generate_orbit(ScalarOnC(c), 1.0 + 0j, ONE, 21 + n, 1)
            got_a = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n, cloud_a, 1e-6).multipliers()
            got_b = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, n + 1, cloud_b, 1e-6).multipliers()
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
        cloud = generate_orbit(ScalarOnC(c), 1.0 + 0j, ONE, 12, 1)
        est = lambda_set_estimate(ScalarOnC(c), 1.0 + 0j, 2, cloud, 1e-9)
        exact = [lam for lam, slack in est.detected if slack == 0.0]
        assert exact  # powers of two give exactly zero slack
        report = density.multiplicative_closure_report(est)
        assert report["exact_members"] == exact
        small_products = [
            item for item in report["products"] if item["product"] <= max(est.multipliers())
        ]
        assert small_products and all(item["detected"] for item in small_products)

    def test_rejects_non_unit_scalar_grid(self):
        cloud = generate_orbit(ScalarOnC(0.5 + 0j), 1.0 + 0j, FinitePoints([2.0]), 5, 1)
        with pytest.raises(ValueError):
            lambda_set_estimate(ScalarOnC(0.5 + 0j), 1.0 + 0j, 1, cloud, 1e-6)


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
