"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import cmath
import math
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import orbitlab as ol
from orbitlab import cli, jsonio
from orbitlab._exact import X2

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
IRR = ol.AngleSpec.irrational(1.0, "one radian")

# frozen first-run fixtures
SPIRAL_DELTA = 0.8627708680493394  # min |2^s e^{-is} + 1|, s in [-20, 20], step 1e-4
PROP22_ORBIT_FLOOR = 0.251953132396434  # min ||B_w^n x|| over n <= 200, K = 15 build


@contextmanager
def criterion(num: int, budget: float, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {num} PASS ({elapsed:.3f}s < {budget}s): {label}")


def test_criterion_1_classification_table():
    with criterion(1, 1.0, "classification verdicts for the six scalar-set fixtures"):
        fixtures = [
            (ol.Circle(1.0), True, True),
            (ol.Annulus(1.0, 2.0), True, False),
            (ol.Union(ol.Circle(1.0), ol.Circle(3.0)), True, True),
            (ol.positive_ray(), False, False),
            (ol.Geometric(0.5), False, False),
            (ol.Scaled(5j, ol.Circle(1.0)), True, True),
        ]
        for scalar_set, hyper, somewhere in fixtures:
            res = ol.classify(scalar_set)
            assert res.is_hypercyclic_scalar_set is hyper
            assert res.is_somewhere_hypercyclic_scalar_set is somewhere


def test_criterion_2_unilateral_build():
    with criterion(2, 2.0, "unilateral construction: certified residuals at K=20"):
        family = ol.default_target_family(21, "uni")
        trace = ol.build_unilateral(ol.positive_ray(), family, 20)
        for k, rsq in enumerate(trace.residual_sq_exact):
            assert rsq <= X2.pow2(-2 * k)  # residual_k <= 2^-k, exactly
        for cond in trace.conditions:
            assert cond["target_small"]
            assert cond["dominates_previous"]
            assert cond["shift_gap"]
        horizon = max(c.shift for c in trace.choices) + 2
        sup, _ = ol.boundedness_certificates(ol.BackwardShift(), trace.partial_sum, horizon)
        assert sup <= trace.partial_sum.norm()


def test_criterion_3_bilateral_build():
    with criterion(3, 5.0, "bilateral construction: certified residuals and orbit floor"):
        family = ol.default_target_family(16, "bi")
        trace = ol.build_bilateral(ol.Geometric(0.5), family, 15)
        for k, rsq in enumerate(trace.residual_sq_exact):
            bound = X2.from_int((k + 1) * (k + 1)) * X2.pow2(-2 * k)
            assert rsq <= bound  # residual_k <= (k+1) 2^-k, exactly
        op = ol.WeightedBackward(ol.doubling_weights())
        _, floor = ol.boundedness_certificates(op, trace.partial_sum, 200)
        assert floor > 0
        assert abs(floor - PROP22_ORBIT_FLOOR) <= 1e-12


def test_criterion_4_spiral_counterexample():
    with criterion(4, 10.0, "spiral scenario: dense set product, distance gap, spectrum"):
        scenario = ol.build_spiral_scenario(2.0, IRR)
        # (a) the rotation-closed scalar set is dense in the plane
        spread = ol.rotation_group_product(scenario.scalar_set, IRR)
        assert ol.is_dense_in_plane(spread)
        # (b) the spiral stays away from -1 and the orbit cloud misses its ball
        dist = ol.spiral_distance_to(scenario, -1.0 + 0j, (-20.0, 20.0), 1e-4)
        assert dist.distance > 0
        assert abs(dist.distance - SPIRAL_DELTA) <= 1e-12
        assert dist.tail_low_margin > dist.distance
        assert dist.tail_high_margin > dist.distance
        delta = dist.distance
        cloud = ol.generate_orbit(scenario.operator, 1.0 + 0j, scenario.scalar_set, 50, 100)
        report = ol.epsilon_density(
            cloud, [0], [-1.0 + 0j], delta / 2, delta / 2, delta / 20
        )
        assert report.verdict == "not_covered"
        assert report.covered_count == 0
        # (c) adjoint point spectrum is exactly {2 e^{i}}
        assert ol.adjoint_point_spectrum(scenario.operator) == frozenset({2.0 * cmath.exp(1j)})


def test_criterion_5_criterion_checks():
    with criterion(5, 1.0, "hypercyclicity criterion: Rolewicz passes, guards reject"):
        basis = tuple(ol.SeqVector.basis(j, "uni") for j in range(6))
        rolewicz = ol.CriterionInstance(
            operator=ol.ScalarMultiple(2.0, ol.BackwardShift()),
            right_inverse=ol.ScalarMultiple(0.5, ol.ForwardShift()),
            decay_vectors=basis,
            target_vectors=basis,
            indices=tuple(range(41)),
            tolerance=1e-9,
        )
        report = ol.check_criterion(rolewicz)
        assert report.passes
        assert all(v == 0.0 for v in report.traces[0][6:])  # r1 exactly 0 past k=5
        assert all(v == 0.0 for v in report.traces[2])  # r3 identically 0
        for k, v in enumerate(report.traces[1]):
            assert v == 2.0 ** -k  # r2 exactly 2^-k

        shift_only = ol.CriterionInstance(
            operator=ol.BackwardShift(),
            right_inverse=ol.ForwardShift(),
            decay_vectors=basis,
            target_vectors=basis,
            indices=tuple(range(41)),
            tolerance=1e-9,
        )
        assert not ol.check_criterion(shift_only).passes  # isometric inverse never decays

        expanding = ol.CriterionInstance(
            operator=ol.ScalarOnC(2.0),
            right_inverse=ol.ScalarOnC(0.5),
            decay_vectors=(1.0 + 0j,),
            target_vectors=(1.0 + 0j,),
            indices=tuple(range(41)),
            tolerance=1e-9,
        )
        failed = ol.check_criterion(expanding)
        assert not failed.passes
        assert not failed.tail_nonincreasing[0]  # caught by the trend guard


def test_criterion_6_winding_suite():
    with criterion(6, 1.0, "winding numbers: closed forms, sampled circle, audits"):
        for b in (1.5, 2.0, 10.0):
            assert ol.unit_circle_param(1.0, b) == 1.0 + 0j
            assert ol.unit_circle_param(b, b) == 1.0 + 0j
            assert ol.unit_circle_param((1.0 + b) / 2.0, b) == -1.0 + 0j
            res = ol.winding_number(ol.ParamSegment(b, b, 1.0))
            assert res.index == -1
        circle = ol.SampledCurve(
            [cmath.exp(2j * math.pi * k / 720) for k in range(721)]
        )
        got = ol.winding_number(circle)
        assert got.index == 1 and got.confident

        rng = random.Random(99)
        pool = [
            circle,
            ol.SampledCurve([cmath.exp(-2j * math.pi * k / 720) for k in range(721)]),
            ol.ConstantCurve(1.0),
            ol.ParamSegment(2.0, 2.0, 1.0),
        ]
        for _ in range(10):
            parts = [rng.choice(pool) for _ in range(rng.randrange(2, 6))]
            assert ol.concat_additivity_check(parts)

        assert ol.contradiction_audit([3, 5]).verdict == "contradiction"
        for n in (1, 2, 5, 17):
            assert ol.contradiction_audit([n, n + 1]).verdict == "contradiction"


def test_criterion_7_multiplier_oracle():
    with criterion(7, 2.0, "multiplier estimates match the scalar closed form"):
        horizon = 30
        for c in (2.0 * cmath.exp(-1j), 0.5 + 0j):
            for n in range(0, 6):
                est = ol.lambda_set_estimate(ol.ScalarOnC(c), 1.0 + 0j, n, horizon, 1e-6)
                got = est.multipliers()
                want = ol.scalar_lambda_oracle(c, n, horizon)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-6 * max(1.0, abs(w))
            # monotone family: the window advances with the iterate
            for n in range(0, 5):
                assert set(ol.scalar_lambda_oracle(c, n, horizon + n)).issubset(
                    set(ol.scalar_lambda_oracle(c, n + 1, horizon + n + 1))
                )


_TS = re.compile(rb'"generated_at": "[^"]*"')


def test_criterion_8_determinism(tmp_path):
    with criterion(8, 60.0, "re-running the fixture configs reproduces reports"):
        names = [
            "build21",
            "build22",
            "spiral",
            "spiral_density",
            "criterion_rolewicz",
            "winding_segment",
            "lambda_scalar",
        ]
        for name in names:
            cfg = jsonio.loads((CONFIG_DIR / f"{name}.json").read_text())
            cli.run_config(cfg, out_dir=tmp_path / name / "a", emit_csv=True)
            cli.run_config(cfg, out_dir=tmp_path / name / "b", emit_csv=True)
            a_dir, b_dir = tmp_path / name / "a", tmp_path / name / "b"
            a = _TS.sub(b"", (a_dir / "report.json").read_bytes())
            b = _TS.sub(b"", (b_dir / "report.json").read_bytes())
            assert a == b, f"report for {name} not reproducible"
            for csv in sorted(a_dir.glob("*.csv")):
                assert csv.read_bytes() == (b_dir / csv.name).read_bytes()
