"""Grid-scan kernels: hand-checked minima, argument checks, and bitwise
equality with the dense scans they prune."""

import math
import random
import time
import types

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import _kernels
from orbitlab._kernels import _eval_error, nearest_distances, spiral_min_scan
from orbitlab.constructions import build_spiral_scenario, spiral_distance_to
from orbitlab.scalar_sets import AngleSpec


def _nearest_brute(grid, cloud, dim):
    """Reference: every grid point against every cloud point."""
    m = len(cloud) // dim
    dists = []
    for i in range(len(grid) // dim):
        base = i * dim
        best = math.inf
        for j in range(m):
            off = j * dim
            s = 0.0
            for d in range(dim):
                t = grid[base + d] - cloud[off + d]
                s += t * t
            if s < best:
                best = s
        dists.append(math.sqrt(best))
    return dists


def _spiral_brute(log_base, angle_rate, target_re, target_im, s_start, step, count, first=0):
    """Reference: every grid index from first to count - 1; the first
    minimal index wins."""
    best = math.inf
    best_i = first
    for i in range(first, count):
        s = s_start + i * step
        m = math.exp(s * log_base)
        re = m * math.cos(s * angle_rate) - target_re
        im = -m * math.sin(s * angle_rate) - target_im
        d2 = re * re + im * im
        if d2 < best:
            best = d2
            best_i = i
    return best_i, math.sqrt(best)


def _bits(xs):
    return [x.hex() for x in xs]


class TestPythonBackend:
    def test_nearest_by_hand(self):
        assert nearest_distances([0.0, 0.0], [3.0, 4.0, 1.0, 0.0], 2) == [1.0]

    def test_spiral_scan_hits_origin_parameter(self):
        idx, dist = spiral_min_scan(math.log(2.0), 1.0, 1.0, 0.0, -2.0, 0.125, 33)
        assert idx == 16  # s = 0 on the grid
        assert dist <= 1e-12

    def test_spiral_tie_takes_first_index(self):
        # base 1 and rate 0: every grid point is the same point
        assert spiral_min_scan(0.0, 0.0, 0.5, 0.5, -3.0, 0.01, 1000) == (0, math.sqrt(0.5))

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            nearest_distances([0.0, 0.0], [], 2)
        with pytest.raises(ValueError):
            spiral_min_scan(0.5, 1.0, 0.0, 0.0, 0.0, 0.1, 0)


@st.composite
def _nearest_case(draw):
    """Clouds of up to 400 points whose coordinates force exact ties:
    repeated values, a cluster 2**-70 wide around 0 whose distances to a far
    query round to the same float, duplicate points, and grid points that
    are cloud points."""
    dim = draw(st.sampled_from([2, 4, 6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def coord():
        kind = rng.random()
        if kind < 0.3:
            return rng.choice([0.0, 0.5, -0.5, 1.0])
        if kind < 0.5:
            return rng.randint(-4, 4) * 2.0**-70
        return rng.uniform(-2.0, 2.0)

    cloud = [tuple(coord() for _ in range(dim)) for _ in range(draw(st.integers(1, 320)))]
    cloud += [rng.choice(cloud) for _ in range(len(cloud) // 4)]
    grid = [
        rng.choice(cloud) if rng.random() < 0.3 else tuple(coord() for _ in range(dim))
        for _ in range(draw(st.integers(1, 30)))
    ]
    return [v for p in grid for v in p], [v for p in cloud for v in p], dim


@settings(max_examples=200, deadline=None)
@given(_nearest_case())
def test_nearest_matches_dense_scan(case):
    assert _bits(nearest_distances(*case)) == _bits(_nearest_brute(*case))


@st.composite
def _spiral_case(draw):
    base = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
    log_base = math.log(base)
    rate = draw(st.floats(-3.0, 3.0))
    step = draw(st.floats(1e-4, 0.05))
    count = draw(st.integers(1, 3000))
    s_start = draw(st.floats(-10.0, 5.0))
    kind = draw(st.sampled_from(["on", "grid", "off"]))
    if kind == "off":
        target = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    else:
        if kind == "grid":  # exactly a grid parameter
            t = s_start + draw(st.integers(0, count - 1)) * step
        else:
            t = draw(st.floats(s_start, s_start + count * step))
        perturb = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
        target = math.exp(t * log_base) * complex(math.cos(t * rate), -math.sin(t * rate))
        target *= complex(1.0 + perturb, perturb)
    return log_base, rate, target.real, target.imag, s_start, step, count


@settings(max_examples=300, deadline=None)
@given(_spiral_case())
def test_spiral_matches_dense_scan(case):
    idx, dist = spiral_min_scan(*case)
    ref_idx, ref_dist = _spiral_brute(*case)
    assert (idx, dist.hex()) == (ref_idx, ref_dist.hex())


_U = 2.0**-53


@pytest.mark.parametrize("base", [2.0, 0.5])
@pytest.mark.parametrize("rate", [1.0, -0.7, 1e3])
@pytest.mark.parametrize("s", [-20.0, -7.3, -1e-3, 0.1, 13.7, 20.0])
def test_error_budget_dominates_true_error(base, rate, s):
    mpmath.mp.dps = 60
    log_base = math.log(base)
    on_spiral = math.exp(s * log_base) * complex(math.cos(s * rate), -math.sin(s * rate))
    exact_rho = mpmath.exp(mpmath.mpf(s) * mpmath.mpf(log_base))
    rho = float(exact_rho) * (1.0 + 4 * _U)
    for z in (1.0 + 0.0j, -3.5 + 2.0j, on_spiral, on_spiral * (1.0 + 1e-9)):
        _, computed = spiral_min_scan(log_base, rate, z.real, z.imag, s, 1.0, 1)
        phase = mpmath.mpf(s) * mpmath.mpf(rate)
        point = mpmath.mpc(exact_rho * mpmath.cos(phase), -exact_rho * mpmath.sin(phase))
        true = abs(point - mpmath.mpc(z.real, z.imag))
        err = _eval_error(rho, abs(s), abs(log_base) + abs(rate), abs(z.real) + abs(z.imag))
        assert abs(mpmath.mpf(computed) - true) <= err


@pytest.mark.parametrize("rate", [1.0, -0.7, 1e3])
@pytest.mark.parametrize("s", [-537.5, -537.2, -536.0])
def test_error_budget_covers_subnormal_squares(rate, s):
    # modulus near 2**-537: re*re and im*im fall among the subnormals
    mpmath.mp.dps = 60
    log_base = math.log(2.0)
    exact_rho = mpmath.exp(mpmath.mpf(s) * mpmath.mpf(log_base))
    rho = float(exact_rho) * (1.0 + 4 * _U)
    _, computed = spiral_min_scan(log_base, rate, 0.0, 0.0, s, 1.0, 1)
    err = _eval_error(rho, abs(s), abs(log_base) + abs(rate), 0.0)
    assert abs(mpmath.mpf(computed) - exact_rho) <= err


@pytest.mark.parametrize(
    "s_target, s_start, count",
    [
        # squares overflow at the upper midpoints although the minimum is finite
        (508.0, 480.0, 5001),
        (508.37, 500.0, 1001),
        # squares of the components fall among the subnormals
        (-540.0, -560.0, 4001),
        (-530.2, -545.0, 3001),
    ],
)
@pytest.mark.parametrize("perturb", [0.0, 1e-9])
def test_spiral_extreme_moduli_match_dense_scan(s_target, s_start, count, perturb):
    log_base = math.log(2.0)
    t = 2.0**s_target * complex(math.cos(s_target), -math.sin(s_target)) * (1.0 + perturb)
    case = (log_base, 1.0, t.real, t.imag, s_start, 0.01, count)
    idx, dist = spiral_min_scan(*case)
    ref_idx, ref_dist = _spiral_brute(*case)
    assert (idx, dist.hex()) == (ref_idx, ref_dist.hex())


def test_four_billion_point_scan_returns_quickly(monkeypatch):
    # every grid evaluation and every interval bound calls exp once
    counting = types.SimpleNamespace(**vars(math))
    exp_calls = 0

    def exp(x):
        nonlocal exp_calls
        exp_calls += 1
        return math.exp(x)

    counting.exp = exp
    monkeypatch.setattr(_kernels, "math", counting)
    scenario = build_spiral_scenario(2.0, AngleSpec.irrational(1.0))
    start = time.perf_counter()
    result = spiral_distance_to(scenario, -1, (-20.0, 20.0), 1e-8)
    assert exp_calls <= 1_000_000
    assert time.perf_counter() - start < 30.0
    monkeypatch.undo()
    idx = round((result.argmin_s + 20.0) / 1e-8)
    assert -20.0 + idx * 1e-8 == result.argmin_s
    window = _spiral_brute(math.log(2.0), 1.0, -1.0, 0.0, -20.0, 1e-8, idx + 2001, first=idx - 2000)
    assert window == (idx, result.distance)
