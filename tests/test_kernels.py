"""Grid-scan kernels: hand-checked minima, argument checks, and bitwise
equality with the dense scans they prune."""

import cmath
import functools
import math
import random
import sys
import time
import types

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlab import _kernels, density
from orbitlab._kernels import _eval_error, nearest_distances, spiral_min_scan
from orbitlab.constructions import build_spiral_scenario, spiral_distance_to
from orbitlab.operators import ScalarOnC
from orbitlab.scalar_sets import AngleSpec, LogSpiral


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


# lattice queries per radius for each dim, so that a ball grid stays small
_LATTICE_STEPS = {2: 6, 4: 2, 6: 1, 8: 1}


def _tie_coord(rng):
    """A coordinate that forces exact ties: a repeated value, a point of the
    cluster 2**-70 wide around 0, now and then inf or nan, else uniform."""
    kind = rng.random()
    if kind < 0.01:
        return rng.choice([math.inf, -math.inf, math.nan])
    if kind < 0.3:
        return rng.choice([0.0, 0.5, -0.5, 1.0])
    if kind < 0.5:
        return rng.randint(-4, 4) * 2.0**-70
    return rng.uniform(-2.0, 2.0)


@st.composite
def _nearest_case(draw):
    """Clouds of up to 400 points whose coordinates force exact ties:
    repeated values, a cluster 2**-70 wide around 0 whose distances to a far
    query round to the same float, duplicate points, and grid points that
    are cloud points. A few coordinates are infinite or nan. Half the grids
    are ball grids in the lattice order density._ball_grid emits, which
    carries the warm start from each query to its neighbour."""
    dim = draw(st.sampled_from([1, 2, 4, 6, 8]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    coord = functools.partial(_tie_coord, rng)
    cloud = [tuple(coord() for _ in range(dim)) for _ in range(draw(st.integers(1, 320)))]
    cloud += [rng.choice(cloud) for _ in range(len(cloud) // 4)]
    if dim % 2 == 0 and draw(st.booleans()):
        center = [complex(coord(), coord()) for _ in range(dim // 2)]
        radius = rng.uniform(0.05, 2.0)
        steps = draw(st.integers(1, _LATTICE_STEPS[dim]))
        grid, _ = density._ball_grid(center, radius, radius / steps)
    else:
        grid = [
            rng.choice(cloud) if rng.random() < 0.3 else tuple(coord() for _ in range(dim))
            for _ in range(draw(st.integers(1, 30)))
        ]
    return [v for p in grid for v in p], [v for p in cloud for v in p], dim


@settings(max_examples=300, deadline=None)
@given(_nearest_case())
def test_nearest_matches_dense_scan(case):
    assert _bits(nearest_distances(*case)) == _bits(_nearest_brute(*case))


@st.composite
def _lattice_case(draw):
    """Ball grids of 50 to 900 queries in dims 2 and 4 against clouds small
    enough that nearest_distances takes lattice rows, with the coordinates of
    _nearest_case; a center coordinate that is inf or nan makes that axis of
    every query inf or nan."""
    dim = draw(st.sampled_from([2, 4]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cloud = [tuple(_tie_coord(rng) for _ in range(dim)) for _ in range(draw(st.integers(1, 48)))]
    cloud += [rng.choice(cloud) for _ in range(len(cloud) // 4)]
    center = [complex(_tie_coord(rng), _tie_coord(rng)) for _ in range(dim // 2)]
    radius = rng.uniform(0.05, 2.0)
    steps = draw(st.integers(4, 16) if dim == 2 else st.integers(2, 3))
    grid, _ = density._ball_grid(center, radius, radius / steps)
    return [v for p in grid for v in p], [v for p in cloud for v in p], dim


def _each_path(grid, cloud, dim):
    """The kd search and the lattice rows, each called on the finite cloud
    points as nearest_distances hands them over."""
    points = [p for p in zip(*[iter(cloud)] * dim) if all(map(math.isfinite, p))]
    assume(points)
    kd = _kernels._search(dim)(grid, _kernels._kd_build(points, 0, dim), points[0])
    return kd, _kernels._rows(grid, points, dim)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_nearest_case(), _lattice_case()))
def test_each_path_matches_dense_scan(case):
    want = _bits(_nearest_brute(*case))
    for got in _each_path(*case):
        assert _bits(got) == want


def _lattice(center, radius, step):
    return [v for p in density._ball_grid(center, radius, step)[0] for v in p]


def test_rule_takes_rows_for_a_small_cloud_and_kd_for_a_large_one():
    # density_2b_section: 166 kept samples against a 1,281-point 4-D lattice
    golden = math.pi * (3.0 - math.sqrt(5.0))
    grid = _lattice((cmath.rect(0.75, 0.0), cmath.rect(0.75, golden)), 0.35, 0.35 / 4)
    assert len(grid) == 4 * 1281
    assert _kernels._rows_pay(grid, 166, 4)
    # density_1d: 4,573 kept samples against a 1,257-point lattice in C
    grid = _lattice((0j,), 1.0, 0.05)
    assert len(grid) == 2 * 1257
    assert not _kernels._rows_pay(grid, 4573, 2)
    # rows pay only when they are reused: queries off any lattice take kd
    rng = random.Random(5)
    assert not _kernels._rows_pay([rng.random() for _ in range(4 * 1281)], 166, 4)


def _scanned(grid, cloud, dim, axis):
    """Coordinate `axis` of every cloud point whose distance the search
    evaluates, read from the generated search's locals by a line tracer."""
    line = next(
        i + 1 for i, text in enumerate(_kernels._SEARCH.splitlines()) if text.strip().startswith("s = ")
    )
    seen = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            seen.append(frame.f_locals[f"p{axis}"])
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith("<nearest search") else None

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        nearest_distances(grid, cloud, dim)
    finally:
        sys.settrace(outer)
    return seen


@pytest.mark.parametrize("dim, axis", [(d, a) for d in (2, 4, 8) for a in range(d)])
def test_bound_prunes_a_cluster_apart_on_any_one_axis(dim, axis):
    # the far cluster copies the near one 100 away along one axis only, so a
    # bound that left that axis out could not tell the two apart
    rng = random.Random(dim * 100 + axis)
    near = [tuple(rng.random() for _ in range(dim)) for _ in range(6 * 2**dim + 50)]
    far = [tuple(x + 100.0 * (d == axis) for d, x in enumerate(p)) for p in near]
    queries = [rng.random() for _ in range(20 * dim)]
    seen = _scanned(queries, [v for p in near + far for v in p], dim, axis)
    assert sum(x > 50.0 for x in seen) * 10 < len(seen)


def _nodes(node):
    """Every node of the subtree under node, node first."""
    yield node
    if node[2] is None:
        yield from _nodes(node[0])
        yield from _nodes(node[1])


def _held(node):
    return [p for n in _nodes(node) if n[2] is not None for p in n[2]]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8]),
    st.one_of(st.integers(1, _kernels._LEAF_POINTS), st.integers(1, 700)),
    st.data(),
)
def test_kd_tree_holds_the_cloud_in_boxed_median_split_leaves(dim, n, data):
    # finite coordinates with the ties of _tie_coord, as nearest_distances
    # hands the tree only finite points
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    points = [tuple(x if math.isfinite(x) else 0.0 for x in (_tie_coord(rng) for _ in range(dim)))
              for _ in range(n)]
    root = _kernels._kd_build(points, data.draw(st.integers(0, dim - 1)), dim)
    leaves = [node[2] for node in _nodes(root) if node[2] is not None]
    assert all(0 < len(leaf) <= _kernels._LEAF_POINTS for leaf in leaves)
    assert sorted(p for leaf in leaves for p in leaf) == sorted(points)
    for node in _nodes(root):
        held = _held(node)
        assert list(node[3:]) == [f(c) for c in zip(*held) for f in (min, max)]
        if node[2] is None:  # two halves of a median split on some axis
            a, b = _held(node[0]), _held(node[1])
            assert len(b) - len(a) in (0, 1)
            assert any(max(p[d] for p in a) <= min(p[d] for p in b) for d in range(dim))


def _density_1d_cloud():
    """The 4,573 samples that the benchmark's density_1d job keeps: the orbit
    of 1 under (1/2)e^{i} on C, scaled by 100 points of the log spiral
    2^t e^{-it}, within 1.04 of 0 on both axes."""
    op = ScalarOnC(complex(0.5 * math.cos(1.0), 0.5 * math.sin(1.0)))
    spiral = LogSpiral(2.0, AngleSpec.irrational(1.0, "one radian"))
    flat = density.generate_orbit(op, 1.0 + 0j, spiral, 50, 100).section_coords((0,))
    return [v for p in zip(flat[::2], flat[1::2]) if max(map(abs, p)) <= 1.04 for v in p]


def test_kd_work_on_the_density_1d_cloud(monkeypatch):
    # counts, not times: the tree sorts each axis once (1 + 32 runs at depth
    # 9, dealt 5 levels to axis 0 and 4 to axis 1), and the search evaluates
    # no more points per query than a tree re-sorted at every node did (33.2)
    cloud, grid = _density_1d_cloud(), _lattice((0j,), 1.0, 0.05)
    queries = len(grid) // 2
    assert (len(cloud) // 2, queries) == (4573, 1257)
    sorts = []
    monkeypatch.setattr(_kernels, "sorted", lambda *a, **k: sorts.append(1) or sorted(*a, **k),
                        raising=False)
    seen = _scanned(grid, cloud, 2, 0)
    assert len(sorts) == 33
    assert queries <= len(seen) <= 33.2 * queries


def _spiral_target(draw, log_base, rate, s_start, step, count):
    """A target exactly at a grid point, on the spiral within the grid's
    range, half a turn out between two of its arms, or off it; the first
    two perturbed by a relative 0, 1e-12 or 1e-6."""
    kind = draw(st.sampled_from(["on", "grid", "between", "off"]))
    if kind == "off":
        return complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    if kind == "grid":  # exactly a grid parameter
        t = s_start + draw(st.integers(0, count - 1)) * step
    else:
        t = draw(st.floats(s_start, s_start + count * step))
    if kind == "between":
        # the arms through the angle of t's point lie 2 pi / |rate| apart in s
        assume(abs(rate) >= 0.25)
        t_out = t + math.pi / abs(rate)
        return math.exp(t_out * log_base) * complex(math.cos(t * rate), -math.sin(t * rate))
    perturb = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
    target = math.exp(t * log_base) * complex(math.cos(t * rate), -math.sin(t * rate))
    return target * complex(1.0 + perturb, perturb)


@st.composite
def _spiral_case(draw):
    base = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
    log_base = math.log(base)
    rate = draw(st.floats(-3.0, 3.0))
    step = draw(st.floats(1e-4, 0.05))
    count = draw(st.integers(1, 3000))
    s_start = draw(st.floats(-10.0, 5.0))
    target = _spiral_target(draw, log_base, rate, s_start, step, count)
    return log_base, rate, target.real, target.imag, s_start, step, count


@settings(max_examples=300, deadline=None)
@given(_spiral_case())
def test_spiral_matches_dense_scan(case):
    idx, dist = spiral_min_scan(*case)
    ref_idx, ref_dist = _spiral_brute(*case)
    assert (idx, dist.hex()) == (ref_idx, ref_dist.hex())


@settings(max_examples=300, deadline=None)
@given(_spiral_case(), st.data())
def test_interval_bound_never_exceeds_the_least_d2(case, data):
    # the bound over the whole grid, from any midpoint, against every grid
    # point's computed d2
    log_base, rate, x, y, s_start, step, count = case
    mid = data.draw(st.integers(0, count - 1))
    *_, d2, slope = _kernels._midpoints(log_base, rate, x, y, s_start, step)(mid, mid)
    bound = _kernels._interval_bound(log_base, rate, x, y)
    lb = bound(s_start, s_start + (count - 1) * step, s_start + mid * step, d2, slope)
    assert not lb > min(_spiral_d2s(*case))


def _spiral_d2s(log_base, angle_rate, target_re, target_im, s_start, step, count):
    """Every grid point's computed d2, by the dense scan's expression."""
    d2s = []
    for i in range(count):
        s = s_start + i * step
        m = math.exp(s * log_base)
        re = m * math.cos(s * angle_rate) - target_re
        im = -m * math.sin(s * angle_rate) - target_im
        d2s.append(re * re + im * im)
    return d2s


_U = 2.0**-53


def _check_budgets(log_base, rate, z, s):
    """The computed distance, d2 and slope at s against 60-digit values, each
    within its budget, and K above a 60-digit |g''| at nine points inside each
    of two intervals around s (at an end, with z = 0, K is |g''| exactly)."""
    mpmath.mp.dps = 60
    lam, th, t0 = mpmath.mpf(log_base), mpmath.mpf(rate), mpmath.mpf(s)
    target = mpmath.mpc(z.real, z.imag)

    def point(t):
        return mpmath.exp(t * lam) * mpmath.expj(-t * th)

    def g(t):
        return abs(point(t) - target) ** 2

    exact_rho = mpmath.exp(t0 * lam)
    rho = float(exact_rho) * (1.0 + 4 * _U)
    rates, target_abs = abs(log_base) + abs(rate), abs(z.real) + abs(z.imag)
    _, computed = spiral_min_scan(log_base, rate, z.real, z.imag, s, 1.0, 1)
    *_, d2, slope = _kernels._midpoints(log_base, rate, z.real, z.imag, s, 1.0)(0, 0)
    e = _eval_error(rho, abs(s), rates, target_abs)
    w = point(t0) - target
    assert abs(mpmath.mpf(computed) - abs(w)) <= e
    assert abs(mpmath.mpf(d2) - abs(w) ** 2) <= _kernels._d2_error(e, rho + target_abs)
    true_slope = 2 * mpmath.re(mpmath.conj(w) * mpmath.mpc(lam, -th) * point(t0))
    assert abs(mpmath.mpf(slope) - true_slope) <= _kernels._slope_error(rho, abs(s), rates, target_abs)
    for half in (mpmath.mpf("1e-3"), mpmath.mpf("0.5")):
        rho_max = mpmath.exp(max((t0 - half) * lam, (t0 + half) * lam))
        K = 4 * lam**2 * rho_max**2 + 2 * rho_max * (lam**2 + th**2) * target_abs
        for k in range(-4, 5):
            assert abs(mpmath.diff(g, t0 + half * k / 5, 2)) <= K


@pytest.mark.parametrize("base", [2.0, 0.5])
@pytest.mark.parametrize("rate", [1.0, -0.7, 1e3])
@pytest.mark.parametrize("s", [-20.0, -7.3, -1e-3, 0.1, 13.7, 20.0])
def test_error_budget_dominates_true_error(base, rate, s):
    log_base = math.log(base)
    on_spiral = math.exp(s * log_base) * complex(math.cos(s * rate), -math.sin(s * rate))
    for z in (1.0 + 0.0j, -3.5 + 2.0j, on_spiral, on_spiral * (1.0 + 1e-9)):
        _check_budgets(log_base, rate, z, s)


@pytest.mark.parametrize("rate", [1.0, -0.7, 1e3])
@pytest.mark.parametrize("s", [-537.5, -537.2, -536.0])
def test_error_budget_covers_subnormal_squares(rate, s):
    # modulus near 2**-537: re*re and im*im fall among the subnormals
    _check_budgets(math.log(2.0), rate, 0j, s)


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
    assert exp_calls <= 4_500  # 881 here; a first-order bound alone takes 102,879
    assert time.perf_counter() - start < 30.0
    monkeypatch.undo()
    idx = round((result.argmin_s + 20.0) / 1e-8)
    assert -20.0 + idx * 1e-8 == result.argmin_s
    window = _spiral_brute(math.log(2.0), 1.0, -1.0, 0.0, -20.0, 1e-8, idx + 2001, first=idx - 2000)
    assert window == (idx, result.distance)
