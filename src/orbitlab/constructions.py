"""Inductive construction of vectors whose scaled shift orbits approximate a
dense target family, plus the scalar-rotation spiral counterexample scenario.

Two schemes are implemented:

* unilateral: the backward shift on one-sided sequences, fed by a scalar set
  with unbounded moduli. Stage k picks a scalar gamma_k large enough that
  (i) ||y_k||/|gamma_k| < 2^-k, (ii) (|gamma_i|/|gamma_k|)||y_k|| < 2^-k for
  i < k, and a shift m_k exceeding every earlier m_i + deg(y_i), so that the
  stage-K partial sum x = sum (1/gamma_i) F^{m_i} y_i satisfies
  ||gamma_k B^{m_k} x - y_k|| <= 2^-k exactly (earlier cross terms vanish,
  later ones are dominated geometrically).

* bilateral: the weighted backward shift with weight 2 on positive indices,
  fed by a scalar set whose positive moduli accumulate at 0. Scalars are
  picked small-first using the a-priori bound
  (|gamma_k|/|gamma_i|) * 2^{m_i + deg(y_i)} * ||y_i|| for the forward cross
  condition, then m_k large enough for the two decay conditions; the stage
  residuals obey ||gamma_k B^{m_k} x - y_k|| <= (k+1) * 2^-k.

All stage conditions and residual bounds are verified with exact
scaled-rational arithmetic; the recorded booleans are exact statements, not
float comparisons. A residual square is summed on a cell grid
(_exact.cell_sum) that the bound check and the reported values read exactly
as they read the exact sum; the exact sums are built only when read. Scalar choices follow a margin rule: the first resolver
value achieving the strict inequality with factor 1/2 slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import jsonio
from ._exact import X2, XC, cell_sum, x2_sum, xvec_from_seq, xvec_norm_sq, xvec_sub
from ._kernels import spiral_min_scan
from .operators import (
    BILATERAL,
    UNILATERAL,
    ScalarOnC,
    SeqVector,
)
from .scalar_sets import (
    AngleSpec,
    LogSpiral,
    ScalarSet,
    pick_modulus_at_least,
    pick_modulus_at_most,
)


class BoundedScalarSetError(ValueError):
    """The unilateral builder needs a scalar set with unbounded moduli."""


class NotAccumulatingAtZeroError(ValueError):
    """The bilateral builder needs positive moduli accumulating at 0."""


class SpiralBaseOneError(ValueError):
    """The spiral scenario requires a modulus base different from 1."""


class ScanRangeError(ValueError):
    """The scan range cannot certify that the tail stays farther than the grid minimum."""


class ShiftSearchLimitError(ValueError):
    """A bilateral stage needs a shift beyond the search cap SHIFT_CAP."""


# the exact fallback of a residual sum would hold integers of about this many bits
SHIFT_CAP = 1 << 40


# ---------------------------------------------------------------------------
# target families


@dataclass(frozen=True)
class TargetFamily:
    """Finitely many nonzero finitely supported targets on one domain."""

    vectors: tuple[SeqVector, ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("target family must be non-empty")
        domain = self.vectors[0].domain
        for v in self.vectors:
            if v.domain != domain:
                raise ValueError("target family must live on a single domain")
            if v.is_zero:
                raise ValueError("target vectors must be nonzero")

    @property
    def domain(self) -> str:
        return self.vectors[0].domain

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, k):
        return self.vectors[k]


def _level_values(n: int) -> list[complex]:
    cap = 4 ** n
    denom = float(2 ** n)
    pairs = [(a, b) for a in range(-cap, cap + 1) for b in range(-cap, cap + 1)]
    pairs.sort(key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab[0], ab[1]))
    return [complex(a / denom, b / denom) for a, b in pairs]


def _rank_tuples(total: int, length: int, cap: int):
    if length == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _rank_tuples(total - first, length - 1, cap):
            yield (first,) + rest


def default_target_family(count: int, domain: str = UNILATERAL) -> TargetFamily:
    """Deterministic enumeration of dyadic-rational vectors, dense in the
    finitely supported sequences as count grows.

    Level n holds vectors supported in [0, n] (or [-n, n] bilaterally) with
    components (a+ib)/2^n, |a|, |b| <= 4^n; levels are walked in order and,
    inside a level, vectors are ordered by the total rank of their component
    values (small values first). Duplicates from earlier levels are skipped.
    """
    out: list[SeqVector] = []
    seen: set = set()
    n = 0
    while len(out) < count:
        vals = _level_values(n)
        coords = list(range(0, n + 1)) if domain == UNILATERAL else list(range(-n, n + 1))
        cap = len(vals) - 1
        for total in range(1, cap * len(coords) + 1):
            for ranks in _rank_tuples(total, len(coords), cap):
                entries = [(coords[i], vals[r]) for i, r in enumerate(ranks) if r]
                vec = SeqVector.make(domain, entries)
                if vec.is_zero or vec.entries in seen:
                    continue
                seen.add(vec.entries)
                out.append(vec)
                if len(out) == count:
                    return TargetFamily(tuple(out))
        n += 1
    return TargetFamily(tuple(out))


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class StageChoice:
    stage: int
    scalar: XC
    shift: int

    def modulus_sq(self) -> X2:
        return self.scalar.mod_sq()

    def modulus_log2(self) -> float:
        return self.modulus_sq().log2() / 2.0

    def modulus_float(self) -> float:
        return float(self.modulus_sq()) ** 0.5


@dataclass(frozen=True)
class ConstructionTrace:
    scheme: str  # "unilateral" | "bilateral"
    choices: tuple[StageChoice, ...]
    partial_sum: SeqVector
    residuals: tuple[float, ...]
    # per stage: round_up_bits(64) of the squared residual norm
    residual_sq_upper: tuple[X2, ...]
    conditions: tuple[dict, ...]
    tail_bound: float
    # per stage: the squared moduli of the residual's entries, by index
    residual_terms: tuple[tuple[X2, ...], ...] = field(repr=False)

    @property
    def stages(self) -> int:
        return len(self.choices) - 1

    @functools.cached_property
    def residual_sq_exact(self) -> tuple[X2, ...]:
        """The exact squared residual norms. Their mantissas can run to
        millions of bits, so they are summed only when read."""
        return tuple(x2_sum(terms) for terms in self.residual_terms)

    def to_json(self) -> dict:
        # the report's values, for jsonio.encode; exact residual squares can carry
        # huge mantissas, so reports ship a compact certified upper bound instead
        return {
            "scheme": self.scheme,
            "stages": self.stages,
            "tail_bound": self.tail_bound,
            "choices": [
                {
                    "stage": c.stage,
                    "scalar_re": c.scalar.re,
                    "scalar_im": c.scalar.im,
                    "modulus_log2": c.modulus_log2(),
                    "shift": c.shift,
                }
                for c in self.choices
            ],
            "conditions": self.conditions,
            "residuals": self.residuals,
            "residual_sq_upper": self.residual_sq_upper,
            "partial_sum": self.partial_sum,
        }

    def to_csv(self) -> str:
        # a modulus whose square passes float range leaves its cell empty;
        # modulus_log2 still carries its size
        lines = ["stage,modulus,modulus_log2,shift,residual"]
        for c, r in zip(self.choices, self.residuals):
            modulus = c.modulus_float()
            cell = jsonio.format_float(modulus) if math.isfinite(modulus) else ""
            lines.append(
                f"{c.stage},{cell},"
                f"{jsonio.format_float(c.modulus_log2())},{c.shift},{jsonio.format_float(r)}"
            )
        return "\n".join(lines) + "\n"


def _residual_float(rsq: X2) -> float:
    val = float(rsq)
    return math.sqrt(val) if val > 0 else 0.0


class _Residuals:
    """Stage residuals, checked against their bounds and kept for the trace."""

    def __init__(self):
        self.terms: list[tuple[X2, ...]] = []
        self.sums: list[X2] = []

    def add(self, k: int, diff: dict[int, XC], bound: X2) -> None:
        terms = tuple(diff[i].mod_sq() for i in sorted(diff))
        rsq = cell_sum(terms, bound)
        if not rsq <= bound:
            raise RuntimeError(f"stage {k} residual exceeds its certified bound")
        self.terms.append(terms)
        self.sums.append(rsq)

    def trace_fields(self) -> dict:
        return {
            "residuals": tuple(_residual_float(r) for r in self.sums),
            "residual_sq_upper": tuple(r.round_up_bits(64) for r in self.sums),
            "residual_terms": tuple(self.terms),
        }


def _trace(scheme, domain, scalars, shifts, x, conditions, residuals) -> ConstructionTrace:
    """The trace of a finished build: its stage choices, the partial sum x
    and the checked residuals."""
    return ConstructionTrace(
        scheme=scheme,
        choices=tuple(StageChoice(k, g, m) for k, (g, m) in enumerate(zip(scalars, shifts))),
        partial_sum=SeqVector.make(domain, [(j, c.to_complex()) for j, c in x.items()]),
        conditions=tuple(conditions),
        tail_bound=2.0 ** -(len(scalars) - 1),
        **residuals.trace_fields(),
    )


# ---------------------------------------------------------------------------
# unilateral scheme (backward shift, unbounded scalar moduli)


def build_unilateral(sampler: ScalarSet, targets: TargetFamily, stages: int) -> ConstructionTrace:
    """Run the unilateral scheme for stage indices 0..stages.

    Raises BoundedScalarSetError when the sampler's moduli are bounded: then
    no stage scalar can dominate as required, which is exactly the boundary
    where the scheme stops applying.
    """
    if targets.domain != UNILATERAL:
        raise ValueError("unilateral scheme needs unilateral targets")
    if len(targets) < stages + 1:
        raise ValueError("need at least stages+1 target vectors")
    if not sampler.modulus_set().unbounded:
        raise BoundedScalarSetError(
            "scalar set must have unbounded modulus: the unilateral scheme "
            "requires arbitrarily large scalars"
        )

    exact_targets = [xvec_from_seq(targets[k]) for k in range(stages + 1)]
    norm_sqs = [xvec_norm_sq(t) for t in exact_targets]
    degrees = [targets[k].degree() for k in range(stages + 1)]

    scalars: list[XC] = []
    shifts: list[int] = []
    for k in range(stages + 1):
        nsq = norm_sqs[k]
        # log2 of the modulus threshold: max over condition (i) and (ii) demands
        need = k + nsq.log2() / 2.0
        for g in scalars:
            need = max(need, k + nsq.log2() / 2.0 + g.mod_sq().log2() / 2.0)
        want = need + 1.0  # factor 1/2 slack
        four_k = X2.pow2(2 * k)
        for _ in range(200):
            gx = pick_modulus_at_least(sampler, want)
            if gx is None:
                raise BoundedScalarSetError(
                    "scalar set must have unbounded modulus: no scalar of the "
                    "required size is available"
                )
            msq = gx.mod_sq()
            ok = nsq * four_k < msq and all(
                g.mod_sq() * nsq * four_k < msq for g in scalars
            )
            if ok:
                break
            want += 1.0
        else:
            raise BoundedScalarSetError("no admissible scalar found")
        scalars.append(gx)
        shifts.append(0 if k == 0 else max(shifts[i] + degrees[i] for i in range(k)) + 1)

    # x = sum over stages of (1/gamma_i) F^{m_i} y_i (plain forward shift)
    x: dict[int, XC] = {}
    for i, (t, gx, m) in enumerate(zip(exact_targets, scalars, shifts)):
        inv = XC(X2.ONE, X2.ZERO) / gx
        for j, c in t.items():
            idx = j + m
            term = c * inv
            x[idx] = x[idx] + term if idx in x else term

    residuals = _Residuals()
    conditions: list[dict] = []
    for k in range(stages + 1):
        m_k = shifts[k]
        scaled = {j - m_k: c * scalars[k] for j, c in x.items() if j - m_k >= 0}
        residuals.add(k, xvec_sub(scaled, exact_targets[k]), X2.pow2(-2 * k))
        four_k = X2.pow2(2 * k)
        msq = scalars[k].mod_sq()
        conditions.append(
            {
                "stage": k,
                "target_small": bool(norm_sqs[k] * four_k < msq),
                "dominates_previous": all(
                    scalars[i].mod_sq() * norm_sqs[k] * four_k < msq for i in range(k)
                ),
                "shift_gap": all(m_k > shifts[i] + degrees[i] for i in range(k)),
            }
        )

    return _trace("unilateral", UNILATERAL, scalars, shifts, x, conditions, residuals)


# ---------------------------------------------------------------------------
# bilateral scheme (doubling weights, scalar moduli accumulating at 0)


def _count_pos_window(lo: int, hi: int) -> int:
    """Number of integers i with lo <= i <= hi and i >= 1."""
    if hi < 1 or hi < lo:
        return 0
    return hi - max(lo, 1) + 1


def _fwd_apply_exact(y: dict[int, XC], m: int) -> dict[int, XC]:
    """Forward inverse shift applied m times: entry j moves to j+m and is
    multiplied by (1/2)^(number of indices in [j, j+m-1] that are >= 0)."""
    out = {}
    for j, c in y.items():
        cnt = max(0, j + m - max(j, 0))
        out[j + m] = c.scale(X2.pow2(-cnt))
    return out


def _fwd_norm_sq(y_items, m: int) -> X2:
    out = X2.ZERO
    for j, msq in y_items:
        cnt = max(0, j + m - max(j, 0))
        out = out + msq * X2.pow2(-2 * cnt)
    return out


def _bwd_norm_sq(y_items, n: int) -> X2:
    """||B_w^n y||^2 for the doubling weights: entry j gains 2^min(n, j) for
    j >= 1 and is unchanged otherwise."""
    out = X2.ZERO
    for j, msq in y_items:
        cnt = _count_pos_window(j - n + 1, j)
        out = out + msq * X2.pow2(2 * cnt)
    return out


def _bwd_apply_exact(x: dict[int, XC], n: int) -> dict[int, XC]:
    out = {}
    for j, c in x.items():
        cnt = _count_pos_window(j - n + 1, j)
        out[j - n] = c.scale(X2.pow2(cnt))
    return out


def build_bilateral(sampler: ScalarSet, targets: TargetFamily, stages: int) -> ConstructionTrace:
    """Run the bilateral scheme (weight-2-on-positive-indices shift).

    Raises NotAccumulatingAtZeroError when the sampler's positive moduli stay
    away from 0: small-first scalar picking then has nowhere to go.
    """
    if targets.domain != BILATERAL:
        raise ValueError("bilateral scheme needs bilateral targets")
    if len(targets) < stages + 1:
        raise ValueError("need at least stages+1 target vectors")
    if sampler.modulus_set().inf_positive() > 0:
        raise NotAccumulatingAtZeroError(
            "scalar set must have positive moduli accumulating at 0: the "
            "bilateral scheme requires arbitrarily small nonzero scalars"
        )

    exact_targets = [xvec_from_seq(targets[k]) for k in range(stages + 1)]
    items = [
        [(j, c.mod_sq()) for j, c in sorted(t.items())] for t in exact_targets
    ]
    norm_sqs = [xvec_norm_sq(t) for t in exact_targets]
    degrees = [targets[k].degree() for k in range(stages + 1)]

    scalars: list[XC] = []
    shifts: list[int] = []
    for k in range(stages + 1):
        # a-priori forward-cross bound: |gamma_k| < 2^-k |gamma_i| / (2^{m_i+d_i} ||y_i||)
        cap = 0.0
        for i in range(k):
            gi = scalars[i].mod_sq().log2() / 2.0
            cap = min(cap, -k + gi - (shifts[i] + degrees[i]) - norm_sqs[i].log2() / 2.0)
        want = cap - 1.0  # factor 1/2 slack
        for _ in range(200):
            gx = pick_modulus_at_most(sampler, want)
            if gx is None:
                raise NotAccumulatingAtZeroError(
                    "scalar set must have positive moduli accumulating at 0: no "
                    "scalar of the required smallness is available"
                )
            if gx.is_zero:
                raise NotAccumulatingAtZeroError("resolver produced zero, which carries no scale")
            msq = gx.mod_sq()
            ok = True
            for i in range(k):
                lhs = msq * X2.pow2(2 * (shifts[i] + degrees[i]) + 2 * k) * norm_sqs[i]
                if not lhs < scalars[i].mod_sq():
                    ok = False
                    break
            if ok:
                break
            want -= 1.0
        else:
            raise NotAccumulatingAtZeroError("no admissible scalar found")
        scalars.append(gx)

        # minimal shift meeting both decay conditions at half slack
        msq = gx.mod_sq()
        quarter = X2.pow2(-2)

        def _shift_ok(m: int) -> bool:
            if _fwd_norm_sq(items[k], m) >= X2.pow2(-2 * k) * msq * quarter:
                return False
            for i in range(k):
                if m < shifts[i]:
                    return False
                lhs = scalars[i].mod_sq() * _fwd_norm_sq(items[k], m - shifts[i]) * X2.pow2(2 * k)
                if not lhs < msq * quarter:
                    return False
            return True

        lo = 0 if k == 0 else max(shifts) + 1
        hi = max(lo, 1)
        while not _shift_ok(hi):
            hi *= 2
            if hi > SHIFT_CAP:
                raise ShiftSearchLimitError(
                    f"stages: {stages} stages need a shift beyond the search cap "
                    f"2**40 (stage {k} has none below it)"
                )
        while lo < hi:
            mid = (lo + hi) // 2
            if _shift_ok(mid):
                hi = mid
            else:
                lo = mid + 1
        shifts.append(lo)

    x: dict[int, XC] = {}
    for t, gx, m in zip(exact_targets, scalars, shifts):
        inv = XC(X2.ONE, X2.ZERO) / gx
        shifted = _fwd_apply_exact(t, m)
        for j, c in shifted.items():
            term = c * inv
            x[j] = x[j] + term if j in x else term

    residuals = _Residuals()
    conditions: list[dict] = []
    for k in range(stages + 1):
        m_k = shifts[k]
        image = _bwd_apply_exact(x, m_k)
        scaled = {j: c * scalars[k] for j, c in image.items()}
        bound = X2.from_int((k + 1) * (k + 1)) * X2.pow2(-2 * k)
        residuals.add(k, xvec_sub(scaled, exact_targets[k]), bound)

        msq = scalars[k].mod_sq()
        four_k = X2.pow2(2 * k)
        cond_fwd_small = _fwd_norm_sq(items[k], m_k) * four_k < msq
        cond_cross_b = all(
            scalars[i].mod_sq() * _fwd_norm_sq(items[k], m_k - shifts[i]) * four_k < msq
            for i in range(k)
        )
        cond_cross_f = all(
            msq * _bwd_norm_sq(items[i], m_k - shifts[i]) * four_k < scalars[i].mod_sq()
            for i in range(k)
        )
        conditions.append(
            {
                "stage": k,
                "forward_image_small": bool(cond_fwd_small),
                "cross_backward_small": bool(cond_cross_b),
                "cross_forward_small": bool(cond_cross_f),
            }
        )

    return _trace("bilateral", BILATERAL, scalars, shifts, x, conditions, residuals)


# ---------------------------------------------------------------------------
# spiral counterexample scenario


@dataclass(frozen=True)
class SpiralScenario:
    """Scalar rotation-dilation operator on C paired with its matching spiral
    scalar set; every scaled orbit point stays on the spiral."""

    operator: ScalarOnC
    scalar_set: LogSpiral
    base_point: complex = 1.0 + 0.0j

    def orbit_point(self, t: float, n: int) -> complex:
        """gamma(t) * R^n applied to the base point; lies at parameter t+n."""
        return self.scalar_set.point_at(t) * (self.operator.value ** n)


def build_spiral_scenario(r: float, theta: AngleSpec) -> SpiralScenario:
    if r <= 0 or not math.isfinite(r):
        raise ValueError("spiral base must be positive and finite")
    if r == 1.0:
        raise SpiralBaseOneError("spiral base 1 degenerates to a rotation: no modulus drift")
    tv = theta.value
    op = ScalarOnC(complex(r * math.cos(tv), -r * math.sin(tv)))
    return SpiralScenario(operator=op, scalar_set=LogSpiral(r, theta))


@dataclass(frozen=True)
class SpiralDistanceResult:
    distance: float
    argmin_s: float
    tail_low_margin: float
    tail_high_margin: float


def spiral_distance_to(
    scenario: SpiralScenario,
    target: complex,
    s_range: tuple[float, float] = (-20.0, 20.0),
    step: float = 1e-4,
) -> SpiralDistanceResult:
    """Grid minimum of |spiral(s) - target| over s_range with a tail certificate.

    Outside the range the spiral's modulus is monotone in s, so the distance
    to the target is at least the modulus gap; the certificate requires both
    gaps to exceed the grid minimum, else ScanRangeError is raised.
    """
    target = complex(target)
    if target == 0:
        raise ValueError("target must be nonzero")
    if step <= 0:
        raise ValueError("step must be positive")
    s_lo, s_hi = s_range
    if s_hi <= s_lo:
        raise ValueError("empty scan range")
    r = scenario.scalar_set.base
    rate = scenario.scalar_set.rate.value
    count = int(math.floor((s_hi - s_lo) / step)) + 1
    idx, dist = spiral_min_scan(math.log(r), rate, target.real, target.imag, s_lo, step, count)
    rho = abs(target)
    lo_mod, hi_mod = r ** s_lo, r ** s_hi
    if r < 1:
        lo_mod, hi_mod = hi_mod, lo_mod
    tail_low = rho - lo_mod  # moduli below the range fall short of the target by this much
    tail_high = hi_mod - rho
    if tail_low <= dist or tail_high <= dist:
        raise ScanRangeError(
            "scan range too small: a spiral tail outside the range could come "
            "closer to the target than the grid minimum"
        )
    return SpiralDistanceResult(
        distance=dist,
        argmin_s=s_lo + idx * step,
        tail_low_margin=tail_low,
        tail_high_margin=tail_high,
    )
