"""Inductive construction of vectors whose scaled shift orbits approximate a
dense target family, plus the scalar-rotation spiral counterexample scenario.

Both schemes run on a weighted backward shift B e_j = w(j) e_{j-1} and its
forward inverse F e_j = e_{j+1} / w(j+1). Stage k picks a scalar gamma_k and
a shift m_k for the target y_k; the stage-K partial sum is
x = sum_i (1/gamma_i) F^{m_i} y_i, and its stage-k residual is
gamma_k B^{m_k} x - y_k.

* unilateral: w = 1 on one-sided sequences, where B drops what passes below
  index 0, fed by a scalar set with unbounded moduli. gamma_k is large enough
  that (i) ||y_k||/|gamma_k| < 2^-k and (ii) (|gamma_i|/|gamma_k|)||y_k|| <
  2^-k for i < k, and m_k exceeds every earlier m_i + deg(y_i). Earlier cross
  terms vanish and later ones are dominated geometrically, so the residual
  norm is at most 2^-k.

* bilateral: w = 2 on the indices j >= 1 and 1 elsewhere, fed by a scalar
  set whose positive moduli accumulate at 0. Scalars are picked small-first
  under the a-priori bound (|gamma_k|/|gamma_i|) * 2^{m_i + deg(y_i)} *
  ||y_i|| for the forward cross condition; m_k is then the least shift that
  meets the two decay conditions. The residual norm is at most (k+1) 2^-k.

All stage conditions and residual bounds are verified with exact
scaled-rational arithmetic: the recorded booleans are exact statements, not
float comparisons. A residual square is summed on a cell grid
(_exact.cell_sum) that the bound check and the reported values read exactly
as they read the exact sum; the exact sums are built only when read. Scalar
choices follow a margin rule: the first resolver value achieving the strict
inequality with factor 1/2 slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import jsonio
from .jsonio import PreconditionError
from ._exact import X2, XC, cell_sum, x2_sum, xvec_from_seq, xvec_norm_sq, xvec_sub
from ._kernels import spiral_min_scan
from .operators import (
    BILATERAL,
    UNILATERAL,
    ScalarOnC,
    SeqVector,
    power_apply,
)
from .scalar_sets import (
    AngleSpec,
    LogSpiral,
    ScalarSet,
    pick_modulus_at_least,
    pick_modulus_at_most,
)


class BoundedScalarSetError(PreconditionError):
    """The unilateral builder needs a scalar set with unbounded moduli."""


class NotAccumulatingAtZeroError(PreconditionError):
    """The bilateral builder needs positive moduli accumulating at 0."""


class SpiralBaseOneError(PreconditionError):
    """The spiral scenario requires a modulus base different from 1."""


class ScanRangeError(PreconditionError):
    """The scan range cannot certify that the tail stays farther than the grid minimum."""


class ShiftSearchLimitError(PreconditionError):
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
            raise PreconditionError("target family must be non-empty")
        domain = self.vectors[0].domain
        for v in self.vectors:
            if v.domain != domain:
                raise PreconditionError("target family must live on a single domain")
            if v.is_zero:
                raise PreconditionError("target vectors must be nonzero")

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


# ---------------------------------------------------------------------------
# the exact shift and the stage engine of both schemes


def _weight_log2(domain: str, j: int, n: int) -> int:
    """log2 of the weight entry j gains under B^n (n >= 0) or loses under
    F^{-n} (n < 0): the count of weight-2 indices i with
    min(j, j - n) < i <= max(j, j - n)."""
    if domain == UNILATERAL:
        return 0
    if n >= 0:
        return max(0, j - max(j - n, 0))
    return -max(0, j - n - max(j, 0))


def _shift(x: dict[int, XC], n: int, domain: str) -> dict[int, XC]:
    """B^n x for n >= 0 and F^{-n} x for n < 0, exactly."""
    out = {}
    for j, c in x.items():
        if j < n and domain == UNILATERAL:
            continue
        e = _weight_log2(domain, j, n)
        out[j - n] = c.scale(X2.pow2(e)) if e else c
    return out


def _shift_norm_sq(items, n: int, domain: str) -> X2:
    """The squared norm of _shift(y, n, domain), from the (index, |entry|^2)
    items of y in index order."""
    out = X2.ZERO
    for j, msq in items:
        if j < n and domain == UNILATERAL:
            continue
        # msq * X2.pow2(2e), built directly: the same canonical value
        out = out + X2(msq.num, msq.den, msq.exp + 2 * _weight_log2(domain, j, n))
    return out


class _Stages:
    """The stage engine of both schemes: the checks, the exact targets, the
    stage choices and their scalar picks, the partial sum and the checked
    residuals. The builders supply the precondition, the admissibility
    test, the shift rule, the residual bound and the condition booleans;
    `error` is the scheme's precondition error class."""

    def __init__(self, scheme: str, domain: str, targets: TargetFamily, stages: int, error):
        if stages < 0:
            raise PreconditionError(f"stages: {stages} is negative; a build runs stages 0 to stages")
        if targets.domain != domain:
            raise PreconditionError(f"{scheme} scheme needs {scheme} targets")
        if len(targets) < stages + 1:
            n = len(targets)
            raise PreconditionError(f"targets: {n} vectors; stages {stages} needs {stages + 1}")
        self.scheme, self.domain, self.error = scheme, domain, error
        self.targets = [xvec_from_seq(targets[k]) for k in range(stages + 1)]
        self.items = [[(j, c.mod_sq()) for j, c in sorted(t.items())] for t in self.targets]
        self.norm_sqs = [xvec_norm_sq(t) for t in self.targets]
        self.degrees = [targets[k].degree() for k in range(stages + 1)]
        self.scalars: list[XC] = []
        self.shifts: list[int] = []

    def pick(self, resolve, want: float, step: float, admissible, missing: str) -> XC:
        """Append and return the first resolve(want) whose squared modulus
        passes admissible, moving want by step after each miss (200 tries).
        `missing` is the refusal when the set has no scalar to offer."""
        for _ in range(200):
            gx = resolve(want)
            if gx is None:
                raise self.error(missing)
            if gx.is_zero:
                raise self.error("resolver produced zero, which carries no scale")
            if admissible(gx.mod_sq()):
                self.scalars.append(gx)
                return gx
            want += step
        raise self.error("no admissible scalar found")

    def trace(self, bound, conditions) -> ConstructionTrace:
        """The trace of x = sum_i (1/gamma_i) F^{m_i} y_i. Each residual
        gamma_k B^{m_k} x - y_k is checked against bound(k), an exact bound
        on its square; conditions(k) gives the stage's condition booleans."""
        x: dict[int, XC] = {}
        for t, gx, m in zip(self.targets, self.scalars, self.shifts):
            inv = XC(X2.ONE, X2.ZERO) / gx
            for j, c in _shift(t, -m, self.domain).items():
                term = c * inv
                x[j] = x[j] + term if j in x else term
        terms, sums, conds = [], [], []
        for k, (gx, m) in enumerate(zip(self.scalars, self.shifts)):
            scaled = {j: c * gx for j, c in _shift(x, m, self.domain).items()}
            diff = xvec_sub(scaled, self.targets[k])
            terms.append(tuple(diff[i].mod_sq() for i in sorted(diff)))
            limit = bound(k)
            sums.append(cell_sum(terms[k], limit))
            if not sums[k] <= limit:
                raise RuntimeError(f"stage {k} residual exceeds its certified bound")
            conds.append({"stage": k, **conditions(k)})
        return ConstructionTrace(
            scheme=self.scheme,
            choices=tuple(
                StageChoice(k, g, m) for k, (g, m) in enumerate(zip(self.scalars, self.shifts))
            ),
            partial_sum=SeqVector.make(self.domain, [(j, c.to_complex()) for j, c in x.items()]),
            residuals=tuple(math.sqrt(float(r)) for r in sums),
            residual_sq_upper=tuple(r.round_up_bits(64) for r in sums),
            conditions=tuple(conds),
            tail_bound=2.0 ** -(len(self.scalars) - 1),
            residual_terms=tuple(terms),
        )


# ---------------------------------------------------------------------------
# unilateral scheme (backward shift, unbounded scalar moduli)


def build_unilateral(sampler: ScalarSet, targets: TargetFamily, stages: int) -> ConstructionTrace:
    """Run the unilateral scheme for stage indices 0..stages.

    Raises BoundedScalarSetError when the sampler's moduli are bounded: then
    no stage scalar can dominate as required, which is exactly the boundary
    where the scheme stops applying.
    """
    run = _Stages("unilateral", UNILATERAL, targets, stages, BoundedScalarSetError)
    if not sampler.modulus_set().unbounded:
        raise BoundedScalarSetError(
            "scalar set must have unbounded modulus: the unilateral scheme "
            "requires arbitrarily large scalars"
        )
    scalars, shifts, norm_sqs, degrees = run.scalars, run.shifts, run.norm_sqs, run.degrees

    def dominant(k: int, msq: X2) -> dict:
        # conditions (i) and (ii) of stage k for the squared modulus msq
        four_k = X2.pow2(2 * k)
        return {
            "target_small": norm_sqs[k] * four_k < msq,
            "dominates_previous": all(
                scalars[i].mod_sq() * norm_sqs[k] * four_k < msq for i in range(k)
            ),
        }

    for k in range(stages + 1):
        nsq = norm_sqs[k]
        # log2 of the modulus threshold: max over condition (i) and (ii) demands
        need = k + nsq.log2() / 2.0
        for g in scalars:
            need = max(need, k + nsq.log2() / 2.0 + g.mod_sq().log2() / 2.0)
        run.pick(
            lambda want: pick_modulus_at_least(sampler, want),
            need + 1.0,  # factor 1/2 slack
            1.0,
            lambda msq: all(dominant(k, msq).values()),
            "scalar set must have unbounded modulus: no scalar of the required size is available",
        )
        shifts.append(0 if k == 0 else max(shifts[i] + degrees[i] for i in range(k)) + 1)

    def conditions(k: int) -> dict:
        gap = all(shifts[k] > shifts[i] + degrees[i] for i in range(k))
        return {**dominant(k, scalars[k].mod_sq()), "shift_gap": gap}

    return run.trace(lambda k: X2.pow2(-2 * k), conditions)


# ---------------------------------------------------------------------------
# bilateral scheme (doubling weights, scalar moduli accumulating at 0)


def build_bilateral(sampler: ScalarSet, targets: TargetFamily, stages: int) -> ConstructionTrace:
    """Run the bilateral scheme (weight-2-on-positive-indices shift).

    Raises NotAccumulatingAtZeroError when the sampler's positive moduli stay
    away from 0: small-first scalar picking then has nowhere to go.
    """
    run = _Stages("bilateral", BILATERAL, targets, stages, NotAccumulatingAtZeroError)
    if sampler.modulus_set().inf_positive() > 0:
        raise NotAccumulatingAtZeroError(
            "scalar set must have positive moduli accumulating at 0: the "
            "bilateral scheme requires arbitrarily small nonzero scalars"
        )
    scalars, shifts, items, norm_sqs, degrees = (
        run.scalars, run.shifts, run.items, run.norm_sqs, run.degrees)

    for k in range(stages + 1):
        # a-priori forward-cross bound: |gamma_k| < 2^-k |gamma_i| / (2^{m_i+d_i} ||y_i||)
        cap = 0.0
        for i in range(k):
            gi = scalars[i].mod_sq().log2() / 2.0
            cap = min(cap, -k + gi - (shifts[i] + degrees[i]) - norm_sqs[i].log2() / 2.0)
        msq = run.pick(
            lambda want: pick_modulus_at_most(sampler, want),
            cap - 1.0,  # factor 1/2 slack
            -1.0,
            lambda s: all(
                s * X2.pow2(2 * (shifts[i] + degrees[i]) + 2 * k) * norm_sqs[i] < scalars[i].mod_sq()
                for i in range(k)
            ),
            "scalar set must have positive moduli accumulating at 0: no "
            "scalar of the required smallness is available",
        ).mod_sq()

        # the least shift meeting both decay conditions at half slack; every
        # probe m is at least lo, so it passes every earlier shift
        four_k, half_sq = X2.pow2(2 * k), msq * X2.pow2(-2)

        def _shift_ok(m: int) -> bool:
            return _shift_norm_sq(items[k], -m, BILATERAL) * four_k < half_sq and all(
                scalars[i].mod_sq() * _shift_norm_sq(items[k], shifts[i] - m, BILATERAL) * four_k
                < half_sq
                for i in range(k)
            )

        lo = 0 if k == 0 else max(shifts) + 1
        hi = max(lo, 1)
        while not _shift_ok(hi):
            hi *= 2
            if hi > SHIFT_CAP:
                raise ShiftSearchLimitError(
                    f"stages: {stages} stages need a shift beyond the search cap "
                    f"2**{SHIFT_CAP.bit_length() - 1} (stage {k} has none below it)"
                )
        while lo < hi:
            mid = (lo + hi) // 2
            if _shift_ok(mid):
                hi = mid
            else:
                lo = mid + 1
        shifts.append(lo)

    def conditions(k: int) -> dict:
        m_k, msq = shifts[k], scalars[k].mod_sq()
        four_k = X2.pow2(2 * k)
        gaps = [m_k - shifts[i] for i in range(k)]
        return {
            "forward_image_small": _shift_norm_sq(items[k], -m_k, BILATERAL) * four_k < msq,
            "cross_backward_small": all(
                scalars[i].mod_sq() * _shift_norm_sq(items[k], -n, BILATERAL) * four_k < msq
                for i, n in enumerate(gaps)
            ),
            "cross_forward_small": all(
                msq * _shift_norm_sq(items[i], n, BILATERAL) * four_k < scalars[i].mod_sq()
                for i, n in enumerate(gaps)
            ),
        }

    return run.trace(lambda k: X2.from_int((k + 1) * (k + 1)) * X2.pow2(-2 * k), conditions)


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
        return self.scalar_set.point_at(t) * power_apply(self.operator, n, self.base_point)


def build_spiral_scenario(r: float, theta: AngleSpec) -> SpiralScenario:
    if r <= 0 or not math.isfinite(r):
        raise PreconditionError("spiral base must be positive and finite")
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
        raise PreconditionError("target: must be nonzero")
    if step <= 0:
        raise PreconditionError(f"step: {step!r} is not positive")
    s_lo, s_hi = s_range
    if s_hi <= s_lo:
        raise PreconditionError(f"s_range: [{s_lo!r}, {s_hi!r}] is empty")
    r = scenario.scalar_set.base
    lam, rate = math.log(r), scenario.scalar_set.rate.value
    count = int(math.floor((s_hi - s_lo) / step)) + 1
    # s*lam and s*rate are monotone in s: the grid's ends bound what the scan takes
    try:
        lo_mod, hi_mod = r ** s_lo, r ** s_hi
        ends = (s_lo, s_lo + (count - 1) * step)
        finite = all(math.exp(s * lam) < math.inf and math.isfinite(s * rate) for s in ends)
    except OverflowError:
        finite = False
    if not finite:
        raise PreconditionError(f"s_range: base**s or s*rate overflows on [{s_lo!r}, {s_hi!r}]")
    idx, dist = spiral_min_scan(lam, rate, target.real, target.imag, s_lo, step, count)
    rho = abs(target)
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
