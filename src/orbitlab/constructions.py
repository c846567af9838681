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
  Shifts strictly increase, so the earlier stages i whose test reads
  |B^n y_k|^2 at an n at or below y_k's first index (where it is q 4^n) or
  |B^n y_i|^2 at an n at or past every degree (where it is p_i) form a
  prefix of the stage list. Each test reads that prefix through one exact
  comparison against a running maximum, of |gamma_i|^2 4^{m_i} or of
  p_i / |gamma_i|^2, and only the stages after it one by one: O(1) exact
  comparisons per stage on the default targets, whose prefixes hold every
  earlier stage.

All stage conditions and residual bounds are verified with exact
scaled-rational arithmetic: the recorded booleans are exact statements, not
float comparisons. A residual square is summed from the integers of its
terms on a cell grid (_exact.pair_sum) that the bound check and the reported
values read exactly as they read the exact sum; the terms as X2 and their
exact sums are built only when read. Scalar choices follow a margin rule:
one resolver value per stage, asked for with factor 1/2 slack, which the
strict inequality then holds with exactly (see _Stages.pick).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable

from . import jsonio
from .jsonio import Field, PreconditionError, Record
from ._exact import X2, XC, pair_sum, x2_sum, xvec_from_seq, xvec_norm_sq, xvec_sub
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


def spiral_min_scan(log_base, angle_rate, target_re, target_im, s_start, step, count):
    """_kernels.spiral_min_scan, imported on the first call: a build never
    compiles the kernels. The spiral scan calls this module attribute, so a
    patched one applies."""
    from ._kernels import spiral_min_scan as kernel

    return kernel(log_base, angle_rate, target_re, target_im, s_start, step, count)


class BoundedScalarSetError(PreconditionError):
    """The unilateral builder needs a scalar set with unbounded moduli."""


class NotAccumulatingAtZeroError(PreconditionError):
    """The bilateral builder needs positive moduli accumulating at 0."""


class SpiralBaseOneError(PreconditionError):
    """The spiral scenario requires a modulus base different from 1."""


class ScanRangeError(PreconditionError):
    """The scan range cannot certify that the tail stays farther than the grid minimum."""


class ShiftSearchLimitError(PreconditionError):
    """A bilateral stage's least shift passes the cap SHIFT_CAP."""


# the exact fallback of a residual sum would hold integers of about this many bits
SHIFT_CAP = 1 << 40
# the most stages a config may ask for; the CLI refuses more before building
# targets. Shipped samplers stop far below it: build22 at stage 37 (SHIFT_CAP),
# build21 at report time from 168 stages (its scalars' integers outgrow
# Python's digit limit), and a run of 1,000 stages takes under a second.
STAGE_CAP = 1000


# ---------------------------------------------------------------------------
# target families


class TargetFamily(Record):
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


class StageChoice(Record):
    stage: int
    scalar: XC
    shift: int

    def modulus_sq(self) -> X2:
        return self.scalar.mod_sq()

    def modulus_log2(self) -> float:
        return self.modulus_sq().log2() / 2.0

    def modulus_float(self) -> float:
        return float(self.modulus_sq()) ** 0.5


class ConstructionTrace(Record):
    scheme: str  # "unilateral" | "bilateral"
    choices: tuple[StageChoice, ...]
    partial_sum: SeqVector
    residuals: tuple[float, ...]
    # per stage: round_up_bits(64) of the squared residual norm
    residual_sq_upper: tuple[X2, ...]
    conditions: tuple[dict, ...]
    tail_bound: float
    # stage_terms(k) forms stage k's residual terms from the build's exact inputs
    stage_terms: Callable[[int], tuple[X2, ...]] = Field(repr=False)

    @property
    def stages(self) -> int:
        return len(self.choices) - 1

    @functools.cached_property
    def residual_terms(self) -> tuple[tuple[X2, ...], ...]:
        """Per stage, the squared moduli of the residual's entries, by index.
        The build sums them without forming them, so they are formed only
        when read."""
        return tuple(map(self.stage_terms, range(len(self.choices))))

    @functools.cached_property
    def residual_sq_exact(self) -> tuple[X2, ...]:
        """The exact squared residual norms. Their mantissas can run to
        millions of bits, so they are summed only when read."""
        return tuple(x2_sum(terms) for terms in self.residual_terms)

    def to_json(self) -> dict:
        # the report's values, for jsonio.dumps; exact residual squares can carry
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


def _times_4_pow(x: X2, n: int) -> X2:
    """x 4^n, built from x's mantissas without multiplying them."""
    return X2(x.num, x.den, x.exp + 2 * n)


class _ShiftNorms:
    """The squared norms |B^n y|^2 (|F^{-n} y|^2 for n < 0) of one bilateral
    target y, in closed form, from its (index, |entry|^2) items in index
    order.

    _weight_log2 gives entry j the exponent max(j, 0) when j <= n and
    n - min(j, 0) when j >= n (the two agree at j = n). So wherever the
    first i indices are the ones <= n, |B^n y|^2 = p[i] + q[i] 4^n, with
    p[i] = sum |y_j|^2 4^max(j, 0) over the first i items and
    q[i] = sum |y_j|^2 4^-min(j, 0) over the rest; the form for i also holds
    at indices[i], the next index up. Below the support the norm is
    q[0] 4^n, and from the last index on it is p[-1].

    The norm is nondecreasing in n, as B multiplies entries by weights >= 1
    and F divides by them: {n : c * at(n) < bound} is a down-set, and
    last_below gives its largest member exactly."""

    def __init__(self, items):
        self.indices = [j for j, _ in items]
        near = (_times_4_pow(m, max(j, 0)) for j, m in items)
        far = (_times_4_pow(m, -min(j, 0)) for j, m in reversed(items))
        self.p = list(accumulate(near, initial=X2.ZERO))
        self.q = list(accumulate(far, initial=X2.ZERO))[::-1]

    def at(self, n: int) -> X2:
        i = bisect_right(self.indices, n)
        return self.p[i] + _times_4_pow(self.q[i], n)

    def below_support(self, top: X2, bound: X2) -> int:
        """The least m with top * q[0] < bound * 4^m (top, bound > 0). As
        at(n) = q[0] 4^n for n <= indices[0], a term c * at(s - m) < bound
        with c 4^s <= top holds at every such m where s - m <= indices[0]."""
        r = top * self.q[0] / bound
        # log2 r lies in (f - 1, f + 1), f as in last_below: 4^m < r at
        # m = (f + 1) // 2 - 1, and 4^m > r at (f + 1) // 2 + 1
        m = (r.exp + r.num.bit_length() - r.den.bit_length() + 1) // 2
        return m if r < X2.pow2(2 * m) else m + 1

    def last_below(self, c: X2, bound: X2) -> int | None:
        """The largest n with c * at(n) < bound (c, bound > 0), or None when
        every n passes, that is when c * p[-1] < bound."""
        cap = bound / c
        if self.p[-1] < cap:
            return None
        # where the first i indices are <= n, c * at(n) < bound reads
        # q[i] 4^n < cap - p[i]. Go up the indices while at(j) passes, read
        # so: across a wide support p[i] + q[i] 4^j would be a sum of huge
        # integers. At the last index at(j) = p[-1] fails.
        for i, j in enumerate(self.indices):
            if self.p[i + 1] < cap and _times_4_pow(self.q[i + 1], j) < cap - self.p[i + 1]:
                continue
            # at(j) fails, so the answer n is below j and solves 4^n < r; log2 r
            # lies within 1 of f, its exponent plus its mantissas' bit length
            # difference, so n = f // 2 passes unless 4^n >= r
            r = (cap - self.p[i]) / self.q[i]
            n = (r.exp + r.num.bit_length() - r.den.bit_length()) // 2
            if not X2.pow2(2 * n) < r:
                n -= 1
            return n


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
        # msqs[k] = scalars[k].mod_sq(), computed once by pick
        self.msqs: list[X2] = []
        self.shifts: list[int] = []

    def pick(self, resolve, want: float, admissible, missing: str) -> X2:
        """Append resolve(want) and return its squared modulus; `missing` is
        the refusal when the set has no scalar to offer. One ask suffices:
        want carries one bit of slack on the modulus (unilateral need + 1) or
        two on the squares (bilateral cap - 1), and the float logs behind it
        err by about 1e-15 relative on sizes the stage and shift caps keep far
        below 2^40 bits. So a pick that fails admissible is an internal fault."""
        gx = resolve(want)
        if gx is None:
            raise self.error(missing)
        if gx.is_zero:
            raise self.error("resolver produced zero, which carries no scale")
        msq = gx.mod_sq()
        if not admissible(msq):
            raise RuntimeError(f"stage {len(self.scalars)} pick fails its admissibility test")
        self.scalars.append(gx)
        self.msqs.append(msq)
        return msq

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
        self.x = x  # with self.entries, the exact inputs terms(k) reads
        # per nonzero x_j by index (a zero one adds no term: 0 * g - c is -c):
        # j, |x_j|^2 as num, den, exp, and twice the cap c of its weight
        # exponent, min(c, n) under B^n (see _weight_log2)
        self.entries = []
        for j in sorted(x):
            if not x[j].is_zero:
                sq, cap = x[j].mod_sq(), _weight_log2(self.domain, j, max(j, 0))
                self.entries.append((j, sq.num, sq.den, sq.exp, 2 * cap))
        sums, conds = [], []
        for k in range(len(self.scalars)):
            limit = bound(k)
            sums.append(self.residual_sq(k, limit))
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
            stage_terms=self.terms,
        )

    def _split(self, k: int):
        """Stage k's residual terms in two parts. Far: (i, num, den, exp) for
        each entry x_j that lands on an index i = j - m_k off y_k's support
        under a pick on a dyadic axis: its term |x_j|^2 |gamma_k|^2 4^w (w
        the weight exponent B^{m_k} gives index j) built from the integers
        of the two squares, with the triple of the multiplied-out square
        (XC.on_dyadic_axis; the pick's den is 1). Near: every other entry of
        gamma_k B^{m_k} x - y_k, multiplied out, as {i: squared modulus}."""
        g, m, t, msq = self.scalars[k], self.shifts[k], self.targets[k], self.msqs[k]
        # B^m drops the unilateral entries below m
        lo = bisect_left(self.entries, m, key=lambda p: p[0]) if self.domain == UNILATERAL else 0
        axis, far, near = g.on_dyadic_axis, [], {}
        gn, ge, m2 = msq.num, msq.exp, 2 * m
        for j, num, den, exp, cap in self.entries[lo:]:
            if axis and j - m not in t:
                far.append((j - m, num * gn, den, exp + ge + (cap if cap < m2 else m2)))
            else:
                near[j] = self.x[j]
        diff = xvec_sub({j: c * g for j, c in _shift(near, m, self.domain).items()}, t)
        return far, {i: c.mod_sq() for i, c in diff.items()}

    def residual_sq(self, k: int, limit: X2) -> X2:
        """Stage k's squared residual norm, or a stand-in that float(),
        round_up_bits(64) and `<= limit` read the same: pair_sum of its terms
        where every one is dyadic and the cell is decided, else their exact
        sum in index order. Either way it is cell_sum(terms(k), limit)."""
        far, near = self._split(k)
        pairs = _pairs(far, near)
        total = None if pairs is None else pair_sum(pairs, limit)
        return x2_sum(_row(far, near)) if total is None else total

    def terms(self, k: int) -> tuple[X2, ...]:
        """Stage k's residual terms by index (ConstructionTrace.residual_terms)."""
        return _row(*self._split(k))


def _pairs(far, near) -> list | None:
    """A stage's residual terms (see _Stages._split) as (mantissa, exponent)
    pairs, in no set order, or None when one of them is not dyadic."""
    if any(f[2] != 1 for f in far) or any(sq.den != 1 for sq in near.values()):
        return None
    return [(num, exp) for _, num, _, exp in far] + [(sq.num, sq.exp) for sq in near.values()]


def _row(far, near) -> tuple[X2, ...]:
    """A stage's residual terms (see _Stages._split) as X2, by index."""
    row = {i: X2(num, den, exp) for i, num, den, exp in far}
    row.update(near)
    return tuple(row[i] for i in sorted(row))


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
            "set: scalar set must have unbounded modulus: the unilateral scheme "
            "requires arbitrarily large scalars"
        )
    msqs, shifts, norm_sqs, degrees = run.msqs, run.shifts, run.norm_sqs, run.degrees
    # tops[k] is the largest of msqs[:k] (0 when k = 0), and top_log the
    # largest of their log2(). Every msq is positive and X2 compares exactly,
    # so condition (ii) holds against each earlier stage iff it holds against
    # tops[k]; and k + a/2 + x/2 is monotone in x, so top_log gives the
    # largest of the stage's demands.
    tops = [X2.ZERO]
    top_log = -math.inf
    # reaches[k] is the largest shifts[i] + degrees[i] over i < k (-1 when
    # k = 0): stage k's shift is one past it
    reaches = [-1]

    def dominant(k: int, msq: X2) -> dict:
        # conditions (i) and (ii) of stage k for the squared modulus msq
        scaled = norm_sqs[k] * X2.pow2(2 * k)
        return {"target_small": scaled < msq, "dominates_previous": tops[k] * scaled < msq}

    for k in range(stages + 1):
        # log2 of the modulus threshold: max over condition (i) and (ii) demands
        need = k + norm_sqs[k].log2() / 2.0
        need = max(need, need + top_log / 2.0)
        run.pick(
            lambda want: pick_modulus_at_least(sampler, want),
            need + 1.0,  # factor 1/2 slack
            lambda msq: all(dominant(k, msq).values()),
            "set: scalar set must have unbounded modulus: no scalar of the required size is available",
        )
        shifts.append(reaches[k] + 1)
        reaches.append(max(reaches[k], shifts[k] + degrees[k]))
        tops.append(max(tops[k], msqs[k]))
        top_log = max(top_log, msqs[k].log2())

    def conditions(k: int) -> dict:
        return {**dominant(k, msqs[k]), "shift_gap": shifts[k] > reaches[k]}

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
            "set: scalar set must have positive moduli accumulating at 0: the "
            "bilateral scheme requires arbitrarily small nonzero scalars"
        )
    msqs, shifts, norm_sqs, degrees = run.msqs, run.shifts, run.norm_sqs, run.degrees
    norms = [_ShiftNorms(items) for items in run.items]
    # per fixed stage i: log2 |gamma_i|, m_i + d_i and log2 ||y_i||
    logs: list[tuple[float, int, float]] = []
    # running maxima over the first j stages (0 for none): tops[j] of
    # |gamma_i|^2 4^{m_i} and flats[j] of p_i[-1] / |gamma_i|^2, with
    # p_i[-1] = |B^n y_i|^2 for every n >= deg(y_i), so for n >= reach
    tops, flats, reach = [X2.ZERO], [X2.ZERO], max(degrees)

    for k in range(stages + 1):
        # a-priori forward-cross bound: |gamma_k| < 2^-k |gamma_i| / (2^{m_i+d_i} ||y_i||)
        cap = 0.0
        for g_i, reach_i, n_i in logs:
            cap = min(cap, -k + g_i - reach_i - n_i)
        msq = run.pick(
            lambda want: pick_modulus_at_most(sampler, want),
            cap - 1.0,  # factor 1/2 slack
            lambda s: not k or s * X2.pow2(2 * k) < room,
            "set: scalar set must have positive moduli accumulating at 0: no "
            "scalar of the required smallness is available",
        )

        # the least shift m past every earlier one with c 4^k |B^{s - m} y_k|^2
        # < |gamma_k|^2 / 4 for each decay term (s, c): the forward term (0, 1)
        # and (m_i, |gamma_i|^2) per earlier stage. A term with s <= cut, the
        # first shift m0 plus y_k's first index, reads c 4^s q[0] 4^-m from m0
        # on, so those terms hold together from below_support of their
        # largest c 4^s; shifts increase, so the stages among them are a
        # prefix, and tops holds its maximum. Any other term holds exactly
        # for s - m <= last_below.
        y_k, bound = norms[k], msq * X2.pow2(-2 - 2 * k)
        m0 = shifts[-1] + 1 if k else 0
        cut = m0 + y_k.indices[0]
        if cut < 0:  # no term is far, the forward one included
            least, near = m0, [(0, X2.ONE), *zip(shifts, msqs)]
        else:
            far = bisect_right(shifts, cut)
            least = max(m0, y_k.below_support(max(tops[far], X2.ONE), bound))
            near = [*zip(shifts[far:], msqs[far:])]
        lasts = [(s, y_k.last_below(c, bound)) for s, c in near]
        m_k = max([least] + [s - n for s, n in lasts if n is not None])
        if m_k > SHIFT_CAP:
            raise ShiftSearchLimitError(
                f"stages: {stages} stages need a shift beyond the cap "
                f"2**{SHIFT_CAP.bit_length() - 1} (stage {k} needs {m_k})"
            )
        shifts.append(m_k)
        tops.append(max(tops[k], _times_4_pow(msq, m_k)))
        flats.append(max(flats[k], y_k.p[-1] / msq))
        # s 4^k < room, the least |gamma_i|^2 / (4^{m_i+d_i} ||y_i||^2), is each forward-cross test
        gap = msq / _times_4_pow(norm_sqs[k], m_k + degrees[k])
        room = min(room, gap) if k else gap
        logs.append((msq.log2() / 2.0, m_k + degrees[k], norm_sqs[k].log2() / 2.0))

    def conditions(k: int) -> dict:
        # the earlier stages whose pairwise test reads |B^n y_k|^2 at
        # n = m_i - m_k <= a, y_k's first index, or |B^n y_i|^2 at
        # n = m_k - m_i >= reach form prefixes, as shifts increase: each is
        # tested once on its running maximum, the stages after it pair by pair
        m_k, msq, y_k = shifts[k], msqs[k], norms[k]
        four_k = X2.pow2(2 * k)
        below = bisect_right(shifts, m_k + y_k.indices[0], 0, k)
        past = bisect_right(shifts, m_k - reach, 0, k)
        return {
            "forward_image_small": y_k.at(-m_k) * four_k < msq,
            "cross_backward_small": _times_4_pow(tops[below] * y_k.q[0], k - m_k) < msq and all(
                msqs[i] * y_k.at(shifts[i] - m_k) * four_k < msq for i in range(below, k)
            ),
            "cross_forward_small": msq * flats[past] * four_k < X2.ONE and all(
                msq * norms[i].at(m_k - shifts[i]) * four_k < msqs[i] for i in range(past, k)
            ),
        }

    return run.trace(lambda k: X2.from_int((k + 1) * (k + 1)) * X2.pow2(-2 * k), conditions)


# ---------------------------------------------------------------------------
# spiral counterexample scenario


class SpiralScenario(Record):
    """Scalar rotation-dilation operator on C paired with its matching spiral
    scalar set; every scaled orbit point stays on the spiral."""

    operator: ScalarOnC
    scalar_set: LogSpiral

    def orbit_point(self, t: float, n: int) -> complex:
        """gamma(t) * R^n applied to the base point 1; lies at parameter t+n."""
        return self.scalar_set.point_at(t) * power_apply(self.operator, n, 1.0 + 0.0j)


def build_spiral_scenario(r: float, theta: AngleSpec) -> SpiralScenario:
    if r <= 0 or not math.isfinite(r):
        raise PreconditionError("base: spiral base must be positive and finite")
    if r == 1.0:
        raise SpiralBaseOneError("base: spiral base 1 degenerates to a rotation: no modulus drift")
    tv = theta.value
    op = ScalarOnC(complex(r * math.cos(tv), -r * math.sin(tv)))
    return SpiralScenario(operator=op, scalar_set=LogSpiral(r, theta))


class SpiralDistanceResult(Record):
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
    span = (s_hi - s_lo) / step
    if not span < 2**53:  # inf included
        raise PreconditionError(f"step: {step!r} puts more than 2**53 grid points on s_range")
    count = int(math.floor(span)) + 1
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
