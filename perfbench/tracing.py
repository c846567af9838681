"""Outside-in tracing of orbitlab's module boundaries.

The tracer replaces, for the length of a traced pass, the names through which
one orbitlab module reaches another (``density.nearest_distances``,
``criteria.apply``, ``cli.run_config``, the ``X2``/``XC`` operators, ...) with
timing wrappers; ``uninstall`` puts the originals back. Nothing inside the
package is edited.

* Only the outermost call into a layer is recorded: a call made while the
  same layer is already active runs unwrapped.
* Coarse boundaries become spans (trace id, id, parent, name, start, end),
  kept in memory and written once at the end of the run.
* Hot boundaries (``operators.apply``, exact arithmetic, modulus picks) are
  aggregated as a call count and summed time, never one span per call.
* Self time is a boundary's duration minus the time spent in the boundaries
  directly nested in it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from orbitlab import _exact, cli, constructions, criteria, density, jsonio, scalar_sets, winding

perf = time.perf_counter

_EXACT_METHODS = {
    _exact.X2: (
        "__mul__", "__truediv__", "__add__", "__sub__", "__neg__",
        "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
        "round_up_bits", "log2", "__float__", "to_fraction",
        "from_int", "from_float", "from_fraction", "pow2",
    ),
    _exact.XC: (
        "__add__", "__sub__", "__mul__", "__truediv__", "scale", "mod_sq",
        "to_complex", "to_fraction_pair", "from_complex", "from_fractions",
    ),
}
MAX_COUNTS = ("exact.max_bits", "constructions.max_shift")


def _bits(value) -> int:
    if isinstance(value, _exact.XC):
        return max(_bits(value.re), _bits(value.im))
    if isinstance(value, _exact.X2):
        return max(abs(value.num).bit_length(), value.den.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # boundary -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open frames: [child_s, span id]
        self._active: set[str] = set()
        self._saved: list[tuple] = []
        self._trace = 0
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        if name in MAX_COUNTS:
            self.counts[name] = max(self.counts.get(name, 0), value)
        else:
            self.counts[name] = self.counts.get(name, 0) + value

    def _close(self, name, start, end, frame, hot):
        dur = end - start
        if self._stack:
            self._stack[-1][0] += dur
        rec = self.totals.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]
        if not hot:
            parent = self._stack[-1][1] if self._stack else None
            self.spans.append(
                {"trace": self._trace, "id": frame[1], "parent": parent,
                 "name": name, "start": start, "end": end}
            )

    def _wrap(self, fn, name, layer, hot, hook):
        active = self._active
        stack = self._stack

        def boundary(*args, **kwargs):
            if layer in active:
                return fn(*args, **kwargs)
            active.add(layer)
            if hot:
                frame = [0.0, stack[-1][1] if stack else None]
            else:
                self._next_id += 1
                frame = [0.0, self._next_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active.discard(layer)
                self._close(name, start, end, frame, hot)
            if hook is not None:
                hook(self, args, result)
            return result

        return boundary

    @contextmanager
    def job(self, trace_id: int, name: str = "job", span_id: int = 0, parent=None):
        """Root span of one job; boundaries reached inside it hang below it."""
        self._trace = trace_id
        self._next_id = span_id
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans.append(
                {"trace": trace_id, "id": span_id, "parent": parent,
                 "name": name, "start": start, "end": end}
            )

    # -- installing the wrappers --------------------------------------------

    def _patch(self, owner, attr, name, layer, hot=False, hook=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        fn = getattr(owner, attr)
        wrapped = self._wrap(fn, name, layer, hot, hook)
        if isinstance(raw, classmethod):
            wrapped = staticmethod(wrapped)  # fn is already bound to the class
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        p = self._patch
        p(cli, "run_config", "cli.run_config", "cli")
        for fn in ("loads", "dumps", "config_hash"):
            p(jsonio, fn, f"jsonio.{fn}", "jsonio", hook=_report_bytes if fn == "dumps" else None)
        p(scalar_sets, "from_json", "scalar_sets.from_json", "scalar_sets")
        p(scalar_sets, "classify", "scalar_sets.classify", "scalar_sets")
        for fn in ("pick_modulus_at_least", "pick_modulus_at_most"):
            p(constructions, fn, "scalar_sets.pick", "scalar_sets", hot=True)
        p(density, "apply", "operators.apply", "operators", hot=True)
        p(criteria, "apply", "operators.apply", "operators", hot=True, hook=_criteria_apply)
        p(density, "nearest_distances", "kernels.nearest_distances", "kernels", hook=_nearest)
        p(constructions, "spiral_min_scan", "kernels.spiral_min_scan", "kernels", hook=_spiral)
        p(density, "generate_orbit", "density.generate_orbit", "density")
        p(density, "epsilon_density", "density.epsilon_density", "density", hook=_cloud)
        for fn in ("build_unilateral", "build_bilateral"):
            p(constructions, fn, f"constructions.{fn}", "constructions", hook=_max_shift)
        p(constructions, "spiral_distance_to", "constructions.spiral_distance_to", "constructions")
        # cli renders construction traces through these methods; without them
        # that exact-arithmetic cost would land in cli.run_config's self time
        for fn in ("to_json", "to_csv"):
            p(constructions.ConstructionTrace, fn, "constructions.trace_encode", "constructions")
        p(criteria, "check_criterion", "criteria.check_criterion", "criteria")
        p(winding, "winding_number", "winding.winding_number", "winding")
        for fn in ("xvec_from_seq", "xvec_norm_sq", "xvec_sub"):
            p(constructions, fn, "exact.ops", "exact", hot=True, hook=_max_bits)
        for cls, methods in _EXACT_METHODS.items():
            for m in methods:
                p(cls, m, "exact.ops", "exact", hot=True, hook=_max_bits)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self) -> dict:
        return {"spans": self.spans, "totals": self.totals, "counts": self.counts}

    def merge(self, other: dict) -> None:
        """Add the totals and counts another tracer dumped (a traced child)."""
        self.spans.extend(other["spans"])
        for name, (calls, total, own) in other["totals"].items():
            rec = self.totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for name, value in other["counts"].items():
            self.count(name, value)

    def reset_pass(self) -> None:
        self.totals = {}
        self.counts = {}


def _report_bytes(tracer, args, result):
    tracer.count("jsonio.report_bytes", len(result.encode("utf-8")))


def _criteria_apply(tracer, args, result):
    tracer.count("criteria.apply_calls", 1)


def _nearest(tracer, args, result):
    grid, cloud, dim = args
    tracer.count("kernels.nearest_pairs", (len(grid) // dim) * (len(cloud) // dim))
    tracer.count("density.grid_points", len(grid) // dim)
    tracer.count("density.kernel_samples", len(cloud) // dim)


def _spiral(tracer, args, result):
    tracer.count("kernels.spiral_points", args[6])


def _cloud(tracer, args, result):
    tracer.count("density.cloud_samples", len(args[0]))


def _max_shift(tracer, args, result):
    tracer.count("constructions.max_shift", max(c.shift for c in result.choices))


def _max_bits(tracer, args, result):
    tracer.count("exact.max_bits", _bits(result))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

TIME_METRICS = {
    # metric: (boundary, "total" | "self")
    "kernels.nearest_distances_s": ("kernels.nearest_distances", "total"),
    "density.epsilon_density.self_s": ("density.epsilon_density", "self"),
    "density.generate_orbit_s": ("density.generate_orbit", "total"),
    "kernels.spiral_min_scan_s": ("kernels.spiral_min_scan", "total"),
    "constructions.spiral_distance_to.self_s": ("constructions.spiral_distance_to", "self"),
    "exact.ops_s": ("exact.ops", "total"),
    "scalar_sets.pick_s": ("scalar_sets.pick", "total"),
    "constructions.build_bilateral.self_s": ("constructions.build_bilateral", "self"),
    "constructions.build_unilateral.self_s": ("constructions.build_unilateral", "self"),
    "constructions.trace_encode.self_s": ("constructions.trace_encode", "self"),
    "criteria.check_criterion.self_s": ("criteria.check_criterion", "self"),
    "operators.apply_s": ("operators.apply", "total"),
    "jsonio.loads_s": ("jsonio.loads", "total"),
    "jsonio.dumps_s": ("jsonio.dumps", "total"),
    "jsonio.config_hash_s": ("jsonio.config_hash", "total"),
    "cli.run_config.self_s": ("cli.run_config", "self"),
    "scalar_sets.from_json_s": ("scalar_sets.from_json", "total"),
    "scalar_sets.classify_s": ("scalar_sets.classify", "total"),
    "winding.winding_number_s": ("winding.winding_number", "total"),
}
COUNT_METRICS = (
    "kernels.nearest_pairs",
    "density.grid_points",
    "density.cloud_samples",
    "kernels.spiral_points",
    "exact.ops",
    "exact.max_bits",
    "scalar_sets.pick_calls",
    "constructions.max_shift",
    "criteria.apply_calls",
    "operators.apply_calls",
    "jsonio.report_bytes",
)
_CALL_COUNTS = {
    "exact.ops": "exact.ops",
    "scalar_sets.pick_calls": "scalar_sets.pick",
    "operators.apply_calls": "operators.apply",
}


def pass_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(time metrics in seconds, count metrics) of the pass just traced."""
    times = {}
    for metric, (boundary, kind) in TIME_METRICS.items():
        rec = tracer.totals.get(boundary, [0, 0.0, 0.0])
        times[metric] = rec[1] if kind == "total" else rec[2]
    counts = {}
    for metric in COUNT_METRICS:
        if metric in _CALL_COUNTS:
            counts[metric] = tracer.totals.get(_CALL_COUNTS[metric], [0])[0]
        else:
            counts[metric] = tracer.counts.get(metric, 0)
    samples = tracer.counts.get("density.cloud_samples", 0)
    kept = tracer.counts.get("density.kernel_samples", 0)
    counts["density.prefilter_kept_ratio"] = kept / samples if samples else 0.0
    return times, counts


def reached(tracer: Tracer) -> set[str]:
    """Boundaries and counters that recorded at least one call this pass."""
    hit = {name for name, rec in tracer.totals.items() if rec[0]}
    if tracer.counts.get("criteria.apply_calls"):
        hit.add("criteria.apply")
    return hit
