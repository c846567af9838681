"""Batch command-line front end.

    orbitlab <command> --config PATH [--out DIR] [--emit-csv]

Every command reads one JSON config, the only source of its values, runs
deterministically, and emits a report whose only non-reproducible field is
the timestamp. Exit codes: 0 success; 1 an unreadable config or a refused
input, a jsonio.PreconditionError naming its field; 2 bad invocation or any
other exception, a plain ValueError included (an internal error).

main parses that one grammar itself: options in any order, `--opt=value` or
`--opt value`, the last repeat winning, and no abbreviations. Each command
imports only the modules it runs, so a process pays for compiling and
executing just those, and the start path loads no argparse, datetime or
hashlib. A handler returns plain result objects (jsonio records,
NamedTuples, complex numbers, tuples, dicts); run_config writes them in one
walk through jsonio.dumps.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from . import __version__, jsonio


def _field(cfg: dict, key: str, cls=object, *default):
    """The top-level config field key decoded as cls (object, list and dict
    give the raw JSON value); missing or mistyped, a PreconditionError naming key."""
    return jsonio.decode_key(cls, cfg, key, "", *default)


def _optional(cfg: dict, **fields) -> dict:
    """The fields (name=cls) that cfg sets, decoded, as keyword arguments: a
    field left out takes the default of the callee's signature, its one copy."""
    return {key: _field(cfg, key, cls) for key, cls in fields.items() if key in cfg}


def _load_targets(cfg: dict, stages: int, domain: str):
    from . import constructions

    # a negative stages still gets one default target, so the builder is the
    # one to refuse it, naming the field
    spec = _field(cfg, "targets", dict, {"default_count": max(stages, 0) + 1})
    jsonio.check_keys(spec, ("vectors", "default_count"), "targets")
    if "vectors" in spec and "default_count" in spec:
        raise jsonio.PreconditionError("targets: expected vectors or default_count, not both")
    if "vectors" not in spec:
        count = jsonio.decode_key(int, spec, "default_count", "targets")
        if count > constructions.STAGE_CAP + 1:  # before any target is built
            cap = constructions.STAGE_CAP + 1
            raise jsonio.PreconditionError(f"targets.default_count: more than {cap:,} targets")
        return jsonio.construct(
            constructions.default_target_family, "targets.default_count", count, domain
        )
    vectors = _vectors(spec, "vectors", domain, "targets")
    return jsonio.construct(constructions.TargetFamily, "targets.vectors", vectors)


def _vectors(cfg: dict, key: str, dom, path: str = "") -> tuple:
    """The list field key of config vectors on the domain dom."""
    from . import operators

    vecs = jsonio.decode_key(list, cfg, key, path)
    field = f"{path}.{key}" if path else key
    return tuple(operators.decode_vector(v, dom, f"{field}[{i}]") for i, v in enumerate(vecs))


def _cmd_classify(cfg: dict, out: "_Output") -> dict:
    from . import scalar_sets

    s = scalar_sets.from_json(_field(cfg, "set", dict), "set")
    classification = scalar_sets.classify(s)
    ms = s.strip_zero().modulus_set()
    if not all(math.isfinite(end) for end, _ in ms.intervals + ms.tails):  # lows and tail scales
        raise jsonio.PreconditionError("set: a modulus set end is past float range")
    return {"classification": classification, "modulus_set": ms}


def _cmd_build(cfg: dict, out: "_Output") -> dict:
    from . import constructions, operators, scalar_sets

    # build21 is the unilateral scheme, build22 the bilateral one; the builder
    # is looked up per call, so a patched module attribute applies
    if cfg["command"] == "build22":
        build, domain = constructions.build_bilateral, operators.BILATERAL
    else:
        build, domain = constructions.build_unilateral, operators.UNILATERAL
    sampler = scalar_sets.from_json(_field(cfg, "set", dict), "set")
    stages = _field(cfg, "stages", int)
    if stages > constructions.STAGE_CAP:  # before any target is built
        raise jsonio.PreconditionError(f"stages: more than {constructions.STAGE_CAP:,} stages")
    trace = build(sampler, _load_targets(cfg, stages, domain), stages)
    out.csv("residuals.csv", trace.to_csv)
    return {"trace": trace}


def _cmd_spiral(cfg: dict, out: "_Output") -> dict:
    from . import constructions, operators, scalar_sets

    for key in ("s_range", "step"):
        if key in cfg and "target" not in cfg:
            raise jsonio.PreconditionError(f"{key}: only a scan to a target reads it")
    rate = _field(cfg, "rate", scalar_sets.AngleSpec)
    scenario = constructions.build_spiral_scenario(_field(cfg, "base", float), rate)
    spectrum = operators.adjoint_point_spectrum(scenario.operator)
    result = {
        "operator": scenario.operator,
        "scalar_set": scenario.scalar_set,
        "adjoint_point_spectrum": sorted(spectrum, key=lambda z: (z.real, z.imag)),
    }
    if "target" in cfg:
        result["distance"] = constructions.spiral_distance_to(
            scenario,
            _field(cfg, "target", complex),
            **_optional(cfg, s_range=tuple[float, float], step=float),
        )
    return result


def _cmd_density(cfg: dict, out: "_Output") -> dict:
    from . import density, operators, scalar_sets

    op = _field(cfg, "operator", operators.OperatorSpec)
    if type(op.operator_domain()) is tuple:  # refused before the orbit walk
        raise operators.UnsupportedOperatorError(
            "operator: direct-sum points are not supported in density scans"
        )
    base = operators.decode_vector(_field(cfg, "base_point"), op.operator_domain(), "base_point")
    s = scalar_sets.from_json(_field(cfg, "set", dict), "set")
    cloud = density.generate_orbit(
        op,
        base,
        s,
        _field(cfg, "horizon", int),
        _field(cfg, "gamma_grid", int),
        _field(cfg, "radial_window", tuple[float, float], None),
    )
    ball = _field(cfg, "ball", dict)
    jsonio.check_keys(ball, ("center", "radius"), "ball")
    report = density.epsilon_density(
        cloud,
        _field(cfg, "section", tuple[int, ...]),
        jsonio.decode_key(tuple[complex, ...], ball, "center", "ball"),
        jsonio.decode_key(float, ball, "radius", "ball"),
        _field(cfg, "epsilon", float),
        _field(cfg, "grid_step", float),
    )
    out.csv("heatmap.csv", lambda: _heatmap_csv(report))
    return {"density": report, "cloud_size": len(cloud)}


def _heatmap_csv(report) -> str:
    lines = ["grid_point,distance"]
    for point, dist in report.heatmap_rows():
        parts = [jsonio.format_float(x) for x in (*point, dist)]
        # re,im of each coordinate, ";" between coordinates, then the distance
        lines.append(";".join(map(",".join, zip(*[iter(parts)] * 2))) + "," + parts[-1])
    return "\n".join(lines) + "\n"


def _cmd_criterion(cfg: dict, out: "_Output") -> dict:
    from . import criteria, operators

    op = _field(cfg, "operator", operators.OperatorSpec)
    dom = op.operator_domain()
    indices = _field(cfg, "indices")
    if isinstance(indices, dict):
        jsonio.check_keys(indices, ("upto",), "indices")
        count = jsonio.decode_key(int, indices, "upto", "indices") + 1
    else:
        count = len(indices) if isinstance(indices, list) else 0
    if count > criteria.INDEX_CAP:  # before a range or tuple that long is built
        raise jsonio.PreconditionError(f"indices: more than {criteria.INDEX_CAP:,} indices")
    inst = criteria.CriterionInstance(
        operator=op,
        right_inverse=_field(cfg, "right_inverse", operators.OperatorSpec),
        decay_vectors=_vectors(cfg, "decay_vectors", dom),
        target_vectors=_vectors(cfg, "target_vectors", dom),
        indices=tuple(range(count))
        if isinstance(indices, dict)
        else jsonio.decode(tuple[int, ...], indices, "indices"),
        **_optional(cfg, tolerance=float),
    )
    return {"criterion": criteria.check_criterion(inst)}


def _cmd_winding(cfg: dict, out: "_Output") -> dict:
    from . import winding

    curve = _field(cfg, "curve", winding.CircleCurve)
    result = jsonio.construct(winding.winding_number, "curve", curve)
    return {"winding": result, "index": result.index}


def _cmd_lambda_est(cfg: dict, out: "_Output") -> dict:
    from . import density, operators

    op = _field(cfg, "operator", operators.OperatorSpec)
    base = operators.decode_vector(_field(cfg, "base_point"), op.operator_domain(), "base_point")
    horizon = _field(cfg, "horizon", int)
    est = density.lambda_set_estimate(
        op,
        base,
        _field(cfg, "iterate", int),
        horizon,
        _field(cfg, "epsilon", float),
        **_optional(cfg, phase_grid=int),
    )
    return {
        "lambda_estimate": est,
        "multiplicative_closure": density.multiplicative_closure_report(est),
    }


_BUILD_FIELDS = ("set", "stages", "targets")
_ORBIT_FIELDS = ("operator", "base_point", "horizon")
# each command's handler and the top-level fields it reads; a config key
# outside these (and "command") is refused, so a typo cannot go unnoticed
_HANDLERS = {
    "classify": (_cmd_classify, ("set",)),
    "build21": (_cmd_build, _BUILD_FIELDS),
    "build22": (_cmd_build, _BUILD_FIELDS),
    "spiral": (_cmd_spiral, ("base", "rate", "target", "s_range", "step")),
    "density": (_cmd_density, _ORBIT_FIELDS + (
        "set", "gamma_grid", "radial_window", "section", "ball", "epsilon", "grid_step")),
    "criterion": (_cmd_criterion, (
        "operator", "right_inverse", "decay_vectors", "target_vectors", "indices",
        "tolerance")),
    "winding": (_cmd_winding, ("curve",)),
    "lambda-est": (_cmd_lambda_est, _ORBIT_FIELDS + ("iterate", "epsilon", "phase_grid")),
}


class _Output:
    def __init__(self, out_dir, emit_csv):
        self.dir = Path(out_dir) if out_dir else None
        self.emit_csv = emit_csv
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, render) -> None:
        """Write render() to name; the text is only rendered when it is written."""
        if self.emit_csv and self.dir:
            (self.dir / name).write_text(render())

    def report(self, text: str) -> None:
        if self.dir:
            (self.dir / "report.json").write_text(text)
        else:
            sys.stdout.write(text)


def run_config(cfg: dict, out_dir=None, emit_csv=False) -> tuple[int, dict]:
    """Execute one config; returns (exit_code, report dict of the result objects)."""
    if not isinstance(cfg, dict):
        raise jsonio.PreconditionError("config top level must be a JSON object")
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise jsonio.PreconditionError(f"unknown command {command!r}")
    output = _Output(out_dir, emit_csv)
    report = {
        "tool": "orbitlab",
        "version": __version__,
        "command": command,
        "config_sha256": jsonio.config_hash(cfg),
        "generated_at": utc_isoformat(time.time()),
    }
    handler, fields = _HANDLERS[command]
    try:
        jsonio.check_keys(cfg, ("command",) + fields, "")
        report["result"] = handler(cfg, output)
        text = jsonio.dumps(report)  # a value refused while written is an error too
        code = 0
    except jsonio.PreconditionError as exc:
        report.pop("result", None)
        report["error"] = str(exc)
        text = jsonio.dumps(report)
        code = 1
    output.report(text)
    return code, report


def utc_isoformat(t: float) -> str:
    """datetime.fromtimestamp(t, timezone.utc).isoformat(), from time alone:
    microseconds rounded half to even, and no fraction when they are 0."""
    frac, whole = math.modf(t)
    carry, us = divmod(round(frac * 1e6), 1_000_000)  # a fraction that rounds to 1 s
    text = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(int(whole) + carry)[:6]
    return f"{text}.{us:06d}+00:00" if us else f"{text}+00:00"


USAGE = (
    "usage: orbitlab <command> --config PATH [--out DIR] [--emit-csv]\n"
    f"commands: {', '.join(_HANDLERS)}\n"
)
_VALUED = ("--config", "--out")  # options that take a value; --emit-csv takes none


def _bad_invocation(message: str):
    sys.stderr.write(f"{USAGE}orbitlab: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: list[str]) -> tuple[str, str, str | None, bool]:
    """(command, config path, out dir or None, emit_csv) of a command line.

    A bad one prints the usage to stderr and raises SystemExit(2); -h or
    --help prints it to stdout and raises SystemExit(0)."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        raise SystemExit(0)
    command, values, emit_csv = None, {}, False
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if name in _VALUED:
            if not eq:
                value = next(args, None)
                # a separate value never looks like an option; --config=-x.json may
                if value is None or value.startswith("-"):
                    _bad_invocation(f"{name} expects a value")
            values[name] = value
        elif arg == "--emit-csv":
            emit_csv = True
        elif arg.startswith("-"):
            _bad_invocation(f"unrecognized option {arg!r}")
        elif command is not None:
            _bad_invocation(f"unexpected argument {arg!r}")
        elif arg not in _HANDLERS:
            _bad_invocation(f"unknown command {arg!r}")
        else:
            command = arg
    if command is None:
        _bad_invocation("a command is required")
    if "--config" not in values:
        _bad_invocation("--config is required")
    return command, values["--config"], values.get("--out"), emit_csv


def main(argv=None) -> int:
    command, config, out, emit_csv = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg = jsonio.loads(Path(config).read_text())
        if not isinstance(cfg, dict):
            raise jsonio.PreconditionError("top level must be a JSON object")
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    if cfg.get("command") is None:
        cfg["command"] = command
    elif cfg["command"] != command:
        print(
            f"config command {cfg['command']!r} does not match subcommand {command!r}",
            file=sys.stderr,
        )
        return 1
    if out:
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at out or above it: the invocation is at fault
            _bad_invocation(f"--out {out}: cannot make the directory: {exc}")

    try:
        code, report = run_config(cfg, out, emit_csv)
    except jsonio.PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report and exit 2
        # an empty message (say, MemoryError()) still names what went wrong
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if code != 0:
        print(f"precondition violated: {report.get('error')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
