"""Batch command-line front end.

Every subcommand reads one JSON config, the only source of its values, runs
deterministically, and emits a report whose only non-reproducible field is
the timestamp. Exit codes: 0 success; 1 an unreadable config or a refused
input, a jsonio.PreconditionError naming its field; 2 bad invocation or any
other exception, a plain ValueError included (an internal error).

Each command imports only the modules it runs, so a process pays for
compiling and executing just those. A handler returns plain result objects
(dataclasses, NamedTuples, complex numbers, tuples, dicts); run_config
encodes them once through jsonio.encode.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Literal

from . import __version__, jsonio


def _field(cfg: dict, key: str, cls=object, *default):
    """The top-level config field key decoded as cls (object, list and dict
    give the raw JSON value); missing or mistyped, a PreconditionError naming key."""
    return jsonio.decode_key(cls, cfg, key, "", *default)


def _load_targets(cfg: dict, stages: int, domain: str):
    from . import constructions

    # a negative stages still gets one default target, so the builder is the
    # one to refuse it, naming the field
    spec = _field(cfg, "targets", dict, {"default_count": max(stages, 0) + 1})
    jsonio.check_keys(spec, ("vectors", "default_count"), "targets")
    if "vectors" not in spec:
        count = jsonio.decode_key(int, spec, "default_count", "targets")
        return jsonio.construct(
            constructions.default_target_family, "targets.default_count", count, domain
        )
    vectors = _vectors(spec, "vectors", domain, "targets")
    if "default_count" in spec:
        count = jsonio.decode_key(int, spec, "default_count", "targets")
        if count != len(vectors):
            raise jsonio.PreconditionError(
                f"targets.default_count: {count} does not match the {len(vectors)} "
                "vectors in targets.vectors"
            )
    return jsonio.construct(constructions.TargetFamily, "targets.vectors", vectors)


def _base_point(obj, dom, field: str = "base_point"):
    """Decode a config vector on the operator_domain() dom: an [re, im] pair
    on C, a SeqVector object on sequence spaces, and on a direct sum a list
    with one vector per block. A shape that does not fit the domain is a
    PreconditionError naming the field, e.g. `target_vectors[2][0]`."""
    from . import operators

    if not isinstance(dom, tuple):
        return jsonio.decode(complex if dom == "scalar" else operators.SeqVector, obj, field)
    if isinstance(obj, list) and len(obj) == len(dom):
        return tuple(_base_point(x, d, f"{field}[{i}]") for i, (x, d) in enumerate(zip(obj, dom)))
    raise jsonio.PreconditionError(f"{field}: {obj!r} is not a vector on the {dom!r} domain")


def _vectors(cfg: dict, key: str, dom, path: str = "") -> tuple:
    """The list field key of config vectors on the domain dom."""
    vecs = jsonio.decode_key(list, cfg, key, path)
    field = f"{path}.{key}" if path else key
    return tuple(_base_point(v, dom, f"{field}[{i}]") for i, v in enumerate(vecs))


def _cmd_classify(cfg: dict, out: "_Output") -> dict:
    from . import scalar_sets

    s = scalar_sets.from_json(_field(cfg, "set", dict), "set")
    return {
        "classification": scalar_sets.classify(s),
        "modulus_set": s.strip_zero().modulus_set(),
    }


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
            _field(cfg, "s_range", tuple[float, float], (-20.0, 20.0)),
            _field(cfg, "step", float, 1e-4),
        )
    return result


def _cmd_density(cfg: dict, out: "_Output") -> dict:
    from . import density, operators, scalar_sets

    op = _field(cfg, "operator", operators.OperatorSpec)
    base = _base_point(_field(cfg, "base_point"), op.operator_domain())
    s = scalar_sets.from_json(_field(cfg, "set", dict), "set")
    window = cfg.get("radial_window")
    cloud = density.generate_orbit(
        op,
        base,
        s,
        _field(cfg, "horizon", int),
        _field(cfg, "gamma_grid", int),
        None if window is None else _field(cfg, "radial_window", tuple[float, float]),
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
    for coords, dist in report.heatmap_rows():
        flat = ";".join(
            f"{jsonio.format_float(z.real)},{jsonio.format_float(z.imag)}" for z in coords
        )
        lines.append(f"{flat},{jsonio.format_float(dist)}")
    return "\n".join(lines) + "\n"


def _cmd_criterion(cfg: dict, out: "_Output") -> dict:
    from . import criteria, operators

    op = _field(cfg, "operator", operators.OperatorSpec)
    dom = op.operator_domain()
    indices = _field(cfg, "indices")
    if isinstance(indices, dict):
        jsonio.check_keys(indices, ("upto",), "indices")
    inst = criteria.CriterionInstance(
        operator=op,
        right_inverse=_field(cfg, "right_inverse", operators.OperatorSpec),
        decay_vectors=_vectors(cfg, "decay_vectors", dom),
        target_vectors=_vectors(cfg, "target_vectors", dom),
        indices=tuple(range(jsonio.decode_key(int, indices, "upto", "indices") + 1))
        if isinstance(indices, dict)
        else jsonio.decode(tuple[int, ...], indices, "indices"),
        tolerance=_field(cfg, "tolerance", float, criteria.DEFAULT_TOLERANCE),
    )
    full = _field(cfg, "mode", Literal["full"], None) == "full"
    report = criteria.kitai_mode(inst) if full else criteria.check_criterion(inst)
    return {"criterion": report}


def _cmd_winding(cfg: dict, out: "_Output") -> dict:
    from . import winding

    result = winding.winding_number(_field(cfg, "curve", winding.CircleCurve))
    return {"winding": result, "index": result.index}


def _cmd_lambda_est(cfg: dict, out: "_Output") -> dict:
    from . import density, operators

    op = _field(cfg, "operator", operators.OperatorSpec)
    base = _base_point(_field(cfg, "base_point"), op.operator_domain())
    horizon = _field(cfg, "horizon", int)
    est = density.lambda_set_estimate(
        op,
        base,
        _field(cfg, "iterate", int),
        horizon,
        _field(cfg, "epsilon", float),
        _field(cfg, "phase_grid", int, 360),
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
        "tolerance", "mode")),
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
    """Execute one config; returns (exit_code, report dict)."""
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
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    handler, fields = _HANDLERS[command]
    try:
        jsonio.check_keys(cfg, ("command",) + fields, "")
        report["result"] = jsonio.encode(handler(cfg, output))
        code = 0
    except jsonio.PreconditionError as exc:
        report["error"] = str(exc)
        code = 1
    output.report(jsonio.dumps(report))
    return code, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="Scalar-set orbit dynamics toolkit: classification, "
        "constructions, density scans, criterion checks, winding audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument("--emit-csv", action="store_true", help="write companion CSV files")
    args = parser.parse_args(argv)

    try:
        cfg = jsonio.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise jsonio.PreconditionError("top level must be a JSON object")
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    if cfg.get("command") is None:
        cfg["command"] = args.command
    elif cfg["command"] != args.command:
        print(
            f"config command {cfg['command']!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 1

    try:
        code, report = run_config(cfg, args.out, args.emit_csv)
    except jsonio.PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report and exit 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if code != 0:
        print(f"precondition violated: {report.get('error')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
