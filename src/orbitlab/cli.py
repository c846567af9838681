"""Batch command-line front end.

Every subcommand reads one JSON config, runs deterministically, and emits a
report whose only non-reproducible field is the timestamp. Exit codes:
0 success, 1 violated operation precondition (the message names it), 2
internal error or bad invocation. Every precondition error the package raises
derives from ValueError, which is what maps to exit code 1.

Each command imports only the modules it runs, so a process pays for
compiling and executing just those.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, jsonio

COMMANDS = (
    "classify",
    "build21",
    "build22",
    "spiral",
    "density",
    "criterion",
    "winding",
    "lambda-est",
)


def _load_targets(cfg: dict, domain: str):
    from . import constructions

    spec = cfg.get("targets", {"default_count": cfg["stages"] + 1})
    if "vectors" in spec:
        vecs = tuple(
            _base_point(v, domain, f"targets.vectors[{i}]") for i, v in enumerate(spec["vectors"])
        )
        return constructions.TargetFamily(vecs)
    return constructions.default_target_family(int(spec["default_count"]), domain)


def _base_point(obj, dom, field: str = "base_point"):
    """Decode a config vector on the domain dom (operator_domain of the
    operator): an [re, im] pair on C, a SeqVector object on sequence spaces,
    and on a direct sum a list with one vector per block. A shape that does
    not fit the domain is a ValueError naming the field, e.g.
    `target_vectors[2][0]`."""
    from . import operators

    if not isinstance(dom, tuple):
        return jsonio.decode(complex if dom == "scalar" else operators.SeqVector, obj, field)
    if isinstance(obj, list) and len(obj) == len(dom):
        return tuple(_base_point(x, d, f"{field}[{i}]") for i, (x, d) in enumerate(zip(obj, dom)))
    raise ValueError(f"{field}: {obj!r} is not a vector on the {dom!r} domain")


def _cmd_classify(cfg: dict, out: "_Output") -> dict:
    from . import scalar_sets

    s = scalar_sets.from_json(cfg["set"], "set")
    result = scalar_sets.classify(s)
    return {
        "classification": jsonio.encode(result),
        "modulus_set": scalar_sets.modulus_set(scalar_sets.strip_zero(s)).to_json(),
    }


def _cmd_build(cfg: dict, out: "_Output", build, domain: str) -> dict:
    from . import scalar_sets

    sampler = scalar_sets.from_json(cfg["set"], "set")
    targets = _load_targets(cfg, domain)
    trace = build(sampler, targets, int(cfg["stages"]))
    out.csv("residuals.csv", trace.to_csv)
    return {"trace": trace.to_json()}


# the builders are looked up per call, so patched module attributes apply
def _cmd_build21(cfg: dict, out: "_Output") -> dict:
    from . import constructions, operators

    return _cmd_build(cfg, out, constructions.build_unilateral, operators.UNILATERAL)


def _cmd_build22(cfg: dict, out: "_Output") -> dict:
    from . import constructions, operators

    return _cmd_build(cfg, out, constructions.build_bilateral, operators.BILATERAL)


def _cmd_spiral(cfg: dict, out: "_Output") -> dict:
    from . import constructions, operators, scalar_sets

    rate = jsonio.decode(scalar_sets.AngleSpec, cfg["rate"], "rate")
    scenario = constructions.build_spiral_scenario(float(cfg["base"]), rate)
    result: dict = {
        "operator": jsonio.encode(scenario.operator),
        "scalar_set": jsonio.encode(scenario.scalar_set),
    }
    spectrum = operators.adjoint_point_spectrum(scenario.operator)
    result["adjoint_point_spectrum"] = sorted(
        (jsonio.encode(z) for z in spectrum), key=tuple
    )
    if "target" in cfg:
        s_lo, s_hi = cfg.get("s_range", [-20.0, 20.0])
        dist = constructions.spiral_distance_to(
            scenario,
            jsonio.decode(complex, cfg["target"], "target"),
            (float(s_lo), float(s_hi)),
            float(cfg.get("step", 1e-4)),
        )
        result["distance"] = jsonio.encode(dist)
    return result


def _cmd_density(cfg: dict, out: "_Output") -> dict:
    from . import density, operators, scalar_sets

    op = jsonio.decode(operators.OperatorSpec, cfg["operator"], "operator")
    base = _base_point(cfg["base_point"], operators.operator_domain(op))
    s = scalar_sets.from_json(cfg["set"], "set")
    window = cfg.get("radial_window")
    cloud = density.generate_orbit(
        op,
        base,
        s,
        int(cfg["horizon"]),
        int(cfg["gamma_grid"]),
        None if window is None else (float(window[0]), float(window[1])),
    )
    ball = cfg["ball"]
    report = density.epsilon_density(
        cloud,
        [int(i) for i in cfg["section"]],
        [jsonio.decode(complex, c, f"ball.center[{i}]") for i, c in enumerate(ball["center"])],
        float(ball["radius"]),
        float(cfg["epsilon"]),
        float(cfg["grid_step"]),
    )
    out.csv("heatmap.csv", lambda: _heatmap_csv(report))
    return {"density": report.to_json(), "cloud_size": len(cloud)}


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

    op = jsonio.decode(operators.OperatorSpec, cfg["operator"], "operator")
    inv = jsonio.decode(operators.OperatorSpec, cfg["right_inverse"], "right_inverse")
    dom = operators.operator_domain(op)
    idx_cfg = cfg["indices"]
    indices = tuple(range(int(idx_cfg["upto"]) + 1)) if "upto" in idx_cfg else tuple(
        int(i) for i in idx_cfg
    )
    inst = criteria.CriterionInstance(
        operator=op,
        right_inverse=inv,
        decay_vectors=tuple(
            _base_point(v, dom, f"decay_vectors[{i}]") for i, v in enumerate(cfg["decay_vectors"])
        ),
        target_vectors=tuple(
            _base_point(v, dom, f"target_vectors[{i}]") for i, v in enumerate(cfg["target_vectors"])
        ),
        indices=indices,
        tolerance=float(cfg.get("tolerance", criteria.DEFAULT_TOLERANCE)),
    )
    report = criteria.kitai_mode(inst) if cfg.get("mode") == "full" else criteria.check_criterion(inst)
    return {"criterion": report.to_json()}


def _cmd_winding(cfg: dict, out: "_Output") -> dict:
    from . import winding

    curve = jsonio.decode(winding.CircleCurve, cfg["curve"], "curve")
    result = winding.winding_number(curve)
    return {"winding": jsonio.encode(result), "index": result.index}


def _cmd_lambda_est(cfg: dict, out: "_Output") -> dict:
    from . import density, operators, scalar_sets

    op = jsonio.decode(operators.OperatorSpec, cfg["operator"], "operator")
    base = _base_point(cfg["base_point"], operators.operator_domain(op))
    horizon = int(cfg["horizon"])
    cloud = density.generate_orbit(
        op, base, scalar_sets.FinitePoints([1.0 + 0.0j]), horizon, 1
    )
    est = density.lambda_set_estimate(
        op,
        base,
        int(cfg["iterate"]),
        cloud,
        float(cfg["epsilon"]),
        int(cfg.get("phase_grid", 360)),
    )
    return {
        "lambda_estimate": jsonio.encode(est),
        "multiplicative_closure": density.multiplicative_closure_report(est),
    }


_HANDLERS = {
    "classify": _cmd_classify,
    "build21": _cmd_build21,
    "build22": _cmd_build22,
    "spiral": _cmd_spiral,
    "density": _cmd_density,
    "criterion": _cmd_criterion,
    "winding": _cmd_winding,
    "lambda-est": _cmd_lambda_est,
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
        raise ValueError("config top level must be a JSON object")
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    output = _Output(out_dir, emit_csv)
    report = {
        "tool": "orbitlab",
        "version": __version__,
        "command": command,
        "config_sha256": jsonio.config_hash(cfg),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    try:
        report["result"] = _HANDLERS[command](cfg, output)
    except ValueError as exc:
        report["error"] = str(exc)
        output.report(jsonio.dumps(report))
        return 1, report
    output.report(jsonio.dumps(report))
    return 0, report


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "section", None):
        cfg["section"] = [int(v) for v in args.section.split(",")]
    if getattr(args, "ball", None):
        vals = [float(v) for v in args.ball.split(",")]
        if len(vals) % 2 == 0:
            raise ValueError("--ball needs center coordinate pairs then a radius")
        center = [[vals[2 * i], vals[2 * i + 1]] for i in range((len(vals) - 1) // 2)]
        cfg["ball"] = {"center": center, "radius": vals[-1]}
    if getattr(args, "eps", None) is not None:
        cfg["epsilon"] = args.eps
    if getattr(args, "grid_step", None) is not None:
        cfg["grid_step"] = args.grid_step
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="Scalar-set orbit dynamics toolkit: classification, "
        "constructions, density scans, criterion checks, winding audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument("--emit-csv", action="store_true", help="write companion CSV files")
        if name == "density":
            p.add_argument("--section", default=None, help="comma-separated coordinate indices")
            p.add_argument("--ball", default=None, help="center pairs then radius, comma-separated")
            p.add_argument("--eps", type=float, default=None)
            p.add_argument("--grid-step", type=float, default=None, dest="grid_step")
    args = parser.parse_args(argv)

    try:
        cfg = jsonio.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError("top level must be a JSON object")
    except (OSError, ValueError) as exc:
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
        cfg = _apply_overrides(cfg, args)
        code, report = run_config(cfg, args.out, args.emit_csv)
    except ValueError as exc:
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
