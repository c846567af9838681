"""CLI: demo configs run clean, reports reproduce byte-for-byte, errors map to
exit code 1 with the violated precondition named."""

import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbitlab import cli, constructions, criteria, jsonio

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
PACKAGE = Path(cli.__file__).resolve().parent
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

_TS = re.compile(rb'"generated_at": "[^"]*"')


def load(path):
    return json.loads(path.read_text())


def strip_timestamp(blob: bytes) -> bytes:
    return _TS.sub(b'"generated_at": "X"', blob)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_demo_configs_run_clean(path, tmp_path):
    cfg = load(path)
    code, report = cli.run_config(cfg, out_dir=tmp_path, emit_csv=True)
    assert code == 0
    assert "error" not in report
    assert (tmp_path / "report.json").exists()
    body = jsonio.loads((tmp_path / "report.json").read_text())
    assert body["command"] == cfg["command"]
    assert body["config_sha256"] == jsonio.config_hash(cfg)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_reports_reproduce_modulo_timestamp(path, tmp_path):
    cfg = load(path)
    cli.run_config(cfg, out_dir=tmp_path / "a", emit_csv=True)
    cli.run_config(cfg, out_dir=tmp_path / "b", emit_csv=True)
    a = strip_timestamp((tmp_path / "a" / "report.json").read_bytes())
    b = strip_timestamp((tmp_path / "b" / "report.json").read_bytes())
    assert a == b
    for csv in sorted((tmp_path / "a").glob("*.csv")):
        assert csv.read_bytes() == (tmp_path / "b" / csv.name).read_bytes()


class _ReadRecorder(dict):
    """A config that records the keys read through cfg[key]."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# a value for each optional top-level field that every shipped config leaves out
_OPTIONAL_VALUES = {"radial_window": [0.5, 2.0]}


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_every_declared_field_is_read(path, tmp_path):
    cfg = load(path)
    fields = cli._HANDLERS[cfg["command"]][1]
    cfg = _ReadRecorder(cfg, **{key: _OPTIONAL_VALUES[key] for key in fields if key not in cfg})
    assert cli.run_config(cfg, out_dir=tmp_path)[0] == 0
    assert cfg.read - {"command"} == set(fields)


def test_precondition_violation_exits_one(tmp_path):
    cfg = {
        "command": "build21",
        "set": {"kind": "annulus", "inner_radius": 1.0, "outer_radius": 2.0},
        "stages": 3,
    }
    code, report = cli.run_config(cfg, out_dir=tmp_path)
    assert code == 1
    assert "unbounded modulus" in report["error"]


def test_spiral_base_one_exits_one(tmp_path):
    cfg = {"command": "spiral", "base": 1.0, "rate": {"irrational": 1.0, "tag": ""}}
    code, report = cli.run_config(cfg, out_dir=tmp_path)
    assert code == 1
    assert "base 1" in report["error"]


def test_unknown_command_rejected():
    with pytest.raises(ValueError):
        cli.run_config({"command": "mystery"})


def test_main_subprocess_smoke(tmp_path):
    out = tmp_path / "run"
    # the orbitlab this test imported, also when only pytest's path has it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "orbitlab.cli",
            "classify",
            "--config",
            str(CONFIG_DIR / "classify_ring.json"),
            "--out",
            str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    body = jsonio.loads((out / "report.json").read_text())
    assert body["result"]["classification"]["is_hypercyclic_scalar_set"] is True
    assert body["result"]["classification"]["is_somewhere_hypercyclic_scalar_set"] is False


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["mystery", "--config", "nowhere.json"])
    assert exc.value.code == 2


def test_main_rejects_command_mismatch(tmp_path):
    code = cli.main(
        ["winding", "--config", str(CONFIG_DIR / "classify_ring.json"), "--out", str(tmp_path)]
    )
    assert code == 1


def test_build21_past_float_range_without_csv(tmp_path):
    # stage moduli beyond 2**1024 overflow only the CSV's float column; the
    # report is exact, so it must not depend on rendering that column
    cfg = load(CONFIG_DIR / "build21.json")
    cfg["stages"] = 40
    cfg["targets"] = {"default_count": 41}
    code, report = cli.run_config(cfg, out_dir=tmp_path)
    assert code == 0, report.get("error")
    residuals = report["result"]["trace"].residuals
    assert len(residuals) == 41
    assert all(r <= 2.0**-k for k, r in enumerate(residuals))
    assert not list(tmp_path.glob("*.csv"))


def test_build21_past_float_range_with_csv(tmp_path):
    # a stage modulus past float range leaves its CSV cell empty, while
    # modulus_log2 still carries it
    cfg = load(CONFIG_DIR / "build21.json")
    cfg["stages"] = 40
    cfg["targets"] = {"default_count": 41}
    code, report = cli.run_config(cfg, out_dir=tmp_path, emit_csv=True)
    assert code == 0, report.get("error")
    header, *rows = (tmp_path / "residuals.csv").read_text().splitlines()
    assert header == "stage,modulus,modulus_log2,shift,residual"
    assert len(rows) == 41
    for stage, modulus, modulus_log2, _, _ in (row.split(",") for row in rows):
        # the modulus squared overflows a float from 2**1024 on
        assert (modulus == "") == (float(modulus_log2) >= 512), stage
        if modulus:
            assert math.log2(float(modulus)) == float(modulus_log2)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_config_number_rejected_at_parse(token, tmp_path, capsys):
    text = (CONFIG_DIR / "classify_ring.json").read_text()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text.replace("1.0", token, 1))
    assert token in cfg_path.read_text()
    assert cli.main(["classify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "cannot read config" in err
    assert token in err


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"classify"'])
def test_config_top_level_must_be_an_object(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["classify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "cannot read config: top level must be a JSON object" in capsys.readouterr().err
    with pytest.raises(ValueError, match="JSON object"):
        cli.run_config(json.loads(text))


def test_every_package_error_maps_to_exit_one():
    # cli maps exactly the PreconditionErrors to exit code 1, so an error
    # class deriving from anything else would exit 2 as an internal error
    errors = {
        obj
        for path in PACKAGE.glob("*.py")
        for obj in vars(importlib.import_module(f"orbitlab.{path.stem}")).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__.startswith("orbitlab")
    }
    assert len(errors - {jsonio.PreconditionError}) == 13
    assert all(issubclass(e, jsonio.PreconditionError) for e in errors)


def _value_error_names(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "ValueError"]


def test_only_the_internal_modules_raise_value_error():
    # _exact and _kernels run on input their callers checked, so a
    # ValueError there is an internal fault; elsewhere a refusal is a
    # PreconditionError
    for path in PACKAGE.glob("*.py"):
        if path.name in ("_exact.py", "_kernels.py"):
            continue
        raised = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and node.exc and _value_error_names(node.exc)
        ]
        assert raised == [], f"{path.name} raises ValueError on lines {raised}"


def test_cli_names_value_error_only_where_it_reads_the_config():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tries = [
        t for t in ast.walk(tree)
        if isinstance(t, ast.Try) and any(h.type and _value_error_names(h.type) for h in t.handlers)
    ]
    assert len(tries) == 1
    # json.JSONDecodeError is a ValueError: the parser refusing outside text
    assert "read_text()" in "\n".join(map(ast.unparse, tries[0].body))
    assert [ast.unparse(h.type) for h in tries[0].handlers] == ["(OSError, ValueError)"]
    assert len(_value_error_names(tree)) == 1


@pytest.mark.parametrize(
    "error, code, prefix",
    [(ValueError, 2, "internal error: "), (jsonio.PreconditionError, 1, "precondition violated: ")],
)
def test_only_a_precondition_error_exits_one(error, code, prefix, tmp_path, monkeypatch, capsys):
    from orbitlab import scalar_sets

    def broken(s):
        raise error("simulated in classify")

    monkeypatch.setattr(scalar_sets, "classify", broken)
    cfg_path = CONFIG_DIR / "classify_ring.json"
    assert cli.main(["classify", "--config", str(cfg_path), "--out", str(tmp_path)]) == code
    assert f"{prefix}simulated in classify" in capsys.readouterr().err


def test_internal_fault_without_a_message_names_its_type(tmp_path, monkeypatch, capsys):
    from orbitlab import scalar_sets

    def exhausted(s):
        raise MemoryError()

    monkeypatch.setattr(scalar_sets, "classify", exhausted)
    cfg_path = CONFIG_DIR / "classify_ring.json"
    assert cli.main(["classify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_misshapen_vector_names_its_field(tmp_path, capsys):
    cfg = load(CONFIG_DIR / "criterion_rolewicz.json")
    cfg["target_vectors"][2] = [1.0, 0.0]  # a scalar pair where a sequence belongs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["criterion", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "target_vectors[2]" in capsys.readouterr().err


_BI = {"domain": "bi", "entries": [[0, 1.0, 0.0]]}


def _direct_sum_criterion():
    uni = lambda j: {"domain": "uni", "entries": [[j, 1.0, 0.0]]}  # noqa: E731
    return {
        "command": "criterion",
        "operator": {"kind": "direct_sum", "blocks": [
            {"kind": "scalar_on_c", "value": [0.5, 0.0]},
            {"kind": "scalar_multiple", "factor": [2.0, 0.0], "inner": {"kind": "backward_shift"}},
        ]},
        "right_inverse": {"kind": "direct_sum", "blocks": [
            {"kind": "scalar_on_c", "value": [2.0, 0.0]},
            {"kind": "scalar_multiple", "factor": [0.5, 0.0], "inner": {"kind": "forward_shift"}},
        ]},
        "decay_vectors": [[[1.0, 0.0], uni(0)], [[0.0, 1.0], uni(3)]],
        "target_vectors": [[[1.0, 0.0], uni(1)], [[0.5, -0.5], uni(4)]],
        "indices": {"upto": 12},
    }


def test_direct_sum_criterion_decodes_each_block(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_direct_sum_criterion()))
    assert cli.main(["criterion", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    traces = jsonio.loads((tmp_path / "report.json").read_text())["result"]["criterion"]["traces"]
    # the scalar block's right inverse doubles, so only the round trip is exact
    assert traces["roundtrip"] == [0.0] * 13
    assert traces["forward_decay"][-1] == 0.5 ** 12


@pytest.mark.parametrize(
    "field, value",
    [
        ("decay_vectors[1]", [[0.0, 1.0]]),  # one block of two
        ("target_vectors[0][1]", [[1.0, 0.0], [1.0, 0.0]]),  # a pair where a sequence belongs
        ("target_vectors[0][1]", [[1.0, 0.0], _BI]),  # a bilateral block on a unilateral one
    ],
)
def test_direct_sum_vector_of_wrong_shape_names_its_field(field, value, tmp_path, capsys):
    cfg = _direct_sum_criterion()
    cfg[field.split("[")[0]][int(field.split("[")[1][0])] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["criterion", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert f"{field}:" in capsys.readouterr().err


_DIRECT_SUM = {"kind": "direct_sum", "blocks": [
    {"kind": "scalar_on_c", "value": [0.5, 0.0]}, {"kind": "backward_shift"},
]}
_DIRECT_SUM_POINT = [[1.0, 0.0], {"domain": "uni", "entries": [[1, 1.0, 0.0]]}]


def test_direct_sum_lambda_estimate_runs(tmp_path):
    cfg = {"command": "lambda-est", "operator": _DIRECT_SUM, "base_point": _DIRECT_SUM_POINT,
           "horizon": 4, "iterate": 1, "epsilon": 0.1}
    code, report = cli.run_config(cfg, out_dir=tmp_path)
    assert code == 0, report.get("error")
    assert report["result"]["lambda_estimate"].multipliers() == (1.0,)


def test_direct_sum_density_scan_is_refused_with_exit_one(tmp_path):
    cfg = {"command": "density", "operator": _DIRECT_SUM, "base_point": _DIRECT_SUM_POINT,
           "set": {"kind": "circle", "radius": 1.0}, "horizon": 3, "gamma_grid": 8,
           "section": [0], "ball": {"center": [[0.0, 0.0]], "radius": 0.5},
           "epsilon": 0.2, "grid_step": 0.1}
    code, report = cli.run_config(cfg, out_dir=tmp_path)
    assert code == 1
    assert "direct-sum points are not supported" in report["error"]


def test_internal_fault_in_criterion_exits_two(tmp_path, monkeypatch, capsys):
    def broken(op, v):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setattr(criteria, "apply", broken)
    cfg_path = CONFIG_DIR / "criterion_rolewicz.json"
    assert cli.main(["criterion", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "simulated internal fault" in capsys.readouterr().err


def _main(cfg, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cli.main([cfg["command"], "--config", str(cfg_path), "--out", str(tmp_path)])


def _circle(radius):
    return {"command": "classify", "set": {"kind": "circle", "radius": radius}}


def _edited(name, edit):
    """The shipped config name after edit(cfg) changed it in place."""
    cfg = load(CONFIG_DIR / f"{name}.json")
    edit(cfg)
    return cfg


def _targets(vector):
    return {"command": "build21", "set": {"kind": "geometric", "base": [2.0, 0.0]},
            "stages": 1, "targets": {"vectors": [vector]}}


def _two_targets(count):
    cfg = _targets({"domain": "uni", "entries": [[0, 1.0, 0.0]]})
    cfg["targets"]["vectors"].append({"domain": "uni", "entries": [[1, 0.5, 0.0]]})
    cfg["targets"]["default_count"] = count
    return cfg


def _spiral_density(window, set_=None):
    def edit(cfg):
        cfg["radial_window"] = window
        if set_ is not None:
            cfg["set"] = set_(cfg["set"])
    return _edited("spiral_density", edit)


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"command": "classify", "set": {"kind": "circle"}}, "set.radius"),
        ({"command": "classify", "set": {"radius": 1.0}}, "set.kind"),
        ({"command": "classify", "set": [{"kind": "circle", "radius": 1.0}]}, "set"),
        ({"command": "classify", "set": {"kind": "union", "members": 5}}, "set.members"),
        (_circle(True), "set.radius"),
        (_circle([1]), "set.radius"),
        (_circle(None), "set.radius"),
        ({"command": "classify", "set": {"kind": "union", "members": [
            {"kind": "circle", "radius": 1.0}, {"kind": "circle"}]}}, "set.members[1].radius"),
        ({"command": "winding", "curve": {"kind": "param_segment", "b": 2.0, "to": 1.0}},
         "curve.from"),
        ({"command": "lambda-est", "operator": {"kind": "weighted_backward"},
          "base_point": [1.0, 0.0], "horizon": 3, "iterate": 1, "epsilon": 0.1},
         "operator.weights"),
        (_targets({"domain": "uni"}), "targets.vectors[0].entries"),
        (_targets([1.0, 0.0]), "targets.vectors[0]"),
        ({"command": "spiral", "base": 2.0, "rate": {"pi_rational": [10**400, 3]}},
         "rate.pi_rational"),
        ({"command": "winding", "curve": {"kind": "param_segment", "b": 1e308, "from": 1.0,
                                          "to": 1e308}}, "curve"),
        ({"command": "build22", "set": {"kind": "geometric", "base": [0.5, 0.0]},
          "stages": 37}, "stages"),
        # a misspelt or unknown key is refused, not silently ignored
        ({**load(CONFIG_DIR / "criterion_rolewicz.json"), "tolerence": 0.5}, "tolerence"),
        ({**load(CONFIG_DIR / "criterion_rolewicz.json"), "mode": "Full"}, "mode"),
        ({**load(CONFIG_DIR / "criterion_rolewicz.json"), "mode": None}, "mode"),
        ({**_circle(1.0), "radial_window": [0.5, 2.0]}, "radial_window"),
        ({**load(CONFIG_DIR / "spiral.json"), "stages": 3}, "stages"),
        # ... and so is one inside a nested object
        ({"command": "classify", "set": {"kind": "annulus", "inner_radius": 0.5,
                                         "outer_radus": 1.0}}, "set.outer_radus"),
        (_edited("spiral_density", lambda c: c["ball"].update(radus=0.1)), "ball.radus"),
        (_edited("spiral_density", lambda c: c["set"]["rate"].update(tga="x")), "set.rate.tga"),
        (_edited("spiral", lambda c: c.update(rate={"pi_rational": [1, 3], "tag": "x"})),
         "rate.tag"),
        (_edited("criterion_rolewicz", lambda c: c.update(indices={"up_to": 10})),
         "indices.up_to"),
        (_edited("criterion_rolewicz", lambda c: c["decay_vectors"][0].update(domian="uni")),
         "decay_vectors[0].domian"),
        (_edited("criterion_rolewicz", lambda c: c["operator"]["inner"].update(weights={})),
         "operator.inner.weights"),
        (_edited("build22", lambda c: c.update(targets={"default_cont": 16})),
         "targets.default_cont"),
        # a target family that is empty, or too short for the stages
        (_edited("build21", lambda c: c.update(targets={"default_count": 0})),
         "targets.default_count"),
        (_edited("build21", lambda c: c.update(targets={"default_count": -3})),
         "targets.default_count"),
        (_edited("build21", lambda c: c.update(targets={"vectors": []})), "targets.vectors"),
        (_edited("build21", lambda c: c.update(targets={"vectors": [
            {"domain": "uni", "entries": [[0, 0.0, 0.0]]}]})), "targets.vectors"),
        (_edited("build21", lambda c: c.update(stages=21, targets={"default_count": 3})),
         "targets"),
        # lambda-est checks the horizon, then the iterate, then the phase grid
        (_edited("lambda_scalar", lambda c: c.update(horizon=-1, iterate=-1)), "horizon"),
        (_edited("lambda_scalar", lambda c: c.update(iterate=-1, phase_grid=0)), "iterate"),
        (_edited("lambda_scalar", lambda c: c.update(iterate=31)), "iterate"),
        (_edited("lambda_scalar", lambda c: c.update(phase_grid=0)), "phase_grid"),
        (_edited("lambda_scalar", lambda c: c.update(phase_grid=-5)), "phase_grid"),
        # an orbit that overflows: ||T^m x||^2 passes the largest float
        (_edited("lambda_scalar", lambda c: c.update(
            operator={"kind": "scalar_on_c", "value": [2.0, 0.0]}, base_point=[1e300, 0.0],
            horizon=40)), "horizon"),
        # lambda-est: a negative tolerance, and a grid a float cannot hold
        (_edited("lambda_scalar", lambda c: c.update(epsilon=-1.0)), "epsilon"),
        (_edited("lambda_scalar", lambda c: c.update(phase_grid=10**400)), "phase_grid"),
        (_edited("lambda_scalar", lambda c: c.update(phase_grid=2**53 + 1)), "phase_grid"),
        # spiral: base**s past float range, over the given range or the default one
        (_edited("spiral", lambda c: c.update(s_range=[-2000.0, 2000.0])), "s_range"),
        ({**_edited("spiral", lambda c: c.pop("s_range")), "base": 1e308}, "s_range"),
        (_edited("spiral", lambda c: c.update(base=0.5, s_range=[-1100.0, 0.0])), "s_range"),
        # ... and s*rate past float range
        (_edited("spiral", lambda c: c.update(rate={"irrational": 1e306, "tag": ""},
                                              base=1.0000001, s_range=[-1e3, 1e3])), "s_range"),
        # spiral without a target: nothing reads s_range or step
        ({"command": "spiral", "base": 2.0, "rate": {"irrational": 1.0, "tag": ""},
          "step": 123.0}, "step"),
        ({"command": "spiral", "base": 2.0, "rate": {"irrational": 1.0, "tag": ""},
          "s_range": [5.0, 1.0]}, "s_range"),
        # a log spiral's radial window needs ends above 0 ...
        (_spiral_density([-1.0, 2.0]), "radial_window"),
        (_spiral_density([0.0, 2.0]), "radial_window"),
        # ... also where a scaling factor divides an end down to 0
        (_spiral_density([1e-30, 2.0], lambda s: {"kind": "scaled", "factor": [1e300, 0.0],
                                                  "inner": s}), "radial_window"),
        # one spelling per input: no dead flag, no null for an absent window,
        # and one of the two target keys
        ({"command": "winding", "curve": {"kind": "sampled", "points": [
            [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]], "closed": False}},
         "curve.closed"),
        (_spiral_density(None), "radial_window"),
        (_two_targets(2), "targets"),
        # spiral: a step too fine for the range's grid count
        (_edited("spiral", lambda c: c.update(s_range=[0.0, 1.0], step=1e-320)), "step"),
        (_edited("spiral", lambda c: c.update(s_range=[0.0, 1.0], step=2.0**-53)), "step"),
        # density: a scalar grid a float cannot hold, a ball lattice past its cap
        (_edited("spiral_density", lambda c: c.update(gamma_grid=10**400)), "gamma_grid"),
        (_edited("spiral_density", lambda c: c.update(gamma_grid=2**53 + 1)), "gamma_grid"),
        (_edited("spiral_density", lambda c: c.update(gamma_grid=0)), "gamma_grid"),
        (_edited("spiral_density", lambda c: c.update(grid_step=1e-300)), "grid_step"),
        (_edited("spiral_density", lambda c: c.update(grid_step=4e-4)), "grid_step"),
        # density: a cloud past its cap, and a geometric grid past float range
        (_edited("spiral_density", lambda c: c.update(gamma_grid=10**9)), "gamma_grid"),
        (_edited("spiral_density", lambda c: c.update(horizon=10**400)), "horizon"),
        (_edited("spiral_density", lambda c: c.update(
            set={"kind": "geometric", "base": [2.0, 0.0]}, gamma_grid=2000)), "gamma_grid"),
        # density: a scaled grid point past float range, refused before the scan
        (_edited("spiral_density", lambda c: c.update(set={
            "kind": "scaled", "factor": [1e300, 0.0],
            "inner": {"kind": "geometric", "base": [2.0, 0.0]}})), "set"),
        # lambda-est: a decaying orbit whose multiplier ||T^3 x|| / ||T^m x||
        # passes float range from m = 1027 on, refused before the O(H^2) scan
        (_edited("lambda_scalar", lambda c: c.update(horizon=1100)), "horizon"),
        # a sequence vector on the other sequence domain
        (_edited("criterion_rolewicz", lambda c: c["decay_vectors"].__setitem__(2, _BI)),
         "decay_vectors[2]"),
        (_edited("lambda_scalar", lambda c: c.update(
            operator={"kind": "backward_shift"}, base_point=_BI)), "base_point"),
        (_targets(_BI), "targets.vectors[0]"),
        # lambda-est: a walk past the cloud cap, and a scan past its cap
        (_edited("lambda_scalar", lambda c: c.update(horizon=10**400)), "horizon"),
        (_edited("lambda_scalar", lambda c: c.update(
            operator={"kind": "scalar_on_c", "value": [0.9999, 0.0]}, iterate=0,
            horizon=1000)), "horizon"),
        # a sampled step through the origin leaves the winding number undefined
        ({"command": "winding", "curve": {"kind": "sampled", "points": [
            [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]}}, "curve"),
        # density: a ball, lattice or tolerance out of range, a section a
        # scalar point lacks, a negative horizon
        (_edited("spiral_density", lambda c: c["ball"].update(radius=0.0)), "ball.radius"),
        (_edited("spiral_density", lambda c: c.update(grid_step=0.0)), "grid_step"),
        (_edited("spiral_density", lambda c: c.update(epsilon=0.01)), "epsilon"),
        (_edited("spiral_density", lambda c: c["ball"].update(center=[[0.0, 0.0]] * 2)),
         "ball.center"),
        (_edited("spiral_density", lambda c: c.update(
            section=[0, 0], ball={"center": [[-1.0, 0.0]] * 2, "radius": 0.4},
            grid_step=0.4, epsilon=0.5)), "section"),
        (_edited("spiral_density", lambda c: c.update(horizon=-1)), "horizon"),
        # criterion: an empty test family, an index list out of order
        (_edited("criterion_rolewicz", lambda c: c.update(decay_vectors=[])), "decay_vectors"),
        (_edited("criterion_rolewicz", lambda c: c.update(target_vectors=[])), "target_vectors"),
        (_edited("criterion_rolewicz", lambda c: c.update(indices=[3, 1])), "indices"),
        # spiral: a base that is not positive and finite, and the rotation base 1
        (_edited("spiral", lambda c: c.update(base=-2.0)), "base"),
        (_edited("spiral", lambda c: c.update(base=1.0)), "base"),
        # winding: a junction, and a closing step, through the origin
        ({"command": "winding", "curve": {"kind": "concat", "parts": [
            {"kind": "sampled", "points": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]},
            {"kind": "sampled", "points": [[1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]}]}}, "curve"),
        ({"command": "winding", "curve": {"kind": "sampled", "points": [
            [1e-12, 0.0], [1.0, 0.0], [0.0, 1.0], [-1e-12, 0.0]]}}, "curve"),
        # ... and endpoints that do not meet
        ({"command": "winding", "curve": {"kind": "sampled", "points": [
            [1.0, 0.0], [0.0, 1.0]]}}, "curve"),
        # criterion: a right inverse on another domain, refused before the walk
        (_edited("criterion_rolewicz", lambda c: c.update(
            right_inverse={"kind": "scalar_on_c", "value": [0.5, 0.0]})), "right_inverse"),
        # density: a direct sum, refused before the orbit walk
        (_edited("spiral_density", lambda c: c.update(
            operator=_DIRECT_SUM, base_point=_DIRECT_SUM_POINT)), "operator"),
        # criterion: a round trip 2^1024 (0.6+0.8i)^1024 with finite parts
        # whose modulus passes the largest float (abs() raises there)
        ({"command": "criterion", "operator": {"kind": "scalar_on_c", "value": [2.0, 0.0]},
          "right_inverse": {"kind": "scalar_on_c", "value": [0.6, 0.8]},
          "decay_vectors": [[0.0, 0.0]], "target_vectors": [[1.0, 0.0]], "indices": [0, 1024]},
         "target_vectors[0]"),
        # criterion: a tolerance no residual can meet
        (_edited("criterion_rolewicz", lambda c: c.update(tolerance=-1.0)), "tolerance"),
        # criterion: more indices than INDEX_CAP = 10**6, refused before a
        # range of them is built
        (_edited("criterion_rolewicz", lambda c: c.update(indices={"upto": 10**9})), "indices"),
        # builds: more stages or default targets than STAGE_CAP allows,
        # refused before the targets are built
        (_edited("build22", lambda c: c.update(stages=10**6, targets={"default_count": 10**6 + 1})),
         "stages"),
        (_edited("build21", lambda c: c.update(targets={"default_count": 10**6})),
         "targets.default_count"),
    ],
)
def test_malformed_config_exits_one_naming_its_field(cfg, field, tmp_path, capsys):
    start = time.perf_counter()
    assert _main(cfg, tmp_path) == 1
    assert time.perf_counter() - start < 1.0  # refused before any costly work
    assert f"precondition violated: {field}:" in capsys.readouterr().err


def test_criterion_index_cap_holds_for_both_forms(monkeypatch, tmp_path, capsys):
    # at a cap of 5, five indices run and six are refused, listed or upto
    monkeypatch.setattr(criteria, "INDEX_CAP", 5)
    for indices, code in (({"upto": 4}, 0), ([0, 1, 2, 3, 4], 0),
                          ({"upto": 5}, 1), ([0, 1, 2, 3, 4, 5], 1)):
        cfg = _edited("criterion_rolewicz", lambda c: c.update(indices=indices))
        assert _main(cfg, tmp_path) == code
        if code:
            assert "precondition violated: indices: more than 5 indices" in capsys.readouterr().err


def test_stage_cap_holds_for_stages_and_default_count(monkeypatch, tmp_path, capsys):
    # at a cap of 5, stages 5 with six default targets run; one more of
    # either is refused
    monkeypatch.setattr(constructions, "STAGE_CAP", 5)
    for stages, count, refused in ((5, 6, None), (6, 7, "stages: more than 5 stages"),
                                   (4, 7, "targets.default_count: more than 6 targets")):
        cfg = _edited("build22", lambda c: c.update(stages=stages, targets={"default_count": count}))
        assert _main(cfg, tmp_path) == (1 if refused else 0)
        if refused:
            assert f"precondition violated: {refused}" in capsys.readouterr().err


def test_criterion_tolerance_zero_is_valid(tmp_path):
    # Rolewicz's round trips are exactly 0.0, but its inverse decay 2^-40 is not
    assert _main(_edited("criterion_rolewicz", lambda c: c.update(tolerance=0.0)), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())["result"]["criterion"]
    assert report["final_residuals"] == [0.0, 2.0 ** -40, 0.0] and not report["passes"]


def test_scaled_log_spiral_window_above_zero_runs(tmp_path):
    # 1e-30 / 2 is far above 0: the same window on a milder scaling runs
    cfg = _spiral_density([1e-30, 2.0], lambda s: {"kind": "scaled", "factor": [2.0, 0.0],
                                                   "inner": s})
    assert _main(cfg, tmp_path) == 0


def test_target_count_must_match_the_vectors(tmp_path, capsys):
    # targets takes vectors or default_count, never both, whatever the count
    for count in (1, 2, 99):
        assert _main(_two_targets(count), tmp_path) == 1
        err = capsys.readouterr().err
        assert "precondition violated: targets: expected vectors or default_count, not both" in err
    cfg = _two_targets(2)
    del cfg["targets"]["default_count"]
    assert _main(cfg, tmp_path) == 0


@pytest.mark.parametrize("part", [1e200, 1e-200])
def test_criterion_past_the_squares_float_range_exits_zero(part, tmp_path):
    # the square of the decay vector's entry leaves float range; its norm
    # does not (2 e_0 is the image of e_1 under T = 2B)
    cfg = load(CONFIG_DIR / "criterion_rolewicz.json")
    cfg["decay_vectors"] = [{"domain": "uni", "entries": [[1, 0.0, part]]}]
    cfg["indices"] = {"upto": 3}
    assert _main(cfg, tmp_path) == 0
    traces = load(tmp_path / "report.json")["result"]["criterion"]["traces"]
    assert traces["forward_decay"] == [part, 2 * part, 0.0, 0.0]


@pytest.mark.parametrize("part", [1e200, 1e-200])
def test_direct_sum_criterion_past_the_squares_float_range_exits_zero(part, tmp_path):
    # one block holding 2B: its decay norms are those of the plain operator
    cfg = load(CONFIG_DIR / "criterion_rolewicz.json")
    for key in ("operator", "right_inverse"):
        cfg[key] = {"kind": "direct_sum", "blocks": [cfg[key]]}
    cfg["target_vectors"] = [[v] for v in cfg["target_vectors"]]
    cfg["decay_vectors"] = [[{"domain": "uni", "entries": [[1, 0.0, part]]}]]
    cfg["indices"] = {"upto": 3}
    assert _main(cfg, tmp_path) == 0
    traces = load(tmp_path / "report.json")["result"]["criterion"]["traces"]
    assert traces["forward_decay"] == [part, 2 * part, 0.0, 0.0]


def test_build22_runs_every_stage_whose_least_shift_is_below_the_cap(tmp_path, capsys):
    # stage 36's least shift, 690,664,235,695, is below SHIFT_CAP = 2**40,
    # and stage 37's is not
    cfg = {**load(CONFIG_DIR / "build22.json"), "stages": 36, "targets": {"default_count": 37}}
    start = time.perf_counter()
    assert _main(cfg, tmp_path) == 0
    assert time.perf_counter() - start < 1.0
    assert load(tmp_path / "report.json")["result"]["trace"]["choices"][-1]["shift"] == (
        690_664_235_695)
    cfg = {**cfg, "stages": 37, "targets": {"default_count": 38}}
    assert _main(cfg, tmp_path) == 1
    err = capsys.readouterr().err
    assert "precondition violated: stages: 37 stages need a shift beyond the cap 2**40" in err
    assert "(stage 37 needs" in err


@pytest.mark.parametrize("command", ["build21", "build22"])
@pytest.mark.parametrize("targets", ["default", "vectors"])
def test_negative_stages_exit_one_naming_stages(command, targets, tmp_path, capsys):
    cfg = load(CONFIG_DIR / f"{command}.json")
    cfg["stages"] = -1
    if targets == "default":
        del cfg["targets"]
    else:
        domain = "uni" if command == "build21" else "bi"
        cfg["targets"] = {"vectors": [{"domain": domain, "entries": [[0, 1.0, 0.0]]}]}
    assert _main(cfg, tmp_path) == 1
    assert "precondition violated: stages: -1 is negative" in capsys.readouterr().err


def test_density_scan_past_a_nan_sample_exits_zero(tmp_path):
    # the first sample is (2+2j) * (1e308+1e308j) = nan + inf*j; the nearest
    # distances come from the finite samples further down the orbit
    cfg = {"command": "density", "operator": {"kind": "scalar_on_c", "value": [0.5, 0.0]},
           "base_point": [1e308, 1e308], "set": {"kind": "finite_points", "points": [[2.0, 2.0]]},
           "horizon": 700, "gamma_grid": 1, "section": [0],
           "ball": {"center": [[0.0, 0.0]], "radius": 1.0}, "epsilon": 0.6, "grid_step": 1.0}
    assert _main(cfg, tmp_path) == 0
    density = load(tmp_path / "report.json")["result"]["density"]
    assert [math.isfinite(m["distance"]) for m in density["miss_witnesses"]] == [True] * 5


@pytest.mark.parametrize(
    "radius, grid_step, epsilon",
    [
        (1e300, 1e299, 1e300),  # the witness search's squares pass float range
        (1e308, 1e308, 1e308),  # 2.0 * radius overflows; the box holds 3 points per axis
    ],
)
def test_density_ball_past_float_range_never_exits_two(radius, grid_step, epsilon, tmp_path, capsys):
    cfg = {**load(CONFIG_DIR / "spiral_density.json"), "grid_step": grid_step, "epsilon": epsilon}
    cfg["ball"] = {"center": [[0.0, 0.0]], "radius": radius}
    code = _main(cfg, tmp_path)
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and "non-finite" in err), err


def _overflowing_direct_sum():
    # the scalar block's right inverse multiplies by 4 600 times: past
    # 4^512 = 2^1024 its residual is inf, which a report cannot hold
    uni = {"domain": "uni", "entries": [[1, 1.0, 0.0]]}
    return {
        "command": "criterion",
        "operator": {"kind": "direct_sum", "blocks": [
            {"kind": "scalar_on_c", "value": [0.25, 0.0]}, {"kind": "backward_shift"}]},
        "right_inverse": {"kind": "direct_sum", "blocks": [
            {"kind": "scalar_on_c", "value": [4.0, 0.0]}, {"kind": "forward_shift"}]},
        "decay_vectors": [[[1.0, 0.0], uni]],
        "target_vectors": [[[1.0, 0.0], uni]],
        "indices": {"upto": 600},
    }


def test_direct_sum_criterion_overflow_exits_one(tmp_path, capsys):
    assert _main(_overflowing_direct_sum(), tmp_path) == 1
    assert "non-finite" in capsys.readouterr().err


def _nan_decay_criterion():
    # T^33 e_32 multiplies by 2**33 thirty-two times, overflows to inf and
    # then meets the weight 2**-33 as inf + nan*j; the other decay vector
    # underflows to 0, and max(0.0, nan) is 0.0
    weights = lambda bp, lo, hi: {"breakpoints": [bp], "values": [[lo, 0.0], [hi, 0.0]]}  # noqa: E731
    return {
        "command": "criterion",
        "operator": {"kind": "weighted_backward", "weights": weights(1, 2.0**-33, 2.0**33)},
        "right_inverse": {"kind": "weighted_forward", "weights": weights(0, 2.0**33, 2.0**-33)},
        "decay_vectors": [{"domain": "bi", "entries": [[-2, 1e100, 0.0]]},
                          {"domain": "bi", "entries": [[32, 1.0, 0.0]]}],
        "target_vectors": [{"domain": "bi", "entries": [[1, 2.0**43, 0.0]]}],
        "indices": [0, 1, 2, 3, 33],
    }


@pytest.mark.parametrize(
    "cfg, message",
    [
        (_nan_decay_criterion(), "decay_vectors[1]: non-finite forward_decay residual nan at index 33"),
        (_overflowing_direct_sum(), "target_vectors[0]: non-finite inverse_decay residual inf"),
    ],
    ids=["nan", "inf"],
)
def test_non_finite_residual_exits_one_naming_its_vector(cfg, message, tmp_path, capsys):
    assert _main(cfg, tmp_path) == 1
    assert f"precondition violated: {message}" in capsys.readouterr().err


def test_report_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    # Geometric(0.3)'s exact picks pass Python's int-to-str digit limit by
    # stage 6: the run is refused with a report that carries the error
    cfg = {"command": "build22", "set": {"kind": "geometric", "base": [0.3, 0.0]}, "stages": 6}
    assert _main(cfg, tmp_path) == 1
    error = load(tmp_path / "report.json")["error"]
    assert error.endswith("has too many digits to appear in a report")
    assert f"precondition violated: {error}" in capsys.readouterr().err
