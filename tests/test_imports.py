"""Import footprint: `import orbitlab` loads no submodule, and a CLI process
loads only the modules its command runs. Each probe runs in a fresh
interpreter, so modules other tests imported do not count."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitlab

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

# the names `orbitlab` exported eagerly before its namespace became lazy
PUBLIC_API = {
    "scalar_sets": (
        "AngleSpec", "Annulus", "Arc", "Circle", "CircleProduct", "ClassificationResult",
        "EmptyScalarSetError", "FinitePoints", "Geometric", "LogSpiral", "ModulusSet",
        "ScalarSet", "Scaled", "Sector", "UndecidableDensityError", "Union", "classify",
        "is_dense_in_plane", "modulus_set", "positive_ray", "rotation_group_product",
    ),
    "operators": (
        "BackwardShift", "DirectSum", "DomainMismatchError", "ForwardShift", "OperatorSpec",
        "ScalarMultiple", "ScalarOnC", "SeqVector", "WeightedBackward", "WeightedForward",
        "WeightSpec", "adjoint_point_spectrum", "apply", "doubling_weights", "power_apply",
        "power_norm_bound",
    ),
    "constructions": (
        "BoundedScalarSetError", "ConstructionTrace", "NotAccumulatingAtZeroError",
        "ScanRangeError", "ShiftSearchLimitError", "SpiralBaseOneError", "SpiralScenario",
        "TargetFamily", "build_bilateral", "build_spiral_scenario", "build_unilateral",
        "default_target_family", "spiral_distance_to",
    ),
    "density": (
        "DensityReport", "EmptyCloudError", "LambdaEstimate", "OrbitCloud",
        "boundedness_certificates", "epsilon_density", "generate_orbit",
        "lambda_set_estimate", "scalar_lambda_oracle",
    ),
    "criteria": ("CriterionInstance", "CriterionReport", "check_criterion"),
    "winding": (
        "AuditVerdict", "CircleCurve", "ConcatCurve", "ConstantCurve", "CurveNotClosedError",
        "ParamSegment", "SampledCurve", "WindingResult", "concat_additivity_check",
        "contradiction_audit", "unit_circle_param", "winding_number",
    ),
}

# _kernels and _exact load on first use: a build never scans, and classify
# and density never pick a member exactly
_BUILD = {"constructions", "_exact", "operators", "scalar_sets"}
COMMAND_MODULES = {
    "classify": {"scalar_sets"},
    "winding": {"winding"},
    "criterion": {"criteria", "operators"},
    "build21": _BUILD,
    "build22": _BUILD,
    "spiral": _BUILD | {"_kernels"},
    "density": {"density", "_kernels", "operators", "scalar_sets"},
    "lambda-est": {"density", "operators"},
}
# records generate no code (no fractions, dataclasses or inspect), and the
# start path parses its own command line, formats its timestamp with time and
# takes sha256 from the builtin module
_NEVER_LOADED = {"argparse", "datetime", "fractions", "dataclasses", "inspect"}
_BUILTIN_SHA256 = importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")
if _BUILTIN_SHA256:
    _NEVER_LOADED |= {"hashlib", "_hashlib"}


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs code, with the
    orbitlab this test imported first on its path."""
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _submodules(modules: set[str]) -> set[str]:
    return {m.removeprefix("orbitlab.") for m in modules if m.startswith("orbitlab.")}


def test_import_orbitlab_loads_no_submodule():
    assert _submodules(_modules_after("import orbitlab")) == set()


def test_import_cli_loads_only_jsonio():
    assert _submodules(_modules_after("import orbitlab.cli")) == {"cli", "jsonio"}


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_each_command_loads_only_what_it_runs(path, tmp_path):
    command = json.loads(path.read_text())["command"]
    argv = [command, "--config", str(path), "--out", str(tmp_path)]
    loaded = _modules_after(f"from orbitlab import cli\nassert cli.main({argv!r}) == 0")
    assert _submodules(loaded) == {"cli", "jsonio"} | COMMAND_MODULES[command]
    assert not loaded & _NEVER_LOADED


def test_public_names_resolve_to_their_modules():
    assert sorted(orbitlab.__all__) == sorted(n for names in PUBLIC_API.values() for n in names)
    star: dict = {}
    exec("from orbitlab import *", star)
    listed = dir(orbitlab)
    for module, names in PUBLIC_API.items():
        owner = importlib.import_module(f"orbitlab.{module}")
        for name in names:
            assert getattr(orbitlab, name) is getattr(owner, name), name
            assert star[name] is getattr(owner, name), name
            assert name in listed, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitlab.no_such_name
    assert not hasattr(orbitlab, "classify_ring")
