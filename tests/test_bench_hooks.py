"""The benchmark's tracer (perfbench/tracing.py) patches package names from
outside: module functions such as criteria.apply and the X2/XC methods. A
refactor that removes or renames one of them must fail here, not in a
traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import orbitlab
from orbitlab import cli, criteria, jsonio, operators
from orbitlab.operators import BackwardShift, ScalarMultiple, SeqVector

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import _EXACT_METHODS, Tracer

    methods = {(cls, m): cls.__dict__[m] for cls, ms in _EXACT_METHODS.items() for m in ms}
    tracer = Tracer()
    tracer.install()
    try:
        inst = criteria.CriterionInstance(
            operator=ScalarMultiple(2.0, BackwardShift()),
            right_inverse=ScalarMultiple(0.5, operators.ForwardShift()),
            decay_vectors=(SeqVector.basis(1),),
            target_vectors=(SeqVector.basis(2),),
            indices=(0, 1, 2, 3),
        )
        criteria.check_criterion(inst)
    finally:
        tracer.uninstall()
    # the criterion's iterates still go through the patched criteria.apply
    assert tracer.counts.get("criteria.apply_calls", 0) > 0
    assert criteria.apply is operators.apply
    assert all(cls.__dict__[m] is raw for (cls, m), raw in methods.items())


def _traced_run(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    cfg = jsonio.loads((ROOT / "configs" / f"{name}.json").read_text())
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job(1):
            code, _ = cli.run_config(cfg, tmp_path)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


def test_traced_config_reaches_the_scalar_set_boundary(monkeypatch, tmp_path):
    # every workload requires a traced scalar_sets.from_json layer, so the
    # CLI must decode its scalar sets through that module attribute
    tracer = _traced_run(monkeypatch, tmp_path, "classify_ring")
    assert tracer.totals["scalar_sets.from_json"][0] == 1


def test_traced_build_reaches_exact_arithmetic_and_trace_encode(monkeypatch, tmp_path):
    # shift_builds requires both layers: the residual sums must still go
    # through the X2/XC methods, and the report through ConstructionTrace.to_json
    tracer = _traced_run(monkeypatch, tmp_path, "build22")
    assert tracer.totals["exact.ops"][0] > 0
    assert tracer.totals["constructions.trace_encode"][0] == 1



def _traced_process(tmp_path, name):
    """Trace file of perfbench/traced_cli.py running a shipped config in a
    fresh interpreter, where cli imports a command's modules only inside its
    handler: the tracer's patches must still be the names the handler calls."""
    config = ROOT / "configs" / f"{name}.json"
    command = json.loads(config.read_text())["command"]
    trace_file = tmp_path / "trace.json"
    src = str(Path(orbitlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(trace_file), "1", *argv],
        env=env,
        check=True,
    )
    return json.loads(trace_file.read_text())


def test_traced_process_reaches_the_winding_boundary(tmp_path):
    trace = _traced_process(tmp_path, "winding_segment")
    assert "winding.winding_number" in {s["name"] for s in trace["spans"]}


def test_traced_process_counts_the_criterion_apply_calls(tmp_path):
    trace = _traced_process(tmp_path, "criterion_rolewicz")
    assert "criteria.check_criterion" in {s["name"] for s in trace["spans"]}
    assert trace["counts"]["criteria.apply_calls"] > 0


def test_traced_density_counts_operator_applies(monkeypatch, tmp_path):
    # grid_scan's operators.apply_calls counts the calls through density.apply;
    # an orbit built around that name would read 0 there
    from tracing import pass_metrics

    tracer = _traced_run(monkeypatch, tmp_path, "spiral_density")
    assert pass_metrics(tracer)[1]["operators.apply_calls"] > 0


def test_traced_build_counts_scalar_picks(monkeypatch, tmp_path):
    # shift_builds' scalar_sets.pick_calls counts the calls through
    # constructions.pick_modulus_at_least/_at_most
    from tracing import pass_metrics

    tracer = _traced_run(monkeypatch, tmp_path, "build22")
    assert pass_metrics(tracer)[1]["scalar_sets.pick_calls"] > 0
