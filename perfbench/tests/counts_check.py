"""Traced runs: count metrics repeat exactly, and each workload bypasses the
layers it is meant to bypass.

Run from the repository root (about a minute; the file name keeps it out of
the package's default test collection):

    python3 -m pytest -q perfbench/tests/counts_check.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEED = 7
NAMED_COUNTS = {
    "kernels.nearest_pairs",
    "kernels.spiral_points",
    "density.grid_points",
    "scalar_sets.pick_calls",
    "criteria.apply_calls",
    "operators.apply_calls",
    "exact.ops",
    "exact.max_bits",
    "jsonio.report_bytes",
    "constructions.max_shift",
}


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.fixture(scope="module", params=["cli_configs", "grid_scan", "shift_builds"])
def two_runs(request):
    return request.param, traced_counts(request.param), traced_counts(request.param)


def test_counts_repeat_exactly(two_runs):
    _, first, second = two_runs
    assert NAMED_COUNTS <= first.keys()
    assert first == second


# counts that must stay 0 because the workload never calls the layer
IDLE = {
    "cli_configs": (),
    "grid_scan": ("exact.ops", "criteria.apply_calls"),
    "shift_builds": ("kernels.nearest_pairs", "kernels.spiral_points"),
}


def test_bypassed_layers_stay_idle(two_runs):
    workload, counts, _ = two_runs
    assert [name for name in IDLE[workload] if counts[name] != 0] == []
    if workload == "cli_configs":  # the shipped configs reach every layer
        assert [name for name in NAMED_COUNTS if counts[name] == 0] == []
