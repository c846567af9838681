"""Every benchmark reference job, run in-process, still matches the report
digest perfbench/refs.json records for it. A report change that a PR does
not declare then fails here, not only when the benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

from orbitlab import cli, jsonio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from run import REFS, check  # noqa: E402
from workloads import all_reference_jobs  # noqa: E402

sys.path.remove(str(PERFBENCH))

JOBS = all_reference_jobs()
_REFS = json.loads(REFS.read_text())


@pytest.mark.parametrize("job", JOBS, ids=[job.key for job in JOBS])
def test_reference_job_matches_its_recorded_report(job, tmp_path):
    # as perfbench/run.py's in-process runner reads a job: from its JSON text
    code, _ = cli.run_config(jsonio.loads(json.dumps(job.config, indent=2)), tmp_path)
    assert check(job, code, tmp_path, _REFS) == "ok"
