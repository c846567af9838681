#!/usr/bin/env python3
"""Record refs.json: the exit code and report digest of every job any seed
can produce, from the checked-out orbitlab.

Usage (from the repository root): python3 perfbench/record_refs.py

The references in refs.json were recorded at the commit that introduced the
benchmark. Re-record only when a change to the reports is intended and
declared, never to make a benchmark run pass.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import all_reference_jobs


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    refs = {}
    scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=run.HERE))
    try:
        for job in all_reference_jobs():
            out_dir = scratch / job.key
            text = json.dumps(job.config, indent=2)
            if job.key.startswith("cfg_"):
                out_dir.mkdir()
                cfg_path = out_dir / "config.json"
                cfg_path.write_text(text)
                code = run.run_cli(job, cfg_path, out_dir, None, 0)
            else:
                code = run.run_inprocess(text, out_dir)
            report = run.read_report(out_dir)
            if report is None:
                raise SystemExit(f"{job.key}: no report written")
            shp = run.shape(report)
            refs[job.key] = {"exit": code, "digest": run.digest(run.prune(report, shp)), "shape": shp}
            print(f"{job.key}: exit {code}")
    finally:
        shutil.rmtree(scratch)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
