#!/usr/bin/env python3
"""orbitlab benchmark: closed-loop job mixes with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 30 --trace 0

One client sends jobs one at a time, each only after the previous one has
returned. A run repeats the workload's pass (the seeded job list, see
workloads.py) while the next pass is expected to end within ``--seconds``
(at least MIN_PASSES passes). Every job's report is
checked against refs.json. A machine-speed gauge read before and after each
job scales its wall time to the reference machine (see README.md).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (tracing.py)
plus the tracing overhead. The last stdout line is the JSON result; the run's
environment, per-job times and spans go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"

SETUP_PROBES = 7  # at least; more when the run is long enough
PROBE_EVERY_S = 4.0
# Gauge readings of the machine the benchmark was built on (2-vCPU Xeon VM,
# CPython 3.11.7) when idle: 10th percentile of 224 rounds over five minutes.
PYTHON_GAUGE_REF_S = 0.0060
START_GAUGE_REF_S = 0.047
IMPORT_PROBES = 5
SETUP_CMD = [sys.executable, "-c", "import orbitlab, orbitlab._kernels as k; k.BACKEND"]
START_CMD = [sys.executable, "-c", "pass"]
JOB_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2
IMPORT_MODULES = (
    "orbitlab", "jsonio", "scalar_sets", "operators", "exact", "kernels",
    "constructions", "density", "criteria", "winding", "cli",
)

perf = time.perf_counter


# ---------------------------------------------------------------------------
# output checks


def shape(value):
    """Key structure of a report: dicts keep their keys, lists one merged
    element shape, leaves become None."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, list):
        merged = None
        for item in value:
            merged = _union(merged, shape(item))
        return [merged]
    return None


def _union(a, b):
    if a is None or b is None:
        return b if a is None else a
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for k, v in b.items():
            out[k] = _union(a.get(k), v)
        return out
    if isinstance(a, list) and isinstance(b, list):
        return [_union(a[0], b[0])]
    return a


def prune(value, shp):
    """The part of a report the reference shape covers, so that fields a
    later version adds do not change the digest of the fields it keeps."""
    if isinstance(shp, dict) and isinstance(value, dict):
        return {k: prune(value[k], s) for k, s in shp.items() if k in value}
    if isinstance(shp, list) and isinstance(value, list):
        return [prune(v, shp[0]) for v in value]
    return value


def digest(report) -> str:
    text = json.dumps(report, separators=(",", ":"), ensure_ascii=True, sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def read_report(out_dir: Path):
    """The job's report without its timestamp, or None if unreadable."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError):
        return None
    if isinstance(report, dict):
        report.pop("generated_at", None)
    return report


def _valid_build21(report, stages: int) -> bool:
    """Structural check for a build21 job that the seed commit fails: its
    certified bounds and stage conditions must hold."""
    trace = report.get("result", {}).get("trace", {})
    res = trace.get("residuals", [])
    return (
        trace.get("stages") == stages
        and len(res) == stages + 1
        and all(r <= 2.0 ** -k * (1 + 1e-12) for k, r in enumerate(res))
        and all(v for c in trace.get("conditions", []) for key, v in c.items() if key != "stage")
    )


def check(job, code: int, out_dir: Path, refs: dict) -> str:
    """'ok', 'failed' (the recorded known defect, reproduced) or 'mismatch'."""
    report = read_report(out_dir)
    if not isinstance(report, dict):
        return "mismatch"
    if job.known_defect and code == 0:
        return "ok" if _valid_build21(report, job.config["stages"]) else "mismatch"
    ref = refs.get(job.key)
    if ref is None or code != ref["exit"] or digest(prune(report, ref["shape"])) != ref["digest"]:
        return "mismatch"
    return "ok" if code == 0 else "failed"


# ---------------------------------------------------------------------------
# running jobs


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_inprocess(text: str, out_dir: Path) -> int:
    from orbitlab import cli, jsonio

    try:
        code, _ = cli.run_config(jsonio.loads(text), out_dir)
    except Exception:  # noqa: BLE001 - an internal error fails the job, not the run
        traceback.print_exc(file=sys.stderr)
        return 2
    return code


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def run_child(cmd: list[str], timeout: float, capture: bool = False) -> tuple[int, str]:
    """Run a child to completion; returns (exit code, stderr text if captured).

    subprocess's own timeout polls with sleeps of up to 50 ms, which would
    quantize the wall times measured here, so the timeout is a SIGALRM and
    the wait itself blocks."""
    proc = subprocess.Popen(
        cmd, env=child_env(), text=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, err = proc.communicate()
    except ChildTimeout:
        proc.kill()
        proc.communicate()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return proc.returncode, err or ""


def run_cli(job, cfg_path: Path, out_dir: Path, trace_file: Path | None, trace_id: int) -> int:
    args = [job.command, "--config", str(cfg_path), "--out", str(out_dir)]
    if trace_file is None:
        cmd = [sys.executable, "-m", "orbitlab.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), str(trace_id), *args]
    try:
        code, err = run_child(cmd, JOB_TIMEOUT_S, capture=True)
    except ChildTimeout:
        print(f"{job.key}: killed after {JOB_TIMEOUT_S} s", file=sys.stderr)
        return -1
    if code not in (0, 1):
        sys.stderr.write(err)
    return code


class Runner:
    """Runs one pass after another and keeps every job's outcome."""

    def __init__(self, workload, jobs, run_dir: Path, refs: dict):
        self.workload = workload
        self.jobs = jobs
        self.refs = refs
        self.outcomes: dict[str, int] = {"ok": 0, "failed": 0, "mismatch": 0}
        self.mismatched: set[str] = set()
        self.gauge = Gauge(workload.in_process)
        self.job_s_by_key: dict[str, list[float]] = {j.key: [] for j in jobs}  # scaled
        self.raw_s_by_key: dict[str, list[float]] = {j.key: [] for j in jobs}
        self.trace_id = 0
        self.between_jobs = None  # called after every job, outside its timing
        self.dirs = {}
        self.texts = {}
        for job in jobs:
            d = run_dir / "jobs" / job.key
            d.mkdir(parents=True)
            text = json.dumps(job.config, indent=2)
            (d / "config.json").write_text(text)
            self.dirs[job.key] = d
            self.texts[job.key] = text

    def run_pass(self, tracer=None) -> float:
        """One pass. Records each untraced job's scaled and raw wall time and
        returns the summed raw wall time of the pass."""
        total = 0.0
        before = self.gauge.read()
        for job in self.jobs:
            self.trace_id += 1
            out_dir = self.dirs[job.key] / "out"
            shutil.rmtree(out_dir, ignore_errors=True)
            wall, code = self._timed(job, out_dir, tracer)
            after = self.gauge.read()
            total += wall
            outcome = check(job, code, out_dir, self.refs)
            self.outcomes[outcome] += 1
            if outcome == "mismatch":
                self.mismatched.add(job.key)
            if tracer is None:
                self.job_s_by_key[job.key].append(self.gauge.scale(wall, (before + after) / 2))
                self.raw_s_by_key[job.key].append(wall)
            before = after
            if self.between_jobs is not None:
                self.between_jobs()
        return total

    def _timed(self, job, out_dir: Path, tracer):
        job_dir = self.dirs[job.key]
        trace_file = None if tracer is None else job_dir / "trace.json"
        with nullcontext() if tracer is None else tracer.job(self.trace_id):
            start = perf()
            if self.workload.in_process:
                code = run_inprocess(self.texts[job.key], out_dir)
            else:
                code = run_cli(job, job_dir / "config.json", out_dir, trace_file, self.trace_id)
            wall = perf() - start
        if trace_file is not None and not self.workload.in_process:
            tracer.merge(json.loads(trace_file.read_text()))
        return wall, code

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.outcomes["failed"] + self.outcomes["mismatch"]


def keep_going(passes: int, elapsed: float, seconds: float) -> bool:
    """Start another pass if it is expected to end within the run; at least
    MIN_PASSES run, so that every job has a median."""
    return passes < MIN_PASSES or elapsed + elapsed / passes <= seconds


# ---------------------------------------------------------------------------
# gauges and import probes


def python_gauge() -> float:
    """Seconds for a fixed mix of interpreted float loops, dict updates and
    big-integer products; no orbitlab code runs in it."""
    start = perf()
    xs = [i * 1e-3 for i in range(8000)]
    acc = 0.0
    for i in range(1, len(xs)):
        acc += math.sin(xs[i]) * xs[i - 1]
    counts: dict[int, int] = {}
    for i in range(8000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    big = 3 ** 20000
    for _ in range(40):
        big = (big * big) >> 31700
    return perf() - start


class Gauge:
    """How fast the machine runs right now, read before and after every job.

    In-process workloads read ``python_gauge`` (median of 3), ``cli_configs``
    the wall time of a bare interpreter start. A wall time t next to readings
    averaging r is reported as t * ref / r, ref being the idle reading of
    the reference machine; see the README on scaling."""

    def __init__(self, python: bool):
        self.python = python
        self.ref = PYTHON_GAUGE_REF_S if python else START_GAUGE_REF_S
        self.readings: list[float] = []

    def read(self) -> float:
        if self.python:
            value = statistics.median(python_gauge() for _ in range(3))
        else:
            value = _timed_probe(START_CMD)
        self.readings.append(value)
        return value

    def scale(self, seconds: float, reading: float) -> float:
        return seconds * self.ref / reading

    def factor(self) -> float:
        """ref / the run's median reading, for times not bracketed by readings."""
        return self.ref / statistics.median(self.readings)


class SetupProbes:
    """Fresh interpreters that import orbitlab and select its kernel backend,
    each next to a bare interpreter start that scales it. They run between
    jobs, at most one every PROBE_EVERY_S, so that a burst of outside load
    hits few of them; one untimed warm-up first writes the bytecode caches."""

    def __init__(self):
        _probe(SETUP_CMD)
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.last = -math.inf

    def run(self) -> None:
        start = _timed_probe(START_CMD)
        setup = _timed_probe(SETUP_CMD)
        self.last = perf()
        self.raw.append(setup)
        self.scaled.append(setup * START_GAUGE_REF_S / start)

    def maybe(self) -> None:
        if perf() - self.last >= PROBE_EVERY_S:
            self.run()

    def top_up(self) -> None:
        while len(self.raw) < SETUP_PROBES:
            self.run()


def _timed_probe(cmd: list[str]) -> float:
    start = perf()
    _probe(cmd)
    return perf() - start


def _probe(cmd: list[str]) -> str:
    code, err = run_child(cmd, PROBE_TIMEOUT_S, capture=True)
    if code != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {code}:\n{err}")
    return err


def import_metrics() -> dict:
    """Median `-X importtime` cumulative time of orbitlab and self time of
    each of its modules (private modules under their name without '_'), each
    probe scaled by a bare interpreter start next to it."""
    samples: dict[str, list[float]] = {}
    cmd = [sys.executable, "-X", "importtime", "-c", "import orbitlab.cli"]
    for _ in range(IMPORT_PROBES):
        scale = START_GAUGE_REF_S / _timed_probe(START_CMD)
        probe = dict.fromkeys([f"import.{m}_self_s" for m in IMPORT_MODULES] + ["import.orbitlab_s"], 0.0)
        for line in _probe(cmd).splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name != "orbitlab" and not name.startswith("orbitlab."):
                continue
            if name == "orbitlab":
                probe["import.orbitlab_s"] = int(cumulative) / 1e6 * scale
            module = name.split(".")[1].lstrip("_") if "." in name else "orbitlab"
            key = f"import.{module}_self_s"
            if key in probe:
                probe[key] += int(own) / 1e6 * scale
        for key, value in probe.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orbitlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload, args) -> dict:
    from orbitlab import _kernels

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "kernel_backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client",
        "input_sizes": workload.sizes,
    }


# ---------------------------------------------------------------------------
# the run


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runner: Runner, workload, seconds: float):
    jobs_per_pass = len(runner.jobs)
    probes = SetupProbes()
    runner.between_jobs = probes.maybe
    passes = 0
    start = perf()
    while True:
        runner.run_pass()
        passes += 1
        if not keep_going(passes, perf() - start, seconds):
            break
    probes.top_up()
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # children are the job processes and the set-up probes, which only
        # import what every job imports too
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    stats = _job_stats(runner.job_s_by_key, workload.tail_pct)
    raw = _job_stats(runner.raw_s_by_key, workload.tail_pct)
    n = passes * jobs_per_pass
    metrics = {
        "setup_s": (statistics.median(probes.scaled), "s"),
        "jobs_per_s": (stats["jobs_per_s"], "1/s"),
        "job_s_p50": (stats["job_s_p50"], "s"),
        "job_s_tail": (stats["job_s_tail"], "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw["setup_s"] = statistics.median(probes.raw)
    notes = {
        "jobs_per_s": f"{jobs_per_pass} jobs / sum of per-job medians, {passes} passes",
        "job_s_p50": f"n={n}",
        "job_s_tail": f"p{workload.tail_pct}, n={n}"
        + ("" if n >= workload.min_jobs else f", fewer than 10 beyond: {workload.min_jobs} needed"),
        "peak_rss_mb": "harness process" if workload.in_process else "largest job process",
    }
    for name, value in raw.items():
        note = notes.get(name)
        notes[name] = (f"{note}, " if note else "") + f"unscaled {value:.4g}"
    detail = {
        "gauge": {"kind": "python" if workload.in_process else "start",
                  "factor": runner.gauge.factor(), "readings": runner.gauge.readings},
        "setup_s": {"scaled": probes.scaled, "raw": probes.raw},
        "job_s_by_key": runner.job_s_by_key,
        "raw_s_by_key": runner.raw_s_by_key,
    }
    return metrics, notes, detail


def _job_stats(times_by_key: dict, tail_pct: int) -> dict:
    """Throughput and percentiles of the job mix. Each job enters with its
    median over the passes, once per pass: load from elsewhere on a shared
    machine swings single jobs by up to 2x, and per-job medians keep that
    noise out while the percentiles still describe the mix over n samples."""
    medians = {key: statistics.median(t) for key, t in times_by_key.items()}
    mix = [medians[key] for key, t in times_by_key.items() for _ in t]
    return {
        "jobs_per_s": len(medians) / sum(medians.values()),
        "job_s_p50": statistics.median(mix),
        "job_s_tail": percentile(mix, tail_pct),
    }


def traced(runner: Runner, workload, seconds: float):
    from tracing import Tracer, pass_metrics, reached

    tracer = Tracer()
    plain_s, traced_s, times, counts = [], [], [], None
    start = perf()
    while True:
        if len(plain_s) <= len(traced_s):
            plain_s.append(runner.run_pass())
        else:
            tracer.reset_pass()
            if workload.in_process:
                tracer.install()
            try:
                traced_s.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            missing = [b for b in workload.required if b not in reached(tracer)]
            if missing:
                raise SystemExit(f"traced pass reached no call of: {', '.join(missing)}")
            pass_times, pass_counts = pass_metrics(tracer)
            times.append(pass_times)
            counts = counts or pass_counts
        passes = len(plain_s) + len(traced_s)
        if not keep_going(passes, perf() - start, seconds):
            break
    factor = runner.gauge.factor()
    metrics = {}
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times) * factor, "s")
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    for name, value in import_metrics().items():
        metrics[name] = (value, "s")
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes = {"trace.overhead_frac": f"{len(traced_s)} traced / {len(plain_s)} untraced passes"}
    detail = {
        "gauge": {"kind": "python" if workload.in_process else "start",
                  "factor": factor, "readings": runner.gauge.readings},
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "spans": tracer.spans,
    }
    return metrics, notes, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitlab" / "__init__.py").is_file():
        print(f"orbitlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    refs = json.loads(REFS.read_text())
    run_dir = HERE / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    env = environment(workload, args)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    runner = Runner(workload, workload.jobs(args.seed), run_dir, refs)
    if args.trace:
        metrics, notes, detail = traced(runner, workload, args.seconds)
    else:
        metrics, notes, detail = end_to_end(runner, workload, args.seconds)

    failed_frac = runner.failed / runner.attempted
    gauge = detail["gauge"]
    print(f"  speed: {gauge['kind']} gauge, median reading {statistics.median(gauge['readings']):.4g} s,"
          f" factor {gauge['factor']:.4g}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:<42} {value:>14.6g} {unit:<6}" + (f" ({note})" if note else ""))
    print(f"  {'failed_frac':<42} {failed_frac:>14.6g} {'ratio':<6} ({runner.failed} of {runner.attempted} jobs)")
    for key in sorted(runner.mismatched):
        print(f"  output mismatch: {key}")
    for job in runner.jobs:
        if job.known_defect:
            print(f"  known defect: {job.known_defect} ({job.key})")

    result = {
        "correct": not runner.mismatched,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps({"env": env, "result": result, "failed_frac": failed_frac,
                    "outcomes": runner.outcomes, "detail": detail}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
