"""Job mixes of the orbitlab benchmark.

A workload turns a seed into one *pass*: an ordered list of jobs. A run
repeats that pass, so every pass of a run does the same work and per-pass
counts are comparable. The seed decides the job order and, on ``grid_scan``,
which spiral targets are scanned; the targets come from a fixed pool whose
reference outputs are recorded in ``refs.json``.

See README.md in this directory for why each workload exists and which
per-layer numbers it is meant to move.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"

SPIRAL_POOL = 12  # near and far targets each; refs.json holds all of them
SPIRAL_STEP = 1e-5
SPIRAL_RANGE = (-20.0, 20.0)
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class Job:
    """One orbitlab invocation. ``key`` names its reference output."""

    key: str
    command: str
    config: dict
    # set when the seed commit fails this job on purpose-built input; the
    # value names the defect and the job still counts as failed while it fails
    known_defect: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool  # False: each job is a fresh `orbitlab` process
    # fixed so that runs of different speed report the same percentile: the
    # highest of p50/p75/p90 leaving ten samples beyond it in a 30 s run at
    # the seed commit's speed
    tail_pct: int
    required: tuple[str, ...]  # boundaries a traced pass must reach
    sizes: dict = field(default_factory=dict)

    @property
    def min_jobs(self) -> int:
        """Jobs needed so that at least ten samples lie beyond tail_pct."""
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        pool = _POOLS[self.name](rng)
        rng.shuffle(pool)
        return pool


# ---------------------------------------------------------------------------
# cli_configs: the shipped example configs, one fresh process each


def _cli_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        jobs.append(Job(f"cfg_{path.stem}", cfg["command"], cfg))
    return jobs


# ---------------------------------------------------------------------------
# grid_scan: density sections and dense spiral scans


_RATE = {"irrational": 1.0, "tag": "one radian"}
# 1-D section of the spiral orbit cloud: the operator (1/2)e^{i} maps the
# spiral point at parameter t to the one at t-1, so all 51 x 100 = 5,100
# samples lie on the spiral and crowd towards 0; the ball around 0 keeps
# nearly all of them after the bounding-box prefilter.
DENSITY_1D = {
    "command": "density",
    "operator": {"kind": "scalar_on_c", "value": [0.5 * math.cos(1.0), 0.5 * math.sin(1.0)]},
    "base_point": [1.0, 0.0],
    "set": {"kind": "log_spiral", "base": 2.0, "rate": _RATE},
    "horizon": 50,
    "gamma_grid": 100,
    "section": [0],
    "ball": {"center": [[0.0, 0.0]], "radius": 1.0},
    "epsilon": 0.04,
    "grid_step": 0.05,
}


def _section_2b() -> dict:
    """2-coordinate section of 2B on an annulus: 31 x 64 = 1,984 samples, a
    4-real-dimensional ball of 1,281 grid points off the origin, so the
    prefilter keeps few samples and the somewhere-witness search runs."""
    horizon = 30
    entries = []
    for j in range(horizon + 2):
        z = cmath.rect(2.0 ** -j, GOLDEN_ANGLE * j * j)
        entries.append([j, z.real, z.imag])
    center = [cmath.rect(0.75, 0.0), cmath.rect(0.75, GOLDEN_ANGLE)]
    radius = 0.35
    return {
        "command": "density",
        "operator": {
            "kind": "scalar_multiple",
            "factor": [2.0, 0.0],
            "inner": {"kind": "backward_shift"},
        },
        "base_point": {"domain": "uni", "entries": entries},
        "set": {"kind": "annulus", "inner_radius": 0.5, "outer_radius": 1.0},
        "horizon": horizon,
        "gamma_grid": 64,
        "section": [0, 1],
        "ball": {"center": [[z.real, z.imag] for z in center], "radius": radius},
        "epsilon": 0.2,
        "grid_step": radius / 4,
    }


def spiral_targets(kind: str) -> list[complex]:
    """The fixed target pool. Near targets sit 0.1% off the spiral
    2^s e^{-is}; far targets sit half a turn between two of its arms."""
    rng = random.Random(f"spiral-{kind}-pool")
    out = []
    for _ in range(SPIRAL_POOL):
        if kind == "near":
            s = rng.uniform(-4.0, 4.0)
            out.append(cmath.rect(2.0 ** s * 1.001, -s))
        else:
            # the arms cross angle phi at s = -phi + 2 pi k; go half a turn out
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out.append(cmath.rect(2.0 ** (math.pi - phi), phi))
    return out


def spiral_job(kind: str, index: int) -> Job:
    z = spiral_targets(kind)[index]
    cfg = {
        "command": "spiral",
        "base": 2.0,
        "rate": _RATE,
        "target": [z.real, z.imag],
        "s_range": list(SPIRAL_RANGE),
        "step": SPIRAL_STEP,
    }
    return Job(f"spiral_{kind}_{index:02d}", "spiral", cfg)


def _grid_jobs(rng: random.Random) -> list[Job]:
    return [
        Job("density_1d", "density", DENSITY_1D),
        Job("density_2b_section", "density", _section_2b()),
        spiral_job("near", rng.randrange(SPIRAL_POOL)),
        spiral_job("far", rng.randrange(SPIRAL_POOL)),
    ]


# ---------------------------------------------------------------------------
# shift_builds: exact constructions and criterion checks


BUILD21_KS = (20, 40)
BUILD22_KS = (20, 21, 22)
CRITERION_NS = (160, 320)
# cli._cmd_build21 renders the residual CSV even without --emit-csv, and
# StageChoice.modulus_float() overflows to inf from K = 32 on
BUILD21_OVERFLOW = "build21 K>=32 exits 1: non-finite float inf cannot appear in a report"


def _shipped(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def build_job(command: str, stages: int) -> Job:
    cfg = _shipped(command)
    cfg["stages"] = stages
    cfg["targets"] = {"default_count": stages + 1}
    defect = BUILD21_OVERFLOW if command == "build21" and stages >= 32 else ""
    return Job(f"{command}_K{stages}", command, cfg, defect)


def criterion_job(upto: int) -> Job:
    cfg = _shipped("criterion_rolewicz")
    cfg["indices"] = {"upto": upto}
    return Job(f"criterion_N{upto}", "criterion", cfg)


def _shift_jobs(rng: random.Random) -> list[Job]:
    return (
        [build_job("build22", k) for k in BUILD22_KS]
        + [build_job("build21", k) for k in BUILD21_KS]
        + [criterion_job(n) for n in CRITERION_NS]
    )


_POOLS = {"cli_configs": _cli_jobs, "grid_scan": _grid_jobs, "shift_builds": _shift_jobs}

_JOB_LAYERS = ("cli.run_config", "jsonio.loads", "jsonio.dumps", "jsonio.config_hash")
_GRID_LAYERS = (
    "scalar_sets.from_json",
    "density.generate_orbit",
    "density.epsilon_density",
    "kernels.nearest_distances",
    "operators.apply",
    "constructions.spiral_distance_to",
    "kernels.spiral_min_scan",
)
_SHIFT_LAYERS = (
    "scalar_sets.from_json",
    "scalar_sets.pick",
    "exact.ops",
    "constructions.build_bilateral",
    "constructions.build_unilateral",
    "constructions.trace_encode",
    "criteria.check_criterion",
    "criteria.apply",
    "operators.apply",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_configs",
            in_process=False,
            tail_pct=75,
            required=tuple(
                dict.fromkeys(
                    _JOB_LAYERS
                    + _GRID_LAYERS
                    + _SHIFT_LAYERS
                    + ("scalar_sets.classify", "winding.winding_number")
                )
            ),
            sizes={"configs": 8, "spiral_step": 1e-4, "build21_K": 20, "build22_K": 15,
                   "criterion_N": 40, "density_grid_step": 0.04313854340246697,
                   "density_cloud": 5100},
        ),
        Workload(
            "grid_scan",
            in_process=True,
            tail_pct=50,
            required=_JOB_LAYERS + _GRID_LAYERS,
            sizes={"spiral_step": SPIRAL_STEP, "spiral_points": 4_000_001,
                   "density_1d_grid_step": DENSITY_1D["grid_step"], "density_1d_cloud": 5100,
                   "density_2b_grid_step": 0.35 / 4, "density_2b_cloud": 1984},
        ),
        Workload(
            "shift_builds",
            in_process=True,
            tail_pct=50,
            required=_JOB_LAYERS + _SHIFT_LAYERS,
            sizes={"build22_K": list(BUILD22_KS), "build21_K": list(BUILD21_KS),
                   "criterion_N": list(CRITERION_NS)},
        ),
    )
}


def all_reference_jobs() -> list[Job]:
    """Every job any seed can produce, for recording refs.json."""
    jobs = _cli_jobs(random.Random(0)) + _shift_jobs(random.Random(0))
    jobs += [Job("density_1d", "density", DENSITY_1D), Job("density_2b_section", "density", _section_2b())]
    jobs += [spiral_job(kind, i) for kind in ("near", "far") for i in range(SPIRAL_POOL)]
    return jobs
