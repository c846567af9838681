"""Golden digests: every shipped config, plus build22 K=20 and criterion
N=160, must write byte-for-byte the reports (minus the generated_at line)
and CSVs recorded before the exact-power and X2-pick rewrite. The two
criterion_ratio pins (factor 1.1 against 1/1.1, an inverse that is not
exact, at N=200 and on a sparse index list) were recorded before the
round trips were telescoped. The density_2b_section pin (the only report
with a witness ball and two-coordinate miss witnesses) was recorded before
the density report was encoded through jsonio.encode. The density_1d pin
(the benchmark's 1-D scan: 5,100 samples, 1,000 miss witnesses, not
covered) was recorded before the orbit cloud kept only its iterates and the
nearest-distance search was unrolled per dimension. The last four pins
(build21 K=40 with moduli past float range, build22 on the
non-dyadic Geometric(0.3), build21 on the rotating log spiral, build22 with
complex scalars) were recorded before the two construction schemes shared
one exact shift and one stage engine. The three lambda pins beyond
lambda_scalar (2B on a rotating uni point, a direct sum, a scalar with
signed-zero parts) were recorded before the multiplier estimate walked its
own orbit. A digest may change only with a declared change to the report
format."""

import cmath
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from orbitlab import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
_TS = re.compile(rb'  "generated_at": "[^"]*",\n')

GOLDEN = {
    "build21": {
        "report.json": "1c41ad1de98dc373ab0868dd57174ae68518fc5aad2c7103d429aecc20e160ac",
        "residuals.csv": "1af3ce7bd7b09c24a9cfe7d2dc2b5136b3f73b1ed1bef756b86dfa41a0b65d56",
    },
    "build22": {
        "report.json": "00072f5ef552ed5d9179524bdaca217933127d345f65abafc1a009fc8bb79a86",
        "residuals.csv": "0f1775f35c01469f8b9afd24643f5e38ed02dc310a0a57d771d442c7f3faea29",
    },
    "classify_ring": {
        "report.json": "00eb5382060490417c9f55950c19bed989c5cc75ed52d97518df9997db3aba03",
    },
    "criterion_rolewicz": {
        "report.json": "91eb0b6dd8f31200fcc798c05e0932bb16d11438a844847d9a1cebe51592acf2",
    },
    "lambda_scalar": {
        "report.json": "1b6fb88961a515aea40e8fa627d752e77898a79116b57a4a261ee909e6c0c5bb",
    },
    "spiral": {
        "report.json": "aa68b88e3313fb2b04edcbdf2049d830a68b8784fb64cd723000eec8e6f0d19c",
    },
    "spiral_density": {
        "heatmap.csv": "83df3fff0e0b2edc979f6b880d173bf8abfda1bc5ef4f6e1b399965330af6af0",
        "report.json": "b9125c922e15126d869022b8c86a3c25312abc2eb7804499124f5d5a34d2900b",
    },
    "winding_segment": {
        "report.json": "e9675ce4889c94ca3b67d4e1e00c55dd2f7d7f080d04d079face0f985db7af5b",
    },
    "build22_K20": {
        "report.json": "6d1daa6f109d4c5ca8eb7fadd8ed5c79680b816c0328268ca4f8dbafb378302c",
        "residuals.csv": "c1c285fe0e92e0166a7d6e8201dd873670cbd439154c8e15006fc7e526c78e2b",
    },
    "criterion_N160": {
        "report.json": "e90a1a50f70b0e80700b7e50b645381c843420981c119f86c29f3027063e0719",
    },
    "criterion_ratio_N200": {
        "report.json": "5780b9ea037b3fea237dcf29820fec05f7aafcdf95d4d53433a1707184c4a5c1",
    },
    "criterion_ratio_sparse": {
        "report.json": "3c2c5341e22812b26eca10473b0913199aaef46ff3a93cb5704d143d8f5d0ca2",
    },
    "density_2b_section": {
        "heatmap.csv": "859a540bbf15baa6a76500c799f4fc19e41232722aaeabb2f973dc95d34082ba",
        "report.json": "1a3a4e2f0f2144c4e2c54f871029251184f9677a9cbcc1c161b78606bce16127",
    },
    "density_1d": {
        "heatmap.csv": "b7c2dcf8ed65d441cdbdb4bdef7637a8fa3f36b559ff4fd32c3704f9de837a43",
        "report.json": "8f008ddaad987d5226be9fe204a8b75c8637a1ef2342237a130ca57591d18b60",
    },
    "build21_K40": {
        "report.json": "6cddcca06e1d01c02c56525bdc8a8c1444b039e0c0587460a759d702ddc5d4bf",
        "residuals.csv": "5f32329e2bc6ec25deb1e6f5994fb87d7d3df5c4d0d1002cdb7b4c3427fa77df",
    },
    "build22_geometric_0.3_K5": {
        "report.json": "76e1481a61521708e862ce5bcbb284ca3ec6e498deffffd6501fe0a0d1d78614",
        "residuals.csv": "ff2982538af0aa2e6834fa6227412fd11c66316d4c5f8a3bb8cfe736ab6be702",
    },
    "build21_log_spiral_K12": {
        "report.json": "bfb91337d57a04c1dd19539d6c0ae0e254857f206ab1526550c6cca15f2cc21e",
        "residuals.csv": "5bdf80b9ea041e9cf32763020171faa8f503e5fc94dc0e4d13f32c2cdded8dbd",
    },
    "build22_rotated_K12": {
        "report.json": "be88fa2a090b1091ce3e04115fcd3d3dd15fb0db2cf50f58e7a41784fba3c0d4",
        "residuals.csv": "5ea593a0f9e7ed571392ea1df0060be0e3d65cfe8625348d90cd856e7f63ef03",
    },
    "lambda_2b_uni": {
        "report.json": "f88d38f1f5cda87484dc58885ede7f98672d187bc70b96bad6c2efaf276ea16f",
    },
    "lambda_direct_sum": {
        "report.json": "1c7203b6214ff1aecbe8293cf1f921ce04b6170688f3d26fd97d295d28147c5e",
    },
    "lambda_signed_zero": {
        "report.json": "57909f19ffde69c0057fc5ddf92a09ba6d18bb3cc0302affca1841675f15e9ee",
    },
}


def _section_2b():
    """2B on an annulus, scanned on the 2-coordinate section [0, 1] around a
    ball off the origin: the benchmark's density_2b_section job."""
    angle = math.pi * (3.0 - math.sqrt(5.0))
    entries = []
    for j in range(32):
        z = cmath.rect(2.0 ** -j, angle * j * j)
        entries.append([j, z.real, z.imag])
    center = [cmath.rect(0.75, 0.0), cmath.rect(0.75, angle)]
    return {
        "command": "density",
        "operator": {"kind": "scalar_multiple", "factor": [2.0, 0.0],
                     "inner": {"kind": "backward_shift"}},
        "base_point": {"domain": "uni", "entries": entries},
        "set": {"kind": "annulus", "inner_radius": 0.5, "outer_radius": 1.0},
        "horizon": 30,
        "gamma_grid": 64,
        "section": [0, 1],
        "ball": {"center": [[z.real, z.imag] for z in center], "radius": 0.35},
        "epsilon": 0.2,
        "grid_step": 0.35 / 4,
    }


def _density_1d():
    """The spiral orbit cloud on the 1-D section around 0: (1/2)e^{i} maps
    the spiral point at parameter t to the one at t-1, so all 51 x 100 =
    5,100 samples lie on the spiral: the benchmark's density_1d job."""
    return {
        "command": "density",
        "operator": {"kind": "scalar_on_c", "value": [0.5 * math.cos(1.0), 0.5 * math.sin(1.0)]},
        "base_point": [1.0, 0.0],
        "set": {"kind": "log_spiral", "base": 2.0, "rate": {"irrational": 1.0, "tag": "one radian"}},
        "horizon": 50,
        "gamma_grid": 100,
        "section": [0],
        "ball": {"center": [[0.0, 0.0]], "radius": 1.0},
        "epsilon": 0.04,
        "grid_step": 0.05,
    }


def _lambda_2b():
    """2B on the uni point sum of 1.5^-j e^{ij} e_j (j < 12): each step
    rotates and shrinks the tail, so seven multipliers below 1 are detected
    with nonzero slack on a 90-phase grid."""
    entries = []
    for j in range(12):
        z = cmath.rect(1.5 ** -j, j)
        entries.append([j, z.real, z.imag])
    return {
        "command": "lambda-est",
        "operator": {"kind": "scalar_multiple", "factor": [2.0, 0.0],
                     "inner": {"kind": "backward_shift"}},
        "base_point": {"domain": "uni", "entries": entries},
        "iterate": 1,
        "horizon": 10,
        "epsilon": 0.05,
        "phase_grid": 90,
    }


# the ratio pair: T = 1.1 B with S = F / 1.1, whose round trip is not exact
_RATIO = {
    "operator": {"kind": "scalar_multiple", "factor": [1.1, 0.0],
                 "inner": {"kind": "backward_shift"}},
    "right_inverse": {"kind": "scalar_multiple", "factor": [1 / 1.1, 0.0],
                      "inner": {"kind": "forward_shift"}},
}
_SPIRAL_SET = {"kind": "log_spiral", "base": 2.0, "rate": {"irrational": 1.0, "tag": "one radian"}}
_ROTATED_SET = {"kind": "scaled", "factor": [0.6, 0.8],
                "inner": {"kind": "geometric", "base": [0.5, 0.0]}}

# every pin that is not a shipped config: the shipped config it starts from
# (None for a config given whole) and the top-level fields it replaces
DERIVED = {
    "build22_K20": ("build22", {"stages": 20, "targets": {"default_count": 21}}),
    "criterion_N160": ("criterion_rolewicz", {"indices": {"upto": 160}}),
    "criterion_ratio_N200": ("criterion_rolewicz", {**_RATIO, "indices": {"upto": 200}}),
    "criterion_ratio_sparse": (
        "criterion_rolewicz", {**_RATIO, "indices": [0, 1, 5, 6, 17, 64, 65, 130, 199, 200]}),
    "density_2b_section": (None, _section_2b()),
    "density_1d": (None, _density_1d()),
    "build21_K40": ("build21", {"stages": 40, "targets": {"default_count": 41}}),
    "build22_geometric_0.3_K5": (
        "build22", {"set": {"kind": "geometric", "base": [0.3, 0.0]}, "stages": 5,
                    "targets": {"default_count": 6}}),
    "build21_log_spiral_K12": (
        "build21", {"set": _SPIRAL_SET, "stages": 12, "targets": {"default_count": 13}}),
    "build22_rotated_K12": (
        "build22", {"set": _ROTATED_SET, "stages": 12, "targets": {"default_count": 13}}),
    "lambda_2b_uni": (None, _lambda_2b()),
    # the direct sum of tests/test_cli.py: 0.5 on C beside B on uni
    "lambda_direct_sum": (None, {
        "command": "lambda-est",
        "operator": {"kind": "direct_sum", "blocks": [
            {"kind": "scalar_on_c", "value": [0.5, 0.0]}, {"kind": "backward_shift"}]},
        "base_point": [[1.0, 0.0], {"domain": "uni", "entries": [[1, 1.0, 0.0]]}],
        "iterate": 1, "horizon": 4, "epsilon": 0.1}),
    "lambda_signed_zero": (
        "lambda_scalar", {"operator": {"kind": "scalar_on_c", "value": [-0.5, -0.0]},
                          "base_point": [-1.0, -0.0]}),
}


def _config(name):
    base, overrides = DERIVED.get(name, (name, {}))
    cfg = json.loads((CONFIG_DIR / f"{base}.json").read_text()) if base else {}
    return {**cfg, **overrides}


def test_every_shipped_config_is_pinned():
    assert {p.stem for p in CONFIG_DIR.glob("*.json")} <= GOLDEN.keys()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    code, report = cli.run_config(_config(name), out_dir=tmp_path, emit_csv=True)
    assert code == 0, report.get("error")
    got = {}
    for path in sorted(tmp_path.iterdir()):
        blob = path.read_bytes()
        if path.name == "report.json":
            blob, stamps = _TS.subn(b"", blob)
            assert stamps == 1
        got[path.name] = hashlib.sha256(blob).hexdigest()
    assert got == GOLDEN[name]
