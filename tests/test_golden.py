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
nearest-distance search was unrolled per dimension. A digest may change
only with a declared change to the report format."""

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
}

# the ratio pair: T = 1.1 B with S = F / 1.1, whose round trip is not exact
_RATIO_INDICES = {
    "criterion_ratio_N200": {"upto": 200},
    "criterion_ratio_sparse": [0, 1, 5, 6, 17, 64, 65, 130, 199, 200],
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


def _config(name):
    if name == "density_2b_section":
        return _section_2b()
    if name == "density_1d":
        return _density_1d()
    if name == "build22_K20":
        cfg = json.loads((CONFIG_DIR / "build22.json").read_text())
        cfg["stages"] = 20
        cfg["targets"] = {"default_count": 21}
        return cfg
    if name == "criterion_N160":
        cfg = json.loads((CONFIG_DIR / "criterion_rolewicz.json").read_text())
        cfg["indices"] = {"upto": 160}
        return cfg
    if name in _RATIO_INDICES:
        cfg = json.loads((CONFIG_DIR / "criterion_rolewicz.json").read_text())
        cfg["operator"] = {"kind": "scalar_multiple", "factor": [1.1, 0.0],
                           "inner": {"kind": "backward_shift"}}
        cfg["right_inverse"] = {"kind": "scalar_multiple", "factor": [1 / 1.1, 0.0],
                                "inner": {"kind": "forward_shift"}}
        cfg["indices"] = _RATIO_INDICES[name]
        return cfg
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


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
