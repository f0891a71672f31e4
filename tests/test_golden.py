"""CLI reports byte for byte against recorded outputs in tests/golden/.

Each case runs one command on the bundled fixtures and compares its
stdout with the file of the same name. The one tolerance is the
`envelope` of roofline JSON: its samples come from log10 and a power
of ten, whose last bit may differ between math libraries, so they are
compared as floats to 1e-15 relative and everything else exactly.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import dnnreuse
from dnnreuse.cli import main

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

MODELS = [f"{{models}}/{m}.yaml" for m in ("alexnet", "mobilenet-v1", "googlenet", "resnet-50")]
PROFILES = ["--profiles", "{fixtures}/reference_metrics.csv"]
MEASUREMENTS = ["--measurements", "{fixtures}/measurements.csv"]
REFERENCE = "{fixtures}/reference_metrics.csv"

CASES = {
    "analyze.csv": ["analyze", *MODELS],
    "analyze-batch4.json": ["analyze", *MODELS, "--batch", "4", "--format", "json"],
    "layers.csv": ["layers", "{models}/mobilenet-v1.yaml"],
    "layers.json": ["layers", "{models}/mobilenet-v1.yaml", "--format", "json"],
    "calibrate.csv": ["calibrate", *PROFILES, *MEASUREMENTS, "--device", "P4000", "--batch", "4"],
    "calibrate.json": ["calibrate", *PROFILES, *MEASUREMENTS, "--device", "P100", "--format", "json"],
    "roofline.csv": [
        "roofline", "--hw", "{fixtures}/hardware/p100.yaml",
        *PROFILES, *MEASUREMENTS, "--device", "P100", "--batch", "4",
    ],
    "roofline.json": [
        "roofline", "--hw", "{fixtures}/hardware/p4000.yaml",
        *PROFILES, *MEASUREMENTS, "--device", "P4000", "--metric", "di", "--mode", "converted",
        "--format", "json",
    ],
    "stats.csv": ["stats", REFERENCE, "--x", "di", "--y", "ai_c"],
    "stats.json": ["stats", REFERENCE, "--x", "di", "--y", "ai_c", "--format", "json"],
    "stats-perfect.json": ["stats", REFERENCE, "--x", "macs", "--y", "macs", "--format", "json"],
}


def run_case(name: str) -> str:
    args = [a.format(fixtures=FIXTURES, models=FIXTURES / "models") for a in CASES[name]]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    got = run_case(name)
    if name == "roofline.json":
        got_doc, expected_doc = json.loads(got), json.loads(expected)
        got_envelope = [v for e in got_doc["envelope"] for v in (e["intensity"], e["attainable_ops"])]
        expected_envelope = [v for e in expected_doc["envelope"] for v in (e["intensity"], e["attainable_ops"])]
        assert got_envelope == pytest.approx(expected_envelope, rel=1e-15, abs=0)
        got_doc["envelope"] = expected_doc["envelope"]
        got = json.dumps(got_doc, indent=2) + "\n"
    assert got == expected


def test_cli_import_pulls_in_neither_numpy_nor_scipy():
    probe = "import sys, dnnreuse.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    src = pathlib.Path(dnnreuse.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
