"""Every demo script runs to completion against the package in src/ and
prints the bytes its stdout's sha256 pins."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_diagrams_and_evenness.py":
        "a1338b2c50c8277bd2adce147b10aaf024acb2518b53f1b1582c383fa9c85d6d",
    "02_line_bundle_calculus.py":
        "e04d8f76c880aab18ca2ae757d394a976045bdf594591017f9ab04979b46035d",
    "03_cyclic_sequences.py":
        "4f15bf9b0e1ebba9ea7297b78f5a5b2376513e87523f259908f98a2258f5d763",
    "04_rank_tables_and_families.py":
        "fb51f43e1e27df74bf295a65002e3aa7ef4c7726308ea07c3cc627195253bf53",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
