"""The benchmark's own checks pass on every workload, traced.

``perfbench/workload.py --trace 1`` checks the tables against the reference
values and the traced call counts against those its inputs imply (for
instance three ``sensor_g2`` calls per CSI row).  A change that breaks either
makes the benchmark refuse the run, so each workload runs here once, as
briefly as the script allows, in the environment the benchmark gives it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.run import child_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_workload_passes_every_check(workload, tmp_path):
    result = tmp_path / "result.json"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", workload, "--seed", "0", "--seconds", "0.01", "--trace", "1",
        "--out", str(tmp_path / "out"), "--result", str(result),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(result.read_text())
    assert {name: failures for name, failures in payload["checks"].items() if failures} == {}
    assert payload["flagged"] == 0
