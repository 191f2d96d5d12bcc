"""The seeded benchmark runs every workload once and every check passes.

`bench/run.py --seconds 0` builds each workload's inputs and runs one pass
of its operations, with every first result checked.  A wrong result or a
raised operation shows here as `"correct": false` or a nonzero `"failed"`
on the result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["planar", "fit", "web"])
def test_one_benchmark_pass_is_correct_and_nothing_fails(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
