"""The benchmark under ``perfbench/`` runs, once per mode.

``perfbench/run.py`` imports the library from ``src/`` of this checkout, so a
library change that breaks the harness would only show when the benchmark
runs. These runs take its smallest workload for 0.2 s of timing loop, about
4 s each, and check the result line it prints last.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "run.py")


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
def test_the_benchmark_runs_in_each_mode(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "paper-flr", "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
