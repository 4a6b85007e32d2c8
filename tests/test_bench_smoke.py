"""The benchmark harness runs on the current sources: one tiny untraced pass
of every workload that BENCHMARK.json names completes and checks its rows."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tiny_pass_is_correct(workload):
    # no bytecode cache under bench/; the run's files go to .bench_run/ and are removed
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--tiny", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout[-2000:]
