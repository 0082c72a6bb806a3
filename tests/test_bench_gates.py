"""The benchmark's output gates, one workload or gate seed per test.

``perfbench/run.py --scale tiny`` reproduces the golden CSV, runs the tiny
scale at both gate seeds against the recorded digests and requires every
verdict to pass; its last line reports ``"correct": true`` and it exits 0
exactly when no gate failed.  So a change that breaks a benchmark output
fails here, before any timed run.  ``verify_suite`` runs at full scale
at both gate seeds instead: only its full scale scores the
``SeparableGeneric`` costs on enough points to pin their evaluation bits,
and every run also checks the golden CSV and both tiny digests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def assert_gates_pass(*flags):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *flags, "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload", ["ocp_mixed", "welfare_mixed", "oracle_exact"])
def test_tiny_run_passes_every_gate(workload):
    assert_gates_pass("--workload", workload, "--scale", "tiny")


@pytest.mark.parametrize("seed", [0, 7919])
def test_full_scale_verify_suite_passes_every_gate(seed):
    assert_gates_pass("--workload", "verify_suite", "--seed", str(seed))
