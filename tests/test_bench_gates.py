"""The benchmark's output gates, one workload and gate seed per test.

A full-scale ``perfbench/run.py`` run at a gate seed with ``--seconds 0.01``
reproduces the golden CSV, runs the tiny scale at both gate seeds against
the recorded digests, times at least one full-scale pass and checks that
pass's digest against the recording, and requires every verdict to pass.
Its last line reports ``"correct": true`` and it exits 0 exactly when no
gate failed.  So a change that breaks a benchmark output fails here, before
any timed run, and the failing case names its workload and seed.

The runs stay in subprocesses: importing ``perfbench/run.py`` pins
thread-count variables and re-imports every ``robustpd`` module.  The
module-scoped fixture starts them two at a time, the case a test asks for
and the next case not yet started, and each test asserts only its own run.
The module only reads ``perfbench/digests.json``; it never records.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7919)
WORKLOADS = ("ocp_mixed", "welfare_mixed", "oracle_exact")
RUN_CASES = [(workload, seed) for workload in WORKLOADS for seed in SEEDS]
CASES = RUN_CASES + [("verify_suite", seed) for seed in SEEDS]


class GateRuns:
    """The gate runs of :data:`CASES`, started on demand, two at a time."""

    def __init__(self, out_dir):
        self.out_dir, self.started = out_dir, {}

    def _start(self, case):
        workload, seed = case
        stdout = (self.out_dir / f"{workload}-{seed}.out").open("w+")
        stderr = (self.out_dir / f"{workload}-{seed}.err").open("w+")
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "0.01"],
            cwd=ROOT, stdout=stdout, stderr=stderr, text=True,
        )
        self.started[case] = proc, stdout, stderr

    def result(self, case):
        """``(exit status, stdout, stderr)`` of the run of ``case``."""
        if case not in self.started:
            waiting = [c for c in CASES if c not in self.started and c != case]
            for c in [case, *waiting[:1]]:
                self._start(c)
        proc, stdout, stderr = self.started[case]
        proc.wait(timeout=600)
        stdout.seek(0)
        stderr.seek(0)
        return proc.returncode, stdout.read(), stderr.read()

    def close(self):
        for proc, stdout, stderr in self.started.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            stdout.close()
            stderr.close()


@pytest.fixture(scope="module")
def gate_runs(tmp_path_factory):
    runs = GateRuns(tmp_path_factory.mktemp("gates"))
    yield runs
    runs.close()


def assert_gates_pass(gate_runs, workload, seed):
    status, stdout, stderr = gate_runs.result((workload, seed))
    assert status == 0, stderr[-4000:] + stdout[-4000:]
    assert json.loads(stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload, seed", RUN_CASES)
def test_full_scale_run_passes_every_gate(gate_runs, workload, seed):
    assert_gates_pass(gate_runs, workload, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_scale_verify_suite_passes_every_gate(gate_runs, seed):
    assert_gates_pass(gate_runs, "verify_suite", seed)
