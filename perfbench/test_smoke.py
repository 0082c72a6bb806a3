"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Every metric named in ``BENCHMARK.json`` must appear with its unit, the
correctness gate must pass on the real code and fail on a tampered digest,
and the benchmark must refuse to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, scale="tiny"):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--scale", scale,
            "--seconds", "0.5", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def bench_copy(tmp_path):
    """A checkout in ``tmp_path`` that holds only a copy of perfbench/."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


# The tiny digest at seed 0 is checked by every run; the full one only by a
# full-scale run at seed 0, against that run's own timed output.
@pytest.mark.parametrize("workload,scale,seed", [
    ("ocp_mixed", "tiny", "3"),
    ("verify_suite", "full", "0"),
])
def test_gate_fails_on_tampered_digest(tmp_path, workload, scale, seed):
    checkout = bench_copy(tmp_path)
    for name in ("src", "tests"):
        (checkout / name).symlink_to(ROOT / name, target_is_directory=True)
    path = checkout / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    recorded = digests[workload][scale]["0"]
    digests[workload][scale]["0"] = ("0" if recorded[0] != "0" else "1") + recorded[1:]
    path.write_text(json.dumps(digests))
    proc = bench("--workload", workload, "--seed", seed, "--trace", "0", cwd=checkout,
                 scale=scale)
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == 1
    assert f"{workload} {scale} seed 0: digest" in proc.stderr


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "ocp_mixed", "--seed", "0", "--trace", "0",
                 cwd=bench_copy(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
