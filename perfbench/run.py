"""Benchmark of robustpd: time to a checked verdict, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ocp_mixed --seed 0 --seconds 20 --trace 0

It imports the package from ``src/``, generates the workload's instances
from ``--seed``, checks outputs (golden CSV, recorded digests, every
verdict PASS, digests stable across repeats), then times whole passes over
the workload's items for about ``--seconds``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics from the spans.  The last line of
standard output is one JSON object; the exit status is 0 exactly when no
check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin every thread pool to one thread before numpy is imported.
for _var in (
    "ROBUSTPD_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
GOLDEN_INSTANCE = ROOT / "tests" / "data" / "ocp_small.json"
GOLDEN_CSV = ROOT / "tests" / "data" / "ocp_small_golden.csv"

# The recorded digests cover every workload at both scales and these seeds;
# the held-out seed was not used while choosing the workloads.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
GATE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
SETUP_REPEATS = 5
# A timed run holds at least this many items, so item_ms_p90 always has
# enough samples; it runs further whole passes past --seconds if needed.
MIN_ITEMS = 100

# Speed calibration.  The benchmark's host is shared, and its speed swings
# by up to 2x for seconds at a time.  So a short fixed probe, independent of
# robustpd, runs before every timed item and setup, and each time is scaled
# by (reference probe time / probe time measured around it).  Times are
# thus reported in seconds of a reference machine: a 2-core Xeon at 2.1 GHz
# on which the probe takes CAL_REF_S when nothing else contends for it.
CAL_STEPS = 1000
CAL_REF_S = 2.0e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "verify_checks_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class Tally:
    """Attempted and failed units, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL {what}", file=sys.stderr)


def import_library():
    """Import robustpd from ``src/`` afresh and return the modules used."""
    if not (SRC / "robustpd" / "__init__.py").is_file():
        raise SystemExit(f"error: no robustpd package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "robustpd" or k.startswith("robustpd.")]:
        del sys.modules[name]
    return SimpleNamespace(
        harness=importlib.import_module("robustpd.harness"),
        instances=importlib.import_module("robustpd.instances"),
        cli=importlib.import_module("robustpd.cli"),
    )


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def probe():
    """Seconds of one calibration probe: small numpy calls in an interpreter
    loop, the same kind of work as the engines' per-step updates."""
    started = perf_counter()
    y = np.zeros(3)
    acc = 0.0
    for k in range(CAL_STEPS):
        y = np.maximum(y, np.full(3, 0.5 * k))
        acc += float(np.dot(y, y))
    return perf_counter() - started


def run_item(item, index, reference, tally):
    """Run one item; returns ``(seconds, outcome)``, outcome None on error.

    The first outcome of each item index becomes the reference that every
    repeat must reproduce byte for byte.
    """
    started = perf_counter()
    try:
        outcome = item.run()
    except Exception:
        traceback.print_exc()
        tally.record(False, f"{item.label}: exception")
        return perf_counter() - started, None
    elapsed = perf_counter() - started
    same = reference.setdefault(index, digest(outcome.csv)) == digest(outcome.csv)
    tally.record(
        outcome.passed and same,
        f"{item.label}: "
        + ("a check verdict is FAIL" if not outcome.passed else "CSV digest differs from an earlier repeat"),
    )
    return elapsed, outcome


def check_golden(lib, tally):
    """``tests/data/ocp_small_golden.csv`` through ``cli.main(["run-ocp", ...])``."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(
                ["run-ocp", "--instance", str(GOLDEN_INSTANCE), "--replications", "3",
                 "--out-dir", tmp]
            )
        produced = (Path(tmp) / "ocp_small_ocp.csv").read_bytes()
    tally.record(code == 0 and produced == GOLDEN_CSV.read_bytes(),
                 "golden CSV not reproduced by run-ocp")


def pass_digest(reference, count):
    """Digest of a whole pass: the per-item CSV digests in item order.

    An item that never produced output (it raised) makes the digest
    ``missing``, which matches no recording.
    """
    if any(index not in reference for index in range(count)):
        return "missing"
    return digest("".join(reference[index] for index in range(count)))


def run_pass_digest(lib, workload, seed, scale, tally):
    """Digest of one untimed pass; every item must pass its checks."""
    items = workloads.build(lib, workload, seed, scale)
    reference: dict[int, str] = {}
    for index, item in enumerate(items):
        run_item(item, index, reference, tally)
    return pass_digest(reference, len(items))


def check_digest(got, workload, scale, seed, tally):
    recorded = json.loads(DIGESTS.read_text())[workload][scale][str(seed)]
    tally.record(got == recorded,
                 f"{workload} {scale} seed {seed}: digest {got} != recorded {recorded}")


def check_tiny(lib, workload, tally):
    """The tiny scale at both gate seeds against the recording."""
    for seed in GATE_SEEDS:
        check_digest(run_pass_digest(lib, workload, seed, "tiny", tally),
                     workload, "tiny", seed, tally)


def setup(workload, seed, scale, tally):
    """Import, instance generation and one warm-up item, timed together.

    Returns the set-up time scaled to the reference machine, from probes
    run just before and just after it.
    """
    probe_s = probe()
    started = perf_counter()
    lib = import_library()
    items = workloads.build(lib, workload, seed, scale)
    reference: dict[int, str] = {}
    run_item(items[0], 0, reference, tally)
    elapsed = perf_counter() - started
    probe_s += probe()
    return elapsed * 2 * CAL_REF_S / probe_s, lib, items, reference


def run_pass(items, reference, tally):
    """One pass over ``items``, with a probe run before every item.

    Returns each item's ``(seconds, outcome)`` and the pass's scale factor
    to the reference machine.
    """
    results, probe_s = [], 0.0
    for index, item in enumerate(items):
        probe_s += probe()
        results.append(run_item(item, index, reference, tally))
    return results, len(items) * CAL_REF_S / probe_s


def measure(items, reference, seconds, tally):
    """As many whole passes as fit in ``seconds``, rounded to the nearest,
    and enough of them to run at least ``MIN_ITEMS`` items.

    Every time is scaled by its pass's factor to the reference machine.
    """
    pass_s: list[float] = []
    item_ms: list[float] = []
    reps = verdicts = ran = 0
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        results, factor = run_pass(items, reference, tally)
        ran += len(results)
        timed = [(t * factor, o) for t, o in results if o is not None]
        pass_s.append(sum(t for t, _ in timed))
        item_ms += [t * 1e3 for t, _ in timed]
        reps += sum(o.reps for _, o in timed)
        verdicts += sum(o.verdicts for _, o in timed)
        now = perf_counter()
        if now - started + (now - pass_started) / 2 > seconds and ran >= MIN_ITEMS:
            break
    if not item_ms:
        raise SystemExit("error: every item failed")
    busy = sum(pass_s)
    return {
        "wall_s": statistics.median(pass_s),
        "reps_per_s": reps / busy,
        "verify_checks_per_s": verdicts / busy,
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_p90": statistics.quantiles(item_ms, n=10)[8] if len(item_ms) > 1 else item_ms[0],
    }, {"items": len(item_ms), "passes": len(pass_s)}


def measure_traced(lib, workload, seed, scale, reference, seconds, tally):
    """Alternate untraced and traced passes; per-layer metrics per traced pass.

    A pass here also generates the workload's instances, so instance
    generation shows in the spans.  Each metric is the median over traced
    passes, its times scaled to the reference machine like the end-to-end
    ones.  The spans of the first traced pass are written to ``.bench_out``.
    """
    import tracer

    def one_pass():
        """Item and generation seconds of one pass, and its scale factor."""
        started = perf_counter()
        items = workloads.build(lib, workload, seed, scale)
        generated = perf_counter()
        results, factor = run_pass(items, reference, tally)
        return generated - started + sum(t for t, _ in results), factor

    kept = None
    untraced, traced, per_pass = [], [], []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        raw, factor = one_pass()
        untraced.append(raw * factor)
        tr = tracer.Tracer()
        with tr.installed():
            raw, factor = one_pass()
        traced.append(raw * factor)
        per_pass.append(tracer.layer_metrics(tracer.summarize(tr, raw), factor))
        kept = kept or tr
        now = perf_counter()
        if now - started + (now - pass_started) / 2 > seconds:
            break
    OUT_DIR.mkdir(exist_ok=True)
    kept.write(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
    metrics = {
        name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    return metrics, {"traced_passes": len(per_pass)}


def commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "ROBUSTPD_THREADS": os.environ["ROBUSTPD_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def record_digests():
    """Write the digests of every workload at both scales and gate seeds."""
    lib = import_library()
    tally = Tally()
    table = {
        w: {
            scale: {str(s): run_pass_digest(lib, w, s, scale, tally) for s in GATE_SEEDS}
            for scale in workloads.SCALES
        }
        for w in workloads.WORKLOADS
    }
    if tally.failures:
        raise SystemExit("error: a check failed; digests not recorded")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="ocp_mixed")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny: a few small items, for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help="write the output digests to perfbench/digests.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    tally = Tally()

    setups = [setup(args.workload, args.seed, args.scale, tally) for _ in range(SETUP_REPEATS)]
    _, lib, items, reference = setups[-1]
    check_golden(lib, tally)
    check_tiny(lib, args.workload, tally)

    if args.trace:
        import tracer

        metrics, samples = measure_traced(
            lib, args.workload, args.seed, args.scale, reference, args.seconds, tally
        )
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics, samples = measure(items, reference, args.seconds, tally)
        metrics["setup_s"] = statistics.median(s[0] for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    print("samples " + json.dumps(samples))
    # Every item ran at least once, so the run's own output is complete: at
    # a gate seed it must match the recording for the run's scale.
    if args.seed in GATE_SEEDS:
        check_digest(pass_digest(reference, len(items)), args.workload, args.scale,
                     args.seed, tally)

    failed = len(tally.failures)
    print(f"fail_ratio {failed / tally.attempted:.6g} ({failed} of {tally.attempted} attempted)")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
