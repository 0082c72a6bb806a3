import json

import pytest

from robustpd.cli import main
from robustpd.harness import (
    CSV_HEADER,
    evaluate_ocp_instance,
    evaluate_welfare_instance,
    report_to_csv,
    report_to_json,
    run_verify_suite,
)
from robustpd.instances import load_instance

OCP_INSTANCE = "tests/data/ocp_small.json"
WELFARE_INSTANCE = "tests/data/welfare_small.json"
GOLDEN_CSV = "tests/data/ocp_small_golden.csv"
# One golden file per run command: (command, instance, format, output name, golden).
GOLDEN_RUNS = [
    ("run-welfare", WELFARE_INSTANCE, "csv", "welfare_small_welfare.csv",
     "tests/data/welfare_small_golden.csv"),
    ("run-loadbalance", OCP_INSTANCE, "csv", "ocp_small_loadbalance.csv",
     "tests/data/ocp_small_loadbalance_golden.csv"),
    ("run-ocp", OCP_INSTANCE, "json", "ocp_small_ocp.json",
     "tests/data/ocp_small_golden.json"),
]


def run_cli(*argv):
    return main(list(argv))


class TestRunCommands:
    def test_run_ocp_writes_csv(self, tmp_path, capsys):
        code = run_cli(
            "run-ocp", "--instance", OCP_INSTANCE, "--replications", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        payload = (tmp_path / "ocp_small_ocp.csv").read_text()
        assert payload.splitlines()[0] == CSV_HEADER

    def test_golden_output(self, tmp_path):
        run_cli(
            "run-ocp", "--instance", OCP_INSTANCE, "--replications", "3",
            "--out-dir", str(tmp_path),
        )
        produced = (tmp_path / "ocp_small_ocp.csv").read_bytes()
        golden = open(GOLDEN_CSV, "rb").read()
        assert produced == golden

    @pytest.mark.parametrize("command,instance,fmt,name,golden", GOLDEN_RUNS,
                             ids=[g[0] + "-" + g[2] for g in GOLDEN_RUNS])
    def test_golden_run_outputs(self, tmp_path, command, instance, fmt, name, golden):
        run_cli(
            command, "--instance", instance, "--replications", "3",
            "--format", fmt, "--out-dir", str(tmp_path),
        )
        assert (tmp_path / name).read_bytes() == open(golden, "rb").read()

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(
                "run-ocp", "--instance", OCP_INSTANCE, "--replications", "5",
                "--seed", "77", "--out-dir", str(tmp_path / sub),
            )
        a = (tmp_path / "a" / "ocp_small_ocp.csv").read_bytes()
        b = (tmp_path / "b" / "ocp_small_ocp.csv").read_bytes()
        assert a == b

    def test_json_format(self, tmp_path):
        code = run_cli(
            "run-welfare", "--instance", WELFARE_INSTANCE, "--replications", "3",
            "--out-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        obj = json.loads((tmp_path / "welfare_small_welfare.json").read_text())
        assert obj["problem"] == "welfare" and obj["all_pass"]
        assert len(obj["rows"]) == 3

    def test_run_loadbalance(self, tmp_path):
        code = run_cli(
            "run-loadbalance", "--instance", OCP_INSTANCE, "--replications", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "ocp_small_loadbalance.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5  # header + 3 reps + summary

    def test_wrong_problem_kind(self, tmp_path, capsys):
        code = run_cli(
            "run-welfare", "--instance", OCP_INSTANCE, "--out-dir", str(tmp_path)
        )
        assert code == 2
        assert "not usable" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_replications_below_one_is_a_usage_error(self, tmp_path, capsys, count):
        out_dir = tmp_path / "out"
        code = run_cli(
            "run-ocp", "--instance", OCP_INSTANCE, "--replications", count,
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", ["negative_seed", "short_timeline"])
    def test_schema_errors_are_usage_errors(self, tmp_path, capsys, bad):
        instance, extra = OCP_INSTANCE, ["--seed", "-1"]
        if bad == "short_timeline":
            with open(OCP_INSTANCE) as fh:
                obj = json.load(fh)
            obj["timeline"].pop()
            instance, extra = str(tmp_path / "short.json"), []
            (tmp_path / "short.json").write_text(json.dumps(obj))
        out_dir = tmp_path / "out"
        code = run_cli(
            "run-ocp", "--instance", instance, "--replications", "2",
            "--out-dir", str(out_dir), *extra,
        )
        assert code == 2
        path = "seed" if bad == "negative_seed" else "timeline"
        assert capsys.readouterr().err.startswith(f"error: {instance}: {path}: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", ["not_json", "missing"])
    def test_unreadable_instance_is_a_usage_error(self, tmp_path, capsys, bad):
        instance = "README.md" if bad == "not_json" else str(tmp_path / "absent.json")
        out_dir = tmp_path / "out"
        code = run_cli("run-ocp", "--instance", instance, "--out-dir", str(out_dir))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert (f"{instance}: $: not a JSON document" in err) == (bad == "not_json")
        assert (f"No such file or directory: '{instance}'" in err) == (bad == "missing")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run-ocp", "run-welfare"])
    def test_oracle_guard_is_a_usage_error(self, tmp_path, capsys, command):
        if command == "run-ocp":
            # 25 two-option adversarial menus: 2**25 combinations to enumerate.
            menu = {"options": [[0.25, 0.5], [0.5, 0.25]]}
            obj = json.load(open(OCP_INSTANCE))
            obj.update(n=25, timeline=[{"kind": "adv", "data": menu}] * 25)
        else:
            # 40 stochastic steps over 10 support requests: C(49, 9) multisets.
            obj = json.load(open(WELFARE_INSTANCE))
            support = obj["distribution"]["support"][0]
            obj.update(n=40, timeline=[{"kind": "stoch"}] * 40)
            obj["distribution"] = {"support": [support] * 10, "probs": [0.1] * 10}
        instance = tmp_path / "large.json"
        instance.write_text(json.dumps(obj))
        out_dir = tmp_path / "out"
        code = run_cli(command, "--instance", str(instance), "--out-dir", str(out_dir))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {instance}: ") and "guard" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_seed_override_changes_draws(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            run_cli(
                "run-ocp", "--instance", OCP_INSTANCE, "--replications", "4",
                "--seed", seed, "--out-dir", str(tmp_path / seed),
            )
            outs.append((tmp_path / seed / "ocp_small_ocp.csv").read_text())
        assert outs[0] != outs[1]


class TestVerifyCommand:
    def test_empty_suite_passes(self, capsys):
        assert run_cli("verify", "--count", "0", "--check", "oco") == 0

    def test_negative_count_is_a_usage_error(self, capsys):
        assert run_cli("verify", "--count", "-3") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: count must be at least 0")
        assert "checks passed" not in captured.out

    @pytest.mark.parametrize("mutation", ["shift", "regularizer"])
    def test_mutation_of_the_core_scope_is_a_usage_error(self, mutation, capsys):
        # The core suite runs no dual learner: a mutation there would pass vacuously.
        assert run_cli("verify", "--check", "core", "--mutation", mutation) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: mutation '{mutation}' needs a dual learner")
        assert "checks passed" not in captured.out

    def test_small_suite_passes(self, capsys):
        assert run_cli("verify", "--count", "12") == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    @pytest.mark.parametrize("mutation", ["shift", "regularizer"])
    def test_mutation_fails(self, mutation, capsys):
        code = run_cli("verify", "--count", "40", "--mutation", mutation)
        assert code != 0
        assert "FAIL" in capsys.readouterr().out


class TestReportShapes:
    def test_csv_roundtrip_columns(self):
        inst = load_instance(OCP_INSTANCE)
        report = evaluate_ocp_instance(inst, 2)
        lines = report_to_csv(report).splitlines()
        width = len(CSV_HEADER.split(","))
        assert all(len(line.split(",")) == width for line in lines)

    def test_json_fields(self):
        inst = load_instance(WELFARE_INSTANCE)
        obj = report_to_json(evaluate_welfare_instance(inst, 2))
        assert {"instance", "mean", "stderr", "checks", "rows", "all_pass"} <= set(obj)

    def test_verify_scopes(self):
        for scope in ("core", "oco"):
            results = run_verify_suite(seed=1, count=6, scope=scope)
            assert results and all(r.passed for r in results)
