"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_rejects_bad_table_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "4"])

    def test_rejects_unknown_policy_listing_registry(self, capsys):
        """--policy is validated at parse time against the registry."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "bogus"])
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err
        for name in ("market", "fairshare", "oracle", "predictive"):
            assert name in err

    def test_campaign_policies_validated_too(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "--policies", "predictive", "alchemy"]
            )
        assert "unknown policy 'alchemy'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["market", "fairshare", "oracle"])
    def test_zoo_policies_parse(self, name):
        args = build_parser().parse_args(["run", "--policy", name])
        assert args.policy == name


class TestTableCommands:
    def test_table1(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0
        assert "Number of nodes" in out
        assert "990 ms" in out

    def test_table3(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3")
        assert code == 0
        assert "Table 3" in out
        assert "paper" in out


class TestRunCommand:
    def test_single_run_prints_metrics(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "8", "run",
            "--policy", "predictive", "--pattern", "triangular",
            "--max-units", "5",
        )
        assert code == 0
        assert "combined" in out
        assert "rm_actions" in out

    def test_multi_task_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "8", "run", "--tasks", "2", "--max-units", "5"
        )
        assert code == 0
        assert "aaw1" in out and "aaw2" in out

    def test_multi_task_run_rejects_checkpoint(self, capsys):
        code, _, err = run_cli(
            capsys, "--periods", "8", "run", "--tasks", "2",
            "--max-units", "5", "--checkpoint", "4",
        )
        assert code == 2
        assert "checkpoint" in err

    def test_multi_task_run_rejects_seeds(self, capsys):
        code, out, err = run_cli(
            capsys, "--periods", "6", "run", "--tasks", "2", "--seeds", "3",
            "--max-units", "5",
        )
        assert code == 2
        assert "--tasks" in err and "--seeds" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--tasks", "2", "--seeds", "3"),
            ("--tasks", "2", "--checkpoint", "4"),
            ("--tasks", "2", "--telemetry-dir", "TEL"),
            ("--seeds", "2", "--telemetry-dir", "TEL"),
        ],
    )
    def test_rejected_flags_fail_before_the_fit(
        self, capsys, monkeypatch, tmp_path, flags
    ):
        from repro.experiments import estimator_cache

        def no_fit(*args, **kwargs):
            raise AssertionError("get_estimator called before validation")

        monkeypatch.setattr(estimator_cache, "get_estimator", no_fit)
        argv = [str(tmp_path / "tel") if f == "TEL" else f for f in flags]
        code, _, err = run_cli(
            capsys, "--periods", "6", "run", "--max-units", "5", *argv
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_replicated_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "6", "run", "--seeds", "2", "--max-units", "5"
        )
        assert code == 0
        assert "95% CI" in out

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "--periods", "6", "run", "--max-units", "5",
            "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["policy"] == "predictive"
        assert "combined" in data
        # Forecast calibration is part of the export contract (None when
        # the predictive policy produced no realized samples).
        assert "forecasts" in data

    def test_json_export_forecast_calibration(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys, "--periods", "12", "run", "--policy", "predictive",
            "--pattern", "increasing", "--max-units", "8",
            "--json", str(path),
        )
        assert code == 0
        forecasts = json.loads(path.read_text())["forecasts"]
        assert forecasts is not None
        assert forecasts["n"] > 0
        assert forecasts["mape"] >= 0.0
        assert 0.0 <= forecasts["pessimism_rate"] <= 1.0
        assert 0.0 <= forecasts["missed_deadline_ratio"] <= 1.0


class TestTelemetry:
    def test_run_writes_telemetry_artifacts(self, capsys, tmp_path):
        tel = tmp_path / "tel"
        code, out, _ = run_cli(
            capsys, "--periods", "8", "run", "--policy", "predictive",
            "--max-units", "5", "--telemetry-dir", str(tel),
        )
        assert code == 0
        assert "telemetry written" in out
        trace = tel / "trace.jsonl"
        assert trace.exists()
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert any(r["kind"] == "run.meta" for r in records)
        assert any(r["kind"] == "rm.span" for r in records)
        metrics = json.loads((tel / "metrics.json").read_text())
        names = {m["name"] for m in metrics["metrics"]}
        assert "sim.events_executed" in names
        assert "task.periods_completed" in names
        prom = (tel / "metrics.prom").read_text()
        assert "# TYPE repro_sim_events_executed counter" in prom

    def test_telemetry_dir_rejects_multi_run(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--periods", "6", "run", "--tasks", "2",
            "--max-units", "5", "--telemetry-dir", str(tmp_path / "tel"),
        )
        assert code == 2
        assert "single run" in err
        code, _, err = run_cli(
            capsys, "--periods", "6", "run", "--seeds", "2",
            "--max-units", "5", "--telemetry-dir", str(tmp_path / "tel2"),
        )
        assert code == 2
        assert "single run" in err

    def test_trace_command_summarizes_and_converts(self, capsys, tmp_path):
        tel = tmp_path / "tel"
        run_cli(
            capsys, "--periods", "8", "run", "--policy", "predictive",
            "--max-units", "5", "--telemetry-dir", str(tel),
        )
        trace = tel / "trace.jsonl"
        code, out, _ = run_cli(capsys, "trace", str(trace))
        assert code == 0
        assert "per-processor utilization" in out
        assert "forecast calibration" in out
        chrome = tel / "trace.chrome.json"
        assert chrome.exists()
        doc = json.loads(chrome.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) > 10

    def test_trace_command_no_chrome_and_explicit_target(self, capsys, tmp_path):
        tel = tmp_path / "tel"
        run_cli(
            capsys, "--periods", "6", "run", "--max-units", "5",
            "--telemetry-dir", str(tel),
        )
        trace = tel / "trace.jsonl"
        code, out, _ = run_cli(capsys, "trace", str(trace), "--no-chrome")
        assert code == 0
        assert not (tel / "trace.chrome.json").exists()
        target = tmp_path / "custom.json"
        code, _, _ = run_cli(capsys, "trace", str(trace), "--chrome", str(target))
        assert code == 0
        assert target.exists()

    def test_trace_command_missing_file_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "trace", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error:" in err


class TestErrorHandling:
    def test_repro_error_exits_2_with_message(self, capsys):
        code, out, err = run_cli(capsys, "--periods", "0", "table", "1")
        assert code == 2
        assert "error:" in err

    def test_validate_exit_code_reflects_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, "--periods", "20", "validate")
        assert "verdict" in out
        # On the reduced-but-representative run the claims hold.
        assert code == 0
        assert "FAIL" not in out


class TestCapacityCommand:
    def test_capacity_plan_printed(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--units", "2", "35")
        assert code == 0
        assert "k(st3)" in out
        assert "feasible" in out
        assert "saturation" in out or "all planned workloads" in out

    def test_capacity_utilization_knob(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--units", "10", "--utilization", "0.6"
        )
        assert code == 0
        assert "60%" in out


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "6", "report", "--units", "1",
            "--skip-tables", "--skip-validation",
        )
        assert code == 0
        assert "# Reproduction report" in out
        assert "Figure 10" in out


class TestOtherCommands:
    def test_patterns(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "6", "patterns", "--max-units", "4"
        )
        assert code == 0
        assert "triangular" in out

    def test_profile(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--subtask", "3",
                               "--repetitions", "1")
        assert code == 0
        assert "a1" in out and "R^2" in out

    def test_figure8(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "8")
        assert code == 0
        assert "Figure 8" in out

    def test_figure10_reduced(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "8", "figure", "10", "--units", "1", "10"
        )
        assert code == 0
        assert "predictive" in out and "nonpredictive" in out

    def test_figure10_csv_export(self, capsys, tmp_path):
        path = tmp_path / "fig10.csv"
        code, out, _ = run_cli(
            capsys, "--periods", "6", "figure", "10", "--units", "1", "5",
            "--csv", str(path),
        )
        assert code == 0
        from repro.experiments.export import figure_from_csv

        x_label, x_values, series = figure_from_csv(path)
        assert x_values == [1.0, 5.0]
        assert set(series) == {"predictive", "nonpredictive"}

    def test_multi_panel_csv_gets_suffixes(self, capsys, tmp_path):
        path = tmp_path / "fig9.csv"
        code, out, _ = run_cli(
            capsys, "--periods", "6", "figure", "9", "--units", "5",
            "--csv", str(path),
        )
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("fig9_*.csv"))
        assert written == ["fig9_1.csv", "fig9_2.csv", "fig9_3.csv", "fig9_4.csv"]


GATE_RULES_TOML = """\
[[slo.rules]]
name = "forecast-calibration"
signal = "forecast_calibration_error"
objective = 0.25
tolerance = 0.5
windows = [10.0, 30.0]
"""


class TestSloCommand:
    def test_list_prints_rule_table_without_running(self, capsys):
        code, out, _ = run_cli(capsys, "slo", "--list")
        assert code == 0
        for name in ("deadline-miss-rate", "availability",
                     "forecast-calibration", "message-loss"):
            assert name in out

    def test_healthy_run_passes_check(self, capsys, tmp_path):
        report_path = tmp_path / "slo.json"
        code, out, _ = run_cli(
            capsys, "--periods", "30", "--seed", "0", "slo",
            "--max-units", "10", "--check", "--json", str(report_path),
        )
        assert code == 0
        assert "PASS" in out
        data = json.loads(report_path.read_text())
        assert data["passed"] is True
        assert {v["name"] for v in data["verdicts"]} >= {"deadline-miss-rate"}

    def test_gate_exit_codes_unhardened_vs_hardened(self, capsys, tmp_path):
        rules = tmp_path / "rules.toml"
        rules.write_text(GATE_RULES_TOML)
        gate = ["--seed", "0", "slo", "--max-units", "30",
                "--scenario", "estimator_bias", "--rules", str(rules),
                "--check"]
        code, out, _ = run_cli(capsys, *gate)
        assert code == 1
        assert "FAIL" in out
        code, out, _ = run_cli(capsys, *gate, "--hardened")
        assert code == 0
        assert "FAIL" not in out

    def test_bad_rules_file_is_a_cli_error(self, capsys, tmp_path):
        rules = tmp_path / "rules.toml"
        rules.write_text("[[slo.rules]]\nname = 'x'\nsignal = 'nope'\n"
                         "objective = 0.1\n")
        code, _, err = run_cli(capsys, "slo", "--rules", str(rules))
        assert code == 2
        assert "unknown signal" in err


class TestReportHealthCommand:
    def test_health_html_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "--periods", "8", "report", "--health",
            "--max-units", "5",
        )
        assert code == 0
        assert out.startswith("<!DOCTYPE html>")
        assert "<h2>Run" in out and "<h2>Metrics" in out
        assert "<h2>SLOs" in out and "<h2>Profile" in out

    def test_health_html_is_deterministic_on_disk(self, capsys, tmp_path):
        argv = ["--periods", "8", "--seed", "1", "report", "--health",
                "--max-units", "5"]
        first, second = tmp_path / "a.html", tmp_path / "b.html"
        assert run_cli(capsys, *argv, "--out", str(first))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_health_report_embeds_rollup(self, capsys, tmp_path):
        rollup = tmp_path / "rollup.json"
        code, _, _ = run_cli(
            capsys, "--periods", "6", "campaign", "--units", "5",
            "--slo", "--rollup", str(rollup), "--quiet",
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "--periods", "8", "report", "--health",
            "--max-units", "5", "--rollup", str(rollup),
        )
        assert code == 0
        assert "Campaign rollup" in out


class TestCampaignSloRollup:
    def test_campaign_writes_rollup_with_verdicts(self, capsys, tmp_path):
        rollup = tmp_path / "rollup.json"
        code, out, _ = run_cli(
            capsys, "--periods", "6", "campaign", "--units", "5",
            "--slo", "--rollup", str(rollup), "--quiet",
        )
        assert code == 0
        assert "rollup written" in out
        data = json.loads(rollup.read_text())
        assert data["kind"] == "campaign_rollup"
        assert data["aggregate"]["n_runs"] == len(data["runs"]) == 2
        for cell in data["runs"].values():
            assert cell["slo"] is not None
            assert cell["decision_digest"]

    def test_campaign_without_slo_leaves_verdicts_absent(self, capsys, tmp_path):
        rollup = tmp_path / "rollup.json"
        code, _, _ = run_cli(
            capsys, "--periods", "6", "campaign", "--units", "5",
            "--rollup", str(rollup), "--quiet",
        )
        assert code == 0
        data = json.loads(rollup.read_text())
        assert data["aggregate"]["slo"]["absent"] == 2
