"""Tests for the command-line interface (driven through main(argv))."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestSimulate:
    def test_basic_run_prints_metrics(self, capsys):
        out = run_cli(capsys, "simulate", "--policy", "met", "--kernels", "10")
        assert "makespan" in out
        assert "lambda" in out

    def test_gantt_flag(self, capsys):
        out = run_cli(capsys, "simulate", "--kernels", "10", "--gantt")
        assert "cpu0" in out and "█" in out

    def test_apt_alpha_forwarded(self, capsys):
        out = run_cli(
            capsys, "simulate", "--policy", "apt", "--alpha", "16",
            "--kernels", "13", "--dfg-type", "2",
        )
        assert "policy   : apt" in out

    def test_profile_prints_engine_counters(self, capsys):
        out = run_cli(capsys, "simulate", "--kernels", "12", "--profile")
        assert "n_epochs = " in out and "n_selects = " in out
        assert "phase_ms = " in out and "fixpoint" in out
        assert "no engine counters" not in out

    @pytest.mark.parametrize("flag", ["--backend", "--jit"])
    def test_engine_selector_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            main(["simulate", flag, "object"])


class TestFigure5:
    def test_exact_published_numbers(self, capsys):
        out = run_cli(capsys, "figure5")
        assert "318.093" in out
        assert "212.093" in out


class TestTablesAndFigures:
    def test_table_8(self, capsys):
        out = run_cli(capsys, "table", "8")
        assert "Table 8" in out and "APT" in out

    def test_table_13(self, capsys):
        out = run_cli(capsys, "table", "13")
        assert "Improvement" in out

    def test_figure_7(self, capsys):
        out = run_cli(capsys, "figure", "7")
        assert "alpha=4" in out

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "99"])


class TestCompareAndSweep:
    def test_compare_lists_all_policies(self, capsys):
        out = run_cli(capsys, "compare", "--dfg-type", "1")
        for name in ("APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"):
            assert name in out

    def test_sweep_lambda_metric(self, capsys):
        out = run_cli(capsys, "sweep", "--dfg-type", "2", "--metric", "lambda")
        assert "λ" in out or "lambda" in out.lower()


class TestExtension:
    def test_energy_study(self, capsys):
        out = run_cli(capsys, "extension", "energy")
        assert "EDP" in out

    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            main(["extension", "bogus"])


class TestScenario:
    def test_list_names_the_catalog(self, capsys):
        out = run_cli(capsys, "scenario", "list")
        for name in ("paper_type1", "dual_socket_tree", "edge_cluster_bus",
                     "nvlink_mesh", "fat_tree_streaming"):
            assert name in out

    def test_show_renders_the_spec(self, capsys):
        out = run_cli(capsys, "scenario", "show", "edge_cluster_bus")
        assert "edge_cluster_bus" in out
        assert "Topology" in out and "bus" in out

    def test_show_json_round_trips(self, capsys):
        from repro.experiments.scenarios import ScenarioSpec, get_scenario

        out = run_cli(capsys, "scenario", "show", "nvlink_mesh", "--json")
        assert ScenarioSpec.from_dict(json.loads(out)) == get_scenario("nvlink_mesh")

    def test_show_requires_exactly_one_name(self, capsys):
        assert main(["scenario", "show"]) == 2

    def test_show_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            main(["scenario", "show", "bogus"])

    def test_run_records_results(self, capsys, tmp_path):
        out = run_cli(
            capsys, "scenario", "run", "edge_cluster_bus",
            "--results-dir", str(tmp_path),
        )
        assert "Scenario edge_cluster_bus" in out
        recorded = (tmp_path / "scenario_edge_cluster_bus.txt").read_text()
        assert "APT" in recorded

    def test_run_with_dynamics_override(self, capsys, tmp_path):
        # inject a fault profile into a scenario that ships without one
        out = run_cli(
            capsys, "scenario", "run", "dual_socket_tree",
            "--dynamics", "fault:mttf_ms=30000,mttr_ms=1500,seed=3",
            "--results-dir", str(tmp_path),
        )
        assert "Avail (%)" in out and "Faults" in out
        # overridden runs record beside, never over, the canonical artifact
        assert not (tmp_path / "scenario_dual_socket_tree.txt").exists()
        recorded = (tmp_path / "scenario_dual_socket_tree_override.txt").read_text()
        assert "Avail (%)" in recorded

    def test_run_with_dynamics_none_clears_stack(self, capsys, tmp_path):
        out = run_cli(
            capsys, "scenario", "run", "faulty_edge_cluster",
            "--dynamics", "none",
            "--results-dir", str(tmp_path),
        )
        assert "Avail (%)" not in out

    def test_bad_dynamics_spec_is_a_usage_error(self, capsys):
        assert main([
            "scenario", "run", "paper_type1", "--dynamics", "warp:speed=9",
        ]) == 2
        assert "bad --dynamics spec" in capsys.readouterr().err

    def test_run_honours_engine_flags(self, capsys, tmp_path):
        # --workers with --cache-dir: second run must simulate nothing.
        cache = tmp_path / "cache"
        run_cli(
            capsys, "scenario", "run", "edge_cluster_bus",
            "--results-dir", str(tmp_path), "--workers", "2",
            "--cache-dir", str(cache),
        )
        assert any(cache.glob("*.json"))
        out = run_cli(
            capsys, "scenario", "run", "edge_cluster_bus",
            "--results-dir", str(tmp_path), "--cache-dir", str(cache),
        )
        assert "Scenario edge_cluster_bus" in out


class TestEngineFlags:
    """--workers / --no-cache combinations on the sweep-shaped commands."""

    def test_compare_with_workers_matches_serial(self, capsys):
        serial = run_cli(capsys, "compare", "--dfg-type", "1")
        parallel = run_cli(capsys, "compare", "--dfg-type", "1", "--workers", "2")
        assert parallel == serial

    def test_no_cache_still_produces_the_table(self, capsys):
        out = run_cli(capsys, "table", "8", "--no-cache")
        assert "Table 8" in out

    def test_no_cache_with_cache_dir_writes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        out = run_cli(
            capsys, "table", "8", "--no-cache", "--cache-dir", str(cache),
        )
        assert "Table 8" in out
        assert not cache.exists() or not any(cache.glob("*.json"))

    def test_workers_zero_means_all_cores(self, capsys):
        out = run_cli(capsys, "table", "13", "--workers", "0")
        assert "Improvement" in out


class TestCalibrate:
    def test_writes_lookup_json(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        out = run_cli(
            capsys, "calibrate", str(path), "--max-side", "32", "--repeats", "1"
        )
        assert "wrote" in out
        records = json.loads(path.read_text())
        assert any(r["kernel"] == "matmul" for r in records)


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_policy_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "bogus"])


class TestLoadSweep:
    def test_load_sweep_writes_curves(self, capsys, tmp_path):
        out = run_cli(
            capsys,
            "load-sweep",
            "--policies", "apt,met",
            "--rates-per-s", "0.5,2",
            "--apps", "6",
            "--results-dir", str(tmp_path),
        )
        assert "Load sweep" in out
        assert "Throughput (apps/s)" in out
        text = (tmp_path / "load_sweep_poisson.txt").read_text()
        # one row per (policy, rate)
        assert text.count("APT") == 2 and text.count("MET") == 2

    def test_load_sweep_profiles(self, capsys, tmp_path):
        run_cli(
            capsys,
            "load-sweep",
            "--policies", "met",
            "--rates-per-s", "1",
            "--apps", "4",
            "--profile", "burst",
            "--results-dir", str(tmp_path),
        )
        assert (tmp_path / "load_sweep_burst.txt").exists()

    def test_load_sweep_engine_flags(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run_cli(
            capsys,
            "load-sweep",
            "--policies", "met",
            "--rates-per-s", "1",
            "--apps", "4",
            "--cache-dir", str(cache),
            "--results-dir", str(tmp_path),
        )
        assert any(cache.glob("*.json"))

    def test_bad_rates_rejected(self, capsys, tmp_path):
        assert main(
            [
                "load-sweep",
                "--rates-per-s", "fast",
                "--results-dir", str(tmp_path),
            ]
        ) == 2

    def test_static_policy_rejected(self, capsys, tmp_path):
        from repro.experiments.load_sweep import load_sweep

        with pytest.raises(ValueError, match="dynamic policies only"):
            load_sweep(policies=("heft",), rates_per_s=(1.0,), n_applications=4)
