"""CLI surface: argument handling and experiment registry."""

import pytest

from repro.cli import _EXPERIMENTS, main


class TestRegistry:
    def test_every_design_md_experiment_is_registered(self):
        expected = {
            "table1b", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9",
            "fig10", "interconnect-energy", "amortization", "headline",
        }
        assert expected <= set(_EXPERIMENTS)

    def test_extensions_registered(self):
        assert {
            "compression", "locality", "powergate", "edip", "sweetspot",
            "idle",
        } <= set(_EXPERIMENTS)


class TestArguments:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-an-experiment"])
        assert excinfo.value.code != 0

    def test_help_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "experiment" in out
        assert "--no-cache" in out

    def test_multiple_experiments_accepted(self, capsys):
        # 'tables' needs no simulation, so running it twice (deduplicated)
        # exercises the multi-experiment path cheaply.
        assert main(["tables", "tables"]) == 0
        out = capsys.readouterr().out
        assert out.count("Table III: simulated multi-module GPU") == 1


class TestDvfsSubcommand:
    def test_sweeps_the_ladder_and_reports_the_spot(self, capsys):
        assert main(["dvfs", "Stream", "--gpms", "2", "--ctas", "16"]) == 0
        out = capsys.readouterr().out
        assert "V/f sweep (edp)" in out
        assert "k40-boost" in out and "(anchor)" in out
        assert "<- sweet spot" in out
        assert "sweet spot:" in out

    def test_governed_flag_prints_decisions(self, capsys):
        assert main(
            ["dvfs", "Stream", "--gpms", "2", "--ctas", "16",
             "--kernels", "2", "--governed"]
        ) == 0
        out = capsys.readouterr().out
        assert "governed run:" in out
        assert "gpm0" in out and "gpm1" in out

    def test_ed2p_metric_accepted(self, capsys):
        assert main(
            ["dvfs", "BPROP", "--gpms", "1", "--ctas", "16",
             "--metric", "ed2p"]
        ) == 0
        assert "V/f sweep (ed2p)" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dvfs", "NotAWorkload"])
        assert excinfo.value.code != 0

    def test_governor_flag_prints_idle_run(self, capsys):
        assert main(
            ["dvfs", "Stream", "--gpms", "2", "--ctas", "16",
             "--kernels", "2", "--governor", "race-to-idle"]
        ) == 0
        out = capsys.readouterr().out
        assert "idle run (idle[race-to-idle]):" in out
        assert "gated cycles" in out

    def test_infeasible_cap_exits_with_one_line_error(self, capsys):
        # 4 GPMs draw far more than 1 W even at the ladder floor: the CLI
        # must reject the budget up front with a single stderr line and a
        # nonzero exit code, not a traceback after the ladder sweep.
        assert main(
            ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
             "--cap-watts", "1"]
        ) == 2
        captured = capsys.readouterr()
        assert "infeasible" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.strip().count("\n") == 0
        assert "V/f sweep" not in captured.out


class TestUnifiedErrorHandling:
    """Every subcommand maps ConfigError to one stderr line + exit 2."""

    @pytest.mark.parametrize(
        ("name", "argv"),
        [
            ("run", ["run", "Stream", "--ctas", "0"]),
            ("trace", ["trace", "Stream", "--ctas", "0"]),
            ("profile", ["profile", "Stream", "--ctas", "0"]),
            ("dvfs", ["dvfs", "Stream", "--ctas", "0"]),
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--cap-watts", "1"],
            ),
            # Malformed idle knobs: each must die in IdleConfig/SleepState
            # validation (or the upfront deadline-feasibility check) before
            # any simulation, through the same one-line guard.
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--entry-latency-cycles", "-5"],
            ),
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--governor", "gate-only", "--residual", "1.5"],
            ),
            (
                "dvfs",
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--governor", "gate-only",
                 "--exit-latency-cycles", "99999999"],
            ),
            (
                "dvfs",
                # A deadline without the paced governor owns nothing.
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--deadline-us", "5"],
            ),
            (
                "dvfs",
                # Shorter than the roofline bound at f_max: rejected before
                # the ladder sweep, like an infeasible --cap-watts.
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--governor", "deadline-paced", "--deadline-us", "0.001"],
            ),
            (
                "dvfs",
                # A cap and a deadline cannot both own the point policy.
                ["dvfs", "Stream", "--gpms", "4", "--ctas", "16",
                 "--cap-watts", "200", "--governor", "deadline-paced",
                 "--deadline-us", "100"],
            ),
            (
                "profile",
                ["profile", "Stream", "--gpms", "4", "--ctas", "16",
                 "--residual", "-0.1"],
            ),
            ("capsweep", ["capsweep", "--quick", "--processes", "0"]),
            ("serve", ["serve", "--workers", "-1"]),
            ("serve", ["serve", "--aging-seconds", "0"]),
            (
                "submit",
                # Port 1 is never listening: the client's connection error
                # surfaces through the same guard.
                ["submit", "Stream", "--ctas", "8", "--port", "1"],
            ),
            # Malformed phase/tenant recipes: rejected by eager local
            # admission validation (no server contact, no engine time).
            (
                "submit",
                # Unknown phase name.
                ["submit", "--phases", "refill:8:1", "--port", "1"],
            ),
            (
                "submit",
                # Zero-CTA decode phase.
                ["submit", "--phases", "decode:0:1", "--port", "1"],
            ),
            (
                "submit",
                # Malformed schedule text (missing the ctas field).
                ["submit", "--phases", "decode", "--port", "1"],
            ),
            (
                "submit",
                # Duplicate tenant client ids.
                ["submit", "--phases", "decode:8:1", "--tenants", "a,a",
                 "--port", "1"],
            ),
            (
                "submit",
                # Tenants without a phase schedule own nothing.
                ["submit", "Stream", "--tenants", "a,b", "--port", "1"],
            ),
            (
                "submit",
                # A schedule and a named workload cannot both win.
                ["submit", "Stream", "--phases", "decode:8:1",
                 "--port", "1"],
            ),
            ("figures", ["figures", "--quick", "--processes", "0"]),
            ("sweetspot", ["sweetspot", "--processes", "0"]),
        ],
    )
    def test_config_errors_are_one_line_exit_2(self, capsys, name, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {name}: ")
        assert "Traceback" not in captured.err
        assert captured.err.strip().count("\n") == 0

    def test_serve_and_submit_are_dispatched(self, capsys):
        # --help exits 0 through argparse, proving the subcommands exist.
        for name in ("serve", "submit", "idlestudy", "figures"):
            with pytest.raises(SystemExit) as excinfo:
                main([name, "--help"])
            assert excinfo.value.code == 0
            assert f"repro {name}" in capsys.readouterr().out


class TestProfileSubcommand:
    def test_profile_reports_per_gpm_energy(self, capsys):
        assert main(["profile", "Stream", "--gpms", "2", "--ctas", "16"]) == 0
        out = capsys.readouterr().out
        assert "energy" in out
        assert "core scale" in out
        # One attribution row per GPM.
        assert len([
            line for line in out.splitlines()
            if line.strip().startswith(("0 ", "1 "))
        ]) >= 2
