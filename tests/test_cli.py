"""CLI surface: argument handling and the study registry."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.figures import FIGURES

REPO = Path(__file__).resolve().parents[1]
EXPERIMENTS_DIR = REPO / "src" / "repro" / "experiments"

#: The studies registered beside the paper figures; importing the registry
#: must not import any of them.
LAZY_STUDIES = (
    "sweetspot_study", "capping_study", "idle_study", "table1b_epi_ept",
    "config_tables", "headline", "amortization_study",
    "interconnect_energy_study", "compression_study", "locality_ablation",
    "powergate_study", "edip_study", "topology_study",
)


#: Full stdout of ``repro dvfs Stream --gpms 2 --ctas 16 --kernels 2
#: --governed``: the ladder sweep, its sweet spot, and the utilization
#: governor's decision trace, byte for byte.
GOVERNED_STREAM_STDOUT = (
    "Stream on 2-GPM/2x-BW/on-package/ring: V/f sweep (edp)\n"
    "  point        MHz      V   delay us  energy uJ         EDP        ED2P\n"
    "  k40-324      324   0.84       2.16     147.87   3.189e-10   6.879e-16\n"
    "  k40-405      405   0.86       1.91     150.96   2.887e-10   5.521e-16\n"
    "  k40-480      480   0.88       1.76     156.95   2.762e-10   4.860e-16\n"
    "  k40-562      562   0.91       1.64     167.84   2.751e-10   4.510e-16 <- sweet spot\n"
    "  k40-614      614   0.93       1.58     176.08   2.781e-10   4.393e-16\n"
    "  k40-666      666   0.96       1.53     188.15   2.877e-10   4.400e-16\n"
    "  k40-705      705   0.99       1.50     200.29   2.997e-10   4.484e-16\n"
    "  k40-boost    745   1.02       1.47     213.30   3.127e-10   4.585e-16  (anchor)\n"
    "  k40-810      810   1.07       1.42     236.64   3.369e-10   4.795e-16\n"
    "  k40-875      875   1.12       1.39     262.27   3.638e-10   5.047e-16\n"
    "  sweet spot: k40-562 (562 MHz, edp 0.880x the anchor's)\n"
    "\n"
    "  governed run: 1104 cycles, 4 interval decisions\n"
    "    cycle        548  gpm0  util=0.01  -> k40-705\n"
    "    cycle        548  gpm1  util=0.01  -> k40-705\n"
    "    cycle       1104  gpm0  util=0.01  -> k40-666\n"
    "    cycle       1104  gpm1  util=0.01  -> k40-666\n"
)


def ladder_winner(abbr: str, gpms: int, metric: str = "edp") -> str:
    """The K40-ladder sweet spot's label for the CLI's 16-CTA copy."""
    from repro.dvfs.sweetspot import SweetSpotSearch
    from repro.experiments.runner import SweepRunner, SweepSettings
    from repro.gpu.config import table_iii_config
    from repro.workloads.suite import shrunken_spec

    runner = SweepRunner(SweepSettings(use_cache=False, processes=1))
    spot = SweetSpotSearch(runner, metric=metric).search_one(
        shrunken_spec(abbr, total_ctas=16), table_iii_config(gpms)
    )
    return spot.point.label()


def study_modules_on_disk() -> set[str]:
    """Every module under repro/experiments that defines a study ``run``."""
    return {
        path.stem
        for path in EXPERIMENTS_DIR.glob("*.py")
        if re.search(r"^def run\(", path.read_text(), re.M)
    }


class TestRegistry:
    def test_every_design_md_experiment_is_registered(self):
        design = (REPO / "DESIGN.md").read_text()
        index = design[
            design.index("## 4. Experiment index"):design.index("## 5.")
        ]
        modules = set(re.findall(r"`experiments\.(\w+)`", index))
        assert modules == set(FIGURES)

    def test_extensions_registered(self):
        assert study_modules_on_disk() == set(FIGURES)
        assert len(FIGURES) == 21

    def test_registry_import_is_lazy(self):
        code = (
            "import sys, repro.experiments.figures\n"
            f"names = {LAZY_STUDIES!r}\n"
            "loaded = [n for n in names"
            " if 'repro.experiments.' + n in sys.modules]\n"
            "loaded += [m for m in ('repro.dvfs.sweetspot',)"
            " if m in sys.modules]\n"
            "print(loaded)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(REPO / "src")},
        ).stdout
        assert out.strip() == "[]"


class TestArguments:
    def test_unknown_experiment_rejected(self, capsys):
        for argv in (["not-an-experiment"], ["fig6"], ["all"],
                     ["capsweep"], ["idlestudy"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code != 0

    def test_help_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "figures" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--only STUDY" in out
        assert "--no-cache" in out and "--screen" in out

    def test_multiple_experiments_accepted(self, capsys, tmp_path):
        # 'config_tables' needs no simulation, so naming it twice
        # (deduplicated) exercises the multi-study path cheaply.
        assert main(
            ["figures", "--only", "config_tables", "--only", "config_tables",
             "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("[figures] config_tables:") == 1
        assert "[figures: 1 figure(s)" in out
        log = (tmp_path / "config_tables" / "log.txt").read_text()
        assert log.count("Table III: simulated multi-module GPU") == 1


class TestDvfsSubcommand:
    def test_sweeps_the_ladder_and_reports_the_spot(self, capsys):
        assert main(["dvfs", "Stream", "--gpms", "2", "--ctas", "16"]) == 0
        out = capsys.readouterr().out
        assert "V/f sweep (edp)" in out
        assert "k40-boost" in out and "(anchor)" in out
        assert "<- sweet spot" in out
        assert "sweet spot:" in out

    def test_printed_spot_is_the_search_winner(self, capsys):
        assert main(
            ["dvfs", "BPROP", "--gpms", "1", "--ctas", "16",
             "--metric", "ed2p"]
        ) == 0
        printed = re.search(
            r"sweet spot: (\S+) ", capsys.readouterr().out
        ).group(1)
        assert printed == ladder_winner("BPROP", 1, metric="ed2p")

    def test_governed_flag_prints_decisions(self, capsys):
        assert main(
            ["dvfs", "Stream", "--gpms", "2", "--ctas", "16",
             "--kernels", "2", "--governed"]
        ) == 0
        assert capsys.readouterr().out == GOVERNED_STREAM_STDOUT

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
            (
                "figures",
                ["figures", "--only", "capping_study", "--quick",
                 "--processes", "0"],
            ),
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
            (
                "figures",
                ["figures", "--only", "sweetspot_study", "--processes", "0"],
            ),
            (
                "figures",
                # The screen only prunes the studies registered for it.
                ["figures", "--only", "config_tables", "--screen",
                 "roofline"],
            ),
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
        for name in ("serve", "submit", "figures"):
            with pytest.raises(SystemExit) as excinfo:
                main([name, "--help"])
            assert excinfo.value.code == 0
            assert f"repro {name}" in capsys.readouterr().out


class TestRooflineSubcommand:
    ARGV = ["roofline", "Stream", "--gpms", "2", "--ctas", "16"]

    def test_compares_prediction_with_simulation(self, capsys):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "roofline (edp)" in out and "sim us" in out
        assert re.search(
            r"^  predicted best \S+ (agrees with|differs from) simulated best"
            r" \S+$",
            out,
            re.M,
        )

    def test_simulated_best_is_the_search_winner(self, capsys):
        assert main(self.ARGV) == 0
        printed = re.search(
            r"simulated best (\S+)$", capsys.readouterr().out, re.M
        ).group(1)
        assert printed == ladder_winner("Stream", 2)

    def test_predict_only_runs_no_simulation(self, capsys, monkeypatch):
        import repro.gpu.simulator as simulator

        def no_gpu(*args, **kwargs):
            raise AssertionError("--predict-only simulated a run")

        monkeypatch.setattr(simulator, "MultiGpu", no_gpu)
        assert main(self.ARGV + ["--predict-only"]) == 0
        out = capsys.readouterr().out
        assert out.count("<- predicted best") == 1
        assert "sim us" not in out and "simulated best" not in out


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
