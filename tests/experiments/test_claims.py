"""Paper claims on the study registry: which studies carry them, when they
are checked, and how a failing claim surfaces.

No full-tier simulation runs here: the analytic studies check their claims
on every tier, and fig2's are shown *not* to fire on the quick tier.
"""

import importlib
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.figures import FIGURES, run_figures
from repro.experiments.runner import SweepRunner, SweepSettings

STUDIES_WITH_CLAIMS = {
    "table1b_epi_ept", "config_tables",
    "fig2_energy_scaling", "fig4_validation", "fig6_edpse_onpackage",
    "fig7_incremental", "fig8_bandwidth", "fig9_switch",
    "fig10_speedup_energy",
    "interconnect_energy_study", "amortization_study", "headline",
    "compression_study", "locality_ablation", "powergate_study",
    "edip_study", "topology_study", "sweetspot_study",
}


@pytest.fixture
def runner(tmp_path):
    return SweepRunner(
        SweepSettings(cache_dir=tmp_path / "sweeps", processes=1)
    )


def break_first_claim(monkeypatch, name):
    """Patch study ``name`` so its first claim fails; return that text."""
    job = FIGURES[name]
    original = job.claims

    def claims(module, result):
        (text, _), *rest = original(module, result)
        return [(text, False), *rest]

    monkeypatch.setitem(FIGURES, name, replace(job, claims=claims))
    module = importlib.import_module(f"repro.experiments.{name}")
    return original(module, module.run())[0][0]


def test_studies_with_claims():
    assert {
        name for name, job in FIGURES.items() if job.claims is not None
    } == STUDIES_WITH_CLAIMS


@pytest.mark.parametrize("name", ["table1b_epi_ept", "config_tables"])
def test_analytic_claims_hold_on_the_quick_tier(name, runner, tmp_path):
    module = importlib.import_module(f"repro.experiments.{name}")
    claims = FIGURES[name].claims(module, module.run(runner))
    assert claims
    assert [text for text, holds in claims if not holds] == []
    run_figures((name,), out_dir=tmp_path, runner=runner, quick=True)


def test_failing_claim_raises_after_writing(monkeypatch, runner, tmp_path):
    text = break_first_claim(monkeypatch, "config_tables")
    with pytest.raises(ExperimentError) as excinfo:
        run_figures(("config_tables",), out_dir=tmp_path, runner=runner)
    assert f"config_tables: {text}" in str(excinfo.value)
    for filename in ("log.txt", "summary.txt"):
        assert (tmp_path / "config_tables" / filename).read_text().strip()


def test_failing_claim_exits_2_with_one_line(monkeypatch, capsys, tmp_path):
    text = break_first_claim(monkeypatch, "config_tables")
    code = main(
        ["figures", "--only", "config_tables", "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("repro figures: ")
    assert f"config_tables: {text}" in err


def test_full_tier_claims_do_not_fire_on_quick(runner, tmp_path, monkeypatch):
    job = FIGURES["fig2_energy_scaling"]
    monkeypatch.setitem(
        FIGURES,
        job.name,
        replace(job, claims=lambda module, result: [("never holds", False)]),
    )
    written = run_figures(
        (job.name,), out_dir=tmp_path, runner=runner, quick=True
    )
    assert (written[job.name] / "quick_summary.txt").exists()
