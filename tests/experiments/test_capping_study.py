"""Capping study: grid validation, the screen contract, and the idle knob.

Every case runs the study's own ``repro figures --quick`` grid (shrunken
workloads, 1/2/4 GPMs, three budgets) so the real study code runs end
to end against simulation in about a second.
"""

import pytest

from repro.dvfs.idle import IdleConfig
from repro.dvfs.residency import DvfsResidency
from repro.errors import ExperimentError
from repro.experiments import capping_study
from repro.experiments.figures import FIGURES
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.service.keys import cache_key

QUICK = FIGURES["capping_study"].quick
RACE = IdleConfig(governor="race-to-idle")


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return SweepRunner(
        SweepSettings(
            cache_dir=tmp_path_factory.mktemp("capping_cache"), processes=1
        )
    )


@pytest.fixture(scope="module")
def exhaustive(runner):
    return capping_study.run(runner, **QUICK)


def cells(result):
    """Every (fraction, GPM count, workload, record) of a study result."""
    return [
        (fraction, n, workload, record)
        for fraction, by_gpms in result.records.items()
        for n, by_workload in by_gpms.items()
        for workload, record in by_workload.items()
    ]


def sleep_cycles(record) -> float:
    return DvfsResidency.from_json(record.residency).total_sleep_cycles


class TestGridValidation:
    def test_grid_without_uncapped_baseline_rejected(self, runner):
        with pytest.raises(ExperimentError, match="uncapped baseline"):
            capping_study.run(runner, **{**QUICK, "fractions": (1.0, 0.7)})


class TestScreenContract:
    def test_screened_edpse_equals_exhaustive_on_surviving_budgets(
        self, runner, exhaustive
    ):
        screened = capping_study.run(
            runner, **QUICK, screen="roofline", top_k=1, guard=0
        )
        # The screen really pruned the quick grid...
        assert screened.screen["skipped"]
        assert set(screened.edpse) < set(exhaustive.edpse)
        assert None in screened.edpse
        # ...and every budget it kept carries bit-identical EDPSE floats.
        for fraction, by_gpms in screened.edpse.items():
            assert by_gpms == exhaustive.edpse[fraction]

    def test_unknown_screen_mode_rejected(self, runner):
        with pytest.raises(ExperimentError):
            capping_study.run(runner, **QUICK, screen="oracle")


class TestIdleKnob:
    def test_race_to_idle_changes_records_and_cache_keys(
        self, runner, exhaustive
    ):
        raced = capping_study.run(runner, **QUICK, idle=RACE)
        raced_cells = cells(raced)
        assert len(raced_cells) == len(cells(exhaustive))
        # Every record carries a residency, and the sleep ladder gates
        # somewhere on the grid; the idle-free run never gates.
        assert all(record.residency is not None for *_, record in raced_cells)
        assert max(sleep_cycles(record) for *_, record in raced_cells) > 0.0
        assert all(
            sleep_cycles(record) == 0.0 for *_, record in cells(exhaustive)
        )
        spec_for = QUICK["spec_for"]
        for fraction, n, workload, record in raced_cells:
            plain = exhaustive.record(fraction, n, workload)
            assert record.config_label != plain.config_label
            spec = spec_for(workload)
            assert cache_key(
                spec, capping_study.capped_config(n, fraction, idle=RACE)
            ) != cache_key(spec, capping_study.capped_config(n, fraction))
