"""Figure result classes, tested on hand-built study data (no simulation)."""

import pytest

from repro.core.edpse import ScalingPoint
from repro.experiments.results import ScalingRow
from repro.experiments.study import StudyResult, WorkloadScaling
from repro.isa.kernel import WorkloadCategory


def make_scaling(
    workload: str,
    category: WorkloadCategory,
    speedups: dict[int, float],
    energies: dict[int, float],
) -> WorkloadScaling:
    baseline = ScalingPoint(n=1, delay_s=1.0, energy_j=1.0)
    scaling = WorkloadScaling(
        workload=workload, category=category, baseline=baseline
    )
    for n, speedup in speedups.items():
        scaling.scaled[n] = ScalingPoint(
            n=n, delay_s=1.0 / speedup, energy_j=energies[n]
        )
    return scaling


@pytest.fixture
def study() -> StudyResult:
    compute = make_scaling(
        "C1", WorkloadCategory.COMPUTE,
        speedups={2: 2.1, 4: 4.0, 8: 7.6, 16: 14.0, 32: 24.0},
        energies={2: 0.95, 4: 0.95, 8: 1.0, 16: 1.05, 32: 1.2},
    )
    memory = make_scaling(
        "M1", WorkloadCategory.MEMORY,
        speedups={2: 1.7, 4: 3.1, 8: 5.2, 16: 7.0, 32: 8.0},
        energies={2: 1.1, 4: 1.2, 8: 1.35, 16: 1.6, 32: 2.0},
    )
    return StudyResult(label="test", workloads={"C1": compute, "M1": memory})


class TestWorkloadScaling:
    def test_edpse_consistent_with_points(self, study):
        scaling = study.workloads["C1"]
        expected = scaling.scaled[2].edpse_over(scaling.baseline)
        assert scaling.edpse(2) == pytest.approx(expected)
        # Super-linear speedup at lower energy: must exceed 100%.
        assert scaling.edpse(2) > 100.0

    def test_speedup_and_energy(self, study):
        memory = study.workloads["M1"]
        assert memory.speedup(32) == pytest.approx(8.0)
        assert memory.energy_ratio(32) == pytest.approx(2.0)


class TestStudyResult:
    def test_category_filtering(self, study):
        compute_mean = study.mean_edpse(32, WorkloadCategory.COMPUTE)
        memory_mean = study.mean_edpse(32, WorkloadCategory.MEMORY)
        assert compute_mean > memory_mean
        both = study.mean_edpse(32)
        assert min(compute_mean, memory_mean) < both < max(
            compute_mean, memory_mean
        )

    def test_geomean_speedup(self, study):
        assert study.geomean_speedup(2) == pytest.approx(
            (2.1 * 1.7) ** 0.5
        )

    def test_mean_energy_ratio(self, study):
        assert study.mean_energy_ratio(2) == pytest.approx((0.95 + 1.1) / 2)

    def test_empty_category_rejected(self):
        from repro.errors import ExperimentError

        empty = StudyResult(label="empty", workloads={})
        with pytest.raises(ExperimentError):
            empty.mean_edpse(2)


class TestFigureRenderers:
    def test_fig6_render_shape(self, study):
        from repro.experiments.fig6_edpse_onpackage import Fig6Result

        rows = [
            ScalingRow(
                num_gpms=n,
                label=f"{n}-GPM",
                values={
                    "compute": study.mean_edpse(n, WorkloadCategory.COMPUTE),
                    "memory": study.mean_edpse(n, WorkloadCategory.MEMORY),
                    "all": study.mean_edpse(n),
                },
            )
            for n in (2, 32)
        ]
        text = Fig6Result(study=study, rows=rows).render()
        assert "Figure 6" in text
        assert "2-GPM" in text and "32-GPM" in text
        assert "compute-intensive" in text

    def test_fig2_render_shape(self, study):
        from repro.experiments.fig2_energy_scaling import Fig2Result

        rows = [
            ScalingRow(num_gpms=n, label=f"{n}x",
                       values={"energy": study.mean_energy_ratio(n)})
            for n in (2, 32)
        ]
        text = Fig2Result(study=study, rows=rows).render()
        assert "Figure 2" in text
        assert "ideal" in text

    def test_fig8_render_and_accessors(self, study):
        from repro.experiments.fig8_bandwidth import Fig8Result
        from repro.gpu.config import BandwidthSetting

        result = Fig8Result(studies={
            BandwidthSetting.BW_1X: study,
            BandwidthSetting.BW_2X: study,
            BandwidthSetting.BW_4X: study,
        })
        assert result.edpse(BandwidthSetting.BW_2X, 32) == pytest.approx(
            study.mean_edpse(32)
        )
        text = result.render()
        assert "1x-BW" in text and "4x-BW" in text

    def test_fig10_render_and_accessors(self, study):
        from repro.experiments.fig10_speedup_energy import Fig10Result
        from repro.gpu.config import BandwidthSetting

        result = Fig10Result(studies={
            BandwidthSetting.BW_1X: study,
            BandwidthSetting.BW_2X: study,
            BandwidthSetting.BW_4X: study,
        })
        assert result.speedup(BandwidthSetting.BW_1X, 2) == pytest.approx(
            study.geomean_speedup(2)
        )
        assert "Figure 10" in result.render()


class TestHeadlineResult:
    def test_savings_math(self):
        from repro.experiments.headline import HeadlineResult

        result = HeadlineResult(
            energy_onboard_1x=2.0,
            energy_onboard_4x=1.45,
            energy_onpackage_4x=1.10,
            speedup_onpackage_4x=18.0,
        )
        assert result.bandwidth_only_saving_percent == pytest.approx(27.5)
        assert result.total_saving_percent == pytest.approx(45.0)
        text = result.render()
        assert "45" in text


class TestInterconnectEnergyResult:
    def test_render_includes_tradeoff(self):
        from repro.experiments.interconnect_energy_study import (
            InterconnectEnergyResult,
        )

        result = InterconnectEnergyResult(
            edpse_by_multiplier={1.0: 15.0, 2.0: 14.9, 4.0: 14.8},
            edpse_tradeoff=16.3,
        )
        text = result.render()
        assert "2x-BW @ 4x pJ/b" in text
        assert "40 pJ/b" in text
