"""Scaling-study scaffolding on miniature workloads."""

import pytest

from repro.core.energy_model import EnergyParams
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.experiments.study import (
    baseline_config,
    run_scaling_study,
    scaling_configs,
)
from repro.gpu.config import BandwidthSetting, IntegrationDomain, TopologyKind
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.workloads.spec import WorkloadSpec
from repro.workloads import suite as suite_module


@pytest.fixture
def mini_suite(monkeypatch, tmp_path):
    """Swap the 14-workload subset for two tiny specs so studies run fast."""
    compute = WorkloadSpec(
        name="MiniC", abbr="MiniC", category=WorkloadCategory.COMPUTE,
        total_ctas=64, warps_per_cta=2, kernels=1, segments_per_warp=1,
        compute_per_segment=16, accesses_per_segment=1,
        compute_mix={Opcode.FFMA32: 1.0},
        footprint_bytes=64 * 4096, seed=1,
    )
    memory = WorkloadSpec(
        name="MiniM", abbr="MiniM", category=WorkloadCategory.MEMORY,
        total_ctas=64, warps_per_cta=2, kernels=1, segments_per_warp=1,
        compute_per_segment=2, accesses_per_segment=4,
        compute_mix={Opcode.FADD32: 1.0},
        footprint_bytes=64 * 65536,
        frac_stream=0.8, frac_reuse=0.0, frac_halo=0.1, frac_shared=0.1,
        seed=2,
    )
    specs = {"MiniC": compute, "MiniM": memory}
    monkeypatch.setattr(suite_module, "WORKLOAD_SPECS",
                        {**suite_module.WORKLOAD_SPECS, **specs})
    import repro.experiments.study as study_module
    monkeypatch.setattr(study_module, "WORKLOAD_SPECS",
                        {**suite_module.WORKLOAD_SPECS, **specs})
    runner = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
    return runner, ("MiniC", "MiniM")


class TestScalingConfigs:
    def test_counts_and_labels(self):
        configs = scaling_configs(BandwidthSetting.BW_2X, counts=(2, 4))
        assert set(configs) == {2, 4}
        assert configs[2].num_gpms == 2

    def test_domain_and_topology_passthrough(self):
        configs = scaling_configs(
            BandwidthSetting.BW_1X,
            domain=IntegrationDomain.ON_BOARD,
            topology=TopologyKind.SWITCH,
            counts=(2,),
        )
        assert configs[2].integration_domain is IntegrationDomain.ON_BOARD
        assert configs[2].interconnect.kind is TopologyKind.SWITCH

    def test_baseline_is_single_gpm(self):
        assert baseline_config().num_gpms == 1


class TestRunScalingStudy:
    def test_study_structure(self, mini_suite):
        runner, abbrs = mini_suite
        configs = scaling_configs(BandwidthSetting.BW_2X, counts=(2,))
        study = run_scaling_study(
            runner, configs, label="test", workload_abbrs=abbrs
        )
        assert set(study.workloads) == set(abbrs)
        for scaling in study.workloads.values():
            assert scaling.baseline.n == 1
            assert 2 in scaling.scaled
            assert scaling.speedup(2) > 0.5
            assert scaling.energy_ratio(2) > 0.1

    def test_category_means(self, mini_suite):
        runner, abbrs = mini_suite
        configs = scaling_configs(BandwidthSetting.BW_2X, counts=(2,))
        study = run_scaling_study(
            runner, configs, label="test", workload_abbrs=abbrs
        )
        all_mean = study.mean_edpse(2)
        compute_mean = study.mean_edpse(2, WorkloadCategory.COMPUTE)
        memory_mean = study.mean_edpse(2, WorkloadCategory.MEMORY)
        assert all_mean == pytest.approx((compute_mean + memory_mean) / 2)

    def test_custom_pricing_function(self, mini_suite):
        runner, abbrs = mini_suite
        configs = scaling_configs(BandwidthSetting.BW_2X, counts=(2,))

        def expensive(config):
            params = EnergyParams.for_config(config)
            if config.num_gpms == 1:
                return params
            return params.with_link_energy(1000.0)

        cheap_study = run_scaling_study(
            runner, configs, label="cheap", workload_abbrs=abbrs
        )
        pricey_study = run_scaling_study(
            runner, configs, label="pricey", params_for=expensive,
            workload_abbrs=abbrs,
        )
        # Re-pricing uses the same cached runs but must raise energy for
        # the workload with inter-GPM traffic.
        assert (
            pricey_study.workloads["MiniM"].energy_ratio(2)
            > cheap_study.workloads["MiniM"].energy_ratio(2)
        )

