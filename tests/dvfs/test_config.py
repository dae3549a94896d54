"""DvfsConfig: domain scales, per-GPM points, labels, fingerprints."""

from dataclasses import astuple

import pytest

from repro.dvfs.config import DomainScales, DvfsConfig, IDENTITY_SCALES
from repro.dvfs.operating_point import (
    K40_OPERATING_POINT,
    K40_VF_CURVE,
    OperatingPoint,
)
from repro.errors import ConfigError


class TestDomainScales:
    def test_defaults_are_identity(self):
        assert astuple(IDENTITY_SCALES) == (1.0,) * 6
        assert DomainScales(core_freq=0.9) != IDENTITY_SCALES

    def test_positive_scales_required(self):
        with pytest.raises(ConfigError):
            DomainScales(dram_freq=0.0)


class TestDvfsConfigValidation:
    def test_default_is_anchor_everywhere(self):
        config = DvfsConfig()
        assert config.scales_for_gpm(0) == IDENTITY_SCALES
        assert config.mean_core_ratios(1) == (1.0, 1.0)

    def test_points_must_lie_on_curve(self):
        with pytest.raises(ConfigError):
            DvfsConfig(core=OperatingPoint(100e6, 0.7))
        with pytest.raises(ConfigError):
            DvfsConfig(core_per_gpm=(OperatingPoint(100e6, 0.7),))

    def test_leakage_fraction_bounded(self):
        with pytest.raises(ConfigError):
            DvfsConfig(leakage_fraction=1.5)


class TestPerGpmPoints:
    def test_core_per_gpm_overrides_chip_wide(self):
        slow = K40_VF_CURVE.point_at(324.0e6)
        config = DvfsConfig(core_per_gpm=(slow, K40_OPERATING_POINT))
        assert config.core_point_for(0) is slow
        assert config.core_point_for(1) is K40_OPERATING_POINT
        assert config.scales_for_gpm(1) == IDENTITY_SCALES

    def test_missing_gpm_rejected(self):
        config = DvfsConfig(core_per_gpm=(K40_OPERATING_POINT,))
        with pytest.raises(ConfigError):
            config.core_point_for(1)

    def test_mean_core_ratios_average_gpms(self):
        slow = K40_VF_CURVE.point_at(324.0e6)
        config = DvfsConfig(core_per_gpm=(slow, K40_OPERATING_POINT))
        f, v = config.mean_core_ratios(2)
        assert f == pytest.approx((324.0e6 / 745.0e6 + 1.0) / 2)
        assert v == pytest.approx((0.84 / 1.02 + 1.0) / 2)

    def test_mean_core_ratios_reject_gpm_count_mismatch(self):
        slow = K40_VF_CURVE.point_at(324.0e6)
        config = DvfsConfig(core_per_gpm=(slow, K40_OPERATING_POINT))
        with pytest.raises(ConfigError, match="2 points"):
            config.mean_core_ratios(4)
        with pytest.raises(ConfigError, match="2 points"):
            config.mean_core_ratios(1)


class TestLabelAndFingerprint:
    def test_label_names_core_point(self):
        assert DvfsConfig.core_only(
            K40_VF_CURVE.point_at(562.0e6)
        ).label() == "core@k40-562"

    def test_label_lists_per_gpm_clocks(self):
        slow = K40_VF_CURVE.point_at(324.0e6)
        label = DvfsConfig(core_per_gpm=(slow, K40_OPERATING_POINT)).label()
        assert label == "core[k40-324/k40-boost]"

    def test_label_appends_off_anchor_domains(self):
        label = DvfsConfig(dram=K40_VF_CURVE.point_at(562.0e6)).label()
        assert "dram@k40-562" in label

    def test_fingerprint_tracks_points(self):
        base = DvfsConfig().fingerprint()
        slowed = DvfsConfig.core_only(
            K40_VF_CURVE.point_at(562.0e6)
        ).fingerprint()
        assert base != slowed
        assert slowed["core"] == {"f": 562.0e6, "v": 0.91}
        assert "core_per_gpm" not in base

    def test_fingerprint_includes_per_gpm_points(self):
        slow = K40_VF_CURVE.point_at(324.0e6)
        payload = DvfsConfig(
            core_per_gpm=(slow, K40_OPERATING_POINT)
        ).fingerprint()
        assert len(payload["core_per_gpm"]) == 2

    def test_with_core_clears_per_gpm_overrides(self):
        slow = K40_VF_CURVE.point_at(324.0e6)
        config = DvfsConfig(core_per_gpm=(slow, slow))
        repointed = config.with_core(K40_OPERATING_POINT)
        assert repointed.core_per_gpm == ()
        assert repointed.core is K40_OPERATING_POINT


class TestGpuConfigIntegration:
    def test_gpu_config_label_carries_dvfs(self):
        from repro.gpu.config import table_iii_config
        from dataclasses import replace

        config = replace(
            table_iii_config(2),
            dvfs=DvfsConfig.core_only(K40_VF_CURVE.point_at(562.0e6)),
        )
        assert config.label().endswith("@core@k40-562")

    def test_gpu_config_validates_per_gpm_length(self):
        from repro.gpu.config import table_iii_config
        from dataclasses import replace

        slow = K40_VF_CURVE.point_at(324.0e6)
        with pytest.raises(ConfigError):
            replace(
                table_iii_config(4),
                dvfs=DvfsConfig(core_per_gpm=(slow, slow)),
            )
