"""Admission validation: bad work is rejected before costing engine time."""

import dataclasses

import pytest

from repro.dvfs.config import DvfsConfig
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.errors import ConfigError
from repro.gpu.config import table_iii_config
from repro.service.admission import (
    AdmissionReject,
    invalid,
    queue_full,
    rate_limited,
    validate_request,
)
from repro.service.job import JobRequest, request_from_recipe
from repro.workloads.suite import shrunken_spec


def _request(**config_overrides) -> JobRequest:
    config = dataclasses.replace(
        table_iii_config(4), **config_overrides
    )
    return JobRequest(
        spec=shrunken_spec("Stream", total_ctas=16), config=config
    )


class TestValidateRequest:
    def test_plain_request_passes(self):
        validate_request(_request())

    def test_feasible_cap_passes(self):
        validate_request(_request(power_cap_watts=150.0))

    def test_infeasible_cap_is_rejected(self):
        # Same feasibility check `repro dvfs --cap-watts` runs up front.
        with pytest.raises(ConfigError, match="infeasible"):
            validate_request(_request(power_cap_watts=1.0))

    def test_mismatched_per_gpm_grid_is_rejected(self):
        point = K40_VF_CURVE.anchor
        # Two per-GPM points on a four-GPM chip: the grid cannot cover it.
        two_gpm_grid = DvfsConfig(core_per_gpm=(point, point))
        with pytest.raises(ConfigError):
            validate_request(_request(dvfs=two_gpm_grid))

    def test_chip_wide_dvfs_passes(self):
        validate_request(
            _request(dvfs=DvfsConfig.core_only(K40_VF_CURVE.anchor))
        )


class TestRecipeValidation:
    def test_unknown_field_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown job recipe field"):
            request_from_recipe({"workload": "Stream", "gmps": 4})

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(ConfigError, match="workload must be one of"):
            request_from_recipe({"workload": "NotAWorkload"})

    def test_bad_gpm_count_is_rejected(self):
        with pytest.raises(ConfigError):
            request_from_recipe({"workload": "Stream", "gpms": 3})

    def test_bad_topology_is_rejected(self):
        with pytest.raises(ConfigError):
            request_from_recipe({"workload": "Stream", "topology": "torus"})

    def test_non_numeric_knob_is_rejected(self):
        with pytest.raises(ConfigError):
            request_from_recipe({"workload": "Stream", "ctas": "many"})

    def test_shards_field_is_rejected_as_unknown(self):
        with pytest.raises(ConfigError, match="unknown job recipe field"):
            request_from_recipe({"workload": "Stream", "shards": 2})


class TestRejectFactories:
    def test_kinds_are_stable(self):
        assert invalid(ConfigError("boom")).kind == "invalid-config"
        assert rate_limited("c").kind == "rate-limited"
        assert queue_full(7).kind == "queue-full"
        for error in (invalid(ConfigError("x")), rate_limited("c"),
                      queue_full(1)):
            assert isinstance(error, AdmissionReject)
