"""LLM workloads: phase schedules, generators, and tenants.

The phase-schedule extension rides on two invariants the rest of the repo
already depends on: *eager validation* (a malformed schedule raises
``ConfigError`` at composition time, never later inside the engine) and
*flat-spec neutrality* (a spec without ``phases`` behaves byte-for-byte as
before).  These tests pin both, plus the generators' shapes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.workloads.generator import build_workload
from repro.workloads.llm import (
    DECODE_MIX,
    LLM_WORKLOAD_SPECS,
    PREFILL_MIX,
    decode_phase,
    make_phase,
    multi_tenant_spec,
    prefill_phase,
    schedule_spec,
    serving_spec,
    tenant_seed_offset,
)
from repro.workloads.spec import PhaseSpec, WorkloadSpec
from repro.workloads.suite import all_specs, get_spec, shrunken_spec


def phased_spec(phases, **overrides) -> WorkloadSpec:
    base = dict(
        name="Phased", abbr="PH", category=WorkloadCategory.MEMORY,
        total_ctas=64, warps_per_cta=2, segments_per_warp=4,
        compute_per_segment=4, accesses_per_segment=2,
        compute_mix={Opcode.FFMA32: 1.0},
        footprint_bytes=8 * 1024 * 1024,
        phases=tuple(phases),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestPhaseValidation:
    def test_unknown_phase_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown phase name"):
            make_phase("refill", ctas=8, kernels=1)

    def test_zero_cta_decode_phase_rejected(self):
        with pytest.raises(ConfigError, match="must be positive"):
            phased_spec((decode_phase(ctas=0, kernels=1),))

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError):
            phased_spec(())
        with pytest.raises(ConfigError):
            schedule_spec(())

    def test_empty_phase_name_rejected(self):
        with pytest.raises(ConfigError):
            PhaseSpec(name="")

    def test_partial_fraction_override_rejected(self):
        # Fractions must be overridden all-or-none so the sum invariant
        # stays checkable at phase level.
        with pytest.raises(ConfigError):
            phased_spec((PhaseSpec(name="p", frac_stream=1.0),))

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ConfigError, match="duplicate tenant client id"):
            multi_tenant_spec(("a", "b", "a"))

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one client"):
            multi_tenant_spec(())

    def test_tenant_with_phases_via_schedule_spec(self):
        with pytest.raises(ConfigError, match="unknown phase name"):
            schedule_spec((("warmup", 8, 1),), clients=("a",))


class TestPhasedSpec:
    def test_kernels_is_sum_of_phase_kernels(self):
        spec = phased_spec(
            (prefill_phase(ctas=16, kernels=2), decode_phase(ctas=8, kernels=3))
        )
        assert spec.kernels == 5
        assert len(spec.kernel_specs()) == 5

    def test_effective_specs_carry_phase_overrides(self):
        spec = phased_spec(
            (prefill_phase(ctas=16, kernels=1), decode_phase(ctas=8, kernels=1))
        )
        (p_phase, p_eff), (d_phase, d_eff) = spec.phase_specs()
        assert p_eff.total_ctas == 16 and d_eff.total_ctas == 8
        assert p_eff.compute_mix == PREFILL_MIX
        assert d_eff.compute_mix == DECODE_MIX
        assert p_eff.name.endswith(":prefill")
        assert d_eff.name.endswith(":decode")
        # Effective specs are flat: no recursive phase schedules.
        assert p_eff.phases is None and d_eff.phases is None

    def test_phase_seed_offsets_decorrelate(self):
        spec = serving_spec(rounds=2)
        seeds = [eff.seed for _phase, eff in spec.phase_specs()]
        assert len(set(seeds)) == len(seeds)

    def test_tenant_seed_offsets_are_stable_and_distinct(self):
        assert tenant_seed_offset("a", 0) == tenant_seed_offset("a", 0)
        spec = multi_tenant_spec(("tenant0", "tenant1"))
        seeds = [eff.seed for _phase, eff in spec.phase_specs()]
        assert len(set(seeds)) == len(seeds)

    def test_instruction_totals_sum_over_phases(self):
        spec = phased_spec(
            (prefill_phase(ctas=16, kernels=2), decode_phase(ctas=8, kernels=1))
        )
        expected = sum(
            eff.total_warp_instructions for _p, eff in spec.phase_specs()
        )
        assert spec.total_warp_instructions == expected

    def test_flat_spec_unaffected(self):
        flat = phased_spec((prefill_phase(ctas=16, kernels=1),))
        flat = dataclasses.replace(flat, phases=None, kernels=3)
        assert flat.kernel_specs() == (flat,) * 3


class TestGenerator:
    def test_phased_workload_kernel_grid_shapes(self):
        spec = phased_spec(
            (prefill_phase(ctas=16, kernels=2), decode_phase(ctas=8, kernels=3))
        )
        workload = build_workload(spec)
        assert [k.num_ctas for k in workload.kernels] == [16, 16, 8, 8, 8]

    def test_registry_specs_build(self):
        for abbr, spec in LLM_WORKLOAD_SPECS.items():
            small = shrunken_spec(abbr, total_ctas=8, kernels=1)
            workload = build_workload(small)
            assert workload.kernels, abbr

    def test_suite_lookup_merges_registries(self):
        specs = all_specs()
        assert "LLMServe" in specs and "Stream" in specs
        assert get_spec("LLMDecode").abbr == "LLMDecode"
        with pytest.raises(ConfigError, match="unknown workload"):
            get_spec("LLMNope")

