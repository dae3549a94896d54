"""Workload generator: address-space layout and determinism."""

import pytest

from repro.isa.opcodes import MemSpace, Opcode
from repro.workloads.generator import (
    WarpProgramBuilder,
    _apportion_mix,
    build_workload,
    shared_region_base,
)
from repro.workloads.spec import WorkloadSpec
from repro.isa.kernel import WorkloadCategory


def small_spec(**overrides) -> WorkloadSpec:
    base = dict(
        name="Gen", abbr="G", category=WorkloadCategory.MEMORY,
        total_ctas=32, warps_per_cta=2, kernels=2, segments_per_warp=2,
        compute_per_segment=6, accesses_per_segment=4,
        compute_mix={Opcode.FFMA32: 0.5, Opcode.FADD32: 0.5},
        footprint_bytes=32 * 65536,
        shared_footprint_bytes=1024 * 1024,
        frac_stream=0.5, frac_reuse=0.2, frac_halo=0.2, frac_shared=0.1,
        store_fraction=0.3,
        seed=9,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestApportionment:
    def test_exact_total(self):
        counts = _apportion_mix({Opcode.FFMA32: 0.6, Opcode.FADD32: 0.4}, 10)
        assert sum(counts.values()) == 10
        assert counts[Opcode.FFMA32] == 6

    def test_remainders_assigned_largest_first(self):
        counts = _apportion_mix(
            {Opcode.FFMA32: 1.0, Opcode.FADD32: 1.0, Opcode.IADD32: 1.0}, 10
        )
        assert sum(counts.values()) == 10
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_zero_total(self):
        assert _apportion_mix({Opcode.FFMA32: 1.0}, 0) == {}


class TestPrograms:
    def test_shape_matches_spec(self):
        spec = small_spec()
        builder = WarpProgramBuilder(spec, kernel_index=0)
        program = builder(0, 0)
        assert len(program) == spec.segments_per_warp
        for segment in program:
            assert len(segment.accesses) == spec.accesses_per_segment
            assert segment.compute_instructions == spec.compute_per_segment

    def test_deterministic(self):
        spec = small_spec()
        a = WarpProgramBuilder(spec, 0)(3, 1)
        b = WarpProgramBuilder(spec, 0)(3, 1)
        for seg_a, seg_b in zip(a, b):
            assert [x.address for x in seg_a.accesses] == [
                x.address for x in seg_b.accesses
            ]

    def test_kernels_differ(self):
        spec = small_spec()
        k0 = WarpProgramBuilder(spec, 0)(3, 1)
        k1 = WarpProgramBuilder(spec, 1)(3, 1)
        a0 = [x.address for s in k0 for x in s.accesses]
        a1 = [x.address for s in k1 for x in s.accesses]
        assert a0 != a1

    def test_warps_differ(self):
        spec = small_spec()
        builder = WarpProgramBuilder(spec, 0)
        a = [x.address for s in builder(0, 0) for x in s.accesses]
        b = [x.address for s in builder(0, 1) for x in s.accesses]
        assert a != b

    def test_addresses_line_aligned(self):
        spec = small_spec()
        builder = WarpProgramBuilder(spec, 0)
        for cta in range(4):
            for segment in builder(cta, 0):
                for access in segment.accesses:
                    assert access.address % 128 == 0

    def test_stream_and_reuse_stay_in_own_or_neighbor_region(self):
        spec = small_spec(frac_stream=0.6, frac_reuse=0.2, frac_halo=0.2,
                          frac_shared=0.0)
        builder = WarpProgramBuilder(spec, 0)
        region = spec.cta_region_bytes
        cta = 5
        allowed = {
            (cta - 1) * region, cta * region, (cta + 1) * region
        }
        for segment in builder(cta, 0):
            for access in segment.accesses:
                base = access.address // region * region
                assert base in allowed

    def test_shared_accesses_land_in_shared_region(self):
        spec = small_spec(frac_stream=0.0, frac_reuse=0.0, frac_halo=0.0,
                          frac_shared=1.0, store_fraction=0.0)
        builder = WarpProgramBuilder(spec, 0)
        base = shared_region_base(spec)
        for segment in builder(0, 0):
            for access in segment.accesses:
                assert base <= access.address < base + spec.shared_footprint_bytes

    def test_stores_only_on_stream_class(self):
        spec = small_spec(frac_stream=0.0, frac_reuse=0.5, frac_halo=0.25,
                          frac_shared=0.25, store_fraction=1.0)
        builder = WarpProgramBuilder(spec, 0)
        for segment in builder(0, 0):
            for access in segment.accesses:
                assert not access.is_store

    def test_store_fraction_approximate(self):
        spec = small_spec(frac_stream=1.0, frac_reuse=0.0, frac_halo=0.0,
                          frac_shared=0.0, store_fraction=0.5,
                          total_ctas=64, accesses_per_segment=8)
        builder = WarpProgramBuilder(spec, 0)
        stores = total = 0
        for cta in range(64):
            for segment in builder(cta, 0):
                for access in segment.accesses:
                    total += 1
                    stores += access.is_store
        assert 0.4 < stores / total < 0.6

    def test_lds_fraction_diverts_to_shared_space(self):
        spec = small_spec(shared_mem_fraction=1.0)
        builder = WarpProgramBuilder(spec, 0)
        for segment in builder(0, 0):
            for access in segment.accesses:
                assert access.space is MemSpace.SHARED


class TestBuildWorkload:
    def test_kernel_count_and_names(self):
        workload = build_workload(small_spec(kernels=3))
        assert len(workload.kernels) == 3
        assert workload.kernels[0].name == "G.k0"

    def test_interleaved_base_set(self):
        spec = small_spec()
        workload = build_workload(spec)
        assert workload.interleaved_base == shared_region_base(spec)
        assert workload.interleaved_base >= spec.footprint_bytes

    def test_short_kernel_tag(self):
        tagged = build_workload(small_spec(short_kernels=True))
        assert "short-kernels" in tagged.tags
        untagged = build_workload(small_spec())
        assert untagged.tags == ()


def _program_fields(chunk):
    return [
        [
            [
                (
                    sorted((op.value, n) for op, n in segment.compute.items()),
                    [
                        (a.address, a.size, a.is_store, a.space)
                        for a in segment.accesses
                    ],
                )
                for segment in program.segments
            ]
            for program in cta
        ]
        for cta in chunk
    ]


class TestOnePassPrewarm:
    """Prewarm synthesizes the grid once; the lazy path does it per chunk."""

    @pytest.mark.parametrize("grid", ["decode", "tenant-mix"])
    def test_prewarm_equals_per_chunk_builds(self, grid):
        from repro.experiments.figllm_study import grid_spec

        spec = grid_spec(grid)
        kernel_specs = spec.kernel_specs()
        if grid == "decode":
            # The last chunk of a 33-CTA grid holds one CTA.
            assert spec.total_ctas % WarpProgramBuilder.CHUNK_CTAS != 0
        else:
            assert len({k.total_ctas for k in kernel_specs}) > 1
        for index, kernel_spec in enumerate(kernel_specs):
            warmed = WarpProgramBuilder(kernel_spec, index)
            warmed.prewarm()
            lazy = WarpProgramBuilder(kernel_spec, index)
            starts = list(
                range(0, kernel_spec.total_ctas, WarpProgramBuilder.CHUNK_CTAS)
            )
            assert list(warmed._chunks) == starts
            for start in starts:
                assert _program_fields(warmed._chunks[start]) == (
                    _program_fields(lazy._build_chunk(start))
                )
