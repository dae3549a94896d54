"""Property-based tests for trace-generation primitives and the generator."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.workloads import patterns
from repro.workloads.generator import WarpProgramBuilder, shared_region_base
from repro.workloads.spec import WorkloadSpec

keys = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestHashProperties:
    @given(keys)
    @settings(max_examples=200, deadline=None)
    def test_splitmix_stays_in_64_bits(self, key):
        assert 0 <= patterns.splitmix64(key) < (1 << 64)

    @given(st.lists(keys, min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_vectorized_hash_matches_elementwise(self, key_list):
        array = np.array(key_list, dtype=np.uint64)
        hashed = patterns.splitmix64_array(array).tolist()
        for key, value in zip(key_list, hashed):
            # The array version applies the same mixing function.
            z = (key + 0x9E3779B97F4A7C15) % (1 << 64)
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
            assert value == z ^ (z >> 31)


fractions = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
).map(lambda t: (t[0], t[1] * (1 - t[0]), t[2] * (1 - t[0] - t[1] * (1 - t[0]))))


def make_spec(frac_stream, frac_reuse, frac_halo, seed) -> WorkloadSpec:
    frac_shared = 1.0 - frac_stream - frac_reuse - frac_halo
    return WorkloadSpec(
        name="P", abbr="P", category=WorkloadCategory.MEMORY,
        total_ctas=16, warps_per_cta=2, kernels=1, segments_per_warp=2,
        compute_per_segment=4, accesses_per_segment=4,
        compute_mix={Opcode.FFMA32: 1.0},
        footprint_bytes=16 * 65536,
        shared_footprint_bytes=512 * 1024,
        frac_stream=frac_stream, frac_reuse=frac_reuse,
        frac_halo=frac_halo, frac_shared=frac_shared,
        seed=seed,
    )


class TestGeneratorProperties:
    @given(fractions, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_every_address_in_a_legal_region(self, fracs, seed):
        spec = make_spec(*fracs, seed)
        builder = WarpProgramBuilder(spec, 0)
        region = spec.cta_region_bytes
        shared_base = shared_region_base(spec)
        shared_end = shared_base + spec.shared_footprint_bytes
        for cta in (0, 7, 15):
            for segment in builder(cta, 0):
                for access in segment.accesses:
                    address = access.address
                    in_partitioned = 0 <= address < spec.total_ctas * region
                    in_shared = shared_base <= address < shared_end
                    in_lds = access.space.value == "shared"
                    assert in_partitioned or in_shared or in_lds
                    assert address % 128 == 0

    @given(fractions, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_generation_is_pure(self, fracs, seed):
        spec = make_spec(*fracs, seed)
        builder = WarpProgramBuilder(spec, 0)
        first = [
            (a.address, a.is_store)
            for s in builder(3, 1)
            for a in s.accesses
        ]
        second = [
            (a.address, a.is_store)
            for s in builder(3, 1)
            for a in s.accesses
        ]
        assert first == second

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_pure_stream_never_leaves_own_slice(self, seed):
        spec = make_spec(1.0, 0.0, 0.0, seed)
        builder = WarpProgramBuilder(spec, 0)
        region = spec.cta_region_bytes
        for cta in (0, 5, 15):
            for segment in builder(cta, 0):
                for access in segment.accesses:
                    assert cta * region <= access.address < (cta + 1) * region


class TestKeyFold:
    """The builder folds (seed, kernel) once and (CTA, warp) as arrays."""

    seeds = st.one_of(
        st.integers(min_value=-(1 << 63), max_value=-1),
        st.integers(min_value=1 << 63, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 63) - 1),
    )

    @given(
        seeds,
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=(1 << 32) - 2),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorized_fold_matches_scalar_mix_key(
        self, seed, kernel, cta, warps
    ):
        spec = make_spec(1.0, 0.0, 0.0, 0)
        builder = WarpProgramBuilder(
            replace(spec, seed=seed, warps_per_cta=warps), kernel
        )
        keys = builder._warp_keys(cta, cta + 2)
        assert keys.shape == (2, warps, 1)
        for offset in range(2):
            for warp in range(warps):
                assert int(keys[offset, warp, 0]) == patterns.mix_key(
                    seed, kernel, cta + offset, warp
                )
