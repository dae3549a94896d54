"""Turns a :class:`WorkloadSpec` into executable kernels and warp programs.

Address-space layout (per workload)::

    [0, footprint)                      CTA-partitioned arrays: CTA i owns
                                        the slice [i*region, (i+1)*region)
    [shared_base, +shared_footprint)    globally shared region (tables,
                                        graph edges, reduction targets)

Because CTAs are distributed in contiguous chunks and pages are placed first
touch, a CTA's own slice lands in its GPM's DRAM stack and halo accesses land
on the same GPM except at partition boundaries.  The shared region is marked
for page *interleaving* (``Workload.interleaved_base``): multi-GPU systems
stripe shared allocations across memories so no single module hotspots, and
under striping ~(N-1)/N of shared-region traffic is remote — the gather/graph
traffic class of the NUMA-GPU papers.

Address streams are generated **vectorized** with SplitMix64 over
structured keys: a warp's program is a pure function of (workload seed,
kernel, CTA, warp), identical across runs and GPM counts — strong scaling
must present the same memory behaviour to every configuration.  A grid that
fits the chunk cache is synthesized in one numpy pass at build time; larger
grids are synthesized per CTA chunk as the simulation reaches them.  Because
a workload is configuration-independent, the sweep runner builds it once
per request and replays it on every configuration, as a trace-driven
simulator replays one captured trace.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.isa.kernel import Kernel, Workload
from repro.isa.opcodes import MemSpace, Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram
from repro.units import CACHE_LINE_BYTES, PAGE_BYTES
from repro.workloads.patterns import mix_key, splitmix64_array
from repro.workloads.spec import WorkloadSpec

_U64 = float(1 << 64)
_LINE = CACHE_LINE_BYTES


def _apportion_mix(mix: dict[Opcode, float], total: int) -> dict[Opcode, int]:
    """Largest-remainder apportionment of ``total`` instructions over a mix."""
    if total == 0:
        return {}
    weight_sum = sum(mix.values())
    shares = {
        opcode: total * weight / weight_sum for opcode, weight in mix.items()
    }
    counts = {opcode: int(share) for opcode, share in shares.items()}
    shortfall = total - sum(counts.values())
    by_remainder = sorted(
        mix, key=lambda opcode: shares[opcode] - counts[opcode], reverse=True
    )
    for opcode in by_remainder[:shortfall]:
        counts[opcode] += 1
    return {opcode: count for opcode, count in counts.items() if count > 0}


def shared_region_base(spec: WorkloadSpec) -> int:
    """Start address of the workload's shared (interleaved) region."""
    footprint_pages = (spec.footprint_bytes + PAGE_BYTES - 1) // PAGE_BYTES
    return (footprint_pages + 1) * PAGE_BYTES


class WarpProgramBuilder:
    """``program_factory`` for one kernel of one workload.

    One builder is attached to each :class:`~repro.isa.kernel.Kernel` and
    invoked lazily as CTAs are dispatched.  Address synthesis is vectorized
    over *chunks* of :attr:`CHUNK_CTAS` consecutive CTAs at once (all warps,
    all segments): every synthesized value is a pure elementwise function of
    (seed, kernel, CTA, warp, position), so the batched math is bit-identical
    to computing each warp alone, while one numpy pass over
    ``chunk * warps * accesses`` elements amortizes the array-call overhead
    that dominates when arrays are one warp long.  Chunks are cached (bounded
    by :attr:`MAX_CHUNKS`, oldest evicted) so a 32-GPM run still never holds
    the full trace in memory.
    """

    #: Consecutive CTAs synthesized per vectorized batch.  Partitions are
    #: contiguous and consumed in order, so aligned chunks get near-perfect
    #: reuse before eviction.
    CHUNK_CTAS = 16

    #: Resident-chunk bound: one in-flight chunk per GPM partition (up to 32
    #: modules) plus slack for partition-boundary overlap.
    MAX_CHUNKS = 64

    def __init__(self, spec: WorkloadSpec, kernel_index: int):
        self.spec = spec
        self.kernel_index = kernel_index
        self._compute_counts = _apportion_mix(
            spec.compute_mix, spec.compute_per_segment
        )
        self._shared_base = shared_region_base(spec)
        def threshold(fraction: float) -> np.uint64:
            """Cumulative-fraction threshold for strict `key < t` selection."""
            return np.uint64(min(int(fraction * _U64), (1 << 64) - 1))

        self._t_stream = threshold(spec.frac_stream)
        self._t_reuse = threshold(spec.frac_stream + spec.frac_reuse)
        self._t_halo = threshold(
            spec.frac_stream + spec.frac_reuse + spec.frac_halo
        )
        self._t_store = threshold(spec.store_fraction)
        self._t_lds = threshold(spec.shared_mem_fraction)
        acc = spec.accesses_per_segment
        n = spec.segments_per_warp * acc
        self._seg = np.arange(n, dtype=np.uint64) // np.uint64(max(1, acc))
        self._slot = np.arange(n, dtype=np.uint64) % np.uint64(max(1, acc))
        # Key/position components that do not depend on the CTA or warp are
        # folded once so per-chunk synthesis is pure elementwise work.
        self._lane_mix = (
            self._seg * np.uint64(0x9E3779B97F4A7C15)
        ) ^ (self._slot * np.uint64(0xC2B2AE3D27D4EB4F))
        self._position_base = (
            (np.uint64(kernel_index * spec.segments_per_warp) + self._seg)
            * np.uint64(max(1, acc))
            + self._slot
        ) * np.uint64(spec.warps_per_cta)
        self._warp_ids = np.arange(
            spec.warps_per_cta, dtype=np.uint64
        ).reshape(1, spec.warps_per_cta, 1)
        # mix_key(seed, kernel, cta, warp) folds left to right, so the
        # (seed, kernel) prefix is folded once and the CTA and warp parts
        # are folded per chunk with the same wrapping uint64 SplitMix64.
        self._kernel_key = np.uint64(mix_key(spec.seed, kernel_index))
        # Validate the compute mix once (Segment rejects non-compute opcodes
        # and negative counts); every segment then reuses the aggregate costs
        # through Segment.prebuilt.
        probe = Segment(compute=self._compute_counts)
        self._segment_slots = probe.issue_slots + float(acc)
        self._segment_instructions = probe.total_instructions + acc
        self._empty_program = (
            WarpProgram([probe] * spec.segments_per_warp) if acc == 0 else None
        )
        self._chunks: dict[int, list[list[WarpProgram]]] = {}

    def _warp_keys(self, cta_lo: int, cta_hi: int) -> np.ndarray:
        """``mix_key(seed, kernel, cta, warp)`` for a run of CTAs, shaped
        ``(cta_hi - cta_lo, warps_per_cta, 1)``."""
        ctas = np.arange(cta_lo, cta_hi, dtype=np.uint64).reshape(-1, 1, 1)
        return splitmix64_array(
            splitmix64_array(self._kernel_key ^ ctas) ^ self._warp_ids
        )

    def _synthesize(self, cta_lo: int, cta_hi: int):
        """Vectorized address/flag synthesis for a run of consecutive CTAs.

        Returns (addresses, is_store, is_lds) aligned arrays of shape
        ``(cta_hi - cta_lo, warps_per_cta, segments * accesses)``.
        """
        spec = self.spec
        num = cta_hi - cta_lo
        keys = self._warp_keys(cta_lo, cta_hi)
        lane = splitmix64_array(keys ^ self._lane_mix)
        pick = splitmix64_array(lane)
        store_key = splitmix64_array(lane ^ np.uint64(0x5A5A5A5A5A5A5A5A))
        lds_key = splitmix64_array(lane ^ np.uint64(0xA5A5A5A5A5A5A5A5))

        region = spec.cta_region_bytes
        region_lines = max(1, region // _LINE)
        ctas_u64 = np.arange(cta_lo, cta_hi, dtype=np.uint64).reshape(num, 1, 1)
        ctas_i64 = np.arange(cta_lo, cta_hi, dtype=np.int64).reshape(num, 1, 1)
        bases = ctas_u64 * np.uint64(region)

        position = self._position_base + self._warp_ids

        # Class 1: strided stream through the CTA's own slice.
        stream_offsets = (
            (position * np.uint64(spec.stride_lines)) % np.uint64(region_lines)
        ) * np.uint64(_LINE)
        stream_addr = bases + stream_offsets

        # Class 2: hot-block reuse within the slice.
        hot_lines = max(1, min(spec.hot_block_bytes, region) // _LINE)
        hot_idx = ((lane >> np.uint64(32)) * np.uint64(hot_lines)) >> np.uint64(32)
        reuse_addr = bases + hot_idx * np.uint64(_LINE)

        # Class 3: halo — adjacent CTA's slice at the same stream position.
        direction = np.where((lane & np.uint64(2)) == 0, 1, -1)
        partner = ctas_i64 + direction
        partner = np.where(
            (partner < 0) | (partner >= spec.total_ctas),
            ctas_i64 - direction,
            partner,
        ).astype(np.uint64)
        halo_offsets = (position % np.uint64(region_lines)) * np.uint64(_LINE)
        halo_addr = partner * np.uint64(region) + halo_offsets

        # Class 4: uniform random over the shared (interleaved) region.
        shared_lines = max(1, spec.shared_footprint_bytes // _LINE)
        shared_idx = (
            (splitmix64_array(lane ^ np.uint64(0x3C6EF372FE94F82B)) >> np.uint64(32))
            * np.uint64(shared_lines)
        ) >> np.uint64(32)
        shared_addr = np.uint64(self._shared_base) + shared_idx * np.uint64(_LINE)

        addresses = np.where(
            pick < self._t_stream,
            stream_addr,
            np.where(
                pick < self._t_reuse,
                reuse_addr,
                np.where(pick < self._t_halo, halo_addr, shared_addr),
            ),
        )
        is_store = (store_key < self._t_store) & (pick < self._t_stream)
        is_lds = lds_key < self._t_lds
        return addresses, is_store, is_lds

    def _build_chunk(self, start: int) -> list[list[WarpProgram]]:
        """Materialize programs for CTAs ``[start, start + CHUNK_CTAS)``."""
        end = min(start + self.CHUNK_CTAS, self.spec.total_ctas)
        return self._programs(*self._synthesize(start, end))

    def _programs(
        self, addresses: np.ndarray, is_store: np.ndarray, is_lds: np.ndarray
    ) -> list[list[WarpProgram]]:
        """Warp programs, per CTA, from a run of :meth:`_synthesize` rows."""
        spec = self.spec
        addr_list = addresses.tolist()
        store_list = is_store.tolist()
        lds_list = is_lds.tolist()
        segs = spec.segments_per_warp
        acc = spec.accesses_per_segment
        warps = spec.warps_per_cta
        compute = self._compute_counts
        slots = self._segment_slots
        instructions = self._segment_instructions
        prebuilt = Segment.prebuilt
        shared = MemSpace.SHARED
        chunk: list[list[WarpProgram]] = []
        for cta_offset in range(len(addr_list)):
            cta_addr = addr_list[cta_offset]
            cta_store = store_list[cta_offset]
            cta_lds = lds_list[cta_offset]
            programs: list[WarpProgram] = []
            for warp in range(warps):
                addr_row = cta_addr[warp]
                store_row = cta_store[warp]
                lds_row = cta_lds[warp]
                index = 0
                segments: list[Segment] = []
                for _segment in range(segs):
                    accesses = []
                    append = accesses.append
                    for _slot in range(acc):
                        if lds_row[index]:
                            append(
                                MemAccess(
                                    addr_row[index] % (64 * 1024),
                                    _LINE,
                                    space=shared,
                                )
                            )
                        else:
                            append(
                                MemAccess(
                                    addr_row[index], _LINE, store_row[index]
                                )
                            )
                        index += 1
                    segments.append(
                        prebuilt(compute, tuple(accesses), slots, instructions)
                    )
                programs.append(WarpProgram(segments))
            chunk.append(programs)
        return chunk

    def _cta_programs(self, cta_id: int) -> list[WarpProgram]:
        start = cta_id - cta_id % self.CHUNK_CTAS
        chunks = self._chunks
        chunk = chunks.get(start)
        if chunk is None:
            chunk = self._build_chunk(start)
            chunks[start] = chunk
            if len(chunks) > self.MAX_CHUNKS:
                del chunks[next(iter(chunks))]
        return chunk[cta_id - start]

    def prewarm(self) -> None:
        """Materialize every chunk now, if the whole grid fits the cache.

        Kernels whose chunk count fits :attr:`MAX_CHUNKS` would end up fully
        resident anyway; synthesizing them eagerly moves the chunk builds out
        of the simulation loop (where they are pure overhead in throughput
        accounting) into workload construction.  The whole grid is
        synthesized in one numpy pass and sliced into the same chunks the
        lazy path would build.  Larger grids keep the lazy bounded-cache
        behaviour — never the full trace in memory.
        """
        if self._empty_program is not None:
            return
        total = self.spec.total_ctas
        if -(-total // self.CHUNK_CTAS) > self.MAX_CHUNKS:
            return
        addresses, is_store, is_lds = self._synthesize(0, total)
        for start in range(0, total, self.CHUNK_CTAS):
            end = start + self.CHUNK_CTAS
            self._chunks[start] = self._programs(
                addresses[start:end], is_store[start:end], is_lds[start:end]
            )

    def build_cta(self, cta_id: int) -> list[WarpProgram]:
        """All warp programs of one CTA, in warp order.

        The returned list may be shared with the builder's chunk cache —
        callers must treat it as read-only.
        """
        if self._empty_program is not None:
            return [self._empty_program] * self.spec.warps_per_cta
        return self._cta_programs(cta_id)

    def __call__(self, cta_id: int, warp_id: int) -> WarpProgram:
        if self._empty_program is not None:
            return self._empty_program
        return self._cta_programs(cta_id)[warp_id]


def build_workload(spec: WorkloadSpec) -> Workload:
    """Materialize a workload's kernel launch sequence from its spec.

    Phase-scheduled specs expand into one kernel per schedule slot, each
    generated from that phase's effective spec; the *global* kernel index
    keys the address/mix synthesis, so two phases never replay the same
    stream even when their overrides coincide.  The footprint (and with it
    the interleaved shared-region base) is global to the spec, so every
    phase sees the same KV-cache-like shared region.
    """
    if spec.kernels <= 0:
        raise TraceError(f"{spec.name}: needs at least one kernel")
    kernels = []
    for index, kernel_spec in enumerate(spec.kernel_specs()):
        builder = WarpProgramBuilder(kernel_spec, index)
        builder.prewarm()
        kernels.append(
            Kernel(
                name=f"{spec.abbr}.k{index}",
                num_ctas=kernel_spec.total_ctas,
                warps_per_cta=kernel_spec.warps_per_cta,
                program_factory=builder,
            )
        )
    tags = ("short-kernels",) if spec.short_kernels else ()
    return Workload(
        name=spec.abbr,
        kernels=kernels,
        category=spec.category,
        description=spec.description,
        tags=tags,
        interleaved_base=shared_region_base(spec),
    )
