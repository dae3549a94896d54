"""Differential pin: the remote-memory path, event for event.

Remote L2 misses and remote stores are the simulator's NUMA path: request
header out, home L2 probe or DRAM read, data back; payload out, home DRAM
write.  Their scheduling decides the `(time, seq)` order of everything that
contends with them, so a reordered stage moves float metrics and the event
count long before it moves an integer counter.

Each case runs a small remote-heavy workload and compares, with zero
tolerance, the full metrics registry (Welford accumulators and histograms),
the canonical counters and their per-GPM shards, ``elapsed_cycles`` and
``events_processed`` against ``remote_path_pins.json``.  The pins were written by the simulator as it
stood before the remote path was rewritten; regenerate them only for an
intended semantic change (with a ``RESULTS_VERSION`` bump)::

    PYTHONPATH=src python tests/differential/test_remote_path_identity.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.gpu.config import (
    GpmConfig,
    GpuConfig,
    IntegrationDomain,
    InterconnectConfig,
    TopologyKind,
)
from repro.gpu.simulator import simulate
from repro.interconnect.compression import CompressionConfig
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.tools.regen_goldens import counters_to_json
from repro.units import KIB
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec

PINS = Path(__file__).with_name("remote_path_pins.json")

#: Mostly shared-region traffic, so most loads are remote under first
#: touch.  Stores only hit the stream partitions; 36 CTAs split them across
#: page boundaries unevenly, so enough of those pages land on another GPM
#: to keep remote stores busy too.
REMOTE_HEAVY = WorkloadSpec(
    name="Remote Heavy", abbr="remote-micro",
    category=WorkloadCategory.MEMORY,
    total_ctas=36, warps_per_cta=2, kernels=2, segments_per_warp=4,
    compute_per_segment=2, accesses_per_segment=4,
    compute_mix={Opcode.FFMA32: 0.6, Opcode.IMAD32: 0.4},
    footprint_bytes=512 * KIB, shared_footprint_bytes=128 * KIB,
    hot_block_bytes=2 * KIB,
    frac_stream=0.3, frac_reuse=0.1, frac_halo=0.1, frac_shared=0.5,
    store_fraction=0.5, seed=23,
)


def _interconnect(kind: TopologyKind) -> InterconnectConfig:
    return InterconnectConfig(
        kind=kind,
        per_gpm_bandwidth_gbps=256.0,
        link_latency_cycles=15.0,
        energy_pj_per_bit=0.54,
    )


CONFIGS: dict[str, GpuConfig] = {
    "4gpm-ring": GpuConfig(
        gpm=GpmConfig(num_sms=2, slots_per_sm=2),
        num_gpms=4,
        interconnect=_interconnect(TopologyKind.RING),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        name="remote-4gpm-ring",
    ),
    "8gpm-switch": GpuConfig(
        gpm=GpmConfig(num_sms=2, slots_per_sm=2),
        num_gpms=8,
        interconnect=_interconnect(TopologyKind.SWITCH),
        integration_domain=IntegrationDomain.ON_BOARD,
        name="remote-8gpm-switch",
    ),
    "4gpm-ring-compressed": GpuConfig(
        gpm=GpmConfig(num_sms=2, slots_per_sm=2),
        num_gpms=4,
        interconnect=_interconnect(TopologyKind.RING),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        compression=CompressionConfig(data_ratio=2.0),
        name="remote-4gpm-ring-compressed",
    ),
}


def observe(config: GpuConfig) -> dict:
    """Everything the pin compares, as plain JSON data."""
    result = simulate(build_workload(REMOTE_HEAVY), config)
    return {
        "elapsed_cycles": result.counters.elapsed_cycles,
        "events_processed": result.events_processed,
        "counters": counters_to_json(result.counters),
        # Home-side remote work lands in the serving GPM's shard.
        "per_gpm": [counters_to_json(shard) for shard in result.counters.per_gpm],
        "metrics": result.metrics.to_json(),
    }


def _pins() -> dict:
    with PINS.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_remote_path_matches_pin(case):
    want = _pins()[case]
    # A JSON round trip turns tuples into lists and keeps floats exact
    # (repr round-trips), so equality here is bit identity.
    got = json.loads(json.dumps(observe(CONFIGS[case])))
    assert got["events_processed"] == want["events_processed"]
    assert got["elapsed_cycles"] == want["elapsed_cycles"]
    assert got["counters"] == want["counters"]
    assert got["per_gpm"] == want["per_gpm"]
    assert got["metrics"] == want["metrics"]


def test_pins_exercise_the_remote_path():
    """The workload must keep both remote legs busy on every config."""
    pins = _pins()
    for case, pin in pins.items():
        accumulators = pin["metrics"]["accumulators"]
        assert pin["counters"]["remote_accesses"] > 0, case
        for name in (
            "memory.remote_load_cycles",
            "memory.remote_store_cycles",
            "interconnect.transfer_cycles",
        ):
            assert accumulators[name]["count"] > 100, (case, name)
    assert pins["4gpm-ring-compressed"]["counters"]["compression_codec_bytes"] > 0


if __name__ == "__main__":
    PINS.write_text(
        json.dumps(
            {case: observe(config) for case, config in sorted(CONFIGS.items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {PINS}")
