"""Differential pin: kernels whose GPM shares leave CTA slots empty.

A GPM runs its share of a kernel on ``num_sms * slots_per_sm`` CTA slots.
On the paper's wide configurations a share is often far smaller than that:
a 64-CTA grid on 32 GPMs gives each 64-slot GPM 2 CTAs.  Each case here
runs such a configuration and compares, with zero tolerance, the full
metrics registry (Welford accumulators and histograms), the canonical
counters and their per-GPM shards, the DVFS/sleep residency,
``elapsed_cycles`` and ``events_processed`` against ``slot_pins.json``.
The cases cover a ring, a switch, an idle-gated race-to-idle run (the
``MultiGpu._gated_kernel`` path) and a one-kernel Stream case on a 4-GPM
ring.

The pins were written when every slot started a process, and a slot that
found its GPM's queue empty exited on its first step.  Such a slot cost
exactly two events, its own step and the kernel barrier's hit, and moved
nothing else.  Slots that get no CTA are no longer started, so
``events_processed`` must equal the pin minus two per empty slot; every
other field must equal its pin.

Regenerate the pins only for an intended semantic change (with a
``RESULTS_VERSION`` bump)::

    PYTHONPATH=src python tests/differential/test_slot_identity.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dvfs.idle import IdleConfig
from repro.gpu.config import GpuConfig, TopologyKind, table_iii_config
from repro.gpu.cta_scheduler import partition_ctas
from repro.gpu.simulator import simulate
from repro.tools.regen_goldens import counters_to_json
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import shrunken_spec

PINS = Path(__file__).with_name("slot_pins.json")

CASES: dict[str, tuple[WorkloadSpec, GpuConfig]] = {
    "32gpm-ring-stream": (shrunken_spec("Stream", 64, 2), table_iii_config(32)),
    "16gpm-switch-bprop": (
        shrunken_spec("BPROP", 64, 2),
        table_iii_config(16, topology=TopologyKind.SWITCH),
    ),
    # 10 CTAs on 8 GPMs: shares of 1-2 CTAs drain at different times, so
    # some GPMs gate between kernels.
    "8gpm-race-to-idle": (
        shrunken_spec("BPROP", 10, 3),
        replace(table_iii_config(8), idle=IdleConfig(governor="race-to-idle")),
    ),
    "bench-quick": (
        shrunken_spec("Stream", 64, 1),
        table_iii_config(4, topology=TopologyKind.RING),
    ),
}


def observe(spec: WorkloadSpec, config: GpuConfig) -> dict:
    """Everything the pin compares, as plain JSON data."""
    result = simulate(build_workload(spec), config)
    return {
        "elapsed_cycles": result.counters.elapsed_cycles,
        "events_processed": result.events_processed,
        "counters": counters_to_json(result.counters),
        "per_gpm": [counters_to_json(shard) for shard in result.counters.per_gpm],
        "residency": result.residency.to_json(),
        "metrics": result.metrics.to_json(),
    }


def empty_slots(spec: WorkloadSpec, config: GpuConfig) -> int:
    """CTA slots that get no CTA, summed over every kernel's GPM shares.

    A GPM with an empty share runs no scheduler at all, so it has none.
    """
    slots = config.gpm.num_sms * config.gpm.slots_per_sm
    return sum(
        max(0, slots - len(share))
        for kernel in build_workload(spec).kernels
        for share in partition_ctas(
            kernel.num_ctas, config.num_gpms, config.partitioning
        )
        if share
    )


def _pins() -> dict:
    with PINS.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_slots_match_pin(case):
    want = _pins()[case]
    # A JSON round trip turns tuples into lists and keeps floats exact
    # (repr round-trips), so equality here is bit identity.
    got = json.loads(json.dumps(observe(*CASES[case])))
    expected_events = want["events_processed"] - 2 * empty_slots(*CASES[case])
    assert got["events_processed"] == expected_events
    assert got["elapsed_cycles"] == want["elapsed_cycles"]
    assert got["counters"] == want["counters"]
    assert got["per_gpm"] == want["per_gpm"]
    assert got["residency"] == want["residency"]
    assert got["metrics"] == want["metrics"]


def test_pins_exercise_empty_slots_and_gating():
    pins = _pins()
    for case in CASES:
        assert empty_slots(*CASES[case]) > 0, case
    sleeps = [
        bucket
        for domain in pins["8gpm-race-to-idle"]["residency"]["core"]
        for bucket in domain
        if "sleep" in bucket
    ]
    assert sleeps


def _pin(case: str) -> dict:
    """``observe`` with the event count every slot starting would give."""
    pin = observe(*CASES[case])
    pin["events_processed"] += 2 * empty_slots(*CASES[case])
    return pin


if __name__ == "__main__":
    PINS.write_text(
        json.dumps(
            {case: _pin(case) for case in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {PINS}")
