"""Differential pin: warps that run more than one segment.

Every Table II spec runs one segment per warp, so only the LLM specs (12
segments per warp) exercise a warp's one-deep software pipeline: segment
``k+1`` issues while segment ``k``'s memory is still in flight, and the
warp drains ``k`` (a timeout, then a single-event or counting-barrier
wait on its remote loads) before moving on.  Each case runs a 12-segment
LLM decode spec and compares, with zero tolerance, the canonical counters,
the full metrics registry, ``events_processed``, the per-kernel timing,
the DVFS/sleep residency and the sha256 of the run's Chrome trace against
``multisegment_pins.json``.  The trace digest pins the order and the
timestamps of every warp and CTA-slot span, not only their totals.

The cases are an 8-GPM ring under the utilization governor (clocks move
at kernel boundaries) and a 4-GPM switch.

Regenerate the pins only for an intended semantic change (with a
``RESULTS_VERSION`` bump)::

    PYTHONPATH=src python tests/differential/test_multisegment_identity.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.dvfs.idle import IdleConfig
from repro.gpu.config import GpuConfig, TopologyKind, table_iii_config
from repro.gpu.simulator import simulate
from repro.tools.regen_goldens import counters_to_json
from repro.trace import ChromeTracer
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import shrunken_spec

PINS = Path(__file__).with_name("multisegment_pins.json")

#: The LLM decode spec cut to 32 CTAs and 2 kernels; 12 segments per warp.
DECODE = shrunken_spec("LLMDecode", 32, 2)

CASES: dict[str, tuple[WorkloadSpec, GpuConfig]] = {
    "8gpm-ring-utilization": (
        DECODE,
        dataclasses.replace(
            table_iii_config(8), idle=IdleConfig.governor_only("utilization")
        ),
    ),
    "4gpm-switch": (
        DECODE,
        table_iii_config(4, topology=TopologyKind.SWITCH),
    ),
}


def observe(spec: WorkloadSpec, config: GpuConfig) -> dict:
    """Everything the pin compares, as plain JSON data."""
    tracer = ChromeTracer()
    result = simulate(build_workload(spec), config, tracer=tracer)
    # ChromeTracer.write serializes with json.dump, which emits the same
    # bytes as json.dumps.
    trace_bytes = json.dumps(tracer.export()).encode()
    return {
        "events_processed": result.events_processed,
        "counters": counters_to_json(result.counters),
        "metrics": result.metrics.to_json(),
        "kernel_stats": [dataclasses.asdict(k) for k in result.kernel_stats],
        "residency": result.residency.to_json(),
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
    }


def _pins() -> dict:
    with PINS.open() as handle:
        return json.load(handle)


def test_cases_run_multiple_segments_per_warp():
    assert DECODE.segments_per_warp == 12
    for spec, _config in CASES.values():
        kernel = build_workload(spec).kernels[0]
        assert len(kernel.cta_programs(0)[0].segments) == 12


@pytest.mark.parametrize("case", sorted(CASES))
def test_multisegment_matches_pin(case):
    want = _pins()[case]
    # A JSON round trip turns tuples into lists and keeps floats exact
    # (repr round-trips), so equality here is bit identity.
    got = json.loads(json.dumps(observe(*CASES[case])))
    assert got["events_processed"] == want["events_processed"]
    assert got["counters"] == want["counters"]
    assert got["metrics"] == want["metrics"]
    assert got["kernel_stats"] == want["kernel_stats"]
    assert got["residency"] == want["residency"]
    assert got["trace_sha256"] == want["trace_sha256"]


if __name__ == "__main__":
    PINS.write_text(
        json.dumps(
            {case: observe(*CASES[case]) for case in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {PINS}")
