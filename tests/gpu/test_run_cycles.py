"""A simulation creates no reference cycles.

:func:`~repro.gpu.simulator.simulate` pauses the cyclic garbage collector
for the whole run (:mod:`repro.sim.collector`).  That defers no memory only
while reference counting alone frees everything a simulation allocates, so
a collection right after a finished run must find nothing: not the
GPM memories that list their peers while a run is in flight, not a
topology and its route table, not a governor's or idle driver's state.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.dvfs.idle import IdleConfig
from repro.gpu.config import TopologyKind, table_iii_config
from repro.gpu.simulator import simulate
from repro.interconnect.compression import CompressionConfig
from repro.workloads.generator import build_workload
from repro.workloads.suite import shrunken_spec


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(table_iii_config(4, topology=kind), id=str(kind))
        for kind in (TopologyKind.RING, TopologyKind.SWITCH, TopologyKind.MESH)
    ]
    + [
        pytest.param(
            replace(
                table_iii_config(4),
                compression=CompressionConfig(data_ratio=2.0),
            ),
            id="compressed",
        ),
        pytest.param(
            replace(
                table_iii_config(4), idle=IdleConfig(governor="race-to-idle")
            ),
            id="idle-governed",
        ),
    ],
)
def test_finished_run_leaves_no_memory_in_cycles(config):
    workload = build_workload(shrunken_spec("Stream", 32))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = simulate(workload, config)
        assert result.counters.inter_gpm_bytes > 0
        del result
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert garbage == Counter()
