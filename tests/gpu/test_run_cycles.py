"""A finished run is freed by reference counting, not by a full GC.

Each GPM memory reaches every peer memory while a run is in flight.  If
that wiring outlived the run, every finished GPU would be one reference
cycle through all of its caches, and back-to-back runs of one trace would
stack that garbage until a full collection.
"""

from __future__ import annotations

import gc

import pytest

from repro.gpu.config import TopologyKind, table_iii_config
from repro.gpu.simulator import simulate
from repro.memory.cache import Cache
from repro.memory.hierarchy import GpmMemory
from repro.workloads.generator import build_workload
from repro.workloads.suite import shrunken_spec


@pytest.mark.parametrize("topology", [TopologyKind.RING, TopologyKind.SWITCH])
def test_finished_run_leaves_no_memory_in_cycles(topology):
    workload = build_workload(shrunken_spec("Stream", 32))
    config = table_iii_config(4, topology=topology)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = simulate(workload, config)
        assert result.counters.inter_gpm_bytes > 0
        del result
        gc.collect()
        leaked = [
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (GpmMemory, Cache))
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []
