"""Discrete-event simulation substrate.

The performance simulator is built on a small, dependency-free discrete-event
kernel:

* :class:`~repro.sim.engine.Engine` — the event heap and simulation clock.
* :class:`~repro.sim.engine.Process` — generator-based coroutines for the
  workload driver and each GPM's kernel share; the per-warp and per-line
  agents (warps, CTA slots, remote loads and stores) are slotted
  :class:`~repro.sim.engine.Event` continuations instead.
* :mod:`~repro.sim.resources` — analytic FCFS bandwidth servers and latency
  stations used for SM issue slots, DRAM channels, and interconnect links.
* :mod:`~repro.sim.stats` — lightweight online statistics used by counters.
* :func:`~repro.sim.collector.collector_paused` — keeps Python's cyclic
  garbage collector off while a simulation runs.
"""

from repro.sim.engine import AllOf, Engine, Event, Process, Timeout
from repro.sim.resources import BandwidthServer, LatencyStation, ThroughputServer
from repro.sim.stats import Accumulator, Histogram, UtilizationTracker

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "BandwidthServer",
    "LatencyStation",
    "ThroughputServer",
    "Accumulator",
    "Histogram",
    "UtilizationTracker",
]
