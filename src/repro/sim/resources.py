"""Analytic FCFS resources for the discrete-event engine.

The GPU model is dominated by *bandwidth-shaped* contention: DRAM channels,
inter-GPM links, and SM issue slots all behave like first-come-first-served
servers with a fixed service rate.  Rather than queueing callbacks, each server
keeps a single ``free_at`` horizon: a request arriving at time ``t`` for
``size`` units completes at ``max(t, free_at) + size/rate`` and pushes the
horizon forward.  This gives exact FCFS queueing semantics with O(1) work per
request and no events of its own — the requesting process simply sleeps until
the returned completion time.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.engine import Engine


class BandwidthServer:
    """A bandwidth-limited, FCFS service point (DRAM channel, link, port).

    Attributes:
        rate: service rate in units (typically bytes) per cycle.
        busy_time: cycles spent actively serving (for utilization accounting).
        units_served: total units transferred through the server.
        requests: number of reservations made.
    """

    __slots__ = ("engine", "name", "rate", "free_at", "busy_time", "units_served", "requests")

    def __init__(self, engine: Engine, rate: float, name: str = ""):
        if rate <= 0:
            raise SimulationError(f"server {name!r} needs a positive rate, got {rate!r}")
        self.engine = engine
        self.name = name
        self.rate = rate
        self.free_at = 0.0
        self.busy_time = 0.0
        self.units_served = 0.0
        self.requests = 0

    def reserve(self, size: float, earliest: float | None = None) -> float:
        """Reserve ``size`` units of service.

        Args:
            size: units (bytes/instructions) to serve.
            earliest: absolute time before which service cannot begin (e.g.
                when the request only *arrives* here after an upstream stage).
                Defaults to the current simulation time.

        Returns the absolute completion time.  The caller is responsible for
        sleeping until that time (``yield engine.wait_until(t)``).

        This is the one definition of the FCFS reservation.  Two hot paths
        repeat its arithmetic in place on their servers:
        ``DramChannel._service`` and ``Topology.transfer_time``;
        ``tests/property/test_reservation_props.py`` holds them to it.
        """
        if size < 0:
            raise SimulationError(f"negative reservation on {self.name!r}: {size!r}")
        arrival = self.engine.now if earliest is None else earliest
        start = self.free_at if self.free_at > arrival else arrival
        service = size / self.rate
        finish = start + service
        self.free_at = finish
        self.busy_time += service
        self.units_served += size
        self.requests += 1
        return finish

    def queue_delay(self) -> float:
        """Cycles a request arriving now would wait before service begins."""
        return max(0.0, self.free_at - self.engine.now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles the server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:
        return f"BandwidthServer({self.name!r}, rate={self.rate:.3f}/cyc)"


class ThroughputServer(BandwidthServer):
    """A :class:`BandwidthServer` whose units are *instructions*, not bytes.

    Used for SM issue bandwidth: reserving ``n`` instructions models the issue
    stage being occupied for ``n / issue_rate`` cycles.  Identical mechanics,
    separate type so counters and reprs stay self-describing.
    """

    def __repr__(self) -> str:
        return f"ThroughputServer({self.name!r}, rate={self.rate:.3f} instr/cyc)"


class LatencyStation:
    """A fixed-latency, infinite-bandwidth pipeline stage.

    Models structures whose occupancy never limits throughput in this study
    (e.g. cache tag pipelines): every request is delayed by ``latency`` cycles
    with no queueing.
    """

    __slots__ = ("engine", "name", "latency", "requests")

    def __init__(self, engine: Engine, latency: float, name: str = ""):
        if latency < 0:
            raise SimulationError(
                f"station {name!r} needs a non-negative latency, got {latency!r}"
            )
        self.engine = engine
        self.name = name
        self.latency = latency
        self.requests = 0

    def delay(self) -> float:
        """Return the absolute time a request entering now exits the stage."""
        self.requests += 1
        return self.engine.now + self.latency

    def __repr__(self) -> str:
        return f"LatencyStation({self.name!r}, latency={self.latency})"
