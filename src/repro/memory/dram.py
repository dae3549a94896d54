"""DRAM channel model with GDDR5 and HBM presets.

A channel is a bandwidth server plus a fixed access latency.  The scaling
study gives every GPM one HBM stack at 256 GB/s (Table III); the K40
validation substrate uses a GDDR5 preset at the K40's 280 GB/s (Table Ia).
Energy per bit differs between the two technologies and is consumed by the
energy model, not here — the timing layer only reports transactions.

Every read and write reserves the channel's FCFS server in place, with
:meth:`~repro.sim.resources.BandwidthServer.reserve`'s arithmetic, so one
division serves the reservation and the queueing metric alike.  The warp's
local load path (:meth:`GpmMemory.access_segment
<repro.memory.hierarchy.GpmMemory.access_segment>`) repeats :meth:`read`
in place; :meth:`DramChannel._service` stays the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthServer
from repro.units import DEFAULT_CLOCK_HZ, gbps_to_bytes_per_cycle


@dataclass(frozen=True)
class DramConfig:
    """One DRAM stack/partition attached to a GPM."""

    technology: str
    bandwidth_gbps: float
    latency_cycles: float
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigError("DRAM bandwidth must be positive")
        if self.latency_cycles < 0:
            raise ConfigError("DRAM latency must be non-negative")
        if self.capacity_bytes <= 0:
            raise ConfigError("DRAM capacity must be positive")


#: HBM stack used by every GPM in the scaling study (Table III).
HBM = DramConfig(
    technology="HBM",
    bandwidth_gbps=256.0,
    latency_cycles=300.0,
    capacity_bytes=12 * 1024**3,
)

#: GDDR5 preset matching the Tesla K40 validation platform (Table Ia).
GDDR5 = DramConfig(
    technology="GDDR5",
    bandwidth_gbps=280.0,
    latency_cycles=350.0,
    capacity_bytes=12 * 1024**3,
)


class DramChannel:
    """Timing front-end for one DRAM stack.

    ``clock_hz`` is the simulator's cycle timebase (the core anchor clock),
    needed to turn the stack's GB/s figure into bytes per simulated cycle.
    """

    def __init__(
        self,
        engine: Engine,
        config: DramConfig,
        name: str = "dram",
        clock_hz: float = DEFAULT_CLOCK_HZ,
    ):
        self.engine = engine
        self.config = config
        self.name = name
        self.server = BandwidthServer(
            engine,
            gbps_to_bytes_per_cycle(config.bandwidth_gbps, clock_hz),
            name=name,
        )
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._queue_cycles = engine.metrics.accumulator("dram.queue_cycles")
        # Fixed at engine construction; snapshot out of the per-access path.
        self._tracer = engine.tracer
        self._trace = engine.tracer.enabled

    def _service(
        self, kind: str, nbytes: int, earliest: float | None
    ) -> float:
        """Reserve channel service, recording queueing and the trace span.

        The FCFS reservation is :meth:`BandwidthServer.reserve
        <repro.sim.resources.BandwidthServer.reserve>`'s arithmetic done in
        place on the channel's server, so the service time is divided out
        once and shared with the queueing metric.
        """
        server = self.server
        if nbytes < 0:
            raise SimulationError(
                f"negative reservation on {server.name!r}: {nbytes!r}"
            )
        arrival = self.engine.now if earliest is None else earliest
        free_at = server.free_at
        service = nbytes / server.rate
        finish = (free_at if free_at > arrival else arrival) + service
        server.free_at = finish
        server.busy_time += service
        server.units_served += nbytes
        server.requests += 1
        queued = finish - service - arrival
        self._queue_cycles.add(queued if queued > 0.0 else 0.0)
        if self._trace:
            self._tracer.complete(
                self.name, kind, finish - service, service,
                args={"bytes": nbytes},
            )
        return finish

    def read(self, nbytes: int, earliest: float | None = None) -> float:
        """Reserve a read; returns the absolute completion time.

        ``earliest`` bounds when channel service may begin (the time the
        request physically arrives at this stack).
        """
        self.reads += 1
        self.bytes_read += nbytes
        return self._service("read", nbytes, earliest) + self.config.latency_cycles

    def write(self, nbytes: int, earliest: float | None = None) -> float:
        """Reserve a write; returns the absolute completion time.

        Writes occupy channel bandwidth but the issuing warp does not wait on
        them; callers may discard the completion time.
        """
        self.writes += 1
        self.bytes_written += nbytes
        return self._service("write", nbytes, earliest)

    def utilization(self, elapsed: float) -> float:
        """Channel busy fraction over an elapsed window."""
        return self.server.utilization(elapsed)

    def __repr__(self) -> str:
        return (
            f"DramChannel({self.config.technology},"
            f" {self.config.bandwidth_gbps:g} GB/s)"
        )
