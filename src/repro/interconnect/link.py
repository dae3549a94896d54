"""Point-to-point interconnect links.

A link is a unidirectional bandwidth server plus a propagation latency and an
energy cost per bit.  Energy is *accounted* (bytes recorded per link) rather
than consumed here; the energy model converts link traffic into joules so that
the same simulation can be re-priced under different pJ/bit assumptions — the
Section V-C interconnect-energy point study does exactly that re-pricing
without re-running the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthServer
from repro.units import DEFAULT_CLOCK_HZ, gbps_to_bytes_per_cycle


@dataclass(frozen=True)
class LinkConfig:
    """Electrical/physical parameters of one unidirectional link."""

    bandwidth_gbps: float
    latency_cycles: float
    energy_pj_per_bit: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.latency_cycles < 0:
            raise ConfigError("link latency must be non-negative")
        if self.energy_pj_per_bit < 0:
            raise ConfigError("link energy must be non-negative")


class Link:
    """One unidirectional link between two endpoints (GPMs or switch ports)."""

    __slots__ = ("config", "server", "src", "dst")

    def __init__(
        self,
        engine: Engine,
        config: LinkConfig,
        src: str,
        dst: str,
        clock_hz: float = DEFAULT_CLOCK_HZ,
    ):
        self.config = config
        self.src = src
        self.dst = dst
        self.server = BandwidthServer(
            engine,
            gbps_to_bytes_per_cycle(config.bandwidth_gbps, clock_hz),
            name=f"link:{src}->{dst}",
        )

    def reserve(self, nbytes: int, earliest: float | None = None) -> float:
        """Reserve ``nbytes`` of link capacity; returns serialization-complete
        time (propagation latency is added once per path by the topology).

        ``earliest`` bounds when serialization may begin, used when the
        payload only becomes available after an upstream stage completes.
        """
        return self.server.reserve(nbytes, earliest=earliest)

    @property
    def transfers(self) -> int:
        """Transfers that crossed this link so far."""
        return self.server.requests

    def queue_delay(self) -> float:
        """Cycles a byte arriving now would wait before serialization."""
        return self.server.queue_delay()

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of this link over an elapsed window."""
        return self.server.utilization(elapsed)

    def __repr__(self) -> str:
        return (
            f"Link({self.src}->{self.dst},"
            f" {self.config.bandwidth_gbps:g} GB/s,"
            f" {self.config.energy_pj_per_bit:g} pJ/b)"
        )
