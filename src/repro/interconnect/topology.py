"""Topology interface shared by the ring and switch networks.

A topology turns a (src GPM, dst GPM, size) transfer into reservations on the
links along the route.  Transfers use *virtual cut-through* accounting: the
payload is serialized once on every hop link (each link's FCFS queue applies),
and the completion time is the latest link-completion plus the accumulated
per-hop propagation latency.  This costs one event per transfer regardless of
hop count, which is what keeps 32-GPM ring simulations cheap, while still
letting congestion emerge from per-link queueing.

Routes are static, so each topology keeps a :class:`RouteTable` that builds
one :class:`Route` per ``(src, dst)`` pair on first lookup: the links'
bandwidth servers in route order, their latency summed in that order, the
hop count and the switch traversals.  A transfer
(:meth:`Topology.transfer_time`) then takes one reservation per hop, and the
caller reads the hop counts it charges off the same entry.  The reservations
and the :class:`~repro.interconnect.traffic.TrafficCounters` update are done
in place in that method's loop, with the arithmetic of
:meth:`~repro.sim.resources.BandwidthServer.reserve` and
:meth:`~repro.interconnect.traffic.TrafficCounters.record`.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.interconnect.link import Link
from repro.interconnect.traffic import TrafficCounters


class Route:
    """Everything a transfer on one ``(src, dst)`` route needs, built once."""

    __slots__ = ("label", "servers", "latency", "hops", "switch_traversals")

    def __init__(
        self, src: int, dst: int, links: list[Link], switch_traversals: int
    ):
        self.label = f"g{src}->g{dst}"
        self.servers = tuple(link.server for link in links)
        latency = 0.0
        for link in links:
            latency += link.config.latency_cycles
        self.latency = latency
        self.hops = len(links)
        self.switch_traversals = switch_traversals


class RouteTable(dict):
    """``(src, dst) -> Route``, each entry built on its first lookup.

    A lookup that hits is a plain dictionary subscript.  Endpoints that the
    topology rejects raise before anything is stored, so they raise on
    every lookup.  The table reaches its topology through a weak reference:
    the topology owns the table, and a strong reference back would make
    every topology a reference cycle that only the cyclic collector frees.
    """

    __slots__ = ("_topology",)

    def __init__(self, topology: "Topology"):
        super().__init__()
        self._topology = weakref.ref(topology)

    def __missing__(self, key: tuple[int, int]) -> Route:
        route = self[key] = self._topology()._build_route(*key)
        return route


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one inter-GPM transfer reservation."""

    completion_time: float
    hops: int
    switch_traversals: int


class Topology(abc.ABC):
    """Common behaviour for inter-GPM networks."""

    def __init__(self, num_gpms: int):
        if num_gpms < 2:
            raise ConfigError(
                f"an interconnect needs at least 2 GPMs, got {num_gpms}"
            )
        self.num_gpms = num_gpms
        self.traffic = TrafficCounters()
        self.routes = RouteTable(self)
        # Bound with the first route (links carry the engine; the topology
        # itself is constructed before it has one).
        self._engine = None
        self._transfer_bytes = None
        self._transfer_cycles = None

    @abc.abstractmethod
    def route(self, src: int, dst: int) -> tuple[list[Link], int]:
        """Return ``(links, switch_traversals)`` for a src->dst transfer."""

    @abc.abstractmethod
    def links(self) -> list[Link]:
        """Every link in the network (diagnostics and tests)."""

    def _build_route(self, src: int, dst: int) -> Route:
        self._check_endpoints(src, dst)
        links, switch_traversals = self.route(src, dst)
        if not links:
            raise ConfigError(f"route {src}->{dst} has no links")
        if self._engine is None:
            engine = self._engine = links[0].server.engine
            self._transfer_bytes = engine.metrics.histogram(
                "interconnect.transfer_bytes", 32.0
            )
            self._transfer_cycles = engine.metrics.accumulator(
                "interconnect.transfer_cycles"
            )
        return Route(src, dst, links, switch_traversals)

    def transfer_time(
        self, route: Route, nbytes: int, earliest: float | None = None
    ) -> float:
        """Reserve a transfer of ``nbytes`` along ``route`` (an entry of
        :attr:`routes`).

        ``earliest`` bounds when injection may begin (payload availability).
        Returns the completion time; the caller sleeps until then.

        Each hop's FCFS reservation is :meth:`BandwidthServer.reserve
        <repro.sim.resources.BandwidthServer.reserve>`'s arithmetic done in
        place on the link's server, and the transfer is folded into
        :attr:`traffic` as :meth:`TrafficCounters.record` would.
        """
        servers = route.servers
        if nbytes < 0:
            raise SimulationError(
                f"negative reservation on {servers[0].name!r}: {nbytes!r}"
            )
        engine = self._engine
        injected = engine.now if earliest is None else earliest
        finish = 0.0
        for server in servers:
            free_at = server.free_at
            service = nbytes / server.rate
            done = (free_at if free_at > injected else injected) + service
            server.free_at = done
            server.busy_time += service
            server.units_served += nbytes
            server.requests += 1
            if done > finish:
                finish = done
        hops = route.hops
        switch_traversals = route.switch_traversals
        traffic = self.traffic
        traffic.messages += 1
        traffic.bytes_injected += nbytes
        traffic.byte_hops += nbytes * hops
        traffic.switch_byte_traversals += nbytes * switch_traversals
        completion = finish + route.latency

        cycles = completion - injected
        if not cycles > 0.0:
            cycles = 0.0
        self._transfer_bytes.add(nbytes)
        self._transfer_cycles.add(cycles)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.complete(
                "interconnect",
                route.label,
                injected,
                cycles,
                args={
                    "bytes": nbytes,
                    "hops": hops,
                    "switch_traversals": switch_traversals,
                },
            )
        return completion

    def transfer(
        self, src: int, dst: int, nbytes: int, earliest: float | None = None
    ) -> TransferResult:
        """Reserve a transfer of ``nbytes`` from GPM ``src`` to GPM ``dst``
        and return its completion time with the route's hop counts."""
        route = self.routes[src, dst]
        return TransferResult(
            completion_time=self.transfer_time(route, nbytes, earliest),
            hops=route.hops,
            switch_traversals=route.switch_traversals,
        )

    def _check_endpoints(self, src: int, dst: int) -> None:
        if not 0 <= src < self.num_gpms or not 0 <= dst < self.num_gpms:
            raise ConfigError(
                f"transfer endpoints ({src}, {dst}) out of range"
                f" [0, {self.num_gpms})"
            )
        if src == dst:
            raise ConfigError("local transfers must not enter the interconnect")

    def max_utilization(self, elapsed: float) -> float:
        """Highest per-link utilization (identifies the bottleneck link)."""
        return max((link.utilization(elapsed) for link in self.links()), default=0.0)
