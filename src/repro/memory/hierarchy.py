"""Per-GPM memory path: L1s, module L2, local DRAM, and remote access routing.

This module implements the complete access flow for one GPM:

* **Shared memory** accesses hit the on-SM scratchpad: one 128 B shared->RF
  transaction, fixed latency, never leave the SM.
* **Global loads** probe the per-SM L1 (write-through, no-write-allocate),
  then the module-side L2 (write-back, write-allocate), then the home DRAM —
  local directly, remote through the inter-GPM network (request header out,
  home-L2 probe, home-DRAM read on miss, data payload back).  Fetched remote
  lines are cached in the *requester's* L2 with their home recorded, so the
  software-coherence flush can drop them at the next kernel boundary.
* **Global stores** are write-through at L1.  Local stores write-allocate in
  the module L2 (dirty lines write back to local DRAM on eviction).  Remote
  stores bypass the L2 and stream to the home DRAM over the network — this is
  what makes the kernel-boundary flash-invalidate correct without writeback
  traffic: no remote-homed line is ever dirty.

A warp prices a whole segment in one call, :meth:`GpmMemory.access_segment`,
whose loop runs every line's page-home lookup and L1 -> L2 -> DRAM/remote path
inline, unaligned multi-line accesses included.  A load's L1 lookup, its L2
lookup and fill, and a local DRAM read's reservation are done in place on
the tag stores and the channel's server, with the arithmetic of
:meth:`Cache.access <repro.memory.cache.Cache.access>` and
:meth:`DramChannel._service <repro.memory.dram.DramChannel._service>`, which
stay the definitions for every other caller: a local load that misses to
DRAM makes one call, the DRAM queue metric's ``add``.

Local paths are priced *analytically*: every stage carries the same constant
pipeline offset, so reserving at ``earliest = issue + latency`` preserves FCFS
order and the warp sleeps once, on the final completion time.  Remote paths
must NOT be priced that way: reserving a home-DRAM channel or a return link at
a far-future ``earliest`` would push the server's horizon past idle time it
could have served others in (a non-work-conserving queue that melts down under
NUMA traffic).  Remote accesses therefore run as small multi-stage
continuations (:class:`RemoteLoad`, :class:`RemoteStore`) that reserve each
resource when the payload actually arrives at it.  Each stage is a bound
method the engine calls directly (:meth:`~repro.sim.engine.Engine.call_at`),
taking exactly the now-queue or heap slot a generator process's
``wait_until`` step would take, at a fraction of a process's cost.  A
:class:`RemoteLoad` is itself the :class:`~repro.sim.engine.Event` the warp
waits on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpu.counters import CounterSet
from repro.interconnect.topology import Topology
from repro.isa.opcodes import MemSpace
from repro.isa.program import MemAccess
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramChannel
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine, Event
from repro.units import CACHE_LINE_BYTES, SECTORS_PER_LINE

#: Size of a request header message on the inter-GPM network (bytes).
REQUEST_HEADER_BYTES: int = 32


@dataclass(frozen=True)
class HierarchyLatencies:
    """Fixed pipeline latencies for the hierarchy stages (cycles)."""

    shared: float = 25.0
    l1: float = 30.0
    l2: float = 120.0

    def __post_init__(self) -> None:
        for name in ("shared", "l1", "l2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"latency {name!r} must be non-negative")


class GpmMemory:
    """The memory system of one GPM, plus its window onto remote GPMs."""

    def __init__(
        self,
        engine: Engine,
        gpm_id: int,
        num_sms: int,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        dram: DramChannel,
        placement: PagePlacement,
        counters: CounterSet,
        latencies: HierarchyLatencies | None = None,
    ):
        self.engine = engine
        self.gpm_id = gpm_id
        self.latencies = latencies or HierarchyLatencies()
        self._l1_config = l1_config
        #: Per-SM L1s by local SM index, each built on that SM's first
        #: access (:meth:`l1`); ``None`` for an SM that has not accessed
        #: memory yet.
        self.l1s: list[Cache | None] = [None] * num_sms
        self.l2 = Cache(
            CacheConfig(
                capacity_bytes=l2_config.capacity_bytes,
                line_bytes=l2_config.line_bytes,
                associativity=l2_config.associativity,
                write_allocate=True,
                write_back=True,
                name=f"gpm{gpm_id}.l2",
            )
        )
        self.dram = dram
        self.placement = placement
        self.counters = counters
        self._track = f"gpm{gpm_id}.mem"
        # The tracer is fixed at engine construction and `enabled` is a class
        # attribute, so both are safe to snapshot out of the hot path.
        self._tracer = engine.tracer
        self._trace = engine.tracer.enabled
        self._remote_load_cycles = engine.metrics.accumulator(
            "memory.remote_load_cycles"
        )
        self._remote_store_cycles = engine.metrics.accumulator(
            "memory.remote_store_cycles"
        )
        self._rload_name = f"gpm{gpm_id}.rload"
        self._rstore_name = f"gpm{gpm_id}.rstore"
        # Wired by MultiGpu after all GPMs exist:
        self.topology: Topology | None = None
        self.peers: list["GpmMemory"] = []

    def l1(self, sm_index: int) -> Cache:
        """SM ``sm_index``'s L1 (write-through, no-write-allocate), built
        on first use."""
        l1 = self.l1s[sm_index]
        if l1 is None:
            l1_config = self._l1_config
            l1 = self.l1s[sm_index] = Cache(
                CacheConfig(
                    capacity_bytes=l1_config.capacity_bytes,
                    line_bytes=l1_config.line_bytes,
                    associativity=l1_config.associativity,
                    write_allocate=False,
                    write_back=False,
                    name=f"gpm{self.gpm_id}.l1.{sm_index}",
                )
            )
        return l1

    # ------------------------------------------------------------------ access

    def access_segment(
        self,
        sm_index: int,
        accesses: "tuple[MemAccess, ...]",
        earliest: float,
        pending: list,
    ) -> float:
        """Price every access of one warp segment issued at ``earliest``.

        Returns the latest analytic completion time of the segment's local
        stages (``earliest`` if none is later) and appends each remote load
        it starts to ``pending``, in access and line order; the warp waits on
        those events too.  Stores complete when their data leaves the SM (the
        warp does not wait for downstream drain); loads complete on data
        arrival.

        The page-home lookup and the whole L1 -> L2 -> DRAM/remote path of
        every line run inline in this one loop: at several accesses per
        segment, a call per stage per line would dominate the memory
        layer's interpreter cost.  Loads do the L1 and L2 lookups
        (:meth:`Cache.access <repro.memory.cache.Cache.access>`) and the
        local DRAM read (:meth:`DramChannel.read
        <repro.memory.dram.DramChannel.read>`) in place; stores still call
        :meth:`Cache.access` on the L2.
        """
        counters = self.counters
        latencies = self.latencies
        # Every stage's time is a fixed offset from the issue time: the L1
        # stage's exit is when a store leaves the SM, an L1 hit returns and
        # a miss reaches the L2; the L2 stage's exit is an L2 hit's return.
        shared_done = earliest + latencies.shared
        at_l2 = earliest + latencies.l1
        after_l2 = at_l2 + latencies.l2
        gpm_id = self.gpm_id
        placement = self.placement
        page_homes = placement._homes
        page_shift = placement._page_shift
        l1 = self.l1s[sm_index]
        if l1 is None:
            l1 = self.l1(sm_index)
        l2 = self.l2
        # The load path's L1 and L2 lookups are Cache.access for a load,
        # done in place on the two tag stores (see the loop).
        l1_shift = l1._line_shift
        l1_sets = l1._sets
        l1_num_sets = l1._num_sets
        l1_stats = l1.stats
        l2_shift = l2._line_shift
        l2_sets = l2._sets
        l2_num_sets = l2._num_sets
        l2_stats = l2.stats
        trace = self._trace
        # Enum member lookups go through a descriptor: resolve once per call.
        shared = MemSpace.SHARED
        completion = earliest
        for access in accesses:
            if access.space is shared:
                counters.shared_rf_txns += 1
                if shared_done > completion:
                    completion = shared_done
                continue
            address = access.address
            size = access.size
            is_store = access.is_store
            # Every line the access touches, in address order; the aligned
            # one-line accesses the generators emit skip building a range.
            if size <= CACHE_LINE_BYTES and not address % CACHE_LINE_BYTES:
                lines = (address,)
            else:
                lines = range(
                    address - address % CACHE_LINE_BYTES,
                    address + size,
                    CACHE_LINE_BYTES,
                )
            for line_address in lines:
                counters.l1_rf_txns += 1
                # Mapped pages are a dict hit; only a first touch needs
                # PagePlacement.home, which assigns the page its home.
                home = page_homes.get(line_address >> page_shift)
                if home is None:
                    home = placement.home(line_address, gpm_id)
                if home == gpm_id:
                    counters.local_accesses += 1
                else:
                    counters.remote_accesses += 1

                if is_store:
                    # Write-through, no-write-allocate at L1: stores bypass
                    # the L1 tag store entirely and head downstream.
                    done = at_l2
                    if home == gpm_id:
                        counters.l2_l1_txns += SECTORS_PER_LINE
                        if l2.access(line_address, True, home)[1]:
                            self._writeback_local(at_l2)
                    else:
                        # Remote store: bypass the local L2 and stream the
                        # payload to the home DRAM, so remote-homed lines
                        # are never dirty in any module L2.  Fire-and-forget:
                        # the warp does not wait, but the drain reserves
                        # each resource at actual arrival time.
                        RemoteStore(self, home, at_l2)
                    if done > completion:
                        completion = done
                    continue

                # L1 load lookup: Cache.access(line_address, False, home).
                tag = line_address >> l1_shift
                index = tag % l1_num_sets
                ways = l1_sets[index]
                if ways is None:
                    ways = l1_sets[index] = []
                elif tag in ways:
                    if ways[0] != tag:
                        ways.remove(tag)
                        ways.insert(0, tag)
                    l1_stats.read_hits += 1
                    counters.l1_hits += 1
                    if at_l2 > completion:
                        completion = at_l2
                    continue
                l1_stats.read_misses += 1
                if len(ways) >= l1._associativity:
                    # The L1 never holds a dirty line (write-through, and
                    # stores never reach it), so no eviction writes back.
                    del l1._homes[ways.pop()]
                    l1_stats.evictions += 1
                ways.insert(0, tag)
                l1._homes[tag] = home
                counters.l1_misses += 1
                if trace:
                    self._tracer.instant(self._track, "l1.miss", earliest)
                counters.l2_l1_txns += SECTORS_PER_LINE

                # L2 load lookup and fill: Cache.access(line_address, False,
                # home) on the write-back, write-allocate module L2.
                tag = line_address >> l2_shift
                index = tag % l2_num_sets
                ways = l2_sets[index]
                if ways is None:
                    ways = l2_sets[index] = []
                elif tag in ways:
                    if ways[0] != tag:
                        ways.remove(tag)
                        ways.insert(0, tag)
                    l2_stats.read_hits += 1
                    counters.l2_hits += 1
                    if after_l2 > completion:
                        completion = after_l2
                    continue
                l2_stats.read_misses += 1
                dirty_evicted = False
                if len(ways) >= l2._associativity:
                    victim = ways.pop()
                    del l2._homes[victim]
                    l2_stats.evictions += 1
                    dirty = l2._dirty
                    if victim in dirty:
                        dirty.remove(victim)
                        l2_stats.dirty_evictions += 1
                        dirty_evicted = True
                ways.insert(0, tag)
                l2._homes[tag] = home
                if dirty_evicted:
                    self._writeback_local(at_l2)
                counters.l2_misses += 1
                if trace:
                    self._tracer.instant(
                        self._track, "l2.miss", at_l2, args={"home": home}
                    )
                if home != gpm_id:
                    pending.append(RemoteLoad(self, line_address, home, after_l2))
                    continue

                # Local DRAM read: DramChannel.read(CACHE_LINE_BYTES,
                # after_l2), its _service reservation done in place.
                counters.dram_l2_txns += SECTORS_PER_LINE
                dram = self.dram
                dram.reads += 1
                dram.bytes_read += CACHE_LINE_BYTES
                server = dram.server
                free_at = server.free_at
                service = CACHE_LINE_BYTES / server.rate
                finish = (free_at if free_at > after_l2 else after_l2) + service
                server.free_at = finish
                server.busy_time += service
                server.units_served += CACHE_LINE_BYTES
                server.requests += 1
                queued = finish - service - after_l2
                dram._queue_cycles.add(queued if queued > 0.0 else 0.0)
                if dram._trace:
                    dram._tracer.complete(
                        dram.name, "read", finish - service, service,
                        args={"bytes": CACHE_LINE_BYTES},
                    )
                done = finish + dram.config.latency_cycles
                if done > completion:
                    completion = done
        return completion

    # ------------------------------------------------------------------ writebacks

    def _writeback_local(self, earliest: float) -> None:
        """Drain one dirty local line to local DRAM (fire-and-forget)."""
        self.counters.dram_l2_txns += SECTORS_PER_LINE
        self.counters.dirty_writebacks += 1
        self.dram.write(CACHE_LINE_BYTES, earliest)

    # ------------------------------------------------------------------ wiring

    def _require_topology(self) -> Topology:
        if self.topology is None:
            raise ConfigError(
                f"GPM {self.gpm_id} has remote traffic but no interconnect;"
                " single-GPM configs must keep all pages local"
            )
        return self.topology

    def connect(self, topology: Topology | None, peers: list["GpmMemory"]) -> None:
        """Late wiring of the interconnect and peer GPM memories."""
        self.topology = topology
        self.peers = peers


class RemoteLoad(Event):
    """Multi-stage remote load: request out, home access, data back.

    Each resource is reserved when the message actually reaches it, so links
    and the home DRAM stay work-conserving under NUMA load.  The load is
    itself the event the warp waits on: it succeeds after the data arrives.
    """

    __slots__ = ("memory", "line_address", "home", "start", "spawned_at")

    def __init__(
        self, memory: GpmMemory, line_address: int, home: int, start: float
    ):
        engine = memory.engine
        # Event's own fields, set here rather than through Event.__init__:
        # one call fewer on every remote L2 miss.
        self.engine = engine
        self._callbacks = []
        self.triggered = False
        self.value = None
        self.memory = memory
        self.line_address = line_address
        self.home = home
        self.start = start
        self.spawned_at = engine.now
        engine._nowq.append((self._begin, None))

    def _begin(self, _value: None) -> None:
        memory = self.memory
        memory._require_topology()
        memory.engine.call_at(self.start, self._request)

    def _request(self, _value: None) -> None:
        memory = self.memory
        topology = memory.topology
        src, home = memory.gpm_id, self.home
        route = topology.routes[src, home]
        arrival = topology.transfer_time(route, REQUEST_HEADER_BYTES)
        counters = memory.counters
        counters.inter_gpm_bytes += REQUEST_HEADER_BYTES
        counters.inter_gpm_byte_hops += REQUEST_HEADER_BYTES * route.hops
        counters.switch_byte_traversals += (
            REQUEST_HEADER_BYTES * route.switch_traversals
        )
        memory.engine.call_at(arrival, self._serve)

    def _serve(self, _value: None) -> None:
        memory = self.memory
        engine = memory.engine
        peer = memory.peers[self.home]
        if peer.l2.probe(self.line_address):
            # Served out of the home GPM's module L2 (probe only: no fill,
            # no LRU churn from remote readers).  The transaction happens on
            # the home module's hardware, so it lands in the home shard.
            peer.counters.l2_l1_txns += SECTORS_PER_LINE
            data_ready = engine.now + peer.latencies.l2
        else:
            peer.counters.dram_l2_txns += SECTORS_PER_LINE
            data_ready = peer.dram.read(CACHE_LINE_BYTES)
        engine.call_at(data_ready, self._respond)

    def _respond(self, _value: None) -> None:
        memory = self.memory
        topology = memory.topology
        src, home = memory.gpm_id, self.home
        route = topology.routes[home, src]
        arrival = topology.transfer_time(route, CACHE_LINE_BYTES)
        counters = memory.counters
        counters.inter_gpm_bytes += CACHE_LINE_BYTES
        counters.inter_gpm_byte_hops += CACHE_LINE_BYTES * route.hops
        counters.switch_byte_traversals += (
            CACHE_LINE_BYTES * route.switch_traversals
        )
        memory.engine.call_at(arrival, self._finish)

    def _finish(self, _value: None) -> None:
        memory = self.memory
        now = memory.engine.now
        start = self.start
        memory._remote_load_cycles.add(now - start)
        if memory._trace:
            tracer = memory._tracer
            tracer.complete(
                memory._track, f"remote_load->g{self.home}", start, now - start
            )
            tracer.complete(
                "engine",
                memory._rload_name,
                self.spawned_at,
                now - self.spawned_at,
            )
        self.succeed()


class RemoteStore:
    """Multi-stage remote store drain: payload out, home DRAM write."""

    __slots__ = ("memory", "home", "start", "spawned_at")

    def __init__(self, memory: GpmMemory, home: int, start: float):
        engine = memory.engine
        self.memory = memory
        self.home = home
        self.start = start
        self.spawned_at = engine.now
        engine.schedule(0.0, self._begin)

    def _begin(self, _value: None) -> None:
        memory = self.memory
        memory._require_topology()
        memory.engine.call_at(self.start, self._send)

    def _send(self, _value: None) -> None:
        memory = self.memory
        topology = memory.topology
        src, home = memory.gpm_id, self.home
        route = topology.routes[src, home]
        arrival = topology.transfer_time(route, CACHE_LINE_BYTES)
        counters = memory.counters
        counters.inter_gpm_bytes += CACHE_LINE_BYTES
        counters.inter_gpm_byte_hops += CACHE_LINE_BYTES * route.hops
        counters.switch_byte_traversals += (
            CACHE_LINE_BYTES * route.switch_traversals
        )
        memory.engine.call_at(arrival, self._write)

    def _write(self, _value: None) -> None:
        memory = self.memory
        # The drain writes the home module's DRAM: home shard, as above.
        peer = memory.peers[self.home]
        peer.counters.dram_l2_txns += SECTORS_PER_LINE
        peer.dram.write(CACHE_LINE_BYTES)
        now = memory.engine.now
        start = self.start
        memory._remote_store_cycles.add(now - start)
        if memory._trace:
            tracer = memory._tracer
            tracer.complete(
                memory._track, f"remote_store->g{self.home}", start, now - start
            )
            tracer.complete(
                "engine",
                memory._rstore_name,
                self.spawned_at,
                now - self.spawned_at,
            )
