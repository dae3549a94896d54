"""A set-associative, write-through/no-write-allocate cache model.

The model is *functional plus counters*: it tracks tag state exactly (true
LRU), and reports hits/misses/evictions so the timing layer can charge
latencies and the energy layer can count transactions.  It does not store
data — the simulator never needs values, only movement.

Write policy: GPU L1s on the modeled (Kepler-class) machine are write-through
and no-write-allocate for global stores; L2 is write-back with write-allocate.
Both behaviours are selectable per instance via :class:`CacheConfig`.

Each cache line remembers the *home GPM* of its page so module-side L2s can
bulk-invalidate remote lines at kernel boundaries (software coherence).

Two implementations share the exact same contract:

* :class:`Cache` — the production tag store on the simulator hot path.  Each
  set is a list of bare tags ordered MRU-first, created lazily on first
  touch, so a lookup is one C-level ``in`` and an LRU update one
  ``remove``/``insert``.  A tag maps to exactly one set, so the per-line
  home GPM and dirty bit live in two cache-wide structures keyed by tag
  (a dict and a set) that only the miss and store paths touch.
* :class:`ReferenceCache` — the original per-line-object implementation,
  kept verbatim as the executable specification.  The property suite in
  ``tests/differential/test_cache_equivalence.py`` replays random access
  streams through both and requires identical hit/miss/writeback/eviction
  sequences and :class:`CacheStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import CACHE_LINE_BYTES, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy for one cache instance."""

    capacity_bytes: int
    line_bytes: int = CACHE_LINE_BYTES
    associativity: int = 4
    write_allocate: bool = False
    write_back: bool = False
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.associativity <= 0:
            raise ConfigError(f"{self.name}: associativity must be positive")
        lines = self.capacity_bytes // self.line_bytes
        if lines == 0:
            raise ConfigError(f"{self.name}: capacity smaller than one line")
        if lines % self.associativity != 0:
            raise ConfigError(
                f"{self.name}: line count {lines} not divisible by"
                f" associativity {self.associativity}"
            )

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache instance."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another instance's counters into this one."""
        self.read_hits += other.read_hits
        self.read_misses += other.read_misses
        self.write_hits += other.write_hits
        self.write_misses += other.write_misses
        self.evictions += other.evictions
        self.dirty_evictions += other.dirty_evictions
        self.invalidations += other.invalidations


class Cache:
    """True-LRU set-associative cache with per-line home-GPM tracking."""

    __slots__ = (
        "config",
        "stats",
        "_line_shift",
        "_num_sets",
        "_associativity",
        "_write_back",
        "_write_allocate",
        "_sets",
        "_homes",
        "_dirty",
    )

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._write_back = config.write_back
        self._write_allocate = config.write_allocate
        # Sets are created lazily: large caches in large GPM counts touch a
        # small fraction of their sets in a short kernel, and a [None] * n
        # backbone is much cheaper to build than n empty lists.
        self._sets: list[list[int] | None] = [None] * self._num_sets
        #: Home GPM of every resident tag.
        self._homes: dict[int, int] = {}
        #: Resident tags holding dirty data (write-back caches only).
        self._dirty: set[int] = set()

    def probe(self, address: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        tag = address >> self._line_shift
        ways = self._sets[tag % self._num_sets]
        return ways is not None and tag in ways

    def access(
        self, address: int, is_store: bool = False, home: int = 0
    ) -> tuple[bool, bool]:
        """Perform one access.

        Args:
            address: byte address.
            is_store: store accesses follow the configured write policy.
            home: home GPM of the page backing this address (for coherence).

        Returns:
            ``(hit, dirty_eviction)`` — ``dirty_eviction`` is True when the
            access displaced a dirty line that must be written downstream.

        This is the one definition of a lookup.  The load path of
        :meth:`GpmMemory.access_segment
        <repro.memory.hierarchy.GpmMemory.access_segment>` repeats its load
        branch in place on the L1 and the L2; the golden counters and the
        differential pins hold that copy to it.
        """
        tag = address >> self._line_shift
        index = tag % self._num_sets
        ways = self._sets[index]
        if ways is None:
            ways = self._sets[index] = []
        elif tag in ways:
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            if is_store:
                self.stats.write_hits += 1
                if self._write_back:
                    self._dirty.add(tag)
            else:
                self.stats.read_hits += 1
            return True, False

        # Miss path.
        stats = self.stats
        if is_store:
            stats.write_misses += 1
            if not self._write_allocate:
                return False, False
        else:
            stats.read_misses += 1

        homes = self._homes
        dirty_evicted = False
        if len(ways) >= self._associativity:
            victim = ways.pop()
            del homes[victim]
            stats.evictions += 1
            dirty = self._dirty
            if victim in dirty:
                dirty.remove(victim)
                stats.dirty_evictions += 1
                dirty_evicted = True
        ways.insert(0, tag)
        homes[tag] = home
        if is_store and self._write_back:
            self._dirty.add(tag)
        return False, dirty_evicted

    def invalidate_where(self, predicate) -> int:
        """Drop every line for which ``predicate(home_gpm) is True``.

        Models the bulk flash-invalidate of software coherence.  Dirty lines
        are dropped too: the software protocol guarantees writers flushed
        before the boundary, so no writeback traffic is generated here.

        Returns the number of lines invalidated.
        """
        homes = self._homes
        # Lines share a handful of homes: ask the predicate once per home.
        verdicts = {home: predicate(home) for home in set(homes.values())}
        doomed = [tag for tag, home in homes.items() if verdicts[home]]
        if doomed:
            sets = self._sets
            num_sets = self._num_sets
            for tag in doomed:
                sets[tag % num_sets].remove(tag)
                del homes[tag]
            self._dirty.difference_update(doomed)
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def flush(self) -> int:
        """Invalidate everything (kernel-boundary flush of a whole cache)."""
        return self.invalidate_where(lambda _home: True)

    @property
    def resident_lines(self) -> int:
        return len(self._homes)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cache({cfg.name!r}, {cfg.capacity_bytes // 1024}KiB,"
            f" {cfg.associativity}-way, {cfg.line_bytes}B lines)"
        )


class _Line:
    """Tag-store entry of the reference implementation."""

    __slots__ = ("tag", "dirty", "home")

    def __init__(self, tag: int, home: int):
        self.tag = tag
        self.dirty = False
        self.home = home


class ReferenceCache:
    """The original per-line-object tag store, kept as the executable spec.

    Bit-for-bit the behaviour :class:`Cache` must reproduce; only used by the
    differential property suite and available for ad-hoc cross-checking.  Do
    not put it on a hot path.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._write_back = config.write_back
        self._write_allocate = config.write_allocate
        # Each set is a list ordered MRU-first; lists are tiny (associativity).
        self._sets: list[list[_Line]] = [[] for _ in range(self._num_sets)]

    def _locate(self, address: int) -> tuple[int, int]:
        line_addr = address >> self._line_shift
        return line_addr % self._num_sets, line_addr

    def probe(self, address: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        set_index, tag = self._locate(address)
        return any(line.tag == tag for line in self._sets[set_index])

    def access(
        self, address: int, is_store: bool = False, home: int = 0
    ) -> tuple[bool, bool]:
        """Perform one access (same contract as :meth:`Cache.access`)."""
        tag = address >> self._line_shift
        ways = self._sets[tag % self._num_sets]
        stats = self.stats
        position = 0
        for line in ways:
            if line.tag == tag:
                if position:
                    del ways[position]
                    ways.insert(0, line)
                if is_store:
                    stats.write_hits += 1
                    if self._write_back:
                        line.dirty = True
                else:
                    stats.read_hits += 1
                return True, False
            position += 1

        # Miss path.
        if is_store:
            stats.write_misses += 1
            if not self._write_allocate:
                return False, False
        else:
            stats.read_misses += 1

        dirty_evicted = False
        if len(ways) >= self._associativity:
            victim = ways.pop()
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
                dirty_evicted = True
        new_line = _Line(tag, home)
        if is_store and self._write_back:
            new_line.dirty = True
        ways.insert(0, new_line)
        return False, dirty_evicted

    def invalidate_where(self, predicate) -> int:
        """Drop every line for which ``predicate(home_gpm) is True``."""
        invalidated = 0
        for ways in self._sets:
            if not ways:
                continue
            keep = [line for line in ways if not predicate(line.home)]
            invalidated += len(ways) - len(keep)
            ways[:] = keep
        self.stats.invalidations += invalidated
        return invalidated

    def flush(self) -> int:
        """Invalidate everything (kernel-boundary flush of a whole cache)."""
        return self.invalidate_where(lambda _home: True)

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"ReferenceCache({cfg.name!r}, {cfg.capacity_bytes // 1024}KiB,"
            f" {cfg.associativity}-way, {cfg.line_bytes}B lines)"
        )
