"""Memory hierarchy substrate: caches, DRAM, pages, and software coherence."""

from repro.memory.cache import Cache, CacheConfig, CacheStats
from repro.memory.dram import DramChannel, DramConfig, GDDR5, HBM
from repro.memory.pages import PagePlacement, PlacementPolicy
from repro.memory.coherence import SoftwareCoherence

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "DramChannel",
    "DramConfig",
    "GDDR5",
    "HBM",
    "PagePlacement",
    "PlacementPolicy",
    "SoftwareCoherence",
]
