"""Software coherence for module-side L2 caches.

In the 2-GPM-and-larger configurations the L2 moves from the memory side to
the module side (Section V-A1), so a GPM's L2 may cache lines whose home DRAM
lives on another GPM.  Hardware coherence is not assumed; instead, as in the
MCM-GPU proposals, coherence is maintained *in software* at kernel boundaries:
when a kernel completes, every L2 flash-invalidates the remote-homed lines it
cached during the kernel, so the next kernel cannot observe stale remote data.

The flash invalidate is modeled as instantaneous and free (it is a tag-state
bulk clear in hardware); the *cost* of the protocol shows up naturally as the
re-fetch traffic the next kernel generates.
"""

from __future__ import annotations

from repro.memory.cache import Cache


class SoftwareCoherence:
    """Applies kernel-boundary invalidations across a set of module L2s."""

    def __init__(self) -> None:
        self._l2s: list[tuple[int, Cache]] = []
        self.boundaries = 0
        self.lines_invalidated = 0

    def register_l2(self, gpm_id: int, cache: Cache) -> None:
        """Attach one GPM's module-side L2 to the protocol."""
        self._l2s.append((gpm_id, cache))

    def kernel_boundary(self) -> int:
        """Invalidate remote-homed lines in every registered L2.

        Returns the total number of lines dropped at this boundary.
        """
        dropped = 0
        for gpm_id, cache in self._l2s:
            dropped += cache.invalidate_where(lambda home, me=gpm_id: home != me)
        self.boundaries += 1
        self.lines_invalidated += dropped
        return dropped
