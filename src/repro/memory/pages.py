"""Page table and placement policies for the NUMA multi-GPM address space.

The scaling study follows prior multi-module GPU work (MCM-GPU, NUMA-aware
GPUs) in using **first-touch** page placement: the first GPM to touch a page
becomes its home, so thread-block-local data lands in local DRAM.  A
round-robin (striped) policy is provided as a baseline for locality ablation
studies.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError
from repro.units import PAGE_BYTES


class PlacementPolicy(enum.Enum):
    """How pages are assigned a home GPM."""

    FIRST_TOUCH = "first_touch"
    STRIPED = "striped"


class PagePlacement:
    """Decides and remembers each page's home GPM."""

    def __init__(
        self,
        num_gpms: int,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
        page_bytes: int = PAGE_BYTES,
        interleaved_from: int | None = None,
    ):
        """``interleaved_from``: byte address above which pages are striped
        across GPMs regardless of policy.  Models how shared allocations
        (graph edges, lookup tables) are interleaved in multi-GPU systems so
        that no single module's memory becomes a traffic hotspot; private,
        CTA-partitioned arrays below the threshold still follow first touch.
        """
        if num_gpms <= 0:
            raise ConfigError(f"num_gpms must be positive, got {num_gpms}")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ConfigError(f"page_bytes must be a power of two, got {page_bytes}")
        self.num_gpms = num_gpms
        self.policy = policy
        self.page_bytes = page_bytes
        self._page_shift = page_bytes.bit_length() - 1
        self._homes: dict[int, int] = {}
        self.first_touches = 0
        self._interleaved_from_page: int | None = (
            None if interleaved_from is None
            else interleaved_from >> self._page_shift
        )

    def set_interleaved_from(self, address: int | None) -> None:
        """Set (or clear) the shared-allocation striping threshold."""
        self._interleaved_from_page = (
            None if address is None else address >> self._page_shift
        )

    def home(self, address: int, toucher_gpm: int) -> int:
        """Home GPM for ``address``; assigns one on first touch.

        Args:
            toucher_gpm: GPM performing the access (the would-be first
                toucher under FIRST_TOUCH).
        """
        page = address >> self._page_shift
        assigned = self._homes.get(page)
        if assigned is not None:
            # Mapped pages dominate (one first touch per page, then an
            # access stream); the toucher validation only guards the
            # assignment below, so the hot path skips it.
            return assigned
        if not 0 <= toucher_gpm < self.num_gpms:
            raise ConfigError(
                f"toucher_gpm {toucher_gpm} out of range [0, {self.num_gpms})"
            )
        interleave = (
            self._interleaved_from_page is not None
            and page >= self._interleaved_from_page
        )
        if interleave or self.policy is PlacementPolicy.STRIPED:
            assigned = page % self.num_gpms
        else:
            assigned = toucher_gpm
        self._homes[page] = assigned
        self.first_touches += 1
        return assigned
