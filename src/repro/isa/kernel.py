"""Kernels, launches, and workloads.

A :class:`Kernel` is a grid of cooperative thread arrays (CTAs); every CTA
holds the same number of warps.  Warp programs are produced *lazily* by a
``program_factory(cta_id, warp_id)`` callable so that a 32-GPM run never holds
the full trace in memory — programs are generated when a CTA is dispatched to
an SM and discarded when it retires.

A :class:`Workload` is an ordered list of kernels (real applications launch
many kernels; software cache coherence acts at these boundaries) plus the
metadata the experiment drivers need (name, category).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.isa.program import WarpProgram

ProgramFactory = Callable[[int, int], WarpProgram]


class WorkloadCategory(enum.Enum):
    """Table II classification: compute- vs memory-bandwidth-intensive."""

    COMPUTE = "C"
    MEMORY = "M"


@dataclass
class Kernel:
    """One kernel launch shape.

    Attributes:
        name: identifier used in per-kernel reports.
        num_ctas: grid size; fixed across scaling points (strong scaling).
        warps_per_cta: CTA size in warps.
        program_factory: builds the warp program for (cta_id, warp_id).
    """

    name: str
    num_ctas: int
    warps_per_cta: int
    program_factory: ProgramFactory

    def __post_init__(self) -> None:
        if self.num_ctas <= 0:
            raise TraceError(f"kernel {self.name!r}: num_ctas must be positive")
        if self.warps_per_cta <= 0:
            raise TraceError(f"kernel {self.name!r}: warps_per_cta must be positive")

    def cta_programs(self, cta_id: int) -> list[WarpProgram]:
        """Materialize all of one CTA's warp programs, in warp order.

        Factories that support batched synthesis (``build_cta``) produce the
        whole CTA in one vectorized pass; plain ``(cta_id, warp_id)``
        callables fall back to one call per warp.
        """
        if not 0 <= cta_id < self.num_ctas:
            raise TraceError(
                f"kernel {self.name!r}: cta_id {cta_id} out of range"
            )
        build_cta = getattr(self.program_factory, "build_cta", None)
        if build_cta is not None:
            return build_cta(cta_id)
        return [
            self.program_factory(cta_id, warp_id)
            for warp_id in range(self.warps_per_cta)
        ]

    @property
    def total_warps(self) -> int:
        return self.num_ctas * self.warps_per_cta


@dataclass(frozen=True)
class KernelLaunch:
    """A kernel together with its position in the workload's launch stream."""

    kernel: Kernel
    index: int


@dataclass
class Workload:
    """A named sequence of kernel launches with Table II metadata.

    ``interleaved_base``: byte address of the start of the workload's shared
    (non-CTA-partitioned) allocations; the GPU stripes pages at or above this
    address across GPM memories instead of first-touch placing them.  ``None``
    means the workload has no shared allocations worth interleaving.
    """

    name: str
    kernels: list[Kernel]
    category: WorkloadCategory
    description: str = ""
    tags: tuple[str, ...] = field(default_factory=tuple)
    interleaved_base: int | None = None

    def __post_init__(self) -> None:
        if not self.kernels:
            raise TraceError(f"workload {self.name!r} has no kernels")

    @property
    def launches(self) -> list[KernelLaunch]:
        return [KernelLaunch(kernel, i) for i, kernel in enumerate(self.kernels)]

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, category={self.category.value},"
            f" kernels={len(self.kernels)})"
        )
