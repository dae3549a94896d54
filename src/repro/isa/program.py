"""Warp programs: the execution unit consumed by the performance simulator.

A warp program is a sequence of :class:`Segment` objects.  Each segment is a
run of compute instructions followed by a group of memory accesses the warp
issues together; the warp stalls at the end of the segment until all of its
accesses have returned (a per-segment dependence barrier).  This matches how
GPU compilers schedule loads early and consume them later, and gives the
simulator a natural memory-level-parallelism knob: the number of accesses per
segment is the MLP the warp exposes.

Segments keep *aggregate* compute counts (``{opcode: count}``) rather than
instruction lists, so a warp advances in O(1) events per segment instead of
per instruction — the key to simulating 32-GPM systems in pure Python.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.isa.opcodes import MemSpace, Opcode


class MemAccess:
    """One coalesced warp-level memory access.

    Attributes:
        address: byte address (the hierarchy aligns it to its line size).
        size: bytes moved for the warp (128 for a fully coalesced access).
        is_store: True for stores.
        space: GLOBAL accesses traverse L1/L2/DRAM; SHARED accesses hit the
            on-SM scratchpad and never leave the SM.

    A plain slotted class rather than a dataclass: the generators construct
    one per access in the simulator's hot path.
    """

    __slots__ = ("address", "size", "is_store", "space")

    def __init__(
        self,
        address: int,
        size: int,
        is_store: bool = False,
        space: MemSpace = MemSpace.GLOBAL,
    ):
        if address < 0:
            raise TraceError(f"negative address: {address!r}")
        if size <= 0:
            raise TraceError(f"non-positive access size: {size!r}")
        self.address = address
        self.size = size
        self.is_store = is_store
        self.space = space

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemAccess):
            return NotImplemented
        return (
            self.address == other.address
            and self.size == other.size
            and self.is_store == other.is_store
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((self.address, self.size, self.is_store, self.space))

    def __repr__(self) -> str:
        return (
            f"MemAccess(address={self.address!r}, size={self.size!r},"
            f" is_store={self.is_store!r}, space={self.space!r})"
        )


class Segment:
    """A run of compute work followed by a barrier-ed group of memory accesses.

    ``issue_slots`` (issue-stage occupancy, including one slot per memory op)
    and ``total_instructions`` are computed once at construction — segments
    are created in the simulator's hot path and consumed exactly once.
    """

    __slots__ = ("compute", "accesses", "issue_slots", "total_instructions")

    def __init__(
        self,
        compute: dict[Opcode, int] | None = None,
        accesses: tuple[MemAccess, ...] = (),
    ):
        self.compute = compute if compute is not None else {}
        self.accesses = accesses
        slots = 0.0
        instructions = 0
        for opcode, count in self.compute.items():
            if not opcode.is_compute:
                raise TraceError(
                    f"segment compute counts may only hold compute opcodes,"
                    f" got {opcode}"
                )
            if count < 0:
                raise TraceError(
                    f"negative instruction count for {opcode}: {count}"
                )
            slots += count * opcode.issue_weight
            instructions += count
        self.issue_slots = slots + float(len(accesses))
        self.total_instructions = instructions + len(accesses)

    @classmethod
    def prebuilt(
        cls,
        compute: dict[Opcode, int],
        accesses: tuple[MemAccess, ...],
        issue_slots: float,
        total_instructions: int,
    ) -> "Segment":
        """Hot-path constructor for pre-validated, pre-aggregated parts.

        The workload generators validate their compute mix once per kernel
        and reuse the aggregate costs for every segment; re-deriving them per
        segment would dominate program materialization.
        """
        segment = object.__new__(cls)
        segment.compute = compute
        segment.accesses = accesses
        segment.issue_slots = issue_slots
        segment.total_instructions = total_instructions
        return segment

    @property
    def compute_instructions(self) -> int:
        """Total compute instructions in the segment."""
        return self.total_instructions - len(self.accesses)

    def __repr__(self) -> str:
        return (
            f"Segment({self.compute_instructions} compute,"
            f" {len(self.accesses)} accesses)"
        )


class WarpProgram:
    """An ordered, immutable sequence of segments executed by one warp."""

    __slots__ = ("segments",)

    def __init__(self, segments: list[Segment] | tuple[Segment, ...]):
        if not segments:
            raise TraceError("a warp program needs at least one segment")
        self.segments = tuple(segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def total_instructions(self) -> int:
        return sum(segment.total_instructions for segment in self.segments)

    @property
    def total_accesses(self) -> int:
        return sum(len(segment.accesses) for segment in self.segments)
