"""Aggregate interconnect traffic counters consumed by the energy model."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TrafficCounters:
    """Network-wide totals for one simulation run.

    ``byte_hops`` is the energy-relevant quantity: a payload crossing three
    links costs three link traversals of energy.  ``switch_byte_traversals``
    tracks bytes that additionally passed through a switch fabric (charged the
    extra per-bit switch energy of Section V-C).
    """

    messages: int = 0
    bytes_injected: int = 0
    byte_hops: int = 0
    switch_byte_traversals: int = 0

    def record(self, nbytes: int, hops: int, switch_traversals: int) -> None:
        """Fold one transfer into the totals."""
        self.messages += 1
        self.bytes_injected += nbytes
        self.byte_hops += nbytes * hops
        self.switch_byte_traversals += nbytes * switch_traversals

    def merge(self, other: "TrafficCounters") -> None:
        """Accumulate another counter set into this one."""
        self.messages += other.messages
        self.bytes_injected += other.bytes_injected
        self.byte_hops += other.byte_hops
        self.switch_byte_traversals += other.switch_byte_traversals
