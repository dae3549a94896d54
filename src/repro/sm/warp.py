"""Warp execution contexts.

A warp advances segment by segment (see :mod:`repro.isa.program`): it reserves
issue slots on its SM, prices all of the segment's memory accesses in one call
down the GPM memory path, then sleeps until the slowest dependency resolves.
Each segment costs exactly one simulation event.

The warp keeps only progress counts (instructions and segments executed).
Idle accounting, which feeds the EPStall energy term, is done at the SM level
(issue-server busy time vs. elapsed time), because warp-private wait time
overlaps across warps and must not be double counted.
"""

from __future__ import annotations

import enum
from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.isa.program import WarpProgram
from repro.sim.engine import AllOf, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sm.smcore import SmCore


class WarpState(enum.Enum):
    """Lifecycle of a warp context."""

    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


class WarpContext:
    """One resident warp: identity, program, and progress statistics.

    Contexts are poolable: a CTA slot runs its CTAs serially, so the
    scheduler keeps one context per resident-warp slot and :meth:`reset`\\ s
    it for each new CTA instead of allocating ``ctas x warps_per_cta``
    contexts (plus their scratch buffers) over a kernel's lifetime.
    """

    __slots__ = (
        "cta_id",
        "warp_id",
        "program",
        "state",
        "instructions_executed",
        "segments_executed",
        "_timeout",
        "_pending",
        "_prev_events",
    )

    def __init__(self, cta_id: int, warp_id: int, program: WarpProgram):
        # Scratch reused across every body() this context ever runs: the
        # engine consumes a yielded Timeout synchronously and AllOf copies
        # its event list, so one mutable timeout and two ping-pong pending
        # buffers serve a whole program without per-segment allocation —
        # and, pooled, without per-CTA allocation either.
        self._timeout = Timeout(0.0)
        self._pending: list = []
        self._prev_events: list = []
        self.reset(cta_id, warp_id, program)

    def reset(self, cta_id: int, warp_id: int, program: WarpProgram) -> None:
        """Rebind this context to a new (CTA, warp) and clear its stats."""
        self.cta_id = cta_id
        self.warp_id = warp_id
        self.program = program
        self.state = WarpState.READY
        self.instructions_executed = 0
        self.segments_executed = 0

    def body(self, sm: "SmCore") -> Generator:
        """Process generator executing this warp on ``sm``.

        Execution is software-pipelined one segment deep, mirroring how GPU
        compilers hoist the next iteration's loads above the current
        iteration's consumers: segment ``k+1`` issues while segment ``k``'s
        memory is still in flight, so a warp tolerates one full memory round
        trip beyond its per-segment MLP.
        """
        engine = sm.engine
        reserve = sm.issue.reserve
        # One call per segment straight into the GPM memory path, which
        # prices every access and appends remote loads to ``pending``.
        access_segment = sm.memory.access_segment
        local_index = sm.local_index
        count_compute = sm.counters.count_compute_map
        # Pooled scratch (see __init__): cleared here because a recycled
        # context may carry the previous CTA's drained event lists.
        timeout = self._timeout
        pending = self._pending
        prev_events = self._prev_events
        pending.clear()
        prev_events.clear()
        self.state = WarpState.RUNNING
        prev_completion = 0.0
        prev_waiting = False
        for segment in self.program:
            issue_done = reserve(segment.issue_slots)
            count_compute(segment.compute)
            pending.clear()
            completion = access_segment(
                local_index, segment.accesses, issue_done, pending
            )
            self.instructions_executed += segment.total_instructions
            self.segments_executed += 1
            # Drain the PREVIOUS segment before moving past this one.
            if prev_completion > engine.now:
                timeout.delay = prev_completion - engine.now
                yield timeout
            if prev_waiting:
                if len(prev_events) == 1:
                    yield prev_events[0]
                else:
                    yield AllOf(prev_events)
            prev_completion = completion
            prev_waiting = bool(pending)
            pending, prev_events = prev_events, pending
        if prev_completion > engine.now:
            timeout.delay = prev_completion - engine.now
            yield timeout
        if prev_waiting:
            if len(prev_events) == 1:
                yield prev_events[0]
            else:
                yield AllOf(prev_events)
        self.state = WarpState.FINISHED

    def __repr__(self) -> str:
        return (
            f"WarpContext(cta={self.cta_id}, warp={self.warp_id},"
            f" state={self.state.value})"
        )
