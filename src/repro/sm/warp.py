"""Warps run as engine continuations.

A warp advances segment by segment (see :mod:`repro.isa.program`): it reserves
issue slots on its SM, prices all of the segment's memory accesses in one call
down the GPM memory path, then sleeps until the slowest dependency resolves.

A :class:`Warp` is not a generator process.  Like the remote memory path's
:class:`~repro.memory.hierarchy.RemoteLoad`, it is a slotted
:class:`~repro.sim.engine.Event` whose bound-method stages the engine calls
directly, and each stage takes exactly the heap or now-queue slot the
generator process it replaced took: its start goes through the now queue,
its sleep until a segment's analytic completion is a heap entry at
``now + (completion - now)``, and its wait on a segment's remote loads is a
single-event wait or a counting barrier.  So ``(time, seq)`` order and
``events_processed`` are those of the generator, and the warp is itself
the event its CTA slot waits on.

Idle accounting, which feeds the EPStall energy term, is done at the SM level
(issue-server busy time vs. elapsed time), because warp-private wait time
overlaps across warps and must not be double counted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.isa.program import WarpProgram
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sm.scheduler import CtaSlot


class Warp(Event):
    """One resident warp of a CTA, run on its slot's SM.

    Execution is software-pipelined one segment deep, mirroring how GPU
    compilers hoist the next iteration's loads above the current iteration's
    consumers: segment ``k+1`` issues while segment ``k``'s memory is still
    in flight, so a warp tolerates one full memory round trip beyond its
    per-segment MLP.  Each :meth:`_issue` issues one segment and then drains
    the previous one: a sleep until its analytic completion
    (:meth:`_timed_out` resumes), then a wait on its remote loads
    (:meth:`_drained` resumes).  The first segment's "previous" is empty, so
    the first two segments issue in the warp's first step.
    """

    __slots__ = (
        "slot",
        "cta_id",
        "warp_id",
        "segments",
        "spawned_at",
        "_index",
        "_completion",
        "_events",
        "_prev_completion",
        "_prev_events",
        "_waiting",
    )

    def __init__(
        self, slot: "CtaSlot", cta_id: int, warp_id: int, program: WarpProgram
    ):
        engine = slot.engine
        # Event's own fields, set here rather than through Event.__init__:
        # one call fewer per warp.
        self.engine = engine
        self._callbacks = []
        self.triggered = False
        self.value = None
        self.slot = slot
        self.cta_id = cta_id
        self.warp_id = warp_id
        self.segments = program.segments
        self.spawned_at = engine.now
        self._index = 0
        self._prev_completion = 0.0
        self._prev_events: list = []
        engine._nowq.append((self._issue, None))

    def _issue(self, _value: Any) -> None:
        """Issue the next segment, then drain the previous one."""
        engine = self.engine
        slot = self.slot
        segments = self.segments
        while True:
            index = self._index
            if index < len(segments):
                segment = segments[index]
                self._index = index + 1
                issue_done = slot.reserve(segment.issue_slots)
                slot.count_compute(segment.compute)
                # One call per segment straight into the GPM memory path,
                # which prices every access and appends each remote load it
                # starts to ``events``.
                events: list = []
                self._completion = slot.access_segment(
                    slot.local_index, segment.accesses, issue_done, events
                )
                self._events = events
            else:
                self._events = None
            completion = self._prev_completion
            if completion > engine.now:
                # The heap entry at now + (completion - now) that the
                # generator's Timeout took.
                engine.call_at(completion, self._timed_out)
                return
            if self._prev_events:
                self._wait(self._prev_events)
                return
            # The previous segment is drained without a wait: go on in this
            # same step, as the generator did.
            events = self._events
            if events is None:
                self._finish()
                return
            self._prev_completion = self._completion
            self._prev_events = events

    def _timed_out(self, _value: Any) -> None:
        """The previous segment's analytic completion time has come."""
        if self._prev_events:
            self._wait(self._prev_events)
        else:
            self._drained(None)

    def _wait(self, events: list) -> None:
        """Wait on the previous segment's remote loads.

        One load is a plain event wait; several share a counting barrier,
        :meth:`_barrier_hit`, which resumes the warp when the last succeeds.
        An already-succeeded event resumes the warp through the now queue.
        """
        if len(events) == 1:
            event = events[0]
            if event.triggered:
                self.engine._nowq.append((self._drained, event.value))
            else:
                event._callbacks.append(self._drained)
            return
        barrier = self._barrier_hit
        waiting = 0
        for event in events:
            if not event.triggered:
                event._callbacks.append(barrier)
                waiting += 1
        if waiting == 0:
            self.engine._nowq.append((self._drained, None))
        else:
            self._waiting = waiting

    def _barrier_hit(self, _value: Any) -> None:
        self._waiting -= 1
        if self._waiting == 0:
            self._drained(None)

    def _drained(self, _value: Any) -> None:
        """The previous segment is done: issue on, or retire the warp."""
        events = self._events
        if events is None:
            self._finish()
            return
        self._prev_completion = self._completion
        self._prev_events = events
        self._issue(None)

    def _finish(self) -> None:
        engine = self.engine
        tracer = engine.tracer
        if tracer.enabled:
            tracer.complete(
                "engine",
                f"cta{self.cta_id}.w{self.warp_id}",
                self.spawned_at,
                engine.now - self.spawned_at,
            )
        self.succeed()

    def __repr__(self) -> str:
        return f"Warp(cta={self.cta_id}, warp={self.warp_id})"
