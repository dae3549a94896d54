"""Intra-SM CTA slot scheduling.

Each SM exposes a fixed number of *CTA slots* (occupancy).  A slot runs one
CTA at a time: it starts all of the CTA's warps, waits for every warp to
retire, then pulls the next CTA from the GPM's work queue.  With ``slots``
concurrent CTAs of ``warps_per_cta`` warps each, the SM holds
``slots * warps_per_cta`` resident warps — the latency-tolerance pool that
lets issue bandwidth stay busy while individual warps wait on memory.

The GPM work queue is shared by the GPM's SMs, giving dynamic load balancing
within a module; *across* modules, CTAs are partitioned statically by the
distributed scheduler in :mod:`repro.gpu.cta_scheduler` so that first-touch
placement localizes each partition's pages.

Slots take their first CTA in (SM, slot) order before any warp runs, so a
share smaller than the GPM's ``num_sms * slots_per_sm`` slots fills SM 0's
slots first, then SM 1's, and leaves the rest idle.  Only the slots that get
a CTA are started, and the GPM builds an SM only when one of its slots is
started.

A slot, like each of its warps (:class:`~repro.sm.warp.Warp`), is an engine
continuation rather than a generator process: a slotted
:class:`~repro.sim.engine.Event` whose stages take exactly the now-queue
slots the generator process took — its start, and the counting barrier its
CTA's warps retire into.  The slot is itself the event the GPM's kernel
share waits on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from itertools import islice
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.isa.kernel import Kernel
from repro.sim.engine import AllOf, Engine, Event
from repro.sim.stats import Accumulator
from repro.sm.warp import Warp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sm.smcore import SmCore


class CtaSlotScheduler:
    """Runs a GPM's CTA queue across that GPM's SMs for one kernel."""

    def __init__(self, engine: Engine, num_sms: int, slots_per_sm: int):
        if num_sms <= 0:
            raise ConfigError("scheduler needs at least one SM")
        if slots_per_sm <= 0:
            raise ConfigError(f"slots_per_sm must be positive, got {slots_per_sm}")
        self.engine = engine
        self.num_sms = num_sms
        self.slots_per_sm = slots_per_sm
        self.ctas_started = 0
        self.ctas_finished = 0

    def run_kernel(
        self,
        kernel: Kernel,
        cta_ids: list[int],
        sm_at: Callable[[int], "SmCore"],
    ) -> Generator:
        """Process generator: execute ``cta_ids`` of ``kernel``; returns when done.

        This is itself run as a process by the GPM; it starts one
        :class:`CtaSlot` per (SM, slot) pair that gets a CTA and waits for
        all of them.  Each slot takes its first CTA before any warp runs, so
        those are the first ``len(cta_ids)`` pairs in (SM, slot) order; any
        other slot would find the queue empty on its first step.  ``sm_at``
        maps a local SM index to that SM, building it if need be; it is an
        argument rather than state so that the scheduler holds no reference
        back to its GPM.
        """
        queue: deque[int] = deque(cta_ids)
        slots = (
            (local, slot)
            for local in range(self.num_sms)
            for slot in range(self.slots_per_sm)
        )
        cta_cycles = self.engine.metrics.accumulator("sm.cta_cycles")
        started = [
            CtaSlot(self, sm_at(local), slot, kernel, queue, cta_cycles)
            for local, slot in islice(slots, len(queue))
        ]
        yield AllOf(started)


class CtaSlot(Event):
    """One CTA slot of an SM, running CTAs from its GPM's queue serially.

    Its warps reach their SM through the slot: it holds the SM's issue
    reservation, compute counter and memory path as bound methods, so a
    warp resolves none of them per segment.
    """

    __slots__ = (
        "scheduler",
        "sm",
        "slot",
        "kernel",
        "queue",
        "spawned_at",
        "local_index",
        "reserve",
        "count_compute",
        "access_segment",
        "_cta_cycles",
        "_started",
        "_running",
    )

    def __init__(
        self,
        scheduler: CtaSlotScheduler,
        sm: "SmCore",
        slot: int,
        kernel: Kernel,
        queue: deque[int],
        cta_cycles: Accumulator,
    ):
        engine = sm.engine
        # Event's own fields, set here rather than through Event.__init__.
        self.engine = engine
        self._callbacks = []
        self.triggered = False
        self.value = None
        self.scheduler = scheduler
        self.sm = sm
        self.slot = slot
        self.kernel = kernel
        self.queue = queue
        self.spawned_at = engine.now
        self.local_index = sm.local_index
        self.reserve = sm.issue.reserve
        self.count_compute = sm.counters.count_compute_map
        self.access_segment = sm.memory.access_segment
        self._cta_cycles = cta_cycles
        engine._nowq.append((self._next_cta, None))

    def _track(self) -> str:
        return f"sm{self.sm.sm_id}.slot{self.slot}"

    def _next_cta(self, _value: Any) -> None:
        """Start the queue's next CTA on this slot, or retire the slot."""
        engine = self.engine
        queue = self.queue
        if not queue:
            tracer = engine.tracer
            if tracer.enabled:
                tracer.complete(
                    "engine",
                    self._track(),
                    self.spawned_at,
                    engine.now - self.spawned_at,
                )
            self.succeed()
            return
        cta_id = queue.popleft()
        self.scheduler.ctas_started += 1
        self._started = started = engine.now
        kernel = self.kernel
        tracer = engine.tracer
        if tracer.enabled:
            tracer.begin(
                self._track(),
                f"{kernel.name}/cta{cta_id}",
                started,
                args={"warps": kernel.warps_per_cta},
            )
        retire = self._warp_retired
        running = 0
        for warp_id, program in enumerate(kernel.cta_programs(cta_id)):
            Warp(self, cta_id, warp_id, program)._callbacks.append(retire)
            running += 1
        self._running = running

    def _warp_retired(self, _value: Any) -> None:
        """Counting barrier over the running CTA's warps."""
        self._running -= 1
        if self._running:
            return
        engine = self.engine
        self.scheduler.ctas_finished += 1
        self.sm.ctas_retired += 1
        self._cta_cycles.add(engine.now - self._started)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.end(self._track(), engine.now)
        self._next_cta(None)
