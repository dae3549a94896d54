"""Intra-SM CTA slot scheduling.

Each SM exposes a fixed number of *CTA slots* (occupancy).  A slot runs one
CTA at a time: it spawns all of the CTA's warps as concurrent processes,
waits for every warp to retire, then pulls the next CTA from the GPM's work
queue.  With ``slots`` concurrent CTAs of ``warps_per_cta`` warps each, the SM
holds ``slots * warps_per_cta`` resident warps — the latency-tolerance pool
that lets issue bandwidth stay busy while individual warps wait on memory.

The GPM work queue is shared by the GPM's SMs, giving dynamic load balancing
within a module; *across* modules, CTAs are partitioned statically by the
distributed scheduler in :mod:`repro.gpu.cta_scheduler` so that first-touch
placement localizes each partition's pages.

Slots take their first CTA in (SM, slot) order before any warp runs, so a
share smaller than the GPM's ``num_sms * slots_per_sm`` slots fills SM 0's
slots first, then SM 1's, and leaves the rest idle.  Only the slots that get
a CTA are started as processes, and the GPM builds an SM only when one of
its slots is started.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from itertools import islice
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.isa.kernel import Kernel
from repro.sim.engine import AllOf, Engine
from repro.sm.warp import WarpContext

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

        This is itself run as a process by the GPM; it spawns one process per
        (SM, slot) pair that gets a CTA and waits for all of them.  Each slot
        takes its first CTA before any warp runs, so those are the first
        ``len(cta_ids)`` pairs in (SM, slot) order; any other slot would find
        the queue empty on its first step.  ``sm_at`` maps a local SM index
        to that SM, building it if need be; it is an argument rather than
        state so that the scheduler holds no reference back to its GPM.
        """
        queue: deque[int] = deque(cta_ids)
        engine = self.engine
        slots = (
            (local, slot)
            for local in range(self.num_sms)
            for slot in range(self.slots_per_sm)
        )
        slot_processes = []
        for local, slot in islice(slots, len(queue)):
            sm = sm_at(local)
            slot_processes.append(
                engine.process(
                    self._slot_body(sm, slot, kernel, queue),
                    name=f"sm{sm.sm_id}.slot{slot}",
                )
            )
        yield AllOf([process.done for process in slot_processes])

    def _slot_body(
        self, sm: "SmCore", slot: int, kernel: Kernel, queue: deque[int]
    ) -> Generator:
        engine = sm.engine
        tracer = engine.tracer
        cta_cycles = engine.metrics.accumulator("sm.cta_cycles")
        track = f"sm{sm.sm_id}.slot{slot}"
        # Warp-context pool: this slot runs CTAs serially, so every CTA's
        # warp i can recycle the same context (and its scratch buffers)
        # instead of allocating ctas x warps_per_cta contexts per kernel.
        pool: list[WarpContext] = []
        while queue:
            cta_id = queue.popleft()
            self.ctas_started += 1
            started = engine.now
            if tracer.enabled:
                tracer.begin(
                    track,
                    f"{kernel.name}/cta{cta_id}",
                    started,
                    args={"warps": kernel.warps_per_cta},
                )
            processes = []
            for warp_id, program in enumerate(kernel.cta_programs(cta_id)):
                if warp_id < len(pool):
                    warp = pool[warp_id]
                    warp.reset(cta_id, warp_id, program)
                else:
                    warp = WarpContext(cta_id, warp_id, program)
                    pool.append(warp)
                processes.append(
                    engine.process(
                        warp.body(sm), name=f"cta{cta_id}.w{warp_id}"
                    )
                )
            yield AllOf([process.done for process in processes])
            self.ctas_finished += 1
            sm.ctas_retired += 1
            cta_cycles.add(engine.now - started)
            if tracer.enabled:
                tracer.end(track, engine.now)
