"""Warps on a single SM, run as engine continuations."""

from collections import deque

import pytest

from repro.gpu.counters import CounterSet
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram
from repro.memory.cache import CacheConfig
from repro.memory.dram import DramChannel, HBM
from repro.memory.hierarchy import GpmMemory
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine
from repro.sim.stats import Accumulator
from repro.sm.scheduler import CtaSlot, CtaSlotScheduler
from repro.sm.smcore import SmCore
from repro.sm.warp import Warp


def build_sm(engine, counters=None):
    counters = counters if counters is not None else CounterSet()
    memory = GpmMemory(
        engine=engine,
        gpm_id=0,
        num_sms=1,
        l1_config=CacheConfig(capacity_bytes=4096, associativity=4, name="l1"),
        l2_config=CacheConfig(
            capacity_bytes=64 * 1024, associativity=16,
            write_allocate=True, write_back=True, name="l2",
        ),
        dram=DramChannel(engine, HBM),
        placement=PagePlacement(num_gpms=1),
        counters=counters,
    )
    memory.connect(None, [memory])
    return SmCore(
        engine=engine, sm_id=0, gpm_id=0, local_index=0,
        issue_rate=4.0, memory=memory, counters=counters,
    )


def compute_program(instructions=16):
    return WarpProgram([Segment(compute={Opcode.FFMA32: instructions})])


def run_warps(sm, programs):
    """Run one CTA whose warp ``i`` runs ``programs[i]`` on a slot of
    ``sm``; the slot adds no time of its own."""
    kernel = Kernel(
        "k", num_ctas=1, warps_per_cta=len(programs),
        program_factory=lambda cta_id, warp_id: programs[warp_id],
    )
    scheduler = CtaSlotScheduler(sm.engine, num_sms=1, slots_per_sm=1)
    CtaSlot(scheduler, sm, 0, kernel, deque([0]), Accumulator())
    sm.engine.run()


class TestLifecycle:
    def test_retires_as_its_own_event(self):
        """A warp is the event its slot waits on: it succeeds once, when
        its last segment retires."""
        engine = Engine()
        counters = CounterSet()
        sm = build_sm(engine, counters)
        # A slot with an empty queue retires on its first step; it only
        # lends the warp its SM.
        slot = CtaSlot(
            CtaSlotScheduler(engine, num_sms=1, slots_per_sm=1), sm, 0,
            Kernel("k", 1, 1, lambda cta_id, warp_id: compute_program()),
            deque(), Accumulator(),
        )
        warp = Warp(slot, 0, 0, compute_program())
        retired_at = []

        def waiter():
            yield warp
            retired_at.append(engine.now)

        engine.process(waiter())
        assert not warp.triggered
        engine.run()
        assert warp.triggered
        assert retired_at == [pytest.approx(4.0)]
        assert counters.instructions[Opcode.FFMA32] == 16

    def test_compute_only_duration(self):
        engine = Engine()
        sm = build_sm(engine)
        run_warps(sm, [compute_program(16)])
        # 16 FFMA32 at 4/cycle = 4 cycles of issue.
        assert engine.now == pytest.approx(4.0)

    def test_instruction_counting(self):
        engine = Engine()
        counters = CounterSet()
        sm = build_sm(engine, counters)
        program = WarpProgram([
            Segment(compute={Opcode.FFMA32: 8, Opcode.FADD64: 2}),
            Segment(compute={Opcode.IADD32: 4}),
        ])
        run_warps(sm, [program])
        assert counters.instructions[Opcode.FFMA32] == 8
        assert counters.instructions[Opcode.FADD64] == 2
        assert counters.instructions[Opcode.IADD32] == 4

    def test_memory_extends_duration(self):
        engine = Engine()
        sm = build_sm(engine)
        program = WarpProgram([
            Segment(
                compute={Opcode.FFMA32: 4},
                accesses=(MemAccess(address=0, size=128),),
            )
        ])
        run_warps(sm, [program])
        # A cold miss goes to DRAM: far longer than 1 cycle of issue.
        assert engine.now > 300.0


class TestLatencyHiding:
    def test_two_warps_overlap_memory(self):
        """Two warps with independent misses should take ~one round trip,
        not two — the latency-tolerance property the SM model must provide."""
        engine = Engine()
        sm = build_sm(engine)

        def program(base):
            return WarpProgram([
                Segment(compute={Opcode.FFMA32: 4},
                        accesses=(MemAccess(address=base, size=128),))
            ])

        solo_engine = Engine()
        solo_sm = build_sm(solo_engine)
        run_warps(solo_sm, [program(0)])
        solo_time = solo_engine.now

        run_warps(sm, [program(warp_id * 64 * 1024) for warp_id in range(2)])
        assert engine.now < 1.5 * solo_time

    def test_software_pipelining_overlaps_segments(self):
        """A warp's consecutive segments overlap one memory round trip."""
        engine = Engine()
        sm = build_sm(engine)
        segments = [
            Segment(compute={Opcode.FFMA32: 2},
                    accesses=(MemAccess(address=i * 64 * 1024, size=128),))
            for i in range(4)
        ]
        run_warps(sm, [WarpProgram(segments)])
        pipelined_time = engine.now

        # A fully serial execution would be ~4 round trips.
        round_trip = 30.0 + 120.0 + 300.0 + 128 / 343.0
        assert pipelined_time < 3.2 * round_trip

    def test_issue_bandwidth_serializes_compute(self):
        engine = Engine()
        sm = build_sm(engine)
        run_warps(sm, [compute_program(16) for _ in range(4)])
        # 4 warps x 16 instr / 4 per cycle = 16 cycles of issue, serialized.
        assert engine.now == pytest.approx(16.0)
        assert sm.busy_cycles() == pytest.approx(16.0)
        assert sm.idle_cycles(engine.now) == pytest.approx(0.0)
