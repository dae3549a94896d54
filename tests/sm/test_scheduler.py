"""CTA slot scheduling inside a GPM."""

import pytest

from repro.errors import ConfigError
from repro.gpu.config import GpmConfig
from repro.gpu.counters import CounterSet
from repro.gpu.gpm import Gpm
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Opcode
from repro.isa.program import Segment, WarpProgram
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine
from repro.sm.scheduler import CtaSlotScheduler
from repro.trace import ChromeTracer


def compute_factory(cta_id: int, warp_id: int) -> WarpProgram:
    return WarpProgram([Segment(compute={Opcode.FFMA32: 8})])


def build_gpm(engine, num_sms=2, slots=2):
    config = GpmConfig(num_sms=num_sms, slots_per_sm=slots)
    counters = CounterSet()
    return Gpm(engine, 0, config, PagePlacement(num_gpms=1), counters)


class TestScheduling:
    def test_all_ctas_retire(self):
        engine = Engine()
        gpm = build_gpm(engine)
        kernel = Kernel("k", num_ctas=16, warps_per_cta=2,
                        program_factory=compute_factory)
        engine.process(gpm.run_kernel(kernel, list(range(16))))
        engine.run()
        assert gpm.scheduler.ctas_started == 16
        assert gpm.scheduler.ctas_finished == 16
        assert sum(sm.ctas_retired for sm in gpm.sms) == 16

    def test_work_shared_across_sms(self):
        engine = Engine()
        gpm = build_gpm(engine, num_sms=4)
        kernel = Kernel("k", num_ctas=32, warps_per_cta=1,
                        program_factory=compute_factory)
        engine.process(gpm.run_kernel(kernel, list(range(32))))
        engine.run()
        retired = [sm.ctas_retired for sm in gpm.sms]
        assert sum(retired) == 32
        assert min(retired) >= 4  # dynamic balancing keeps SMs busy

    def test_empty_share_is_noop(self):
        engine = Engine()
        gpm = build_gpm(engine)
        kernel = Kernel("k", num_ctas=4, warps_per_cta=1,
                        program_factory=compute_factory)
        engine.process(gpm.run_kernel(kernel, []))
        engine.run()
        assert gpm.scheduler.ctas_started == 0
        assert engine.now == 0.0
        # The scheduler itself starts no slot for an empty queue either.
        engine.process(gpm.scheduler.run_kernel(kernel, [], gpm.sm))
        engine.run()
        assert engine.events_processed == 3
        assert engine.now == 0.0

    def test_only_slots_that_get_a_cta_start(self):
        """3 CTAs on 2 SMs x 4 slots: three slots start, all on SM 0,
        which runs all three CTAs; each started slot leaves one engine
        span, and each warp one more."""
        tracer = ChromeTracer()
        engine = Engine(tracer=tracer)
        gpm = build_gpm(engine, num_sms=2, slots=4)
        kernel = Kernel("k", num_ctas=3, warps_per_cta=1,
                        program_factory=compute_factory)
        engine.process(gpm.run_kernel(kernel, list(range(3))))
        engine.run()
        engine_tid = tracer._tids["engine"]
        slot_spans = [
            event["name"] for event in tracer.events()
            if event["tid"] == engine_tid and ".slot" in event["name"]
        ]
        assert sorted(slot_spans) == ["sm0.slot0", "sm0.slot1", "sm0.slot2"]
        warp_spans = [
            event["name"] for event in tracer.events()
            if event["tid"] == engine_tid and event["name"].startswith("cta")
        ]
        assert sorted(warp_spans) == ["cta0.w0", "cta1.w0", "cta2.w0"]
        assert gpm.sms[0].ctas_retired == 3
        assert gpm.sms[1] is None  # never built
        assert gpm.scheduler.ctas_finished == 3

    def test_slots_bound_concurrency(self):
        """More slots -> more parallelism -> shorter makespan for
        latency-free compute work split across many small CTAs."""
        def run_with_slots(slots):
            engine = Engine()
            gpm = build_gpm(engine, num_sms=1, slots=slots)
            kernel = Kernel("k", num_ctas=8, warps_per_cta=1,
                            program_factory=compute_factory)
            engine.process(gpm.run_kernel(kernel, list(range(8))))
            engine.run()
            return engine.now

        # Pure compute serializes on the issue stage either way, so equal —
        # the slot count must never change total issued work.
        assert run_with_slots(1) == pytest.approx(run_with_slots(4))

    def test_validation(self):
        engine = Engine()
        with pytest.raises(ConfigError):
            CtaSlotScheduler(engine, 0, slots_per_sm=2)
        with pytest.raises(ConfigError):
            CtaSlotScheduler(engine, 2, slots_per_sm=0)


class TestGpmAccounting:
    def test_busy_and_idle(self):
        engine = Engine()
        gpm = build_gpm(engine)
        kernel = Kernel("k", num_ctas=8, warps_per_cta=2,
                        program_factory=compute_factory)
        engine.process(gpm.run_kernel(kernel, list(range(8))))
        engine.run()
        elapsed = engine.now
        busy = gpm.busy_cycles()
        idle = gpm.idle_cycles(elapsed)
        assert busy > 0
        assert busy + idle == pytest.approx(elapsed * len(gpm.sms))
