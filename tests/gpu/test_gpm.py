"""GPM assembly details not covered by the scheduler tests."""

import pytest

from repro.dvfs.operating_point import K40_VF_CURVE
from repro.gpu.config import GpmConfig
from repro.gpu.counters import CounterSet
from repro.gpu.gpm import Gpm
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine


def memory_factory(cta_id: int, warp_id: int) -> WarpProgram:
    base = (cta_id * 4 + warp_id) * 64 * 1024
    return WarpProgram([
        Segment(
            compute={Opcode.FADD32: 4},
            accesses=(MemAccess(address=base, size=128),),
        )
    ])


class TestAssembly:
    def test_structure_matches_config(self):
        engine = Engine()
        config = GpmConfig(num_sms=4)
        gpm = Gpm(engine, 2, config, PagePlacement(num_gpms=4), CounterSet())
        assert len(gpm.sms) == 4
        assert len(gpm.memory.l1s) == 4
        # Global SM ids are offset by the GPM's position.
        assert [gpm.sm(local).sm_id for local in range(4)] == [8, 9, 10, 11]
        assert all(sm.gpm_id == 2 for sm in gpm.sms)

    def test_sms_and_l1s_are_built_on_first_use(self):
        engine = Engine()
        gpm = Gpm(engine, 0, GpmConfig(num_sms=4, slots_per_sm=2),
                  PagePlacement(num_gpms=1), CounterSet())
        gpm.memory.connect(None, [gpm.memory])
        assert gpm.sms == [None] * 4
        assert gpm.memory.l1s == [None] * 4
        # Three CTAs take SM 0's two slots and one of SM 1's.
        kernel = Kernel("k", num_ctas=3, warps_per_cta=1,
                        program_factory=memory_factory)
        engine.process(gpm.run_kernel(kernel, [0, 1, 2]))
        engine.run()
        assert [sm is not None for sm in gpm.sms] == [True, True, False, False]
        assert [l1 is not None for l1 in gpm.memory.l1s] == [
            True, True, False, False
        ]
        elapsed = engine.now
        assert gpm.busy_cycles() == gpm.sms[0].busy_cycles() + gpm.sms[1].busy_cycles()
        assert gpm.idle_cycles(elapsed) == (
            gpm.sms[0].idle_cycles(elapsed) + gpm.sms[1].idle_cycles(elapsed)
            + elapsed + elapsed
        )

    def test_late_sm_issues_at_the_current_core_rate(self):
        engine = Engine()
        config = GpmConfig(num_sms=2)
        gpm = Gpm(engine, 0, config, PagePlacement(num_gpms=1), CounterSet())
        early = gpm.sm(0)
        point = K40_VF_CURVE.points[0]
        gpm.apply_core_point(point, K40_VF_CURVE)
        late = gpm.sm(1)
        assert late.issue.rate == early.issue.rate
        assert late.issue.rate == (
            config.issue_rate * K40_VF_CURVE.frequency_ratio(point)
        )

    def test_l1_and_l2_geometry(self):
        engine = Engine()
        config = GpmConfig(num_sms=2)
        gpm = Gpm(engine, 0, config, PagePlacement(num_gpms=1), CounterSet())
        assert gpm.memory.l1(0).config.capacity_bytes == 32 * 1024
        assert gpm.memory.l2.config.capacity_bytes == 2 * 1024 * 1024
        assert gpm.memory.l2.config.write_back

    def test_dram_preset(self):
        engine = Engine()
        gpm = Gpm(engine, 0, GpmConfig(num_sms=1),
                  PagePlacement(num_gpms=1), CounterSet())
        assert gpm.dram.config.technology == "HBM"


class TestExecution:
    def test_kernel_generates_memory_traffic(self):
        engine = Engine()
        counters = CounterSet()
        gpm = Gpm(engine, 0, GpmConfig(num_sms=2, slots_per_sm=2),
                  PagePlacement(num_gpms=1), counters)
        gpm.memory.connect(None, [gpm.memory])
        kernel = Kernel("k", num_ctas=8, warps_per_cta=2,
                        program_factory=memory_factory)
        engine.process(gpm.run_kernel(kernel, list(range(8))))
        engine.run()
        assert counters.l1_rf_txns == 16
        assert counters.dram_l2_txns > 0
        assert gpm.dram.reads > 0

    def test_idle_accounting_covers_all_sms(self):
        engine = Engine()
        counters = CounterSet()
        gpm = Gpm(engine, 0, GpmConfig(num_sms=4, slots_per_sm=1),
                  PagePlacement(num_gpms=1), counters)
        gpm.memory.connect(None, [gpm.memory])
        # One CTA: three SMs stay completely idle.
        kernel = Kernel("k", num_ctas=1, warps_per_cta=1,
                        program_factory=memory_factory)
        engine.process(gpm.run_kernel(kernel, [0]))
        engine.run()
        elapsed = engine.now
        assert gpm.idle_cycles(elapsed) > 3 * elapsed
        assert gpm.busy_cycles() < elapsed
