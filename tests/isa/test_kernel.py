"""Kernel and workload structure."""

import pytest

from repro.errors import TraceError
from repro.isa.kernel import Kernel, Workload, WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.isa.program import Segment, WarpProgram


def _factory(cta_id: int, warp_id: int) -> WarpProgram:
    return WarpProgram([Segment(compute={Opcode.FADD32: cta_id + warp_id + 1})])


class TestKernel:
    def test_lazy_program_generation(self):
        kernel = Kernel("k", num_ctas=4, warps_per_cta=2, program_factory=_factory)
        program = kernel.cta_programs(3)[1]
        assert program.segments[0].compute[Opcode.FADD32] == 5

    def test_bounds_checked(self):
        kernel = Kernel("k", num_ctas=4, warps_per_cta=2, program_factory=_factory)
        with pytest.raises(TraceError):
            kernel.cta_programs(4)
        with pytest.raises(TraceError):
            kernel.cta_programs(-1)

    def test_total_warps(self):
        kernel = Kernel("k", num_ctas=8, warps_per_cta=4, program_factory=_factory)
        assert kernel.total_warps == 32

    def test_invalid_shape_rejected(self):
        with pytest.raises(TraceError):
            Kernel("k", num_ctas=0, warps_per_cta=1, program_factory=_factory)
        with pytest.raises(TraceError):
            Kernel("k", num_ctas=1, warps_per_cta=0, program_factory=_factory)


class TestWorkload:
    def _kernel(self, name="k"):
        return Kernel(name, num_ctas=2, warps_per_cta=1, program_factory=_factory)

    def test_launch_order(self):
        kernels = [self._kernel(f"k{i}") for i in range(3)]
        workload = Workload("w", kernels, WorkloadCategory.COMPUTE)
        launches = workload.launches
        assert [launch.index for launch in launches] == [0, 1, 2]
        assert [launch.kernel.name for launch in launches] == ["k0", "k1", "k2"]

    def test_empty_workload_rejected(self):
        with pytest.raises(TraceError):
            Workload("w", [], WorkloadCategory.COMPUTE)

    def test_interleaved_base_default_none(self):
        workload = Workload("w", [self._kernel()], WorkloadCategory.COMPUTE)
        assert workload.interleaved_base is None
