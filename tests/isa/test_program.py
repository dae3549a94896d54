"""Warp program, segment, and instruction-record behaviour."""

import pytest

from repro.errors import TraceError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import MemSpace, Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram


class TestMemAccess:
    def test_valid(self):
        access = MemAccess(address=0x1000, size=128)
        assert not access.is_store
        assert access.space is MemSpace.GLOBAL

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            MemAccess(address=-1, size=128)

    def test_zero_size_rejected(self):
        with pytest.raises(TraceError):
            MemAccess(address=0, size=0)


class TestSegment:
    def test_issue_slots_include_memory_ops(self):
        segment = Segment(
            compute={Opcode.FFMA32: 10},
            accesses=(MemAccess(address=0, size=128),) * 3,
        )
        assert segment.issue_slots == pytest.approx(13.0)
        assert segment.total_instructions == 13
        assert segment.compute_instructions == 10

    def test_issue_weights_applied(self):
        segment = Segment(compute={Opcode.FFMA64: 4})  # weight 3
        assert segment.issue_slots == pytest.approx(12.0)

    def test_memory_opcode_in_compute_rejected(self):
        with pytest.raises(TraceError):
            Segment(compute={Opcode.LDG: 1})

    def test_negative_count_rejected(self):
        with pytest.raises(TraceError):
            Segment(compute={Opcode.FADD32: -1})

    def test_empty_segment_allowed(self):
        segment = Segment()
        assert segment.issue_slots == 0.0
        assert segment.total_instructions == 0


class TestWarpProgram:
    def test_totals(self):
        segments = [
            Segment(compute={Opcode.FADD32: 5},
                    accesses=(MemAccess(address=0, size=128),)),
            Segment(compute={Opcode.FMUL32: 3}),
        ]
        program = WarpProgram(segments)
        assert len(program) == 2
        assert program.total_instructions == 9
        assert program.total_accesses == 1

    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            WarpProgram([])

    def test_iteration_preserves_order(self):
        segments = [Segment(compute={Opcode.FADD32: i + 1}) for i in range(4)]
        program = WarpProgram(segments)
        assert [s.compute[Opcode.FADD32] for s in program] == [1, 2, 3, 4]


class TestInstruction:
    def test_memory_requires_address(self):
        with pytest.raises(TraceError):
            Instruction(Opcode.LDG)

    def test_compute_rejects_address(self):
        with pytest.raises(TraceError):
            Instruction(Opcode.FADD32, address=0, size=4)

    def test_spaces(self):
        assert Instruction(Opcode.LDS, address=0, size=128).mem_space is MemSpace.SHARED
        assert Instruction(Opcode.LDG, address=0, size=128).mem_space is MemSpace.GLOBAL
        assert Instruction(Opcode.FADD32).mem_space is None
