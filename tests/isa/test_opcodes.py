"""Opcode metadata invariants."""

import pytest

from repro.isa.opcodes import (
    COMPUTE_OPCODES,
    MEMORY_OPCODES,
    TABLE_1B_COMPUTE_OPCODES,
    OpClass,
    Opcode,
)


class TestClassification:
    def test_every_opcode_has_info(self):
        for opcode in Opcode:
            assert opcode.op_class is not None
            assert opcode.issue_weight > 0 or opcode.op_class is OpClass.CONTROL

    def test_compute_and_memory_are_disjoint(self):
        assert not (set(COMPUTE_OPCODES) & set(MEMORY_OPCODES))

    def test_memory_opcodes(self):
        assert set(MEMORY_OPCODES) == {
            Opcode.LDG, Opcode.STG, Opcode.LDS, Opcode.STS
        }
        for opcode in MEMORY_OPCODES:
            assert opcode.is_memory
            assert not opcode.is_compute

    def test_control_is_neither(self):
        assert not Opcode.BRA.is_compute
        assert not Opcode.BRA.is_memory

    def test_table_1b_has_19_rows(self):
        # 3 f32 + 2 int add/sub + 3 bitwise + 2 trig + 2 int mul + 3 f64
        # + 4 SFU special = 19 compute instructions in Table Ib.
        assert len(TABLE_1B_COMPUTE_OPCODES) == 19
        assert len(set(TABLE_1B_COMPUTE_OPCODES)) == 19
        for opcode in TABLE_1B_COMPUTE_OPCODES:
            assert opcode.is_compute


class TestIssueWeights:
    def test_fp64_slower_than_fp32(self):
        assert Opcode.FFMA64.issue_weight > Opcode.FFMA32.issue_weight
        assert Opcode.FADD64.issue_weight > Opcode.FADD32.issue_weight

    def test_sfu_slower_than_alu(self):
        for sfu in (Opcode.SIN32, Opcode.SQRT32, Opcode.RCP32):
            assert sfu.issue_weight > Opcode.FADD32.issue_weight

    def test_widths(self):
        assert Opcode.FADD64.width_bits == 64
        assert Opcode.FADD32.width_bits == 32

    @pytest.mark.parametrize("opcode", [Opcode.FADD32, Opcode.IADD32, Opcode.XOR32])
    def test_simple_alu_weight_is_one(self, opcode):
        assert opcode.issue_weight == 1.0
