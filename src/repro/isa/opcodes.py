"""Opcode definitions mirroring the PTX instructions of the paper's Table Ib.

Each compute opcode carries:

* an :class:`OpClass` (which functional unit executes it),
* a data width in bits,
* an *issue weight* — how many issue-slot units the instruction occupies,
  reflecting that double-precision and SFU operations issue at a fraction of
  the FP32 rate on the modeled (Kepler-class) machine.

Memory opcodes carry the address space they touch; their energy is accounted
per *transaction* by the memory hierarchy, not per instruction, exactly as the
GPUJoule model separates EPI from EPT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit class an opcode executes on."""

    FP32 = "fp32"
    FP64 = "fp64"
    INT = "int"
    BITWISE = "bitwise"
    SFU = "sfu"
    MEMORY = "memory"
    CONTROL = "control"


class MemSpace(enum.Enum):
    """Address spaces distinguished by the memory hierarchy."""

    GLOBAL = "global"
    SHARED = "shared"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    op_class: OpClass
    width_bits: int
    issue_weight: float


class Opcode(enum.Enum):
    """The instruction vocabulary of the model.

    The compute entries are exactly the rows of Table Ib; memory and control
    entries cover the instructions the trace generators emit.
    """

    # 32-bit floating point
    FADD32 = "fadd32"
    FMUL32 = "fmul32"
    FFMA32 = "ffma32"
    # 32-bit integer
    IADD32 = "iadd32"
    ISUB32 = "isub32"
    IMUL32 = "imul32"
    IMAD32 = "imad32"
    # 32-bit bitwise
    AND32 = "and32"
    OR32 = "or32"
    XOR32 = "xor32"
    # 32-bit SFU / transcendental
    SIN32 = "sin32"
    COS32 = "cos32"
    SQRT32 = "sqrt32"
    LOG232 = "log232"
    EXP232 = "exp232"
    RCP32 = "rcp32"
    # 64-bit floating point
    FADD64 = "fadd64"
    FMUL64 = "fmul64"
    FFMA64 = "ffma64"
    # Memory
    LDG = "ldg"  # load from global memory
    STG = "stg"  # store to global memory
    LDS = "lds"  # load from shared memory
    STS = "sts"  # store to shared memory
    # Control
    BRA = "bra"

    # Members are singletons and Enum equality is identity, so the C-level
    # identity hash is consistent with it.  Enum's own __hash__ hashes the
    # member name in Python code, once per instruction-count dict update on
    # the simulator's per-segment path.
    __hash__ = object.__hash__

    @property
    def op_class(self) -> OpClass:
        return _OP_INFO[self].op_class

    @property
    def width_bits(self) -> int:
        return _OP_INFO[self].width_bits

    @property
    def issue_weight(self) -> float:
        return _OP_INFO[self].issue_weight

    @property
    def is_memory(self) -> bool:
        return _OP_INFO[self].op_class is OpClass.MEMORY

    @property
    def is_compute(self) -> bool:
        cls = _OP_INFO[self].op_class
        return cls is not OpClass.MEMORY and cls is not OpClass.CONTROL


_OP_INFO: dict[Opcode, OpInfo] = {
    Opcode.FADD32: OpInfo(OpClass.FP32, 32, 1.0),
    Opcode.FMUL32: OpInfo(OpClass.FP32, 32, 1.0),
    Opcode.FFMA32: OpInfo(OpClass.FP32, 32, 1.0),
    Opcode.IADD32: OpInfo(OpClass.INT, 32, 1.0),
    Opcode.ISUB32: OpInfo(OpClass.INT, 32, 1.0),
    Opcode.IMUL32: OpInfo(OpClass.INT, 32, 2.0),
    Opcode.IMAD32: OpInfo(OpClass.INT, 32, 2.0),
    Opcode.AND32: OpInfo(OpClass.BITWISE, 32, 1.0),
    Opcode.OR32: OpInfo(OpClass.BITWISE, 32, 1.0),
    Opcode.XOR32: OpInfo(OpClass.BITWISE, 32, 1.0),
    Opcode.SIN32: OpInfo(OpClass.SFU, 32, 4.0),
    Opcode.COS32: OpInfo(OpClass.SFU, 32, 4.0),
    Opcode.SQRT32: OpInfo(OpClass.SFU, 32, 4.0),
    Opcode.LOG232: OpInfo(OpClass.SFU, 32, 4.0),
    Opcode.EXP232: OpInfo(OpClass.SFU, 32, 4.0),
    Opcode.RCP32: OpInfo(OpClass.SFU, 32, 4.0),
    Opcode.FADD64: OpInfo(OpClass.FP64, 64, 3.0),
    Opcode.FMUL64: OpInfo(OpClass.FP64, 64, 3.0),
    Opcode.FFMA64: OpInfo(OpClass.FP64, 64, 3.0),
    Opcode.LDG: OpInfo(OpClass.MEMORY, 32, 1.0),
    Opcode.STG: OpInfo(OpClass.MEMORY, 32, 1.0),
    Opcode.LDS: OpInfo(OpClass.MEMORY, 32, 1.0),
    Opcode.STS: OpInfo(OpClass.MEMORY, 32, 1.0),
    Opcode.BRA: OpInfo(OpClass.CONTROL, 0, 1.0),
}

#: Compute opcodes that appear in Table Ib, in the table's row order; used by
#: the calibration flow and the Table Ib reproduction bench.
TABLE_1B_COMPUTE_OPCODES: tuple[Opcode, ...] = (
    Opcode.FADD32,
    Opcode.FMUL32,
    Opcode.FFMA32,
    Opcode.IADD32,
    Opcode.ISUB32,
    Opcode.AND32,
    Opcode.OR32,
    Opcode.XOR32,
    Opcode.SIN32,
    Opcode.COS32,
    Opcode.IMUL32,
    Opcode.IMAD32,
    Opcode.FADD64,
    Opcode.FMUL64,
    Opcode.FFMA64,
    Opcode.SQRT32,
    Opcode.LOG232,
    Opcode.EXP232,
    Opcode.RCP32,
)

#: All compute opcodes (for iteration by tooling/tests).
COMPUTE_OPCODES: tuple[Opcode, ...] = tuple(
    op for op in Opcode if op.is_compute
)

#: All memory opcodes.
MEMORY_OPCODES: tuple[Opcode, ...] = tuple(op for op in Opcode if op.is_memory)
