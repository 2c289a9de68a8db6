"""A small RISC-like ISA: opcodes, assembler and functional interpreter.

This package is the lowest substrate of the reproduction.  Workloads can
be written as tiny assembly programs, executed functionally, and the
resulting dynamic traces fed to any of the timing models.

Public API::

    from repro.isa import assemble, run_program, OpClass

    program = assemble(SOURCE)
    result = run_program(program)
    trace = result.trace            # list[TraceRecord]
"""

from .assembler import Assembler, assemble
from .errors import AssemblerError, ExecutionError, IsaError, ProgramError
from .instruction import Instruction
from .interpreter import ExecutionResult, Interpreter, MachineState, run_program
from .opcodes import OPCODES, OpClass, OpcodeInfo, OperandShape, opcode_info
from .program import INSTRUCTION_BYTES, Program
from .registers import (
    LINK_REG,
    NUM_ARCH_REGS,
    NUM_FP_REGS,
    NUM_INT_REGS,
    STACK_REG,
    ZERO_REG,
    fp_reg,
    int_reg,
    is_fp_reg,
    parse_register,
    register_name,
)

__all__ = [
    "Assembler",
    "assemble",
    "AssemblerError",
    "ExecutionError",
    "IsaError",
    "ProgramError",
    "Instruction",
    "ExecutionResult",
    "Interpreter",
    "MachineState",
    "run_program",
    "OPCODES",
    "OpClass",
    "OpcodeInfo",
    "OperandShape",
    "opcode_info",
    "INSTRUCTION_BYTES",
    "Program",
    "LINK_REG",
    "NUM_ARCH_REGS",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "STACK_REG",
    "ZERO_REG",
    "fp_reg",
    "int_reg",
    "is_fp_reg",
    "parse_register",
    "register_name",
]
