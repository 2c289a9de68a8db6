"""Functional interpreter: execute a program, emit a dynamic trace.

The interpreter is *functional only* — it computes architectural state
(registers, memory, control flow) with no notion of time.  Its output is
a list of :class:`repro.trace.TraceRecord` that the timing models
(:mod:`repro.uarch`, :mod:`repro.corefusion`, :mod:`repro.fgstp`) consume.

Arithmetic is 64-bit two's-complement for the integer file and Python
floats for the FP file.  Memory is a byte-addressed data segment; loads
and stores are 8 bytes (``ld``/``st``/``fld``/``fst``) or 1 byte
(``ldb``/``stb``), and accesses must stay inside the segment.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from ..trace.record import TraceRecord, positions
from .errors import ExecutionError
from .opcodes import OpClass
from .program import Program
from .registers import NUM_ARCH_REGS, NUM_INT_REGS, ZERO_REG

_MASK64 = (1 << 64) - 1


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


class MachineState:
    """Architectural state of the functional machine.

    Attributes:
        int_regs: 64-bit signed integer register values (``r0`` stays 0).
        fp_regs: Floating-point register values.
        memory: The byte-addressed data segment.
        pc: Current instruction index.
        halted: True once ``halt`` retires.
    """

    def __init__(self, program: Program):
        self.int_regs: List[int] = [0] * NUM_INT_REGS
        self.fp_regs: List[float] = [0.0] * (NUM_ARCH_REGS - NUM_INT_REGS)
        self.memory = bytearray(program.data_size)
        for offset, value in program.data_init.items():
            if not 0 <= offset <= program.data_size - 8:
                raise ExecutionError(
                    f".word offset {offset} outside data segment")
            struct.pack_into("<q", self.memory, offset, _to_signed(value))
        self.pc = 0
        self.halted = False

    def read_reg(self, reg_id: int):
        if reg_id < NUM_INT_REGS:
            return self.int_regs[reg_id]
        return self.fp_regs[reg_id - NUM_INT_REGS]

    def write_reg(self, reg_id: int, value) -> None:
        if reg_id < NUM_INT_REGS:
            if reg_id != ZERO_REG:
                self.int_regs[reg_id] = _to_signed(int(value))
        else:
            self.fp_regs[reg_id - NUM_INT_REGS] = float(value)


class Interpreter:
    """Executes programs and records their dynamic instruction traces."""

    def __init__(self, max_instructions: int = 5_000_000):
        """Args:
            max_instructions: Hard budget; exceeding it raises
                :class:`ExecutionError` (guards against runaway loops in
                generated programs).
        """
        self.max_instructions = max_instructions

    def run(self, program: Program,
            entry: Optional[str] = None) -> "ExecutionResult":
        """Execute *program* until ``halt`` and return its trace.

        Args:
            program: A resolved, validated program.
            entry: Optional label to start at (defaults to index 0).

        Raises:
            ExecutionError: on illegal memory access, division by zero,
                running off the code segment, or budget exhaustion.
        """
        state = MachineState(program)
        if entry is not None:
            state.pc = program.label_index(entry)
        trace: List[TraceRecord] = []
        code = program.instructions
        code_len = len(code)

        while not state.halted:
            if len(trace) >= self.max_instructions:
                raise ExecutionError(
                    f"instruction budget of {self.max_instructions} "
                    "exhausted without halt")
            if not 0 <= state.pc < code_len:
                raise ExecutionError(
                    f"pc {state.pc} outside code segment of {code_len}")
            trace.append(self._step(program, state, len(trace)))
        return ExecutionResult(program, state, trace)

    def step(self, program: Program, state: MachineState,
             seq: int) -> TraceRecord:
        """Execute exactly one instruction at ``state.pc``.

        The public seam for shadow replays (the commit-stream oracle's
        golden-stream builder re-executes a program one instruction at a
        time to capture architectural values alongside each record).

        Raises:
            ExecutionError: on any illegal architectural event.
        """
        if not 0 <= state.pc < len(program.instructions):
            raise ExecutionError(
                f"pc {state.pc} outside code segment of "
                f"{len(program.instructions)}")
        return self._step(program, state, seq)

    def _step(self, program: Program, state: MachineState,
              seq: int) -> TraceRecord:
        instr = program.instructions[state.pc]
        pc = state.pc
        op_class = instr.op_class
        name = instr.info.name
        next_pc = pc + 1
        mem_addr: Optional[int] = None
        mem_size = 0
        taken = False
        target: Optional[int] = None

        if op_class is OpClass.NOP:
            if instr.is_halt:
                state.halted = True
        elif op_class in (OpClass.IALU, OpClass.IMUL, OpClass.IDIV):
            state.write_reg(instr.dst, self._int_op(name, instr, state))
        elif op_class in (OpClass.FADD, OpClass.FMUL, OpClass.FDIV):
            state.write_reg(instr.dst, self._fp_op(name, instr, state))
        elif op_class is OpClass.LOAD:
            base = state.read_reg(instr.srcs[0])
            mem_addr, mem_size = self._mem_access(
                state, base + instr.imm, 1 if name == "ldb" else 8)
            state.write_reg(instr.dst,
                            self._load(state, mem_addr, mem_size,
                                       fp=instr.info.fp))
        elif op_class is OpClass.STORE:
            base = state.read_reg(instr.srcs[0])
            mem_addr, mem_size = self._mem_access(
                state, base + instr.imm, 1 if name == "stb" else 8)
            self._store(state, mem_addr, mem_size,
                        state.read_reg(instr.srcs[1]), fp=instr.info.fp)
        elif op_class is OpClass.BRANCH:
            taken = self._branch_taken(name, instr, state)
            if taken:
                target = instr.imm
                next_pc = instr.imm
        elif op_class is OpClass.JUMP:
            taken = True
            if name == "jmp":
                target = instr.imm
            elif name == "call":
                state.write_reg(instr.dst, pc + 1)
                target = instr.imm
            elif name in ("jr", "ret"):
                target = int(state.read_reg(instr.srcs[0]))
                if not 0 <= target < len(program.instructions):
                    raise ExecutionError(
                        f"indirect jump at pc {pc} to invalid target {target}")
            next_pc = target
        else:  # pragma: no cover - the opcode table is closed
            raise ExecutionError(f"unhandled op class {op_class}")

        state.pc = next_pc
        return TraceRecord(positions(seq + 1)[seq], pc, op_class, instr.dst,
                           instr.srcs, mem_addr, mem_size, taken, target)

    @staticmethod
    def _mem_access(state: MachineState, addr: int, size: int):
        addr = int(addr)
        if not 0 <= addr <= len(state.memory) - size:
            raise ExecutionError(
                f"memory access at {addr:#x} (size {size}) outside data "
                f"segment of {len(state.memory)} bytes")
        return addr, size

    @staticmethod
    def _load(state: MachineState, addr: int, size: int, fp: bool):
        if fp:
            return struct.unpack_from("<d", state.memory, addr)[0]
        if size == 1:
            return state.memory[addr]
        return struct.unpack_from("<q", state.memory, addr)[0]

    @staticmethod
    def _store(state: MachineState, addr: int, size: int, value, fp: bool):
        if fp:
            struct.pack_into("<d", state.memory, addr, float(value))
        elif size == 1:
            state.memory[addr] = int(value) & 0xFF
        else:
            struct.pack_into("<q", state.memory, addr, _to_signed(int(value)))

    def _int_op(self, name: str, instr, state: MachineState) -> int:
        srcs = instr.srcs
        a = state.read_reg(srcs[0]) if srcs else 0
        b = state.read_reg(srcs[1]) if len(srcs) > 1 else instr.imm
        if name == "add":
            return a + b
        if name == "addi":
            return a + instr.imm
        if name == "sub":
            return a - b
        if name in ("and", "andi"):
            return a & (b if name == "and" else instr.imm)
        if name in ("or", "ori"):
            return a | (b if name == "or" else instr.imm)
        if name in ("xor", "xori"):
            return a ^ (b if name == "xor" else instr.imm)
        if name in ("shl", "shli"):
            shift = (b if name == "shl" else instr.imm) & 63
            return a << shift
        if name in ("shr", "shri"):
            shift = (b if name == "shr" else instr.imm) & 63
            return (a & _MASK64) >> shift
        if name == "sar":
            return a >> (b & 63)
        if name in ("slt", "slti"):
            return int(a < (b if name == "slt" else instr.imm))
        if name == "sltu":
            return int((a & _MASK64) < (b & _MASK64))
        if name == "min":
            return min(a, b)
        if name == "max":
            return max(a, b)
        if name == "li":
            return instr.imm
        if name == "mov":
            return a
        if name == "mul":
            return a * b
        if name == "mulh":
            return (a * b) >> 64
        if name in ("div", "rem"):
            if b == 0:
                raise ExecutionError(f"division by zero ({name})")
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if name == "div":
                return quotient
            return a - quotient * b
        raise ExecutionError(f"unhandled integer op {name!r}")

    def _fp_op(self, name: str, instr, state: MachineState) -> float:
        if name == "fli":
            return float(instr.imm)
        a = state.read_reg(instr.srcs[0])
        b = state.read_reg(instr.srcs[1]) if len(instr.srcs) > 1 else 0.0
        if name == "fadd":
            return a + b
        if name == "fsub":
            return a - b
        if name == "fmul":
            return a * b
        if name == "fmadd":
            return a * b + state.read_reg(instr.dst)
        if name == "fdiv":
            if b == 0.0:
                raise ExecutionError("fp division by zero")
            return a / b
        if name == "fsqrt":
            if a < 0.0:
                raise ExecutionError("fsqrt of negative value")
            return a ** 0.5
        if name == "fmin":
            return min(a, b)
        if name == "fmax":
            return max(a, b)
        if name == "fcvt":
            return float(a)
        raise ExecutionError(f"unhandled fp op {name!r}")

    @staticmethod
    def _branch_taken(name: str, instr, state: MachineState) -> bool:
        a = state.read_reg(instr.srcs[0])
        b = state.read_reg(instr.srcs[1])
        if name == "beq":
            return a == b
        if name == "bne":
            return a != b
        if name == "blt":
            return a < b
        if name == "bge":
            return a >= b
        if name == "bltu":
            return (int(a) & _MASK64) < (int(b) & _MASK64)
        if name == "bgeu":
            return (int(a) & _MASK64) >= (int(b) & _MASK64)
        raise ExecutionError(f"unhandled branch {name!r}")


class ExecutionResult:
    """Outcome of one functional execution.

    Attributes:
        program: The executed program.
        state: Final architectural state.
        trace: The dynamic instruction trace, in retirement order.
    """

    def __init__(self, program: Program, state: MachineState,
                 trace: List[TraceRecord]):
        self.program = program
        self.state = state
        self.trace = trace

    @property
    def instruction_count(self) -> int:
        return len(self.trace)

    def register(self, name_or_id) -> float:
        """Read a final register value by name (``"r5"``) or id."""
        if isinstance(name_or_id, str):
            from .registers import parse_register
            name_or_id = parse_register(name_or_id)
        return self.state.read_reg(name_or_id)

    def mix(self) -> Dict[OpClass, int]:
        """Dynamic instruction mix: op class -> count."""
        counts: Dict[OpClass, int] = {}
        for record in self.trace:
            counts[record.op_class] = counts.get(record.op_class, 0) + 1
        return counts


def run_program(program: Program, entry: Optional[str] = None,
                max_instructions: int = 5_000_000) -> ExecutionResult:
    """Convenience wrapper: interpret *program* and return the result."""
    return Interpreter(max_instructions=max_instructions).run(program, entry)
