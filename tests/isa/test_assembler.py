"""Unit tests for the assembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.errors import AssemblerError
from repro.isa.opcodes import OpClass
from repro.isa.registers import LINK_REG


def test_empty_program_rejected():
    with pytest.raises(AssemblerError):
        assemble("")


def test_basic_rrr():
    program = assemble("add r1, r2, r3\nhalt")
    instr = program.instructions[0]
    assert instr.name == "add"
    assert instr.dst == 1
    assert instr.srcs == (2, 3)


def test_immediate_forms():
    program = assemble("addi r1, r2, 42\nli r3, -7\nhalt")
    assert program.instructions[0].imm == 42
    assert program.instructions[1].imm == -7
    assert program.instructions[1].srcs == ()


def test_hex_immediates():
    program = assemble("li r1, 0xff\nhalt")
    assert program.instructions[0].imm == 255


def test_memory_operands():
    program = assemble("ld r1, 8(r2)\nst r3, -16(sp)\nhalt")
    load = program.instructions[0]
    assert load.dst == 1 and load.srcs == (2,) and load.imm == 8
    store = program.instructions[1]
    assert store.dst is None
    assert store.srcs == (30, 3)  # (base, value)
    assert store.imm == -16


def test_labels_resolve():
    program = assemble("""
start:
    addi r1, r1, 1
    bne r1, r2, start
    halt
""")
    branch = program.instructions[1]
    assert branch.label is None
    assert branch.imm == 0  # start


def test_label_prefixing_instruction():
    program = assemble("top: addi r1, r1, 1\njmp top\nhalt")
    assert program.labels["top"] == 0
    assert program.instructions[1].imm == 0


def test_undefined_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("jmp nowhere\nhalt")


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("a:\na:\nhalt")


def test_call_and_ret():
    program = assemble("""
    call fn
    halt
fn:
    ret
""")
    call = program.instructions[0]
    assert call.dst == LINK_REG
    assert call.imm == 2
    ret = program.instructions[2]
    assert ret.srcs == (LINK_REG,)


def test_comments_and_blank_lines():
    program = assemble("""
# leading comment

    li r1, 5   # trailing comment
    halt
""")
    assert len(program.instructions) == 2


def test_unknown_opcode_message_carries_line():
    with pytest.raises(AssemblerError) as excinfo:
        assemble("li r1, 1\nfrobnicate r1\nhalt")
    assert "line 2" in str(excinfo.value)


def test_wrong_operand_count():
    with pytest.raises(AssemblerError):
        assemble("add r1, r2\nhalt")


def test_bad_memory_operand():
    with pytest.raises(AssemblerError):
        assemble("ld r1, r2\nhalt")


def test_directives():
    program = assemble("""
.name mytest
.data 4096
.word 16 99
    halt
""")
    assert program.name == "mytest"
    assert program.data_size == 4096
    assert program.data_init[16] == 99


def test_unknown_directive():
    with pytest.raises(AssemblerError):
        assemble(".bogus 1\nhalt")


def test_branch_op_class():
    program = assemble("x: beq r1, r2, x\nhalt")
    assert program.instructions[0].op_class is OpClass.BRANCH


def test_mov_two_operands():
    program = assemble("mov r1, r2\nhalt")
    instr = program.instructions[0]
    assert instr.dst == 1 and instr.srcs == (2,)


_INT_REGS = tuple(f"r{i}" for i in range(32))
_FP_REGS = tuple(f"f{i}" for i in range(32))

_RRR_INT = ("add", "sub", "and", "or", "xor", "shl", "shr", "sar",
            "slt", "sltu", "min", "max", "mul", "mulh", "div", "rem")
_RRI = ("addi", "andi", "ori", "xori", "shli", "shri", "slti")
_RRR_FP = ("fadd", "fsub", "fmin", "fmax", "fcvt", "fmul", "fmadd",
           "fdiv", "fsqrt")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")

_KINDS = ("rrr", "rri", "li", "mov", "fp", "fli", "load", "store",
          "fpload", "fpstore", "branch", "jmp", "call", "jr", "ret",
          "nop")


@st.composite
def programs(draw):
    """Source text of a random well-formed (not necessarily
    terminating — never executed) program."""
    int_reg = st.sampled_from(_INT_REGS)
    fp_reg = st.sampled_from(_FP_REGS)
    imm = st.integers(-4096, 4095)
    data_size = draw(st.sampled_from((64, 256, 1024)))
    disp = st.integers(0, data_size - 8)

    n = draw(st.integers(min_value=3, max_value=20))
    # Labels at arbitrary instruction indices; index n is the final
    # halt, so every drawn label is a legal transfer target.
    labelled = sorted(draw(st.sets(st.integers(0, n), max_size=4)))
    labels = {index: f"T{index}" for index in labelled}
    targets = st.sampled_from(sorted(labels.values())) if labels else None

    lines = [".name prop", f".data {data_size}"]
    for offset, value in draw(st.dictionaries(
            st.integers(0, max(0, data_size - 8)),
            st.integers(-2**31, 2**31), max_size=3)).items():
        lines.append(f".word {offset} {value}")

    for index in range(n):
        if index in labels:
            lines.append(f"{labels[index]}:")
        kind = draw(st.sampled_from(_KINDS))
        if kind in ("branch", "jmp", "call") and targets is None:
            kind = "rrr"
        if kind == "rrr":
            op = draw(st.sampled_from(_RRR_INT))
            line = (f"{op} {draw(int_reg)}, {draw(int_reg)}, "
                    f"{draw(int_reg)}")
        elif kind == "rri":
            op = draw(st.sampled_from(_RRI))
            line = (f"{op} {draw(int_reg)}, {draw(int_reg)}, "
                    f"{draw(imm)}")
        elif kind == "li":
            line = f"li {draw(int_reg)}, {draw(imm)}"
        elif kind == "mov":
            line = f"mov {draw(int_reg)}, {draw(int_reg)}"
        elif kind == "fp":
            op = draw(st.sampled_from(_RRR_FP))
            line = (f"{op} {draw(fp_reg)}, {draw(fp_reg)}, "
                    f"{draw(fp_reg)}")
        elif kind == "fli":
            line = f"fli {draw(fp_reg)}, {draw(imm)}"
        elif kind == "load":
            op = draw(st.sampled_from(("ld", "ldb")))
            line = (f"{op} {draw(int_reg)}, "
                    f"{draw(disp)}({draw(int_reg)})")
        elif kind == "store":
            op = draw(st.sampled_from(("st", "stb")))
            line = (f"{op} {draw(int_reg)}, "
                    f"{draw(disp)}({draw(int_reg)})")
        elif kind == "fpload":
            line = f"fld {draw(fp_reg)}, {draw(disp)}({draw(int_reg)})"
        elif kind == "fpstore":
            line = f"fst {draw(fp_reg)}, {draw(disp)}({draw(int_reg)})"
        elif kind == "branch":
            op = draw(st.sampled_from(_BRANCHES))
            line = (f"{op} {draw(int_reg)}, {draw(int_reg)}, "
                    f"{draw(targets)}")
        elif kind == "jmp":
            line = f"jmp {draw(targets)}"
        elif kind == "call":
            line = f"call {draw(targets)}"
        elif kind == "jr":
            line = f"jr {draw(int_reg)}"
        elif kind == "ret":
            line = "ret"
        else:
            line = "nop"
        lines.append(f"    {line}")
    if n in labels:
        lines.append(f"{labels[n]}:")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(programs())
def test_assembly_is_deterministic(source):
    assert assemble(source).instructions == assemble(source).instructions


ALL_SHAPES = """
.name shapes
.data 128
.word 0 7
entry:
    add r1, r2, r3
    addi r4, r1, -17
    li r5, 4095
    mov r6, r5
    fmadd f1, f2, f3
    fsqrt f4, f5, f6
    fli f7, -3
    ld r7, 8(r5)
    st r7, 16(r5)
    fld f8, 24(r5)
    fst f8, 32(r5)
    stb r1, 1(r5)
    ldb r2, 2(r5)
    beq r1, r2, entry
    jmp out
    call entry
    jr r31
    ret
    nop
out:
    halt
"""


def test_every_operand_shape_assembles():
    program = assemble(ALL_SHAPES)
    names = [instr.name for instr in program.instructions]
    assert names == ["add", "addi", "li", "mov", "fmadd", "fsqrt", "fli",
                     "ld", "st", "fld", "fst", "stb", "ldb", "beq", "jmp",
                     "call", "jr", "ret", "nop", "halt"]
    assert program.name == "shapes" and program.data_size == 128
    assert program.data_init[0] == 7
    assert program.labels == {"entry": 0, "out": 19}
    # Transfers resolve to instruction indices.
    assert [program.instructions[i].imm for i in (13, 14, 15)] == [0, 19, 0]
    assert all(instr.label is None for instr in program.instructions)
