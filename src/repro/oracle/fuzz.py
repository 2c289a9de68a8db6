"""Random well-formed program generation and the fuzzing campaign.

:class:`ProgramFuzzer` emits seeded random assembly programs that are
*well formed by construction*: every loop is bounded by a dedicated
counter register, divisors live in registers initialised non-zero,
memory displacements stay inside the data segment, and control flow
only ever branches forward or around a counted loop.  Within those
guardrails the generator is deliberately nasty for the machines under
test — dependence chains biased to recently written registers (the
cross-partition traffic Fg-STP slices), aliasing loads and stores over
a small hot set of addresses, dense conditional branches, and calls
through the link register.

:func:`fuzz_campaign` runs each generated program through the shadow
interpreter (architectural golden stream) and then through the timing
machines under the commit-stream oracle; any divergence, hang or other
:class:`~repro.integrity.errors.SimulationError` is ddmin-shrunk and
written out as a regression fixture (``.asm`` source + minimized
``.trace`` + ``.json`` sidecar with the replay recipe).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..integrity.errors import SimulationError
from ..isa.assembler import assemble
from ..isa.program import Program
from .attach import oracle_run_fn, run_trace_under_oracle
from .golden import GoldenStream

#: General-purpose integer destination pool (reserved ids excluded).
_INT_POOL = tuple(f"r{i}" for i in range(1, 13))
#: FP destination pool (f9 is the protected non-zero divisor).
_FP_POOL = tuple(f"f{i}" for i in list(range(1, 9)) + [10, 11, 12])
#: Loop counters: one per loop, never touched by straight-line code.
_COUNTERS = tuple(f"r{i}" for i in range(16, 24))

_INT_RRR = ("add", "sub", "and", "or", "xor", "slt", "sltu",
            "min", "max", "shl", "sar", "mul", "mulh")
_INT_RRI = ("addi", "andi", "ori", "xori", "shli", "shri", "slti")
_FP_RRR = ("fadd", "fsub", "fmul", "fmin", "fmax")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


@dataclass
class FuzzProgram:
    """One generated program: name, assembly source, assembled form."""

    name: str
    source: str
    program: Program


@dataclass
class FuzzFailure:
    """One failed machine run (an oracle divergence, a hang ...)."""

    program: str
    machine: str
    failure_class: str
    message: str
    minimized_length: int = 0
    fixture: Optional[str] = None


@dataclass
class FuzzReport:
    """Campaign summary.

    Attributes:
        runs: Programs generated and executed.
        machines: Machines each program ran on.
        instructions: Total golden (dynamic) instructions checked, per
            machine run.
        failures: Divergences found (empty on a clean campaign).
    """

    runs: int = 0
    machines: Sequence[str] = ()
    instructions: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures


class ProgramFuzzer:
    """Seeded generator of random, terminating, fault-free programs.

    Args:
        seed: Campaign seed; program *i* of a campaign is a pure
            function of ``(seed, i)``.
        blocks: Code blocks per program (each block is a short run of
            ALU/FP/memory/branch/loop/call structure).
        data_size: Data segment size in bytes.
    """

    def __init__(self, seed: int = 0, blocks: int = 8,
                 data_size: int = 256):
        if data_size < 64:
            raise ValueError("data_size must be at least 64 bytes")
        self.seed = seed
        self.blocks = blocks
        self.data_size = data_size

    def generate(self, index: int) -> FuzzProgram:
        """Generate program *index* of this fuzzer's campaign."""
        rng = random.Random(f"fgstp-fuzz:{self.seed}:{index}")
        name = f"fuzz_{self.seed}_{index}"
        gen = _ProgramBuilder(rng, self.blocks, self.data_size, name)
        source = gen.build()
        return FuzzProgram(name, source, assemble(source, name=name))


class _ProgramBuilder:
    """Assembles the source text of one random program."""

    def __init__(self, rng: random.Random, blocks: int, data_size: int,
                 name: str):
        self.rng = rng
        self.blocks = blocks
        self.data_size = data_size
        self.name = name
        self.lines: List[str] = []
        self.recent_int: List[str] = []   # recently written int regs
        self.recent_fp: List[str] = []
        self.labels = 0
        self.functions: List[List[str]] = []
        self.counters = list(_COUNTERS)

    # -- operand selection ---------------------------------------------

    def _label(self, prefix: str) -> str:
        self.labels += 1
        return f"{prefix}{self.labels}"

    def _int_dst(self) -> str:
        reg = self.rng.choice(_INT_POOL)
        self.recent_int.append(reg)
        del self.recent_int[:-6]
        return reg

    def _fp_dst(self) -> str:
        reg = self.rng.choice(_FP_POOL)
        self.recent_fp.append(reg)
        del self.recent_fp[:-4]
        return reg

    def _int_src(self) -> str:
        # Bias toward recent destinations: long dependence chains are
        # what stress cross-partition value forwarding.
        if self.recent_int and self.rng.random() < 0.6:
            return self.rng.choice(self.recent_int)
        if self.rng.random() < 0.08:
            return "r0"
        return self.rng.choice(_INT_POOL)

    def _fp_src(self) -> str:
        if self.recent_fp and self.rng.random() < 0.6:
            return self.rng.choice(self.recent_fp)
        return self.rng.choice(_FP_POOL)

    def _disp(self, base_reg: str, size: int = 8) -> int:
        # r13 holds 0, r15 holds 8; keep base+disp inside the segment.
        base = 0 if base_reg == "r13" else 8
        if size == 8:
            # A small hot set of displacements so loads alias stores.
            slots = min(8, (self.data_size - base) // 8)
            return 8 * self.rng.randrange(slots)
        return self.rng.randrange(self.data_size - base)

    # -- code blocks ---------------------------------------------------

    def _emit(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def _alu_run(self) -> None:
        for _ in range(self.rng.randint(3, 8)):
            roll = self.rng.random()
            if roll < 0.55:
                op = self.rng.choice(_INT_RRR)
                self._emit(f"{op} {self._int_dst()}, {self._int_src()}, "
                           f"{self._int_src()}")
            elif roll < 0.85:
                op = self.rng.choice(_INT_RRI)
                imm = self.rng.randint(0, 63) if op.startswith("sh") \
                    else self.rng.randint(-128, 127)
                self._emit(f"{op} {self._int_dst()}, {self._int_src()}, "
                           f"{imm}")
            elif roll < 0.92:
                self._emit(f"mov {self._int_dst()}, {self._int_src()}")
            elif roll < 0.97:
                self._emit(f"li {self._int_dst()}, "
                           f"{self.rng.randint(-4096, 4096)}")
            else:
                # r14 is initialised to a non-zero constant and never
                # written, so div/rem cannot fault.
                op = self.rng.choice(("div", "rem"))
                self._emit(f"{op} {self._int_dst()}, {self._int_src()}, "
                           f"r14")

    def _fp_run(self) -> None:
        for _ in range(self.rng.randint(2, 5)):
            roll = self.rng.random()
            if roll < 0.6:
                op = self.rng.choice(_FP_RRR)
                self._emit(f"{op} {self._fp_dst()}, {self._fp_src()}, "
                           f"{self._fp_src()}")
            elif roll < 0.8:
                self._emit(f"fmadd {self._fp_dst()}, {self._fp_src()}, "
                           f"{self._fp_src()}")
            elif roll < 0.92:
                self._emit(f"fli {self._fp_dst()}, "
                           f"{self.rng.randint(-64, 64)}")
            else:
                # f9 is the protected non-zero FP divisor.
                self._emit(f"fdiv {self._fp_dst()}, {self._fp_src()}, f9")

    def _mem_run(self) -> None:
        for _ in range(self.rng.randint(2, 6)):
            base = self.rng.choice(("r13", "r15"))
            roll = self.rng.random()
            if roll < 0.35:
                self._emit(f"st {self._int_src()}, "
                           f"{self._disp(base)}({base})")
            elif roll < 0.65:
                self._emit(f"ld {self._int_dst()}, "
                           f"{self._disp(base)}({base})")
            elif roll < 0.75:
                self._emit(f"fst {self._fp_src()}, "
                           f"{self._disp(base)}({base})")
            elif roll < 0.85:
                self._emit(f"fld {self._fp_dst()}, "
                           f"{self._disp(base)}({base})")
            elif roll < 0.93:
                self._emit(f"stb {self._int_src()}, "
                           f"{self._disp(base, 1)}({base})")
            else:
                self._emit(f"ldb {self._int_dst()}, "
                           f"{self._disp(base, 1)}({base})")

    def _skip_branch(self) -> None:
        label = self._label("skip")
        op = self.rng.choice(_BRANCHES)
        self._emit(f"{op} {self._int_src()}, {self._int_src()}, {label}")
        for _ in range(self.rng.randint(1, 3)):
            self._alu_step()
        self.lines.append(f"{label}:")

    def _alu_step(self) -> None:
        op = self.rng.choice(_INT_RRR[:8])
        self._emit(f"{op} {self._int_dst()}, {self._int_src()}, "
                   f"{self._int_src()}")

    def _loop(self) -> None:
        # Rotate through the counter pool: loops never nest, so a
        # counter is dead again once its loop exits.
        counter = self.counters.pop(0)
        self.counters.append(counter)
        label = self._label("loop")
        trips = self.rng.randint(2, 10)
        self._emit(f"li {counter}, {trips}")
        self.lines.append(f"{label}:")
        body = self.rng.randint(1, 3)
        for _ in range(body):
            choice = self.rng.random()
            if choice < 0.5:
                self._alu_step()
            elif choice < 0.8:
                base = self.rng.choice(("r13", "r15"))
                self._emit(f"ld {self._int_dst()}, "
                           f"{self._disp(base)}({base})")
            else:
                base = self.rng.choice(("r13", "r15"))
                self._emit(f"st {self._int_src()}, "
                           f"{self._disp(base)}({base})")
        self._emit(f"addi {counter}, {counter}, -1")
        self._emit(f"bne {counter}, r0, {label}")

    def _call(self) -> None:
        fn = self._label("fn")
        body = [f"{fn}:"]
        for _ in range(self.rng.randint(2, 4)):
            op = self.rng.choice(_INT_RRR[:8])
            body.append(f"    {op} {self.rng.choice(_INT_POOL)}, "
                        f"{self._int_src()}, {self._int_src()}")
        body.append("    ret")
        self.functions.append(body)
        self._emit(f"call {fn}")

    # -- whole program -------------------------------------------------

    def build(self) -> str:
        self.lines = [f".name {self.name}", f".data {self.data_size}"]
        # Protected constants: memory bases, non-zero divisors.
        self._emit("li r13, 0")
        self._emit("li r15, 8")
        self._emit(f"li r14, {self.rng.randint(1, 7)}")
        self._emit(f"fli f9, {self.rng.randint(1, 5)}")
        # A few live values so the first consumers read something real.
        for _ in range(3):
            self._emit(f"li {self._int_dst()}, "
                       f"{self.rng.randint(-100, 100)}")
        self._emit(f"fli {self._fp_dst()}, {self.rng.randint(-8, 8)}")
        blocks = (self._alu_run, self._mem_run, self._fp_run,
                  self._skip_branch, self._loop, self._call)
        weights = (0.30, 0.22, 0.14, 0.16, 0.13, 0.05)
        for _ in range(self.blocks):
            self.rng.choices(blocks, weights=weights)[0]()
        self._emit("halt")
        for body in self.functions:
            self.lines.extend(body)
        return "\n".join(self.lines) + "\n"


def fuzz_campaign(runs: int = 20,
                  seed: int = 0,
                  machines: Sequence[str] = (),
                  base=None,
                  fgstp=None,
                  fixture_dir: Optional[Path] = None,
                  shrink: bool = True,
                  blocks: int = 8,
                  max_instructions: int = 100_000,
                  log: Optional[Callable[[str], None]] = None,
                  **overrides) -> FuzzReport:
    """Run a differential fuzzing campaign.

    Each generated program is executed by the shadow interpreter (which
    also dataflow-checks every record) and its trace replayed on every
    machine under the commit-stream oracle.  Failures (a divergence or
    any other :class:`SimulationError`, such as a hang) do not abort the
    campaign; they are shrunk (when *shrink*) and collected.

    Args:
        runs: Number of programs to generate.
        seed: Campaign seed.
        machines: Machines to check (default: all four).
        base: Core configuration (default: the small reference core).
        fgstp: Fg-STP parameters for the fgstp machines.
        fixture_dir: Where to write regression fixtures for failures
            (``None`` disables fixture writing).
        shrink: ddmin-shrink failing traces before writing fixtures.
        blocks: Code blocks per generated program (program size knob).
        max_instructions: Dynamic budget per program.
        log: Optional progress sink (e.g. ``print``).
        **overrides: Machine constructor overrides.
    """
    from ..harness.runners import MACHINES
    from ..integrity.minimize import minimize_failure
    from ..uarch.params import core_config

    if base is None:
        base = core_config("small")
    machines = tuple(machines) or MACHINES
    fuzzer = ProgramFuzzer(seed=seed, blocks=blocks)
    report = FuzzReport(runs=runs, machines=machines)

    for index in range(runs):
        generated = fuzzer.generate(index)
        golden = GoldenStream.from_program(
            generated.program, max_instructions=max_instructions)
        if log:
            log(f"[{index + 1}/{runs}] {generated.name}: "
                f"{len(golden)} instructions")
        for machine in machines:
            try:
                run_trace_under_oracle(
                    machine, golden.records, base, fgstp=fgstp,
                    golden=golden, workload=generated.name,
                    context={"fuzz_seed": seed, "fuzz_index": index,
                             "machine": machine},
                    **overrides)
            except SimulationError as error:
                failure = FuzzFailure(
                    program=generated.name, machine=machine,
                    failure_class=error.failure_class, message=str(error))
                if log:
                    log(f"  {error.failure_class} on {machine}: {error}")
                if shrink:
                    minimized = minimize_failure(
                        golden.records,
                        oracle_run_fn(machine, base, fgstp=fgstp,
                                      **overrides),
                        failure_class=error.failure_class)
                    failure.minimized_length = minimized.minimized_length
                    if fixture_dir is not None and minimized.reproduced:
                        failure.fixture = str(_write_fixture(
                            Path(fixture_dir), generated, machine,
                            error, minimized.records))
                report.failures.append(failure)
            else:
                report.instructions += len(golden)
    return report


def _write_fixture(directory: Path, generated: FuzzProgram, machine: str,
                   error: SimulationError, records) -> Path:
    """Write a shrunk failure as a replayable regression fixture."""
    from ..trace.io import write_trace

    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{generated.name}-{machine}-{error.detail or error.kind}"
    (directory / f"{stem}.asm").write_text(generated.source)
    write_trace(records, directory / f"{stem}.trace")
    meta = {
        "program": generated.name,
        "machine": machine,
        "failure_class": error.failure_class,
        "message": str(error),
        "minimized_length": len(records),
        "trace": f"{stem}.trace",
        "source": f"{stem}.asm",
    }
    (directory / f"{stem}.json").write_text(json.dumps(meta, indent=2))
    return directory / f"{stem}.json"


def describe_report(report: FuzzReport) -> str:
    """Human-readable campaign summary for the CLI."""
    lines = [
        f"fuzz campaign: {report.runs} programs x "
        f"{len(report.machines)} machines "
        f"({', '.join(report.machines)})",
        f"  clean machine-runs checked {report.instructions} "
        f"instructions against the oracle",
    ]
    if report.clean:
        lines.append("  no divergences")
    else:
        lines.append(f"  {len(report.failures)} divergence(s):")
        for failure in report.failures:
            where = (f" [fixture: {failure.fixture}]"
                     if failure.fixture else "")
            lines.append(
                f"    {failure.program} on {failure.machine}: "
                f"{failure.failure_class} "
                f"(minimized to {failure.minimized_length}){where}")
    return "\n".join(lines)
