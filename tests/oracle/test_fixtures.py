"""Replay every committed regression fixture under the oracle.

Fixtures are programs that once exposed a real interpreter/assembler/
machine disagreement.  They must stay green: shadow execution
dataflow-checks every instruction, and all four machines must retire
the stream exactly.
"""

from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.parallel import execute_job, make_job
from repro.harness.runners import MACHINES
from repro.isa import assemble
from repro.oracle import GoldenStream
from repro.uarch.params import small_core_config

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.asm"))


def _golden(path):
    return GoldenStream.from_program(assemble(path.read_text(),
                                              name=path.stem))


def _replay(machine, path, golden, **overrides):
    """*golden*'s records run as *machine*'s oracle job against it."""
    job = make_job(machine, path.stem, small_core_config(),
                   ExperimentConfig(warmup=0), oracle=True, **overrides)
    return execute_job(job, golden.records, golden=golden)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_shadow_executes_cleanly(path):
    golden = _golden(path)
    assert len(golden) > 0


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("machine", MACHINES)
def test_fixture_replays_clean_on_every_machine(path, machine):
    golden = _golden(path)
    result = _replay(machine, path, golden)
    assert result.extra["oracle"]["checked"] == len(golden)


def test_fmadd_fixture_declares_the_accumulator_dependence():
    # The specific shape of the fixed bug: every fmadd record's srcs
    # must include its destination, or the timing models treat the
    # accumulation chain as independent instructions.
    golden = _golden(FIXTURE_DIR / "fmadd_dataflow.asm")
    chain = [e.record for e in golden if e.record.dst is not None
             and e.record.dst in e.record.srcs]
    assert len(chain) == 3, "fmadd must declare dst among its srcs"
    # And the accumulated value is architecturally right: 1 + 3*(2*3).
    assert golden.events[-3].dst_value == pytest.approx(19.0)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("machine", MACHINES)
def test_fixture_oracle_identical_under_skip_ahead(path, machine):
    """Idle-cycle skip-ahead must be invisible to the oracle: fixture
    replays with the fast path on and off produce bit-identical
    results, retirement checks included.  (Ten 20-program fuzz
    campaigns across all machines ran clean over the skip path before
    this pin; this keeps the combination exercised deterministically.)"""
    golden = _golden(path)
    results = [_replay(machine, path, golden, skip_ahead=skip)
               for skip in (False, True)]
    assert results[0].as_dict() == results[1].as_dict()
    assert results[1].extra["oracle"]["checked"] == len(golden)
