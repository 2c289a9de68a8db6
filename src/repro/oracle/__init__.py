"""Differential commit-stream oracle and random-program fuzzing.

Timing models in this repository replay architecture-flavoured traces;
a timing bug that silently drops, duplicates, reorders or corrupts a
retired instruction produces *plausible-looking* cycle counts and is
invisible to performance assertions.  This package closes that hole:

* :mod:`.stream` — :class:`CommitEvent`, the machine-agnostic record of
  one architectural retirement (built from a pipeline uop by the commit
  hooks every machine now exposes).
* :mod:`.golden` — :class:`GoldenStream`, the reference stream derived
  either from the trace itself (trace fidelity) or from a shadow run of
  the functional interpreter (full architectural values + a strict
  register-dataflow cross-check).
* :mod:`.oracle` — :class:`CommitStreamOracle` checks a machine's
  stream against the golden one event by event and raises
  :class:`OracleDivergence` (a :class:`~repro.integrity.errors.
  SimulationError`, so crash dumps and ddmin minimization apply) at the
  first divergence.
* :mod:`.mutate` — seeded commit-stream mutators used by the self-test
  to prove the oracle detects each class of dataflow/ordering bug.
* :mod:`.attach` — glue: run a machine under the oracle
  (``execute_job`` runs every oracle job through it).
* :mod:`.selftest` — the seeded-mutation self-test.
* :mod:`.fuzz` — random well-formed program generation and the fuzzing
  campaign (`repro fuzz`).
"""

from .fuzz import FuzzReport, ProgramFuzzer, fuzz_campaign
from .golden import GoldenEvent, GoldenStream
from .mutate import MUTATION_KINDS, EventMutator, make_mutator
from .oracle import CommitStreamOracle, OracleDivergence, OracleHook
from .selftest import MutationOutcome, run_selftest
from .stream import CommitEvent

__all__ = [
    "CommitEvent",
    "CommitStreamOracle",
    "EventMutator",
    "FuzzReport",
    "GoldenEvent",
    "GoldenStream",
    "MUTATION_KINDS",
    "MutationOutcome",
    "OracleDivergence",
    "OracleHook",
    "ProgramFuzzer",
    "fuzz_campaign",
    "make_mutator",
    "run_selftest",
]
