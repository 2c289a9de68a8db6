"""Simulated results pinned across commits.

Every other bit-identity suite compares two runs of the same commit
(naive against skip-ahead, bare against traced, straight against
resumed), so a change that shifts timing on both sides passes them all.
This test recomputes digests of whole results and of their metrics
over a fixed machine x benchmark x config matrix, plus the
shape of two structured failures per cycle-level machine, and compares
them with ``golden_results.json``.

A deliberate timing change bumps ``repro.diskstore.MODEL_VERSION``, so
no result or checkpoint of the old model is served from a warm
``.repro_cache/``, and regenerates the fixture with::

    PYTHONPATH=src python tests/integration/test_golden_results.py \\
        > tests/integration/golden_results.json

then adds the new file's sha256 to :data:`FIXTURE_SHA256` under the new
version.  A fixture regenerated without a bump fails
``test_fixture_is_pinned_to_the_model_version``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.diskstore import MODEL_VERSION
from repro.fgstp.params import FgStpParams
from repro.harness.runners import build_machine
from repro.integrity.chaos import ChaosSpec, apply_chaos
from repro.integrity.errors import SimulationError
from repro.obs.metrics import metrics_of
from repro.uarch.params import core_config
from repro.workloads.generator import generate_trace

FIXTURE = Path(__file__).with_name("golden_results.json")
#: sha256 of the fixture file for each ``MODEL_VERSION``.
FIXTURE_SHA256 = {
    4: "65a1c86064c34cbdfecbc7e218a82aa582c9e5f5f585973733724ec974c6b8c4",
}
LENGTH, WARMUP, SEED = 3000, 600, 11
BENCHMARKS = ("gcc", "mcf", "milc")
CONFIGS = ("small", "medium")
#: Variant -> (machine, constructor overrides).  The second adaptive
#: variant uses small regions so a short trace crosses several region
#: boundaries.
VARIANTS = {
    "single": ("single", {}),
    "corefusion": ("corefusion", {}),
    "fgstp": ("fgstp", {}),
    "fgstp-adaptive": ("fgstp-adaptive", {}),
    "fgstp-adaptive-regions": ("fgstp-adaptive",
                               {"sample_instructions": 400,
                                "region_instructions": 1200}),
}
#: Failure -> (constructor overrides, chaos spec).
FAILURES = {
    "limit": ({"max_cycles": 50}, None),
    "hang": ({"watchdog_window": 500}, "commit_stall:after=100"),
}
FAILING_MACHINES = ("single", "corefusion", "fgstp")

RESULT_CELLS = [f"{variant}/{benchmark}/{config}" for variant in VARIANTS
                for benchmark in BENCHMARKS for config in CONFIGS]
FAILURE_CELLS = [f"{machine}/{failure}" for machine in FAILING_MACHINES
                 for failure in FAILURES]


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(cell: str) -> dict:
    """Digests of one run and of the metrics built from it."""
    variant, benchmark, config = cell.split("/")
    machine, overrides = VARIANTS[variant]
    model = build_machine(machine, core_config(config), FgStpParams(),
                          **overrides)
    result = model.run(generate_trace(benchmark, LENGTH, SEED),
                       workload=benchmark, warmup=WARMUP)
    return {"result": _sha(result.as_dict()),
            "skipped_cycles": getattr(model, "skipped_cycles", None),
            "metrics": _sha(metrics_of(result))}


def failure_shape(cell: str) -> dict:
    """Type, classification, progress and payload keys of one failure."""
    machine, failure = cell.split("/")
    overrides, chaos = FAILURES[failure]
    model = build_machine(machine, core_config("small"), FgStpParams(),
                          **overrides)
    if chaos is not None:
        apply_chaos(model, ChaosSpec.parse(chaos))
    try:
        model.run(generate_trace("gcc", LENGTH, SEED), workload="gcc",
                  warmup=WARMUP)
    except SimulationError as error:
        return {"type": type(error).__name__, "detail": error.detail,
                "cycles": error.cycles, "instructions": error.instructions,
                "partial": sorted(error.partial),
                "snapshot": sorted(error.snapshot)}
    return {"type": None}


def compute_golden() -> dict:
    return {"results": {cell: result_digest(cell) for cell in RESULT_CELLS},
            "failures": {cell: failure_shape(cell)
                         for cell in FAILURE_CELLS}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_is_pinned_to_the_model_version():
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    assert FIXTURE_SHA256.get(MODEL_VERSION) == digest, (
        f"golden_results.json (sha256 {digest}) is not pinned for "
        f"MODEL_VERSION {MODEL_VERSION}; a timing change bumps the version")


@pytest.mark.parametrize("cell", RESULT_CELLS)
def test_result_matches_golden(golden, cell):
    fresh = result_digest(cell)
    assert fresh == golden["results"][cell], \
        f"{cell} changed; fresh value: {json.dumps(fresh, sort_keys=True)}"


@pytest.mark.parametrize("cell", FAILURE_CELLS)
def test_failure_matches_golden(golden, cell):
    fresh = failure_shape(cell)
    assert fresh == golden["failures"][cell], \
        f"{cell} changed; fresh value: {json.dumps(fresh, sort_keys=True)}"


if __name__ == "__main__":
    print(json.dumps(compute_golden(), indent=1, sort_keys=True))
