"""Checkpoint store format, corruption handling, and chaos coverage.

The store's contract mirrors the result cache's: a checkpoint is either
served intact (sha256-verified) or quarantined and treated as absent —
a corrupt snapshot must never poison a resume.
"""

import copy
import io
import json
from types import SimpleNamespace

import pytest

from repro.ckpt import state
from repro.ckpt.state import (CheckpointCorruption, CheckpointMismatch,
                              MachineCheckpoint, dumps_state,
                              loads_state, run_scope,
                              trace_fingerprint)
from repro.ckpt.store import (CHECKPOINT_FORMAT, CheckpointStore, run_key)
from repro.integrity.chaos import ChaosSpec, apply_chaos
from repro.uarch.params import core_config
from repro.uarch.pipeline.machine import SingleCoreMachine
from repro.workloads.generator import generate_trace


def _checkpoint(**overrides) -> MachineCheckpoint:
    fields = dict(machine="single", workload="gcc", warmup=5,
                  trace_fingerprint="f" * 16, params_key="pk",
                  cycle=100, committed=50,
                  payload=dumps_state({"answer": 41}))
    fields.update(overrides)
    return MachineCheckpoint(**fields)


def test_save_load_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    path = store.save("abc123", _checkpoint())
    assert path.exists()
    loaded = store.load("abc123")
    assert loaded is not None
    assert loaded.meta() == _checkpoint().meta()
    assert loads_state(loaded.payload) == {"answer": 41}


def test_header_line_is_json_with_checksum(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    path = store.save("abc123", _checkpoint())
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["format"] == CHECKPOINT_FORMAT
    assert len(header["sha256"]) == 64
    assert header["meta"]["machine"] == "single"
    assert header["meta"]["committed"] == 50


def test_load_missing_returns_none(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    assert store.load("nope") is None


def test_corrupt_payload_quarantined(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    path = store.save("abc123", _checkpoint())
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))

    assert store.load("abc123") is None
    assert not path.exists()
    quarantined = list((tmp_path / "quarantine").iterdir())
    assert any(entry.suffix != ".reason" for entry in quarantined)
    assert any(entry.suffix == ".reason" for entry in quarantined)


def test_garbage_header_quarantined(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    path = store.path_for("abc123")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"this is not a checkpoint\nat all")
    assert store.load("abc123") is None
    assert not path.exists()


def test_validate_for_mismatches():
    checkpoint = _checkpoint()
    checkpoint.validate_for("single", "f" * 16, 5, "pk")  # clean
    with pytest.raises(CheckpointMismatch):
        checkpoint.validate_for("fgstp", "f" * 16, 5, "pk")
    with pytest.raises(CheckpointMismatch):
        checkpoint.validate_for("single", "0" * 16, 5, "pk")
    with pytest.raises(CheckpointMismatch):
        checkpoint.validate_for("single", "f" * 16, 6, "pk")
    with pytest.raises(CheckpointMismatch):
        checkpoint.validate_for("single", "f" * 16, 5, "other")


def test_restore_checks_the_state_keys():
    trace = generate_trace("gcc", 40, 1)
    checkpoint = _checkpoint(trace_fingerprint=trace_fingerprint(trace))
    assert checkpoint.restore("single", trace, 5, "pk",
                              ("answer",)) == {"answer": 41}
    with pytest.raises(CheckpointCorruption, match="missing"):
        checkpoint.restore("single", trace, 5, "pk", ("answer", "core"))


def test_loads_state_rejects_garbage():
    import pickle

    with pytest.raises(CheckpointCorruption):
        loads_state(b"not a pickle")
    with pytest.raises(CheckpointCorruption):
        loads_state(pickle.dumps([1, 2, 3]))  # payload must be a dict


def test_run_key_is_stable_and_discriminating():
    key = run_key("single", "gcc", 100, "pk", "fp")
    assert key == run_key("single", "gcc", 100, "pk", "fp")
    assert key != run_key("fgstp", "gcc", 100, "pk", "fp")
    assert key != run_key("single", "mcf", 100, "pk", "fp")
    assert key != run_key("single", "gcc", 200, "pk", "fp")
    assert key != run_key("single", "gcc", 100, "pk2", "fp")
    assert key != run_key("single", "gcc", 100, "pk", "fp2")


def test_trace_fingerprint_sensitivity():
    trace = generate_trace("gcc", 200, 1)
    assert trace_fingerprint(trace) == trace_fingerprint(trace)
    assert trace_fingerprint(trace) != trace_fingerprint(trace[:-1])
    assert trace_fingerprint(trace) != \
        trace_fingerprint(generate_trace("gcc", 200, 2))


def test_fingerprint_ignores_object_identity():
    """A generated trace, its disk round trip and a deep copy share no
    record objects, yet fingerprint alike."""
    from repro.trace.io import read_trace, write_trace

    trace = generate_trace("gcc", 3000, 1)
    stream = io.BytesIO()
    write_trace(trace, stream)
    stream.seek(0)
    reread = read_trace(stream)
    assert reread[0] is not trace[0]
    assert trace_fingerprint(reread) == trace_fingerprint(trace)
    assert trace_fingerprint(copy.deepcopy(trace)) == \
        trace_fingerprint(trace)


@pytest.mark.parametrize("field", ("seq", "pc", "op_class", "dst", "srcs",
                                   "mem_addr", "mem_size", "taken",
                                   "target"))
def test_fingerprint_sees_every_field(field):
    from repro.isa.opcodes import OpClass

    trace = generate_trace("gcc", 300, 1)
    record = copy.copy(trace[150])
    value = {"seq": 7, "pc": 12345, "dst": 30, "srcs": (1, 2, 3),
             "mem_addr": 0xdead0, "mem_size": 3, "target": 999,
             "taken": not record.taken,
             "op_class": (OpClass.NOP if record.op_class != OpClass.NOP
                          else OpClass.IALU)}[field]
    assert getattr(record, field) != value
    setattr(record, field, value)
    changed = trace[:150] + [record] + trace[151:]
    assert trace_fingerprint(changed) != trace_fingerprint(trace)


def test_fingerprint_scope_hashes_a_trace_once(monkeypatch):
    """Within a scope each trace object is hashed once; the memo dies
    with the scope, so a trace changed in place afterwards is hashed
    afresh."""
    hashed = []
    original = state._hash_trace
    monkeypatch.setattr(state, "_hash_trace",
                        lambda trace: hashed.append(1) or original(trace))
    trace = generate_trace("gcc", 300, 1)
    with run_scope():
        first = trace_fingerprint(trace)
        with run_scope():
            assert trace_fingerprint(trace) == first
        assert trace_fingerprint(trace[:]) == first
    assert len(hashed) == 2  # the slice is another object
    trace[10].pc += 1
    assert trace_fingerprint(trace) != first
    assert len(hashed) == 3


@pytest.mark.parametrize("machine", ("single", "fgstp", "fgstp-adaptive"))
def test_run_machine_hashes_its_trace_once(tmp_path, monkeypatch, machine):
    """The checkpoint lookup, the restore check and the checkpoints of
    one engine job run (``execute_job``) share one fingerprint, cold or
    resumed."""
    from repro.harness.config import ExperimentConfig
    from repro.harness.parallel import execute_job, make_job

    hashed = []
    original = state._hash_trace
    monkeypatch.setattr(state, "_hash_trace",
                        lambda trace: hashed.append(1) or original(trace))
    store = CheckpointStore(tmp_path / "ckpts")
    found = []
    load = store.load

    def load_spy(key):
        checkpoint = load(key)
        found.append(checkpoint is not None)
        return checkpoint

    monkeypatch.setattr(store, "load", load_spy)
    config = ExperimentConfig(trace_length=2400, warmup=400, seed=3)
    overrides = ({"sample_instructions": 300, "region_instructions": 600}
                 if machine == "fgstp-adaptive" else {})
    job = make_job(machine, "gcc", core_config("small"), config,
                   checkpoint_interval=700, checkpoint_sink=store,
                   **overrides)
    results = []
    for _ in range(2):  # cold, then resumed from the latest checkpoint
        results.append(execute_job(job))
        assert len(hashed) == len(results)
    assert found == [False, True]
    assert results[0].as_dict() == results[1].as_dict()


def test_run_before_its_first_mark_never_fingerprints(monkeypatch):
    """The run's identity is computed at the first checkpoint, so a
    checkpointing run shorter than its interval never hashes the
    trace."""
    from repro.ckpt import manager

    def forbidden(trace):
        raise AssertionError("trace_fingerprint called")

    monkeypatch.setattr(manager, "trace_fingerprint", forbidden)
    saved = []
    trace = generate_trace("gcc", 1200, 1)
    sink = SimpleNamespace(save=lambda *args: saved.append(args))
    SingleCoreMachine(core_config("small"), checkpoint_interval=900,
                      checkpoint_sink=sink) \
        .run(trace, workload="gcc", warmup=400)
    assert saved == []


def test_checkpoint_identity_matches_the_run(tmp_path):
    """A run past its first mark names and labels its checkpoint from
    the whole trace, warm-up included, as an eager computation would."""
    trace = generate_trace("gcc", 1200, 1)
    machine = SingleCoreMachine(core_config("small"),
                                checkpoint_interval=300,
                                checkpoint_sink=CheckpointStore(tmp_path))
    machine.run(trace, workload="gcc", warmup=400)
    fingerprint = trace_fingerprint(trace)
    key = run_key("single", "gcc", 400, machine.checkpoint_params_key(),
                  fingerprint)
    assert [path.name for path in tmp_path.glob("*.ckpt")] \
        == [f"{key}.ckpt"]
    meta = CheckpointStore(tmp_path).load(key).meta()
    assert meta["committed"] >= 600  # the latest mark of 300 and 600
    assert meta == {"machine": "single", "workload": "gcc", "warmup": 400,
                    "trace_fingerprint": fingerprint,
                    "params_key": machine.checkpoint_params_key(),
                    "cycle": meta["cycle"], "committed": meta["committed"]}


def test_corrupt_checkpoint_chaos_is_detected(tmp_path):
    """The chaos kind provably lands in the payload and is caught.

    Every file the vandalised sink writes must fail its sha256 check on
    load, get quarantined, and read back as absent — while the run
    itself stays bit-identical (checkpoint writes never affect timing).
    """
    base = core_config("small")
    trace = generate_trace("gcc", 2500, 3)
    store = CheckpointStore(tmp_path / "ckpts")

    machine = SingleCoreMachine(base, checkpoint_interval=600,
                                checkpoint_sink=store)
    apply_chaos(machine, ChaosSpec.parse("corrupt_checkpoint"))
    assert machine._chaos_kinds == ("corrupt_checkpoint",)
    result = machine.run(trace, workload="gcc", warmup=500)

    plain = SingleCoreMachine(base).run(trace, workload="gcc", warmup=500)
    assert result.as_dict() == plain.as_dict()

    written = list((tmp_path / "ckpts").glob("*.ckpt"))
    assert written, "chaos run took no checkpoints"
    for path in written:
        assert store.load(path.stem) is None
    assert not list((tmp_path / "ckpts").glob("*.ckpt"))
    reasons = list((tmp_path / "quarantine").glob("*.reason"))
    assert len(reasons) == len(written)


def test_corrupt_checkpoint_chaos_never_poisons_run_machine(
        tmp_path, monkeypatch):
    """Under env chaos + env interval, an engine job run
    (``execute_job``) stays correct: auto-resume refuses the chaos-built
    machine and results match a clean run exactly."""
    from repro.harness.config import ExperimentConfig
    from repro.harness.parallel import execute_job, make_job

    base = core_config("small")
    config = ExperimentConfig(trace_length=2500, warmup=500, seed=3)
    clean = execute_job(make_job("single", "gcc", base, config))

    monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "600")
    monkeypatch.setenv("REPRO_CHAOS", "corrupt_checkpoint")
    store = CheckpointStore(tmp_path / "ckpts")
    job = make_job("single", "gcc", base, config, checkpoint_sink=store)
    for _ in range(2):  # second run must not resume from corrupt files
        chaotic = execute_job(job)
        assert chaotic.as_dict() == clean.as_dict()
