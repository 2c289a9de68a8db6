"""The one disk store behind every ``.repro_cache/`` tier.

Unit checks of the envelope, the atomic write and the quarantine; then,
for each of the five writers, that a failed write leaves nothing behind;
then, for each checksummed tier, that one flipped bit in an entry a real
run wrote is quarantined and recomputed.
"""

import io
import json
import os

import pytest

from repro import diskstore
from repro.ckpt.state import MachineCheckpoint, dumps_state
from repro.ckpt.store import CheckpointStore
from repro.harness.campaign import Campaign
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import ExperimentEngine, execute_job, make_job
from repro.integrity.errors import SimulationHang
from repro.integrity.forensics import write_crash_dump
from repro.stats.result import SimResult
from repro.trace.io import _HEADER, _RECORD, read_trace
from repro.uarch.params import core_config
from repro.workloads.generator import generate_trace
from repro.workloads.suite import DiskTraceCache


def _files(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def _quarantined(root):
    return sorted(path.name for path in (root / "quarantine").iterdir())


# -- the envelope ---------------------------------------------------------

def test_put_get_round_trip(tmp_path):
    path = tmp_path / "tier" / "entry.bin"
    diskstore.put(path, b"\x00body\nwith newlines\xff", "fmt-v1", {"a": 1})
    assert diskstore.get(path, "fmt-v1") == (
        {"a": 1}, b"\x00body\nwith newlines\xff")
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert sorted(header) == ["format", "meta", "sha256"]
    assert list(_files(tmp_path)) == ["tier/entry.bin"]


def test_get_misses_an_absent_or_unreadable_file(tmp_path):
    assert diskstore.get(tmp_path / "absent", "fmt-v1") is None
    (tmp_path / "a-directory").mkdir()
    assert diskstore.get(tmp_path / "a-directory", "fmt-v1") is None


@pytest.mark.parametrize("damage", ("body", "header", "format", "empty"))
def test_get_rejects_a_damaged_entry(tmp_path, damage):
    path = tmp_path / "entry"
    diskstore.put(path, b"payload", "fmt-v1", {})
    data = path.read_bytes()
    data = {"body": data[:-1] + b"P",
            "header": b"{not json" + data[data.index(b"\n"):],
            "format": data,
            "empty": b""}[damage]
    path.write_bytes(data)
    with pytest.raises(diskstore.CorruptEntry):
        diskstore.get(path, "other-v1" if damage == "format" else "fmt-v1")


def test_quarantine_moves_the_entry_and_leaves_a_reason(tmp_path):
    path = tmp_path / "results" / "abc.json"
    diskstore.put(path, b"{}", "fmt-v1", {})
    diskstore.quarantine(path, ValueError("checksum mismatch"))
    assert not path.exists()
    assert _quarantined(tmp_path) == ["abc.json", "abc.json.reason"]
    assert (tmp_path / "quarantine" / "abc.json.reason").read_text() \
        == "ValueError: checksum mismatch\n"


def test_quarantine_deletes_what_it_cannot_move(tmp_path):
    path = tmp_path / "results" / "abc.json"
    diskstore.put(path, b"{}", "fmt-v1", {})
    (tmp_path / "quarantine").write_text("a file where the directory goes")
    diskstore.quarantine(path, ValueError("bad"))
    assert not path.exists()


def test_key_separates_its_parts():
    assert diskstore.key("a", 1) == diskstore.key("a", "1")
    assert len({diskstore.key("a", 1), diskstore.key("a", 2),
                diskstore.key("a1"), diskstore.key(1, "a")}) == 4


# -- a failed write, at every writer ---------------------------------------

# Each writer writes once, then returns a second write that would change
# what is on disk; the test makes that one fail.

def _result_writer(root):
    engine = ExperimentEngine(cache_dir=root)
    job = make_job("single", "gcc", core_config("small"),
                   ExperimentConfig(trace_length=1200, warmup=400))

    def store(cycles):
        engine._store_cached_result(job, SimResult(
            machine="single", config="small", workload="gcc",
            cycles=cycles, instructions=800))
    store(900)
    return lambda: store(901)


def _checkpoint_writer(root):
    store = CheckpointStore(root / "checkpoints")

    def save(committed):
        store.save("k", MachineCheckpoint(
            machine="single", workload="gcc", warmup=5,
            trace_fingerprint="f" * 16, params_key="pk", cycle=100,
            committed=committed, payload=dumps_state({"answer": 41})))
    save(50)
    return lambda: save(60)


def _trace_writer(root):
    DiskTraceCache(root).get("gcc", 200, 1)
    return lambda: DiskTraceCache(root).get("gcc", 200, 2)


def _crash_dump_writer(root):
    def dump():
        return write_crash_dump(
            SimulationHang("no commit", machine="single", cycles=10,
                           instructions=2, total=20),
            directory=root / "crashes", workload="gcc")
    dump()
    return dump


def _manifest_writer(root):
    Campaign.create("first", {"benchmarks": ["gcc"]}, root)
    return lambda: Campaign.create("second", {"benchmarks": ["gcc"]}, root)


WRITERS = {"result": _result_writer, "checkpoint": _checkpoint_writer,
           "trace": _trace_writer, "crash-dump": _crash_dump_writer,
           "manifest": _manifest_writer}


class _FullDisk:
    """A file opened for writing that fails after one byte."""

    def __init__(self, path, mode):
        self._stream = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stream.close()

    def write(self, data):
        self._stream.write(data[:1])
        raise OSError("injected write failure")


@pytest.mark.parametrize("fail", ("write", "replace"))
@pytest.mark.parametrize("writer", WRITERS)
def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch, writer,
                                         fail):
    """A failed write or rename leaves the directory as it was: the temp
    file is gone and the error reaches the caller, except at the result
    cache, where a full disk costs a recompute, not the sweep."""
    write = WRITERS[writer](tmp_path)
    before = _files(tmp_path)

    def broken(*args):
        raise OSError("injected replace failure")

    if fail == "replace":
        monkeypatch.setattr(os, "replace", broken)
    else:
        monkeypatch.setattr(diskstore, "open", _FullDisk, raising=False)
    if writer == "result":
        write()
    else:
        with pytest.raises(OSError, match="injected"):
            write()
    monkeypatch.undo()
    assert _files(tmp_path) == before


# -- one flipped bit per tier ----------------------------------------------

def _sweep(cache, length=1500, seed=1):
    config = ExperimentConfig(trace_length=length, warmup=500, seed=seed)
    jobs = [make_job("single", "gcc", core_config("small"), config)]
    outcome = ExperimentEngine(max_workers=1, cache_dir=cache).run(jobs)
    assert outcome.ok
    return outcome


def test_flipped_trace_bit_is_quarantined_and_regenerated(tmp_path):
    """One bit of record 103's memory address (0x1f70 -> 0x1f30) in the
    gcc trace a sweep wrote: the checksum refuses it."""
    cache = tmp_path / "cache"
    _sweep(cache, length=2000, seed=7)
    (path,) = (cache / "traces").glob("*.trace")
    data = bytearray(path.read_bytes())
    body = data.index(b"\n") + 1
    # mem_addr follows pc, op_class, dst, nsrcs, flags and 4 source slots.
    data[body + _HEADER.size + 103 * _RECORD.size + 12] ^= 0x40
    path.write_bytes(bytes(data))
    assert read_trace(io.BytesIO(bytes(data[body:])))[103].mem_addr \
        == 0x1f30

    traces = DiskTraceCache(cache)
    trace = traces.get("gcc", 2000, 7)
    assert traces.quarantined == 1 and traces.disk_hits == 0
    assert _quarantined(cache) == [path.name, f"{path.name}.reason"]
    assert trace == generate_trace("gcc", 2000, 7)
    assert trace[103].mem_addr == 0x1f70


def test_flipped_result_digit_is_quarantined_and_recomputed(tmp_path):
    """One digit of ``cycles`` in a cached result: still valid JSON, but
    the checksum refuses it."""
    cache = tmp_path / "cache"
    baseline = _sweep(cache)
    (path,) = (cache / "results").glob("*.json")
    cycles = baseline.results[0].cycles
    text = path.read_text()
    flipped = str(cycles)[:-1] + str((cycles + 1) % 10)
    path.write_text(text.replace(f'"cycles": {cycles},',
                                 f'"cycles": {flipped},', 1))
    assert json.loads(path.read_text().split("\n", 1)[1])["cycles"] \
        != cycles

    rerun = _sweep(cache)
    assert rerun.metrics.quarantined == 1
    assert rerun.metrics.result_cache_hits == 0
    assert _quarantined(cache) == [path.name, f"{path.name}.reason"]
    assert rerun.results[0].as_dict() == baseline.results[0].as_dict()


def test_flipped_checkpoint_byte_is_quarantined_and_run_cold(tmp_path):
    """A byte in the middle of a checkpoint's payload: the resume refuses
    it and the run starts cold, with a fresh run's result."""
    base = core_config("small")
    config = ExperimentConfig(trace_length=2400, warmup=400, seed=3)
    store = CheckpointStore(tmp_path / "checkpoints")
    fresh = execute_job(make_job("single", "gcc", base, config))
    job = make_job("single", "gcc", base, config, checkpoint_interval=700,
                   checkpoint_sink=store)
    execute_job(job)
    (path,) = store.directory.glob("*.ckpt")
    data = bytearray(path.read_bytes())
    body = data.index(b"\n") + 1
    data[(body + len(data)) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    resumed = execute_job(job)
    assert _quarantined(tmp_path) == [path.name, f"{path.name}.reason"]
    assert resumed.as_dict() == fresh.as_dict()
