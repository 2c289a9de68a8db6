"""Pinned digests of the Fg-STP machines' observable event order.

The golden fixture pins results, which say nothing about the order in
which a cycle retires its uops or wires its values.  These digests pin
two streams per run:

* the commit-hook stream, one ``(seq, core_id, replica, cycle)`` per
  architectural retirement.  A replicated instruction reports the copy
  that retired last, so the stream also pins the order of a pair's two
  copies;
* the :class:`~repro.obs.tracer.PipelineTracer` event stream, which
  holds every retired uop, every steal and squash instant and every
  ``intercore.send``/``recv``, so it pins the order in which a batch
  wires its values into the queues.

Both digests were recorded before retirement went by sequence number
and before the partitioner emitted per batch; a change to either
stream is a behaviour change even when every result stays the same.
"""

import hashlib
import json

import pytest

from repro.fgstp.params import FgStpParams
from repro.harness.runners import build_machine
from repro.obs.export import events_jsonl
from repro.obs.tracer import PipelineTracer
from repro.uarch.params import core_config
from repro.workloads.generator import generate_trace

LENGTH, WARMUP, SEED = 3000, 600, 11
#: Machine -> constructor overrides (the adaptive machine's small
#: regions cross a region boundary and switch mode inside this trace).
MACHINES = {
    "fgstp": {},
    "fgstp-adaptive": {"sample_instructions": 400,
                       "region_instructions": 1200},
}

#: ``machine/benchmark/config`` -> (commit-stream digest, event digest).
PINNED = {
    "fgstp/gcc/small": (
        "98966f7adaf6e18b54b0ead880d527393a28d2ae0af73030b9ae689f625ae82a",
        "9deacc9546687046cc04b74fd65d44b48f41616b4061e3cdd9cd84fc01e1c638"),
    "fgstp/gcc/medium": (
        "620076718417caa1b29bcb3378758d971cf02689c98e3e65408fb5e87837d6b4",
        "91b3a0ac6ae8ff348a709ad66a8ad26e0ff71ee4f2359e2dd53534c66e0043ea"),
    "fgstp/milc/small": (
        "099e552f068a15fb37f5ddd9bdf3fbb9c9a55ea2def686e25b77901a30884ee3",
        "f9a0d70a6a856b4bcecd3a13505f470e9bff973ed2832835fc51f2447363311b"),
    "fgstp/milc/medium": (
        "e9bef496151e9db11d2058e3141178f38c7f2dc531b83626467f9a2f988d95cb",
        "6ad684dd10de1fd14e0c3e43fdfb8b543359a1f9da28a9cc4ed2be55fa3928f9"),
    "fgstp-adaptive/gcc/small": (
        "7326db5978cf061975b15651b9c176c38786f35cd3511bc045260fadc683ea81",
        "cb7e3c573c26d713d2b8cb7fc6d1311917c94b61f35eb47730925f88ec76f6c7"),
    "fgstp-adaptive/gcc/medium": (
        "5dd23ed43ab54aa174a8889bf6a7bb73c7ec608beeb69857d4b2701d57c2ed26",
        "3fc8cb4f48530dd1428d7882ebbc7014997d4c24f86376f1ae88fae5a2c23cb0"),
    "fgstp-adaptive/milc/small": (
        "47e0c0f54a667443327673491718292b4864ddff8416bdfd89485f3741c85226",
        "d9e829a66e23b7fb676fa8251325585a69211a6a0ee452f66f4483496254df79"),
    "fgstp-adaptive/milc/medium": (
        "4e07ea49f7bc63190da4b5017353ce580adaf26fa4ab9d20f45ef86d23626045",
        "989be38197da1b871336e1400d215e9e9ce59813fe33294a296e616b82c01944"),
}


def _digest(lines) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def observed_digests(cell: str):
    """``(commit-stream digest, event digest)`` of one observed run."""
    machine, benchmark, config = cell.split("/")
    commits = []

    def hook(uop, cycle):
        commits.append(json.dumps([uop.seq, uop.core_id, uop.replica,
                                   cycle]))

    tracer = PipelineTracer(capacity=1 << 20)
    model = build_machine(machine, core_config(config), FgStpParams(),
                          commit_hook=hook, tracer=tracer,
                          **MACHINES[machine])
    result = model.run(generate_trace(benchmark, LENGTH, SEED),
                       workload=benchmark, warmup=WARMUP)
    assert len(commits) == result.instructions == LENGTH - WARMUP
    assert tracer.dropped == 0
    return _digest(commits), _digest(events_jsonl(tracer.events()))


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_commit_and_event_order_are_pinned(cell):
    assert observed_digests(cell) == PINNED[cell]


if __name__ == "__main__":
    for name in sorted(PINNED):
        print(f'    "{name}": {observed_digests(name)!r},')
