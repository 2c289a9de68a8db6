#!/usr/bin/env python3
"""Visualise the pipeline: where do cycles actually go?

Renders per-uop timelines for two tiny contrasting programs — a serial
dependence chain and the same work split into two independent chains —
so the dataflow limit is visible cycle by cycle.  The timelines come
from the pipeline tracer (:mod:`repro.obs`), the same events ``repro
simulate --view timeline`` exports.

Usage::

    python examples/pipeline_visualiser.py
"""

from repro.harness.report import timeline_text
from repro.isa import assemble, run_program
from repro.obs import PipelineTracer
from repro.uarch import small_core_config
from repro.uarch.pipeline.machine import SingleCoreMachine

SERIAL = """
    li r1, 0
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    halt
"""

PAIRED = """
    li r1, 0
    li r2, 0
    addi r1, r1, 1
    addi r2, r2, 1
    addi r1, r1, 1
    addi r2, r2, 1
    addi r1, r1, 1
    addi r2, r2, 1
    halt
"""


def show(title: str, source: str) -> None:
    trace = run_program(assemble(source)).trace
    tracer = PipelineTracer()
    result = SingleCoreMachine(small_core_config(), tracer=tracer).run(
        trace, workload="visualiser")
    print(timeline_text(
        tracer.events(), count=len(trace),
        title=f"--- {title}  ({result.cycles} cycles, "
              f"IPC {result.ipc:.2f}) ---"))
    print()


def main() -> None:
    show("serial chain (each add waits for the previous one)", SERIAL)
    show("two independent chains (adds pair up per cycle)", PAIRED)
    print("Same instruction count, same core — the dataflow shape alone "
          "changes the cycle count.\nThis is exactly the property "
          "Fg-STP's partitioner exploits across two cores.")


if __name__ == "__main__":
    main()
