"""Experiment harness: machine runners + the E1..E11 experiment registry.

Public API::

    from repro.harness import run_experiment, ExperimentConfig

    report = run_experiment("E1", ExperimentConfig(trace_length=30000,
                                                   warmup=10000))
    print(report.render())
"""

from .config import FULL, QUICK, REPRESENTATIVE, ExperimentConfig
from .experiments import REGISTRY, ExperimentReport, run_experiment
from .multiseed import SeedStudy, seed_study
from .report import report_to_markdown, run_and_render
from .runners import MACHINES, build_machine

__all__ = [
    "FULL",
    "QUICK",
    "REPRESENTATIVE",
    "ExperimentConfig",
    "REGISTRY",
    "ExperimentReport",
    "run_experiment",
    "SeedStudy",
    "seed_study",
    "report_to_markdown",
    "run_and_render",
    "MACHINES",
    "build_machine",
]
