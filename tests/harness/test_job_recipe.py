"""One run recipe: a :class:`SweepJob` describes a run, every crash dump
stores it, and ``repro minimize`` replays it."""

import dataclasses
import json

import pytest

import repro.harness.experiments as experiments
import repro.harness.parallel as parallel
import repro.validation as validation
from repro.__main__ import main
from repro.fgstp.params import FgStpParams
from repro.harness.config import ExperimentConfig
from repro.harness.parallel import (ExperimentEngine, SweepJob, execute_job,
                                    make_job)
from repro.harness.runners import MACHINES, new_machine
from repro.integrity.errors import SimulationHang
from repro.integrity.forensics import load_crash_dump, write_crash_dump
from repro.integrity.minimize import replay_run_fn, trace_from_context
from repro.integrity.watchdog import DEFAULT_WINDOW
from repro.uarch.params import core_config

SIZING = ExperimentConfig(trace_length=1500, warmup=500, seed=1)
SMALL = core_config("small")


def _round_trip(job, directory):
    """*job* rebuilt from a crash dump written with its recipe (the dump
    sorts every nested key)."""
    path = write_crash_dump(SimulationHang("x"), directory=directory,
                            context=job.as_dict())
    return SweepJob.from_dict(load_crash_dump(path)["context"])


def _params_key(job):
    """The checkpoint parameter key of the machine *job* runs on."""
    return new_machine(job.machine, job.base, job.fgstp,
                       **dict(job.overrides)).checkpoint_params_key()


class _Submitted(Exception):
    """Stops an experiment once it has submitted its jobs."""


def _submitted(monkeypatch, experiment_id):
    jobs = []

    def capture(batch, engine=None):
        jobs.extend(batch)
        raise _Submitted

    monkeypatch.setattr(experiments, "run_jobs", capture)
    with pytest.raises(_Submitted):
        experiments.run_experiment(experiment_id,
                                   SIZING.with_(benchmarks=["gcc"]))
    return jobs


# -- the recipe --------------------------------------------------------

@pytest.mark.parametrize("experiment_id",
                         ["E4", "E5", "E8", "E13", "E14", "E15"])
def test_experiment_jobs_rebuild_with_their_keys(tmp_path, monkeypatch,
                                                 experiment_id):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    jobs = _submitted(monkeypatch, experiment_id)
    assert len({job.key() for job in jobs}) == len(jobs) > 1
    for job in jobs:
        assert _round_trip(job, tmp_path).key() == job.key()


def test_battery_oracle_traced_and_kernel_jobs_rebuild_with_their_keys(
        tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    jobs = list(validation.battery_runs("gcc", 3500, 1, SMALL).values())
    jobs += [
        make_job("single", "gcc", SMALL, SIZING, oracle=True),
        make_job("fgstp", "mcf", core_config("medium"), SIZING, trace=True,
                 fgstp=FgStpParams(balance_factor=0.3)),
        SweepJob("fgstp", "", SMALL, ExperimentConfig(warmup=0),
                 oracle=True, kernel="vector_sum"),
        make_job("corefusion", "lbm",
                 core_config("medium").with_(prefetch_degree=2), SIZING),
    ]
    for job in jobs:
        rebuilt = _round_trip(job, tmp_path)
        assert rebuilt.key() == job.key()
        assert _params_key(rebuilt) == _params_key(job)


@pytest.mark.parametrize("job, key", [
    (make_job("fgstp", "gcc", SMALL, SIZING),
     "b86c55ff3c2a36d8b6a0f880fab287ca"),
    (make_job("single", "gcc", SMALL, SIZING, oracle=True),
     "355d4c9872a5c9fc10805b52fdf7c958"),
    (make_job("single", "mcf", core_config("medium"),
              ExperimentConfig(trace_length=1200, warmup=400, seed=2),
              trace=True),
     "423e93daf09129442209411d7ce9976c"),
    (make_job("fgstp", "gcc", core_config("medium"), SIZING,
              fgstp=FgStpParams(queue_latency=6), policy="roundrobin"),
     "dfff609b0c91b529e721ad4bd2f23974"),
], ids=["plain", "oracle", "traced", "overrides"])
def test_keys_without_chaos_are_unchanged(monkeypatch, job, key):
    """Cache keys written before jobs carried a chaos spec stay valid."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert job.key() == key


@pytest.mark.parametrize("machine", MACHINES)
def test_a_prefetcher_keys_apart_and_only_when_set(monkeypatch, machine):
    """The prefetch degree stays out of the core's repr, so keys without
    a prefetcher never move, and joins the job and checkpoint keys as a
    marker when it is set."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    medium = core_config("medium")
    plain = make_job(machine, "gcc", medium, SIZING)
    prefetching = make_job(machine, "gcc", medium.with_(prefetch_degree=2),
                           SIZING)
    assert repr(prefetching.base) == repr(medium)
    assert make_job(machine, "gcc", medium.with_(prefetch_degree=0),
                    SIZING).key() == plain.key()
    assert prefetching.key() != plain.key()
    assert "prefetch" not in _params_key(plain)
    assert "|prefetch=2" in _params_key(prefetching)


def test_default_fgstp_parameters_key_as_none(tmp_path, monkeypatch):
    """Both build the same machine, so they are one simulation, before
    and after a crash-dump round trip."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    plain = make_job("fgstp", "gcc", SMALL, SIZING)
    explicit = make_job("fgstp", "gcc", SMALL, SIZING, fgstp=FgStpParams())
    assert explicit.key() == plain.key()
    assert _round_trip(explicit, tmp_path).key() == plain.key()
    assert _round_trip(plain, tmp_path).key() == plain.key()
    assert explicit.name == plain.name == "fgstp/gcc/small/s1"
    assert make_job("fgstp", "gcc", SMALL, SIZING,
                    fgstp=FgStpParams(queue_latency=3)).key() != plain.key()


def test_a_job_name_shows_what_differs_from_the_defaults():
    medium = core_config("medium")
    bimodal = medium.with_(branch=dataclasses.replace(medium.branch,
                                                      kind="bimodal"))
    assert make_job("fgstp", "gcc", medium, SIZING,
                    fgstp=FgStpParams(queue_latency=20)).name \
        == "fgstp/gcc/medium/s1/queue_latency=20"
    assert make_job("fgstp", "gcc", medium, SIZING,
                    fgstp=FgStpParams(window_size=64, speculation=False),
                    policy="roundrobin").name \
        == ("fgstp/gcc/medium/s1/window_size=64/speculation=False"
            "/policy=roundrobin")
    assert make_job("single", "mcf", bimodal, SIZING, oracle=True).name \
        == "single/mcf/medium/s1/branch.kind=bimodal/oracle"
    assert make_job("single", "mcf", SMALL.with_(rob_entries=96),
                    SIZING).name == "single/mcf/small/s1/rob_entries=96"
    assert make_job("fgstp", "lbm", medium.with_(prefetch_degree=2),
                    SIZING).name == "fgstp/lbm/medium/s1/prefetch_degree=2"


@pytest.mark.parametrize("experiment_id, machine",
                         [("E4", "fgstp"), ("E8", "corefusion"),
                          ("E14", "fgstp")])
def test_a_default_sweep_point_is_the_plain_job(monkeypatch, experiment_id,
                                                machine):
    """E4's default latency, E8's default fusion overhead and E14's
    default policy build the plain machine, so they share its key and
    name: one simulation with E1's job."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    plain = make_job(machine, "gcc", core_config("medium"), SIZING)
    matches = [job for job in _submitted(monkeypatch, experiment_id)
               if job.key() == plain.key()]
    assert [job.name for job in matches] == [f"{machine}/gcc/medium/s1"]


@pytest.mark.parametrize("experiment_id",
                         ["E4", "E5", "E8", "E9", "E14", "E15"])
def test_every_sweep_point_has_its_own_name(monkeypatch, experiment_id):
    jobs = _submitted(monkeypatch, experiment_id)
    assert len({job.name for job in jobs}) == len(jobs)


def test_the_chaos_in_force_is_part_of_the_key(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    job = make_job("fgstp", "gcc", SMALL, SIZING)
    plain = job.key()
    monkeypatch.setenv("REPRO_CHAOS", "corrupt_specdep")
    assert job.chaos_spec() == "corrupt_specdep"
    assert job.key() != plain
    own = dataclasses.replace(job, chaos="duplicate_sends")
    assert own.chaos_spec() == "duplicate_sends"
    assert own.key() not in (plain, job.key())


def test_a_jobs_own_chaos_replaces_the_environments(monkeypatch):
    """A job with its own spec runs that fault alone: here the harmless
    duplicate sends, not the environment's stuck queue."""
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    job = make_job("fgstp", "gcc", SMALL,
                   ExperimentConfig(trace_length=600, warmup=0))
    with pytest.raises(SimulationHang):
        execute_job(job)
    own = execute_job(dataclasses.replace(job, chaos="duplicate_sends"))
    assert own.instructions == 600


def test_a_chaos_result_is_never_served_to_a_plain_run(tmp_path,
                                                       monkeypatch):
    """``corrupt_specdep`` finishes; its result must stay its own."""
    job = make_job("fgstp", "gcc", core_config("medium"),
                   ExperimentConfig(trace_length=3000, warmup=1000))
    engine = ExperimentEngine(max_workers=1, cache_dir=tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "corrupt_specdep")
    faulted = engine.run([job])
    monkeypatch.delenv("REPRO_CHAOS")
    plain = engine.run([job])
    uncached = ExperimentEngine(max_workers=1).run([job])
    assert plain.metrics.result_cache_hits == 0
    assert plain.results[0].cycles == uncached.results[0].cycles
    assert faulted.results[0].cycles != plain.results[0].cycles


# -- each dump writer's dump replays its run ---------------------------

def _explode(job):
    raise SimulationHang("injected", machine=job.machine,
                         detail="intercore")


def _engine_dump(tmp_path, job, **engine):
    outcome = ExperimentEngine(max_workers=1, retries=0,
                               cache_dir=tmp_path, **engine).run(
        [job], _explode)
    [failure] = outcome.failures
    return load_crash_dump(failure.dump_path)["context"]


@pytest.mark.parametrize("machine, base, fgstp, overrides", [
    ("fgstp", SMALL.with_(rob_entries=2 * SMALL.rob_entries),
     FgStpParams(queue_latency=6), {}),
    ("fgstp", SMALL, None, {"policy": "roundrobin"}),
    ("single", SMALL.with_(branch=dataclasses.replace(SMALL.branch,
                                                      kind="bimodal")),
     None, {}),
], ids=["core-and-fgstp", "override", "predictor"])
def test_an_engine_dump_replays_its_job(tmp_path, monkeypatch, machine,
                                        base, fgstp, overrides):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    job = make_job(machine, "gcc", base,
                   ExperimentConfig(trace_length=3000, warmup=500, seed=3),
                   fgstp=fgstp, **overrides)
    context = _engine_dump(tmp_path, job)
    trace = trace_from_context(context)
    assert len(trace) == 3000
    replayed = replay_run_fn(context)(trace).cycles
    expected = new_machine(machine, base, fgstp, **overrides).run(trace)
    default = new_machine(machine, SMALL).run(trace)
    assert replayed == expected.cycles != default.cycles
    if fgstp is not None:
        assert replayed == 16_390  # the default machine takes 16,523


def test_an_oracle_sampled_dump_replays_its_job_under_the_oracle(
        tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    fgstp = FgStpParams(queue_latency=6)
    job = make_job("fgstp", "gcc", SMALL,
                   ExperimentConfig(trace_length=1200, warmup=400),
                   fgstp=fgstp)
    context = _engine_dump(tmp_path, job, oracle_sample=1.0)
    assert context["oracle"] is True
    trace = trace_from_context(context)
    result = replay_run_fn(context)(trace)
    assert result.extra["oracle"]["checked"] == len(trace)
    assert result.cycles == new_machine("fgstp", SMALL, fgstp).run(
        trace).cycles


def test_the_livelock_recipe_regenerates_the_records_it_replayed(
        monkeypatch, tmp_path):
    names, jobs, traces = {}, {}, {}
    runs = validation.battery_runs

    def named_runs(*args):
        jobs.update(runs(*args))
        names.update((id(job), name) for name, job in jobs.items())
        return jobs

    def run(job, trace):
        traces[names[id(job)]] = list(trace)
        raise SimulationHang("stuck", machine="fgstp", cycles=10,
                             detail="intercore")

    monkeypatch.setattr(validation, "battery_runs", named_runs)
    monkeypatch.setattr(validation, "execute_job", run)
    validation.run_battery("gcc", 3500, 1, SMALL, crash_dir=tmp_path)
    recipe = json.loads(json.dumps(jobs[validation.LIVELOCK_RUN].as_dict()))
    assert recipe["length"] == validation.LIVELOCK_RECORDS
    assert trace_from_context(recipe) == traces[validation.LIVELOCK_RUN]
    assert len(traces["fgstp"]) == 3500


def test_a_dump_without_a_job_does_not_minimize_but_renders(
        tmp_path, capsys):
    """Dumps written before they stored jobs lack the core."""
    error = SimulationHang("stale", machine="fgstp", detail="intercore",
                           context={"machine": "fgstp", "config": "small",
                                    "benchmark": "gcc", "length": 400,
                                    "warmup": 0, "seed": 1})
    path = write_crash_dump(error, directory=tmp_path)
    assert main(["minimize", str(path)]) == 2
    assert "replay recipe is incomplete" in capsys.readouterr().err
    assert main(["forensics", str(path)]) == 0
    assert "config: small" in capsys.readouterr().out


# -- `repro run` / `repro report` on a failed job ----------------------

@pytest.fixture
def hanging_engine(tmp_path, monkeypatch):
    """The default engine, with a disk cache, where Fg-STP hangs."""
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setattr(parallel, "_default_engine", None)
    return tmp_path / "cache"


def _e4_dumps(cache):
    """E4's crash dumps under *cache*: queue latency -> dump context."""
    contexts = [json.loads(path.read_text())["context"]
                for path in (cache / "crashes").glob("*.json")]
    return {context["fgstp"]["queue_latency"]: context
            for context in contexts}


def test_cli_run_exits_one_naming_each_failed_job(hanging_engine, capsys):
    assert main(["run", "E4", "--benchmarks", "gcc", "--length", "1200",
                 "--warmup", "400"]) == 1
    heading, *lines = capsys.readouterr().err.splitlines()
    assert heading == "6 job(s) failed:" and len(lines) == 6
    assert all(": hang:intercore after " in line
               and "[crash dump: " in line for line in lines)
    # The default latency (2) is the plain Fg-STP job, so its name
    # carries no latency; every other point names its own.
    names = [line.split(": hang:intercore")[0].strip() for line in lines]
    assert names == ["fgstp/gcc/medium/s1" + (
        "" if latency == FgStpParams().queue_latency
        else f"/queue_latency={latency}")
        for latency in (1, 2, 3, 5, 10, 20)]
    assert sorted(_e4_dumps(hanging_engine)) == [1, 2, 3, 5, 10, 20]


def test_a_dump_replays_with_the_runs_watchdog_window(hanging_engine,
                                                      monkeypatch):
    """The run's ``REPRO_WATCHDOG_WINDOW`` travels in its dump, so the
    replay hangs after the run's window, not the replaying shell's."""
    assert main(["run", "E4", "--benchmarks", "gcc", "--length", "1200",
                 "--warmup", "400"]) == 1
    context = _e4_dumps(hanging_engine)[20]
    assert context["watchdog_window"] == 1000
    monkeypatch.delenv("REPRO_WATCHDOG_WINDOW")
    monkeypatch.delenv("REPRO_CHAOS")  # the job carries its own
    with pytest.raises(SimulationHang, match="no commit for 1001 cycles"):
        replay_run_fn(context)(trace_from_context(context))
    # A job's own window still wins over the recorded one.
    own = dict(context, overrides={"watchdog_window": 3000})
    with pytest.raises(SimulationHang, match="no commit for 3001 cycles"):
        replay_run_fn(own)(trace_from_context(own))


def test_a_recipe_records_the_window_in_force_unless_the_job_sets_one(
        monkeypatch):
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    job = make_job("fgstp", "gcc", SMALL, SIZING)
    assert job.as_dict()["watchdog_window"] == 1000
    monkeypatch.delenv("REPRO_WATCHDOG_WINDOW")
    assert job.as_dict()["watchdog_window"] == DEFAULT_WINDOW
    own = make_job("fgstp", "gcc", SMALL, SIZING, watchdog_window=3000)
    assert "watchdog_window" not in own.as_dict()
    assert own.as_dict()["overrides"] == {"watchdog_window": 3000}


def test_a_malformed_chaos_spec_is_a_usage_error(monkeypatch, capsys):
    """Every job's key reads the spec in force, so the CLI checks it
    before a command runs."""
    monkeypatch.setenv("REPRO_CHAOS", "bogus")
    assert main(["run", "E3", "--benchmarks", "gcc", "--length", "1200",
                 "--warmup", "400"]) == 2
    assert capsys.readouterr().err.startswith(
        "REPRO_CHAOS: unknown chaos kind 'bogus'")


def test_cli_report_exits_one_naming_each_failed_job(hanging_engine,
                                                     capsys):
    assert main(["report", "--benchmarks", "gcc", "--length", "1200",
                 "--warmup", "400"]) == 1
    heading, line = capsys.readouterr().err.splitlines()
    assert heading == "1 job(s) failed:"
    assert line.startswith("  fgstp/gcc/medium/s1: hang:intercore")
    assert "[crash dump: " in line
