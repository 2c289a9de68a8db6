"""Crash dumps: writing, loading, rendering, and the CLI contract."""

import json

import pytest

from repro.__main__ import main
from repro.integrity.errors import SimulationHang
from repro.integrity.forensics import (DUMP_FORMAT, CrashDumpError,
                                       latest_crash_dump, load_crash_dump,
                                       render_crash_dump, write_crash_dump)


def _hang_error():
    return SimulationHang(
        "fgstp: no commit for 1501 cycles", machine="fgstp",
        cycles=2100, instructions=45, total=3000, detail="intercore",
        partial={"cycles": 2100, "instructions": 45},
        snapshot={"queues": [{"name": "q0to1", "pending": 3}]},
        context={"benchmark": "gcc", "length": 3000, "seed": 1,
                 "machine": "fgstp", "config": "small",
                 "chaos": "stuck_queue:after=0"})


def test_write_load_round_trip(tmp_path):
    path = write_crash_dump(_hang_error(), directory=tmp_path)
    assert path.parent == tmp_path
    dump = load_crash_dump(path)
    assert dump["format"] == DUMP_FORMAT
    assert dump["failure_class"] == "hang:intercore"
    assert dump["context"]["chaos"] == "stuck_queue:after=0"
    assert dump["snapshot"]["queues"][0]["name"] == "q0to1"


def test_write_merges_extra_context_over_errors_own(tmp_path):
    path = write_crash_dump(_hang_error(), directory=tmp_path,
                            context={"seed": 9, "note": "sweep"})
    dump = load_crash_dump(path)
    assert dump["context"]["seed"] == 9          # extra context wins
    assert dump["context"]["benchmark"] == "gcc"  # error's kept
    assert dump["context"]["note"] == "sweep"


def test_load_rejects_non_dumps(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(CrashDumpError, match="cannot read"):
        load_crash_dump(missing)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(CrashDumpError, match="not valid JSON"):
        load_crash_dump(garbage)
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(CrashDumpError, match=DUMP_FORMAT):
        load_crash_dump(foreign)


def test_latest_crash_dump_picks_newest(tmp_path):
    assert latest_crash_dump(tmp_path / "absent") is None
    import os
    first = write_crash_dump(_hang_error(), directory=tmp_path)
    second = write_crash_dump(_hang_error(), directory=tmp_path)
    os.utime(first, (1, 1))
    assert latest_crash_dump(tmp_path) == second


def test_render_names_the_failure_and_recipe(tmp_path):
    dump = load_crash_dump(write_crash_dump(_hang_error(),
                                            directory=tmp_path))
    text = render_crash_dump(dump)
    assert "hang:intercore" in text
    assert "fgstp" in text
    assert "45/3000 instructions in 2100 cycles" in text
    assert "replay recipe" in text
    assert "stuck_queue:after=0" in text


def _recipe_lines(job, tmp_path):
    """The rendered replay-recipe block of a dump that stores *job*."""
    dump = load_crash_dump(write_crash_dump(_hang_error(), directory=tmp_path,
                                            context=job.as_dict()))
    text = render_crash_dump(dump)
    block = text.split("replay recipe:\n", 1)[1].split("\n\n", 1)[0]
    return block.splitlines()


def test_render_shows_a_default_machine_by_its_config_name(tmp_path):
    from repro.harness.config import ExperimentConfig
    from repro.harness.parallel import make_job
    from repro.uarch.params import core_config

    job = make_job("fgstp", "gcc", core_config("medium"),
                   ExperimentConfig(1500, 500, 1))
    lines = _recipe_lines(job, tmp_path)
    assert "  core: medium" in lines
    assert "  fgstp: None" in lines
    assert not [line for line in lines if line.startswith("    ")]
    assert len(lines) < 15


def test_render_shows_only_the_machine_fields_a_recipe_changes(tmp_path):
    import dataclasses

    from repro.fgstp.params import FgStpParams
    from repro.harness.config import ExperimentConfig
    from repro.harness.parallel import make_job
    from repro.uarch.params import core_config

    medium = core_config("medium")
    base = dataclasses.replace(
        medium, l1d=dataclasses.replace(medium.l1d, size_bytes=16384))
    job = make_job("fgstp", "gcc", base, ExperimentConfig(1500, 500, 1),
                   fgstp=FgStpParams(queue_latency=20))
    lines = _recipe_lines(job, tmp_path)
    core = lines.index("  core: medium")
    assert lines[core + 1] == "    l1d.size_bytes=16384"
    fgstp = lines.index("  fgstp:")
    assert lines[fgstp + 1] == "    queue_latency=20"
    assert [line for line in lines if line.startswith("    ")] \
        == ["    l1d.size_bytes=16384", "    queue_latency=20"]


def test_render_shows_a_prefetching_core_as_its_one_field(tmp_path):
    from repro.harness.config import ExperimentConfig
    from repro.harness.parallel import make_job
    from repro.uarch.params import core_config

    job = make_job("corefusion", "lbm",
                   core_config("medium").with_(prefetch_degree=2),
                   ExperimentConfig(1500, 500, 1))
    assert job.name.endswith("/prefetch_degree=2")
    lines = _recipe_lines(job, tmp_path)
    core = lines.index("  core: medium")
    assert [line for line in lines if line.startswith("    ")] \
        == [lines[core + 1]] == ["    prefetch_degree=2"]


# -- CLI contract ------------------------------------------------------

def test_cli_forensics_renders_latest(tmp_path, capsys):
    write_crash_dump(_hang_error(), directory=tmp_path)
    assert main(["forensics", "--crash-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "hang:intercore" in out


def test_cli_forensics_without_dumps_is_usage_error(tmp_path, capsys):
    assert main(["forensics", "--crash-dir", str(tmp_path)]) == 2
    assert "no crash dumps" in capsys.readouterr().err


def test_cli_forensics_rejects_non_dump_file(tmp_path, capsys):
    bogus = tmp_path / "x.json"
    bogus.write_text("{}")
    assert main(["forensics", str(bogus),
                 "--crash-dir", str(tmp_path)]) == 2


def test_cli_simulate_on_hanging_config_exits_one(tmp_path, monkeypatch,
                                                  capsys):
    """Exit-code contract: a hang under `repro simulate` exits 1 and
    prints a one-line pointer to the crash dump it wrote."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "stuck_queue:after=0")
    monkeypatch.setenv("REPRO_WATCHDOG_WINDOW", "1000")
    code = main(["simulate", "gcc", "--length", "800", "--warmup", "0",
                 "--config", "small", "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "hang:intercore" in err
    assert "crash dump" in err
    dump_path = latest_crash_dump(tmp_path / ".repro_cache" / "crashes")
    assert dump_path is not None
    dump = load_crash_dump(dump_path)
    assert dump["context"]["chaos"] == "stuck_queue:after=0"
    assert dump["context"]["benchmark"] == "gcc"


def test_cli_simulate_unknown_benchmark_is_usage_error(capsys):
    assert main(["simulate", "no-such-benchmark"]) == 2


def test_cli_simulate_healthy_run_exits_zero(tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    code = main(["simulate", "gcc", "--length", "800", "--warmup", "0",
                 "--config", "small"])
    assert code == 0
    assert "speedup" in capsys.readouterr().out
