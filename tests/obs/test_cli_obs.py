"""CLI smoke tests for ``repro simulate --view timeline`` and
``--view metrics``."""

import json

import pytest

from repro.__main__ import main

_TINY = ["--length", "1200", "--warmup", "400"]
_TIMELINE = ["simulate", "gcc", "--view", "timeline"]
_METRICS = ["simulate", "gcc", "--view", "metrics"]


def test_timeline_chrome_to_file(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(_TIMELINE + ["--config", "small", "--machines",
                             "single", "fgstp", "--format", "chrome",
                             "--out", str(out)] + _TINY)
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    document = json.loads(out.read_text())
    process_names = {event["args"]["name"]
                     for event in document["traceEvents"]
                     if event["ph"] == "M"
                     and event["name"] == "process_name"}
    assert process_names == {"single", "fgstp"}
    assert any(event["ph"] == "X" for event in document["traceEvents"])


def test_timeline_chrome_to_stdout_parses(capsys):
    code = main(_TIMELINE + ["--config", "small", "--machines",
                             "single", "--format", "chrome"] + _TINY)
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["traceEvents"]


def test_timeline_ascii(capsys):
    code = main(_TIMELINE + ["--config", "small", "--machines",
                             "fgstp", "--format", "ascii"] + _TINY)
    assert code == 0
    output = capsys.readouterr().out
    assert "pipeline timeline" in output
    assert "commit occupancy" in output
    assert "F=fetch" in output


def test_timeline_konata_files_per_machine(tmp_path, capsys):
    out = tmp_path / "log.konata"
    code = main(_TIMELINE + ["--config", "small", "--machines",
                             "single", "fgstp", "--format", "konata",
                             "--out", str(out)] + _TINY)
    assert code == 0
    for machine in ("single", "fgstp"):
        path = tmp_path / f"log.{machine}.konata"
        assert path.read_text().startswith("Kanata\t0004")


def test_timeline_jsonl_stdout(capsys):
    code = main(_TIMELINE + ["--config", "small", "--machines",
                             "single", "--format", "jsonl"] + _TINY)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [json.loads(line) for line in lines
                if line.startswith("{")]
    assert payloads and all("kind" in payload for payload in payloads)


def test_timeline_rejects_unknown_benchmark():
    assert main(["simulate", "nosuch", "--view", "timeline"] + _TINY) == 2


def test_metrics_tables(capsys):
    code = main(_METRICS + ["--config", "small", "--machines",
                            "single", "fgstp"] + _TINY)
    assert code == 0
    output = capsys.readouterr().out
    assert "sim.cycles" in output
    assert "single: metrics" in output
    assert "fgstp: metrics" in output


def test_metrics_json(capsys):
    code = main(_METRICS + ["--config", "small", "--machines",
                            "single", "--json"] + _TINY)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["single"]["sim.cycles"]["type"] == "gauge"
    assert payload["single"]["sim.cycles"]["value"] > 0


def test_metrics_rejects_unknown_benchmark():
    assert main(["simulate", "nosuch", "--view", "metrics"] + _TINY) == 2


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if the command under test simulates anything."""
    import repro.__main__ as cli

    def run(*_args, **_kwargs):
        raise AssertionError("a usage error must simulate nothing")
    monkeypatch.setattr(cli, "_run_benchmark", run)


@pytest.mark.parametrize("view, flags", [
    ("speedup", ["--json"]),
    ("speedup", ["--format", "ascii"]),
    ("cpi", ["--capacity", "16"]),
    ("cpi", ["--out", "trace.json"]),
    ("metrics", ["--sample-window", "8"]),
    ("metrics", ["--sample-period", "2"]),
    ("timeline", ["--json"]),
])
def test_view_only_flag_given_to_another_view_is_usage_error(
        view, flags, no_runs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "gcc", "--view", view] + flags + _TINY)
    assert excinfo.value.code == 2
    assert f"error: {flags[0]} is read only by --view" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flags", [
    ["--capacity", "0"],
    ["--capacity", "-4"],
    ["--sample-window", "-1"],
    ["--sample-period", "0"],
], ids=lambda flags: "".join(flags))
def test_bad_tracer_sizes_are_usage_errors(flags, no_runs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(_TIMELINE + flags + _TINY)
    assert excinfo.value.code == 2
    assert f"argument {flags[0]}: must be" in capsys.readouterr().err


def test_timeline_view_reads_its_flags(tmp_path, capsys):
    """Every timeline flag at once, including a zero sampling window."""
    out = tmp_path / "events.jsonl"
    code = main(_TIMELINE + ["--config", "small", "--machines", "single",
                             "--format", "jsonl", "--out", str(out),
                             "--capacity", "64", "--sample-window", "0",
                             "--sample-period", "1"] + _TINY)
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert len(out.read_text().splitlines()) <= 64
