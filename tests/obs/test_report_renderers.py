"""ASCII renderers: timeline, occupancy, metrics table."""

from repro.harness.report import (metrics_table, occupancy_text,
                                  timeline_text)
from repro.obs import MetricsRegistry, PipelineTracer
from repro.obs.events import TraceEvent


def _uop(seq, commit, core=0, op="IALU"):
    return TraceEvent("uop", commit, seq=seq, uid=seq, core=core,
                      pc=seq * 4, op=op,
                      stages=(commit - 4, commit - 3, commit - 2,
                              commit - 1, commit))


def test_timeline_text_rows_and_axis():
    events = [_uop(seq, 10 + seq) for seq in range(5)]
    text = timeline_text(events)
    assert "pipeline timeline" in text
    assert "F=fetch" in text
    rows = [line for line in text.splitlines() if "|" in line]
    assert len(rows) == 5
    assert all("seq=" in row and "IALU" in row for row in rows)
    assert "R" in rows[0]


def test_timeline_text_empty_and_limit():
    assert "(no lifecycle events recorded)" in timeline_text([])
    events = [_uop(seq, 10 + seq) for seq in range(50)]
    rows = [line for line in timeline_text(events, count=8).splitlines()
            if "|" in line]
    assert len(rows) == 8
    assert "seq=49" in rows[-1]


def test_occupancy_text_buckets_commits():
    events = [_uop(seq, 10) for seq in range(4)] \
        + [_uop(4, 200)]
    text = occupancy_text(events, buckets=4)
    assert "commit occupancy" in text
    assert "peak 4 commit(s)" in text
    bars = [line for line in text.splitlines() if "|" in line]
    assert bars and bars[0].strip().endswith("4")
    assert "(no lifecycle events recorded)" in occupancy_text([])


def test_metrics_table_renders_all_kinds():
    registry = MetricsRegistry()
    registry.counter("events.total").add(42)
    registry.gauge("sim.ipc").set(1.25)
    text = metrics_table(registry)
    assert "metrics registry" in text
    assert "events.total" in text and "42" in text
    assert "sim.ipc" in text and "1.250" in text


def test_renderers_accept_real_tracer_events():
    tracer = PipelineTracer()
    tracer.instant("squash", 5, seq=1, core=0, detail="x")
    # Instants alone: no lifecycle rows, but no crash either.
    assert "(no lifecycle events recorded)" in \
        timeline_text(tracer.events())
