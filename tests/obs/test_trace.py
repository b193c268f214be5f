"""Unit contract of repro.obs.trace: events, tracer, exporters."""

import json

import pytest

from repro.obs import (EVENT_KINDS, FLEET_PID, RecordingTracer, TraceEvent,
                       Tracer, export_chrome, export_jsonl, load_events,
                       render_trace, write_trace)


def sample_events():
    tracer = RecordingTracer()
    tracer.emit("arrival", 0, app="BFS2", arrival_cycle=0)
    tracer.emit("placement", 0, app="BFS2", device=1,
                candidates=[{"device": 0, "load": 1}])
    tracer.emit("launch", 10, device=1, members=["BFS2", "NN"],
                cycles=500, group_index=0)
    tracer.emit("group_finish", 510, device=1, members=["BFS2", "NN"],
                group_index=0)
    return tracer.events


class TestTracer:
    def test_base_tracer_is_a_noop(self):
        tracer = Tracer()
        assert tracer.emit("launch", 0) is None

    def test_recording_tracer_records_in_order(self):
        events = sample_events()
        assert [e.kind for e in events] == [
            "arrival", "placement", "launch", "group_finish"]
        assert events[2].cycle == 10
        assert events[2].device == 1
        assert events[2].data["members"] == ["BFS2", "NN"]

    def test_unknown_kind_rejected(self):
        tracer = RecordingTracer()
        with pytest.raises(ValueError, match="unknown trace event kind"):
            tracer.emit("teleport", 0)

    def test_cycle_coerced_to_int(self):
        tracer = RecordingTracer()
        tracer.emit("arrival", 7.0, app="NN")
        assert tracer.events[0].cycle == 7
        assert isinstance(tracer.events[0].cycle, int)

    def test_event_round_trips_through_dict(self):
        for event in sample_events():
            assert TraceEvent.from_dict(event.to_dict()) == event


class TestExporters:
    def test_jsonl_one_sorted_object_per_line(self):
        text = export_jsonl(sample_events())
        lines = text.splitlines()
        assert len(lines) == 4
        assert text.endswith("\n")
        for line in lines:
            payload = json.loads(line)
            assert list(payload) == sorted(payload)
            assert payload["kind"] in EVENT_KINDS

    def test_jsonl_empty_trace_is_empty_string(self):
        assert export_jsonl([]) == ""

    def test_chrome_envelope_and_pid_mapping(self):
        doc = json.loads(export_chrome(sample_events()))
        entries = doc["traceEvents"]
        names = {e["pid"]: e["args"]["name"] for e in entries
                 if e["ph"] == "M"}
        assert names[FLEET_PID] == "fleet"
        assert names[2] == "device 1"
        launch = next(e for e in entries
                      if e["ph"] == "X")
        assert launch["ts"] == 10
        assert launch["dur"] == 500
        assert launch["pid"] == 2
        instants = [e for e in entries if e["ph"] == "i"]
        assert len(instants) == 3

    def test_chrome_args_echo_enough_to_round_trip(self):
        doc = json.loads(export_chrome(sample_events()))
        kinds = [e["args"]["kind"] for e in doc["traceEvents"]
                 if e["ph"] != "M"]
        assert kinds == ["arrival", "placement", "launch", "group_finish"]

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            render_trace([], "xml")


class TestLoadEvents:
    def test_jsonl_round_trip(self, tmp_path):
        events = sample_events()
        path = write_trace(events, str(tmp_path / "t.jsonl"), "jsonl")
        assert load_events(path) == events

    def test_chrome_round_trip_preserves_kind_cycle_device(self, tmp_path):
        events = sample_events()
        path = write_trace(events, str(tmp_path / "t.chrome"), "chrome")
        loaded = load_events(path)
        assert [(e.kind, e.cycle, e.device, e.app) for e in loaded] \
            == [(e.kind, e.cycle, e.device, e.app) for e in events]

    def test_single_line_jsonl_not_mistaken_for_chrome(self, tmp_path):
        # Both formats start with "{"; the discriminator is the
        # traceEvents envelope, not the first byte.
        event = TraceEvent(kind="arrival", cycle=3, app="NN")
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(event.to_dict()) + "\n")
        assert load_events(str(path)) == [event]
