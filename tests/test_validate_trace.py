"""Contract of tools/validate_trace.py: the trace lint CI leans on.

Drives :func:`validate_events` directly with hand-built event streams
(every rule, both passing and failing sides) and exercises the file
front door over both export formats.
"""

import importlib.util
import pathlib

from repro.api import Scenario, run_scenario
from repro.obs import RecordingTracer, TraceEvent, make_telemetry, write_trace

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "validate_trace.py"
SCENARIO_DIR = ROOT / "examples" / "scenarios"

spec = importlib.util.spec_from_file_location("validate_trace", TOOL)
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)


def events(*emissions):
    tracer = RecordingTracer()
    for kind, cycle, kwargs in emissions:
        tracer.emit(kind, cycle, **kwargs)
    return tracer.events


def launch(cycle, device, members, **extra):
    return ("launch", cycle, dict(device=device, members=members,
                                  cycles=100, **extra))


def finish(cycle, device, members):
    return ("group_finish", cycle, dict(device=device, members=members))


class TestValidEventStreams:
    def test_minimal_serial_timeline(self):
        stream = events(
            ("arrival", 0, dict(app="NN")),
            ("placement", 0, dict(app="NN", device=0)),
            launch(0, 0, ["NN"]),
            finish(100, 0, ["NN"]),
        )
        assert lint.validate_events(stream) == []

    def test_fault_closes_inflight_group(self):
        stream = events(
            launch(0, 1, ["BFS2", "NN"]),
            ("fault", 50, dict(device=1, inflight=["BFS2", "NN"])),
            ("recover", 500, dict(device=1)),
        )
        assert lint.validate_events(stream) == []

    def test_fault_on_idle_device_is_legal(self):
        stream = events(
            ("fault", 10, dict(device=0)),
            ("recover", 20, dict(device=0)),
        )
        assert lint.validate_events(stream) == []

    def test_traced_groups_run_of_fleet_faults(self):
        scenario = Scenario.from_json(
            (SCENARIO_DIR / "fleet_faults.json").read_text())
        telemetry = make_telemetry("trace")
        run_scenario(scenario, telemetry=telemetry)
        kinds = {ev.kind for ev in telemetry.events}
        assert {"launch", "fault", "recover", "requeue"} <= kinds
        assert lint.validate_events(telemetry.events) == []


class TestInvalidEventStreams:
    def test_backwards_device_timeline(self):
        stream = events(
            launch(500, 0, ["NN"]),
            finish(400, 0, ["NN"]),
        )
        errors = lint.validate_events(stream)
        assert any("went backwards" in e for e in errors)

    def test_double_launch_without_retire(self):
        stream = events(
            launch(0, 0, ["NN"]),
            launch(10, 0, ["BFS2"]),
            finish(110, 0, ["BFS2"]),
        )
        errors = lint.validate_events(stream)
        assert any("still in flight" in e for e in errors)

    def test_finish_without_launch(self):
        errors = lint.validate_events(events(finish(10, 0, ["NN"])))
        assert any("no launch in flight" in e for e in errors)

    def test_finish_members_mismatch(self):
        stream = events(
            launch(0, 0, ["NN", "BFS2"]),
            finish(100, 0, ["NN"]),
        )
        errors = lint.validate_events(stream)
        assert any("retired members" in e for e in errors)

    def test_dangling_inflight_at_eof(self):
        errors = lint.validate_events(events(launch(0, 2, ["NN"])))
        assert any("end of trace" in e and "in flight" in e
                   for e in errors)

    def test_backwards_recover(self):
        stream = events(
            launch(500, 0, ["NN"]),
            finish(600, 0, ["NN"]),
            ("recover", 550, dict(device=0)),
        )
        errors = lint.validate_events(stream)
        assert any("recover @ 550" in e and "went backwards" in e
                   for e in errors)

    def test_retired_window_kinds_are_unknown(self):
        stream = [TraceEvent(kind, 0) for kind in
                  ("window_open", "window_rollback", "window_commit")]
        errors = lint.validate_events(stream)
        assert len(errors) == 3
        assert all("unknown event kind" in e for e in errors)

    def test_retired_speculation_kinds_are_unknown(self):
        stream = [TraceEvent(kind, 0, device=0) for kind in
                  ("predict", "spec_hit", "spec_miss")]
        errors = lint.validate_events(stream)
        assert len(errors) == 3
        assert all("unknown event kind" in e for e in errors)


class TestFileFrontDoor:
    def _events(self):
        return events(launch(0, 0, ["NN"]), finish(100, 0, ["NN"]))

    def test_validates_both_formats(self, tmp_path, capsys):
        paths = [write_trace(self._events(),
                             str(tmp_path / f"t.{fmt}"), fmt)
                 for fmt in ("jsonl", "chrome")]
        assert lint.main(paths) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = write_trace(events(finish(5, 0, ["NN"])),
                           str(tmp_path / "bad.jsonl"), "jsonl")
        assert lint.main([path]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_unreadable_file_exits_one(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert lint.main([str(missing)]) == 1

    def test_empty_trace_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert lint.main([str(path)]) == 1
        assert "no events" in capsys.readouterr().out
