"""TelemetrySpec schema + end-to-end determinism of telemetry.

The two contracts this file pins:

* **Identity** — telemetry is observation, never computation: a
  scenario's ``spec_hash`` and its canonical result JSON are
  byte-identical with telemetry off vs any kind, at workers 1 and 4,
  for every committed fleet example.
* **Determinism of the observations themselves** — the trace event
  stream and the metrics registry snapshot are worker-count-invariant:
  ``--workers 1`` and ``--workers 4`` record byte-identical JSONL
  traces and equal ``to_dict()`` registries.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.api import ExecutionSpec, Scenario, TelemetrySpec, run_scenario
from repro.obs import export_jsonl, make_telemetry

SCENARIO_DIR = (pathlib.Path(__file__).resolve().parents[2]
                / "examples" / "scenarios")

FLEET_EXAMPLES = ["fleet_small.json", "fleet_hetero.json",
                  "fleet_faults.json"]


def load(name):
    return Scenario.from_json((SCENARIO_DIR / name).read_text())


def with_workers(scenario, workers):
    execution = dataclasses.replace(scenario.execution, workers=workers)
    return dataclasses.replace(scenario, execution=execution)


class TestTelemetrySpecSchema:
    def test_none_kind_canonicalizes_away(self):
        execution = ExecutionSpec(telemetry=TelemetrySpec(kind="none"))
        assert execution.telemetry is None
        assert execution == ExecutionSpec()
        assert "telemetry" not in execution.to_dict()

    def test_none_kind_serializes_byte_identically(self):
        given = ExecutionSpec.from_dict(
            {"workers": 2, "telemetry": {"kind": "none"}})
        absent = ExecutionSpec.from_dict({"workers": 2})
        assert json.dumps(given.to_dict()) == json.dumps(absent.to_dict())

    def test_full_spec_round_trips_losslessly(self):
        spec = TelemetrySpec(kind="full", sinks=("jsonl", "chrome"),
                             path="/tmp/run")
        execution = ExecutionSpec(telemetry=spec)
        decoded = ExecutionSpec.from_dict(execution.to_dict())
        assert decoded == execution
        assert decoded.telemetry == spec

    def test_unknown_kind_rejected_with_choices(self):
        with pytest.raises(ValueError, match="full"):
            TelemetrySpec(kind="x-ray")

    def test_unknown_sink_rejected(self):
        with pytest.raises(ValueError, match="sink"):
            TelemetrySpec(kind="trace", sinks=("xml",), path="/tmp/x")

    def test_sinks_require_path_and_vice_versa(self):
        with pytest.raises(ValueError, match="path"):
            TelemetrySpec(kind="trace", sinks=("jsonl",))
        with pytest.raises(ValueError, match="sink"):
            TelemetrySpec(kind="trace", path="/tmp/x")

    def test_sinks_require_a_tracing_kind(self):
        with pytest.raises(ValueError, match="trac"):
            TelemetrySpec(kind="metrics", sinks=("jsonl",), path="/tmp/x")

    def test_spec_hash_ignores_telemetry(self):
        scenario = load("fleet_small.json")
        traced = dataclasses.replace(
            scenario, execution=dataclasses.replace(
                scenario.execution,
                telemetry=TelemetrySpec(kind="metrics")))
        assert traced.spec_hash() == scenario.spec_hash()


class TestResultByteIdentity:
    """Telemetry on vs off never changes the canonical result JSON."""

    @pytest.mark.parametrize("name", FLEET_EXAMPLES)
    def test_fleet_examples_identical_on_off_w1_w4(self, name):
        scenario = load(name)
        baseline = run_scenario(with_workers(scenario, 1)).to_json()
        for workers in (1, 4):
            result = run_scenario(with_workers(scenario, workers),
                                  telemetry=make_telemetry("full"))
            assert result.to_json() == baseline, (name, workers)
            # The snapshot rides next to the result, never inside it.
            assert "telemetry" not in json.loads(result.to_json())
            assert result.telemetry is not None
            assert result.telemetry["events"] > 0

    def test_scenario_declared_telemetry_is_identical_too(self, tmp_path):
        scenario = load("fleet_faults.json")
        baseline = run_scenario(scenario).to_json()
        traced = dataclasses.replace(
            scenario, execution=dataclasses.replace(
                scenario.execution,
                telemetry=TelemetrySpec(kind="trace", sinks=("jsonl",),
                                        path=str(tmp_path / "t.jsonl"))))
        result = run_scenario(traced)
        assert result.to_json() == baseline
        assert (tmp_path / "t.jsonl").exists()
        # The embedded scenario never records the telemetry block (a
        # traced result file is byte-identical to a plain one).
        assert "telemetry" not in result.scenario["execution"]


class TestObservationDeterminism:
    """Traces and metrics are worker-count-invariant."""

    @pytest.mark.parametrize("name", FLEET_EXAMPLES)
    def test_trace_and_metrics_equal_w1_w4(self, name):
        scenario = load(name)
        snapshots = []
        for workers in (1, 4):
            telemetry = make_telemetry("full")
            run_scenario(with_workers(scenario, workers),
                         telemetry=telemetry)
            snapshots.append((export_jsonl(telemetry.events),
                              telemetry.metrics.to_dict()))
        assert snapshots[0][0] == snapshots[1][0], name
        assert snapshots[0][1] == snapshots[1][1], name

    def test_metrics_count_what_the_run_did(self):
        scenario = load("fleet_small.json")
        telemetry = make_telemetry("metrics")
        result = run_scenario(scenario, telemetry=telemetry)
        metrics = telemetry.metrics.to_dict()
        assert metrics["fleet.arrivals"] == len(result.apps)
        assert metrics["fleet.launches"] == len(result.groups)
        assert metrics["device.groups"] == len(result.groups)
        assert metrics["fleet.makespan"]["value"] \
            == result.metrics["makespan"]

    def test_profile_snapshot_has_simulate_phase(self):
        scenario = load("fleet_small.json")
        telemetry = make_telemetry("profile")
        result = run_scenario(scenario, telemetry=telemetry)
        assert "simulate" in result.telemetry["profile"]
        assert result.telemetry["profile"]["simulate"]["calls"] > 0


TRACE_DIR = (pathlib.Path(__file__).resolve().parents[2]
             / "examples" / "traces")

#: (scenario, committed golden trace) pairs a fresh run must reproduce.
GOLDEN_TRACES = [("fleet_faults.json", "fleet_faults_trace.jsonl"),
                 ("stream_poisson.json", "stream_poisson_trace.jsonl")]


@pytest.mark.parametrize("scenario,golden", GOLDEN_TRACES,
                         ids=["fleet_faults", "stream_poisson"])
class TestCommittedTrace:
    """The committed example traces are goldens: a fresh run reproduces
    each byte-for-byte and it lints clean."""

    def test_fresh_run_reproduces_committed_trace(self, scenario, golden):
        telemetry = make_telemetry("trace")
        run_scenario(load(scenario), telemetry=telemetry)
        assert (export_jsonl(telemetry.events)
                == (TRACE_DIR / golden).read_text())

    def test_committed_trace_lints_clean(self, scenario, golden):
        import importlib.util
        tool = (pathlib.Path(__file__).resolve().parents[2]
                / "tools" / "validate_trace.py")
        spec = importlib.util.spec_from_file_location("validate_trace",
                                                      tool)
        lint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lint)
        assert lint.validate_file(str(TRACE_DIR / golden)) == []


class TestStreamTrace:
    def test_arrivals_stamped_at_their_arrival_cycle(self):
        telemetry = make_telemetry("trace")
        run_scenario(load("stream_poisson.json"), telemetry=telemetry)
        arrivals = [ev for ev in telemetry.events if ev.kind == "arrival"]
        assert arrivals
        for ev in arrivals:
            assert ev.cycle == ev.data["arrival_cycle"], ev.app
