"""The ``engine-backends`` registry kind and ``ExecutionSpec.backend``.

Backend is resources-not-identity, like ``workers``: the vector backend
must produce byte-identical results to the event backend for every
scenario kind, ``spec_hash`` normalizes it away, and the default
``"event"`` serializes to no key so pre-backend scenario files
round-trip byte-identically.  Without the compiled core, ``vector``
resolves to the event engine with one ``RuntimeWarning``.
"""

import dataclasses
import json
import pathlib
import warnings

import pytest

from repro.api import RunResult, Scenario, engines, run_scenario
from repro.api.engines import engine_class
from repro.api.registry import REGISTRY, RegistryError
from repro.api.scenario import (DeviceSpec, ExecutionSpec, PlacementSpec,
                                PolicySpec, WorkloadSpec)
from repro.core import scheduler
from repro.gpusim import GPU, Application, _native, small_test_config
from repro.gpusim.vector import MAX_CYCLES_LIMIT, VectorGPU

from ..conftest import make_tiny_spec

SCENARIO_DIR = (pathlib.Path(__file__).resolve().parents[2]
                / "examples" / "scenarios")


def _tiny_stream(**execution):
    return Scenario(
        kind="stream",
        workload=WorkloadSpec(source="stream", apps=6, scale=0.1,
                              synthetic_fraction=0.0, seed=3,
                              arrival="poisson", mean_gap=2000.0),
        policy=PolicySpec(name="fcfs", nc=2),
        execution=ExecutionSpec(**execution))


def _tiny_fleet(**execution):
    return Scenario(
        kind="fleet",
        workload=WorkloadSpec(source="stream", apps=8, scale=0.1,
                              synthetic_fraction=0.0, seed=5,
                              arrival="poisson", mean_gap=1500.0),
        policy=PolicySpec(name="fcfs", nc=2),
        placement=PlacementSpec(name="least-loaded"),
        devices=DeviceSpec(count=2),
        execution=ExecutionSpec(**execution))


def _tiny_queue(**execution):
    return Scenario(
        kind="queue",
        workload=WorkloadSpec(source="distribution", distribution="equal",
                              length=6, seed=9, scale=0.1),
        policy=PolicySpec(name="fcfs", nc=2),
        execution=ExecutionSpec(**execution))


def _strip_backend(result: RunResult) -> dict:
    """Result dict minus the one deliberate difference: provenance
    records the backend actually used (absent for the default)."""
    data = result.to_dict()
    data["provenance"].pop("backend", None)
    return data


class TestRegistry:
    def test_both_backends_registered(self):
        assert REGISTRY.names("engine-backends") == ["event", "vector"]

    def test_factories_return_engine_classes(self):
        assert engine_class("event") is GPU
        # Without the compiled core, "vector" falls back to the event
        # engine.
        expected = GPU if _native.load() is None else VectorGPU
        assert engine_class("vector") is expected

    def test_engine_class_is_memoized(self):
        assert engine_class("vector") is engine_class("vector")

    def test_did_you_mean(self):
        with pytest.raises(RegistryError, match="did you mean 'vector'"):
            REGISTRY.get("engine-backends", "vectr")

    def test_cli_lists_the_kind(self, capsys):
        from repro.cli import main
        assert main(["list", "--kind", "engine-backends"]) == 0
        out = capsys.readouterr().out
        assert "event" in out and "vector" in out


class TestExecutionSpecBackend:
    def test_default_serializes_to_no_key(self):
        assert "backend" not in ExecutionSpec().to_dict()
        assert "backend" not in ExecutionSpec(backend="event").to_dict()

    def test_non_default_round_trips(self):
        spec = ExecutionSpec(backend="vector")
        data = spec.to_dict()
        assert data["backend"] == "vector"
        assert ExecutionSpec.from_dict(data) == spec

    def test_unknown_backend_rejected_with_hint(self):
        with pytest.raises(ValueError, match="did you mean 'event'"):
            ExecutionSpec(backend="even")

    def test_backend_must_be_a_string(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionSpec(backend=1)

    def test_spec_hash_normalizes_backend_away(self):
        event = _tiny_stream()
        vector = _tiny_stream(backend="vector")
        assert event.spec_hash() == vector.spec_hash()

    def test_committed_scenarios_round_trip_byte_identically(self):
        # The canonical serialization (and hash) of every committed
        # scenario must not change because the backend field exists.
        seen = 0
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            data = json.loads(path.read_text())
            if "base" in data and "grid" in data:
                continue  # a campaign spec, not a Scenario
            scenario = Scenario.from_json(path.read_text())
            assert "backend" not in scenario.to_dict()["execution"]
            assert Scenario.from_json(scenario.to_json()) == scenario
            assert scenario.to_json() == (
                Scenario.from_json(scenario.to_json()).to_json())
            seen += 1
        assert seen >= 4


class TestBackendParity:
    """Event and vector compute byte-identical results end to end."""

    @pytest.mark.parametrize("build", [_tiny_queue, _tiny_stream,
                                       _tiny_fleet])
    def test_run_results_byte_identical(self, build):
        event = run_scenario(build())
        vector = run_scenario(build(backend="vector"))
        assert vector.provenance["backend"] == "vector"
        assert "backend" not in event.provenance
        assert _strip_backend(event) == _strip_backend(vector)
        # The embedded scenario drops the backend, so even to_json of
        # the stripped dicts compares byte-equal.
        assert json.dumps(_strip_backend(event), sort_keys=True) == \
            json.dumps(_strip_backend(vector), sort_keys=True)

    def test_campaign_scenario_parity(self):
        # One committed-scenario-shaped fleet run through the campaign
        # entry scenario (fleet_small) on both backends.
        text = (SCENARIO_DIR / "fleet_small.json").read_text()
        base = Scenario.from_json(text)
        vector = dataclasses.replace(
            base, execution=dataclasses.replace(base.execution,
                                                backend="vector"))
        assert _strip_backend(run_scenario(base)) == \
            _strip_backend(run_scenario(vector))

    def test_workers_1_vs_4_byte_identical_on_vector(self):
        serial = run_scenario(_tiny_fleet(backend="vector", workers=1))
        parallel = run_scenario(_tiny_fleet(backend="vector", workers=4))
        assert serial.to_json() == parallel.to_json()

    def test_stream_workers_1_vs_4_byte_identical_on_vector(self):
        serial = run_scenario(_tiny_stream(backend="vector", workers=1))
        parallel = run_scenario(_tiny_stream(backend="vector", workers=4))
        assert serial.to_json() == parallel.to_json()


class TestProvenance:
    def test_event_backend_not_recorded(self):
        result = run_scenario(_tiny_queue())
        assert "backend" not in result.provenance
        assert "backend" not in result.scenario["execution"]

    def test_vector_backend_recorded(self):
        result = run_scenario(_tiny_queue(backend="vector"))
        assert result.provenance["backend"] == "vector"
        # The embedded scenario stays backend-free (identity, not
        # resources), so result files differ only in provenance.
        assert "backend" not in result.scenario["execution"]


@pytest.fixture
def core_unavailable(monkeypatch):
    """Force the compiled core to look unavailable in this process."""
    monkeypatch.setattr(_native, "_tried", True)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "unavailable_reason", "forced off")
    monkeypatch.setattr(engines, "_CLASS_CACHE", {})
    monkeypatch.setattr(scheduler, "_ENGINE_CLASSES", {"event": GPU})


class TestFallback:
    """Without the compiled core, "vector" runs on the event engine."""

    def test_fallback_warns_once_and_matches_event(self, request):
        vector = run_scenario(_tiny_fleet(backend="vector"))
        event = run_scenario(_tiny_fleet())
        request.getfixturevalue("core_unavailable")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = run_scenario(_tiny_fleet(backend="vector"))
        fallback_warnings = [w for w in caught
                             if issubclass(w.category, RuntimeWarning)
                             and "forced off" in str(w.message)]
        assert len(fallback_warnings) == 1
        assert "falling back to the event engine" in \
            str(fallback_warnings[0].message)
        assert engine_class("vector") is GPU
        # provenance still says "vector", so the file is byte-equal to
        # the compiled core's, and equal to the event engine's apart
        # from provenance.
        assert fallback.provenance["backend"] == "vector"
        assert fallback.to_json() == vector.to_json()
        assert json.dumps(_strip_backend(fallback), sort_keys=True) == \
            json.dumps(_strip_backend(event), sort_keys=True)

    def test_direct_construction_without_core_rejected(
            self, core_unavailable):
        with pytest.raises(RuntimeError, match="unavailable: forced off"):
            VectorGPU(small_test_config())


class TestVectorGuards:
    @pytest.mark.skipif(_native.load() is None,
                        reason="compiled vector core unavailable")
    def test_max_cycles_beyond_packing_width_rejected(self):
        gpu = VectorGPU(small_test_config())
        gpu.launch([Application("tiny", make_tiny_spec())])
        with pytest.raises(ValueError, match=r"below 2\*\*40"):
            gpu.run(max_cycles=MAX_CYCLES_LIMIT)
        # The largest accepted budget still runs to completion.
        result = gpu.run(max_cycles=MAX_CYCLES_LIMIT - 1)
        assert result.cycles > 0
