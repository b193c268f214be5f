"""SpeculationSpec schema + end-to-end byte-identity of results.

The scenario layer's contract: ``speculation`` is pure execution
strategy.  A scenario's identity (``spec_hash``), its serialized form
with ``kind="none"``, and — the expensive half of this file — the
canonical result JSON of every committed fleet example are all
independent of the speculation kind and the worker count.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.api import ExecutionSpec, Scenario, SpeculationSpec, run_scenario

SCENARIO_DIR = (pathlib.Path(__file__).resolve().parents[2]
                / "examples" / "scenarios")

# The three fleet examples: homogeneous, heterogeneous (per-device
# configs), and faults + admission (transient requeues under group
# speculation).
FLEET_EXAMPLES = ["fleet_small.json", "fleet_hetero.json",
                  "fleet_faults.json"]


def with_speculation(scenario, workers=1, **spec_kwargs):
    execution = dataclasses.replace(
        scenario.execution, workers=workers,
        speculation=SpeculationSpec(**spec_kwargs) if spec_kwargs else None)
    return dataclasses.replace(scenario, execution=execution)


class TestSpeculationSpecSchema:
    def test_defaults_canonicalize_away(self):
        execution = ExecutionSpec(speculation=SpeculationSpec())
        assert execution.speculation is None
        assert execution == ExecutionSpec()
        assert "speculation" not in execution.to_dict()

    def test_none_kind_serializes_byte_identically(self):
        given = ExecutionSpec.from_dict(
            {"workers": 2, "speculation": {"kind": "none"}})
        absent = ExecutionSpec.from_dict({"workers": 2})
        assert json.dumps(given.to_dict()) == json.dumps(absent.to_dict())

    def test_full_spec_round_trips_losslessly(self):
        spec = SpeculationSpec(kind="groups", depth=3, commit_check=True)
        execution = ExecutionSpec(speculation=spec)
        decoded = ExecutionSpec.from_dict(execution.to_dict())
        assert decoded == execution
        assert decoded.speculation == spec

    def test_unknown_kind_rejected_with_choices(self):
        with pytest.raises(ValueError, match="groups"):
            SpeculationSpec(kind="warp-drive")

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            SpeculationSpec(kind="groups", depth=0)
        with pytest.raises(ValueError, match="depth"):
            SpeculationSpec(kind="groups", depth=True)

    def test_bad_commit_check_rejected(self):
        with pytest.raises(ValueError, match="commit_check"):
            SpeculationSpec(kind="groups", commit_check="yes")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SpeculationSpec.from_dict({"kind": "groups", "dept": 3})

    def test_queue_scenarios_reject_speculation(self):
        scenario = Scenario.from_json(
            (SCENARIO_DIR / "queue_paper.json").read_text())
        with pytest.raises(ValueError, match="queue"):
            with_speculation(scenario, kind="groups")

    def test_spec_hash_ignores_speculation(self):
        scenario = Scenario.from_json(
            (SCENARIO_DIR / "fleet_small.json").read_text())
        assert with_speculation(scenario, workers=4, kind="groups",
                                commit_check=True).spec_hash() \
            == scenario.spec_hash()


class TestResultByteIdentity:
    """The acceptance gate: every committed fleet example produces
    byte-identical canonical result JSON with speculation ``groups`` —
    commit-checked — at workers 1 and 4, equal to speculation off."""

    @pytest.mark.parametrize("name", FLEET_EXAMPLES)
    def test_fleet_examples_identical_on_off_w1_w4(self, name):
        scenario = Scenario.from_json((SCENARIO_DIR / name).read_text())
        baseline = run_scenario(with_speculation(scenario)).to_json()
        for workers in (1, 4):
            run = with_speculation(scenario, workers=workers,
                                   kind="groups", commit_check=True)
            result = run_scenario(run)
            assert result.to_json() == baseline, (name, workers)
            # Counters ride next to the result, never inside it.
            assert "speculation" not in json.loads(result.to_json())
            assert result.speculation is not None
            assert result.speculation["hits"] \
                + result.speculation["misses"] > 0

    def test_counters_deterministic_across_workers(self):
        scenario = Scenario.from_json(
            (SCENARIO_DIR / "fleet_faults.json").read_text())
        counters = [
            run_scenario(with_speculation(scenario, workers=w, kind="groups",
                                          commit_check=True)).speculation
            for w in (1, 4)]
        assert counters[0] == counters[1]


class TestLegacyKinds:
    """The retired run-ahead kinds still load: ``full`` runs as
    ``groups``, ``devices`` as no speculation, each with one
    ``DeprecationWarning`` and an unchanged ``spec_hash``."""

    def scenario_with(self, kind):
        data = json.loads((SCENARIO_DIR / "fleet_small.json").read_text())
        data["execution"] = {"speculation": {"kind": kind}}
        with pytest.warns(DeprecationWarning) as caught:
            scenario = Scenario.from_dict(data)
        assert len(caught) == 1
        return scenario

    def test_full_warns_once_and_equals_groups(self):
        with pytest.warns(DeprecationWarning, match="'full'") as caught:
            spec = SpeculationSpec(kind="full")
        assert len(caught) == 1
        assert spec == SpeculationSpec(kind="groups")

    def test_devices_serializes_like_no_speculation(self):
        scenario = self.scenario_with("devices")
        plain = Scenario.from_json(
            (SCENARIO_DIR / "fleet_small.json").read_text())
        assert scenario.execution.speculation is None
        assert scenario.to_json() == plain.to_json()
        assert scenario.spec_hash() == plain.spec_hash()

    def test_full_keeps_spec_hash_and_result_bytes(self):
        scenario = self.scenario_with("full")
        plain = Scenario.from_json(
            (SCENARIO_DIR / "fleet_small.json").read_text())
        assert scenario.execution.speculation == SpeculationSpec(
            kind="groups")
        assert scenario.spec_hash() == plain.spec_hash()
        result = run_scenario(scenario)
        assert result.to_json() == run_scenario(plain).to_json()
        assert result.speculation is not None
