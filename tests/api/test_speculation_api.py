"""Legacy ``execution.speculation`` blocks: they load and change nothing.

Speculative pre-simulation never changed a result and was removed.
Scenario files written while it existed may still name one of its
kinds; such a block loads with exactly one ``DeprecationWarning`` and
is dropped, so the file keeps its ``spec_hash`` and its result bytes.
Any other kind is rejected like every other malformed input.
"""

import json
import pathlib
import warnings

import pytest

from repro.api import Scenario, run_scenario

FLEET_SMALL = (pathlib.Path(__file__).resolve().parents[2]
               / "examples" / "scenarios" / "fleet_small.json")


def plain():
    return Scenario.from_json(FLEET_SMALL.read_text())


def with_block(block):
    data = json.loads(FLEET_SMALL.read_text())
    data["execution"] = {"speculation": block}
    return data


def load_legacy(kind):
    """Load fleet_small with a `kind` block; assert exactly one warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = Scenario.from_dict(with_block({"kind": kind}))
    assert [w.category for w in caught] == [DeprecationWarning]
    return scenario, str(caught[0].message)


class TestLegacyKinds:
    @pytest.mark.parametrize("kind", ["none", "groups", "devices", "full"])
    def test_kind_keeps_spec_hash_and_result_bytes(self, kind):
        scenario, _message = load_legacy(kind)
        assert scenario == plain()
        assert scenario.spec_hash() == plain().spec_hash()
        assert run_scenario(scenario).to_json() \
            == run_scenario(plain()).to_json()

    def test_full_warns_once_and_equals_groups(self):
        full, message = load_legacy("full")
        assert "'full'" in message
        assert full == load_legacy("groups")[0]

    def test_devices_serializes_like_no_speculation(self):
        scenario, _message = load_legacy("devices")
        assert "speculation" not in scenario.to_dict()["execution"]
        assert scenario.to_json() == plain().to_json()

    def test_unknown_kind_rejected_with_choices(self):
        with pytest.raises(ValueError, match="groups.*bogus"):
            Scenario.from_dict(with_block({"kind": "bogus"}))
