"""CampaignSpec / ShardSpec: validation, round-trip, identity."""

import pathlib

import pytest

from repro.api import REGISTRY
from repro.campaign import RESUME_POLICIES, CampaignSpec, ShardSpec

from .conftest import tiny_stream_scenario


class TestShardSpec:
    def test_defaults(self):
        shard = ShardSpec()
        assert shard.strategy == "by-point"
        assert shard.max_shard_size == 1
        assert shard.slice_apps == 0

    def test_strategies_are_registry_components(self):
        names = REGISTRY.names("shard-strategies")
        assert "by-point" in names
        assert "by-trace-slice" in names

    def test_unknown_strategy_rejected_with_suggestions(self):
        from repro.api import RegistryError
        with pytest.raises(RegistryError, match="did you mean "
                           "'by-point'"):
            ShardSpec(strategy="by-pont")

    def test_max_shard_size_validated(self):
        with pytest.raises(ValueError, match="max_shard_size"):
            ShardSpec(max_shard_size=0)
        with pytest.raises(ValueError, match="max_shard_size"):
            ShardSpec(max_shard_size=True)

    def test_slice_apps_requires_trace_slice_strategy(self):
        with pytest.raises(ValueError, match="slice_apps"):
            ShardSpec(strategy="by-point", slice_apps=5)
        with pytest.raises(ValueError, match="slice_apps"):
            ShardSpec(strategy="by-trace-slice")  # needs >= 1
        shard = ShardSpec(strategy="by-trace-slice", slice_apps=5)
        assert shard.slice_apps == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ShardSpec.from_dict({"strtegy": "by-point"})


class TestCampaignSpec:
    def test_round_trip(self, tiny_campaign):
        rebuilt = CampaignSpec.from_json(tiny_campaign.to_json())
        assert rebuilt == tiny_campaign
        assert rebuilt.to_json() == tiny_campaign.to_json()

    def test_base_and_shard_decode_from_mappings(self, tiny_campaign):
        data = tiny_campaign.to_dict()
        spec = CampaignSpec(base=data["base"], grid=data["grid"],
                            shard=data["shard"])
        assert spec.base == tiny_campaign.base
        assert spec.shard == tiny_campaign.shard

    def test_empty_grid_is_one_point(self):
        spec = CampaignSpec(base=tiny_stream_scenario())
        assert spec.grid == {}

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="grid"):
            CampaignSpec(base=tiny_stream_scenario(),
                         grid={"workload.seed": []})
        with pytest.raises(ValueError, match="grid"):
            CampaignSpec(base=tiny_stream_scenario(),
                         grid={"workload.seed": "abc"})
        with pytest.raises(ValueError, match="grid"):
            CampaignSpec(base=tiny_stream_scenario(),
                         grid={"": [1]})

    def test_unknown_resume_policy_rejected(self):
        assert RESUME_POLICIES == ("verify", "trust")
        with pytest.raises(ValueError, match="resume"):
            CampaignSpec(base=tiny_stream_scenario(), resume="hope")

    def test_unknown_key_rejected(self):
        data = CampaignSpec(base=tiny_stream_scenario()).to_dict()
        data["gird"] = {}
        with pytest.raises(ValueError, match="gird"):
            CampaignSpec.from_dict(data)

    def test_missing_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            CampaignSpec.from_dict({"grid": {}})

    def test_wrong_schema_version_rejected(self, tiny_campaign):
        data = tiny_campaign.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            CampaignSpec.from_dict(data)

    def test_trace_slice_rejects_queue_base(self):
        from repro.api import PolicySpec, Scenario, WorkloadSpec
        queue = Scenario(kind="queue",
                         workload=WorkloadSpec(source="distribution",
                                               distribution="M",
                                               length=8, seed=7),
                         policy=PolicySpec(name="fcfs", nc=2))
        with pytest.raises(ValueError, match="arrival"):
            CampaignSpec(base=queue,
                         shard=ShardSpec(strategy="by-trace-slice",
                                         slice_apps=2))

    def test_sliced_base_rejected(self):
        with pytest.raises(ValueError, match="unsliced"):
            CampaignSpec(base=tiny_stream_scenario(slice=(0, 2)))


class TestCampaignSpecHash:
    def test_workers_do_not_change_identity(self, tiny_campaign):
        data = tiny_campaign.to_dict()
        data["base"]["execution"]["workers"] = 8
        parallel = CampaignSpec.from_dict(data)
        assert parallel.spec_hash() == tiny_campaign.spec_hash()

    def test_backend_does_not_change_identity(self, tiny_campaign):
        data = tiny_campaign.to_dict()
        data["base"]["execution"]["backend"] = "vector"
        vector = CampaignSpec.from_dict(data)
        assert vector.base.execution.backend == "vector"
        assert vector.spec_hash() == tiny_campaign.spec_hash()

    def test_committed_campaign_hash_is_stable(self):
        path = (pathlib.Path(__file__).resolve().parents[2] / "examples"
                / "scenarios" / "campaign_small.json")
        spec = CampaignSpec.from_json(path.read_text())
        assert spec.spec_hash() == ("a88a037ebee026f0a34b60256a35ba9a"
                                    "2e2c1e379f1c029570ab9f2b0826ffc7")

    def test_grid_changes_identity(self, tiny_campaign):
        data = tiny_campaign.to_dict()
        data["grid"]["workload.seed"] = [1, 2, 3, 4]
        assert CampaignSpec.from_dict(data).spec_hash() != \
            tiny_campaign.spec_hash()

    def test_shard_strategy_changes_identity(self, tiny_campaign):
        # Sharding changes the unit set, so unlike workers it IS part
        # of the campaign's identity.
        data = tiny_campaign.to_dict()
        data["shard"]["max_shard_size"] = 2
        assert CampaignSpec.from_dict(data).spec_hash() != \
            tiny_campaign.spec_hash()

    def test_stable_across_round_trip(self, tiny_campaign):
        rebuilt = CampaignSpec.from_json(tiny_campaign.to_json())
        assert rebuilt.spec_hash() == tiny_campaign.spec_hash()
        assert len(tiny_campaign.spec_hash()) == 64
