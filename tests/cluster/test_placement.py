"""Placement policy tests: round-robin, least-loaded, interference."""

import pytest

from repro.core import make_context
from repro.core.classification import AppClass
from repro.core.interference import InterferenceModel
from repro.cluster import (Device, InterferenceAwarePlacement,
                           LeastLoadedPlacement, RoundRobinPlacement,
                           placement_policy)
from repro.runtime import OnlineFCFS

from ..conftest import make_tiny_spec


@pytest.fixture
def ctx(small_cfg):
    return make_context(small_cfg)


def fleet(n, ctx):
    return [Device(i, OnlineFCFS(2), ctx) for i in range(n)]


def entry(name, seed=0):
    return (name, make_tiny_spec(name, seed=seed))


#: M suffers badly next to M, mildly next to MC/C, not at all next to A;
#: all other victims are insensitive.  Rows/columns follow CLASS_ORDER
#: (M, MC, C, A).
MODEL = InterferenceModel(slowdown=(
    (3.0, 1.5, 1.2, 1.0),
    (1.1, 1.1, 1.1, 1.0),
    (1.1, 1.1, 1.1, 1.0),
    (1.0, 1.0, 1.0, 1.0),
))


class TestRoundRobin:
    def test_cycles_through_devices(self, ctx):
        devices = fleet(3, ctx)
        placement = RoundRobinPlacement()
        chosen = [placement.choose(entry(f"a{i}", i), 0, devices, ctx)
                  .device_id for i in range(7)]
        assert chosen == [0, 1, 2, 0, 1, 2, 0]

    def test_ignores_load(self, ctx):
        devices = fleet(2, ctx)
        devices[0].assign(entry("busy0"), 0)
        placement = RoundRobinPlacement()
        assert placement.choose(entry("x"), 0, devices, ctx).device_id == 0


class TestLeastLoaded:
    def test_prefers_emptiest_queue(self, ctx):
        devices = fleet(3, ctx)
        devices[0].assign(entry("a"), 0)
        devices[0].assign(entry("b", 1), 0)
        devices[1].assign(entry("c", 2), 0)
        placement = LeastLoadedPlacement()
        assert placement.choose(entry("x", 3), 0, devices, ctx).device_id == 2

    def test_tie_breaks_by_soonest_free_then_id(self, ctx):
        devices = fleet(2, ctx)
        # Equal load; device 1 frees sooner than device 0.
        devices[0].completion_cycle = 500
        devices[1].completion_cycle = 100
        placement = LeastLoadedPlacement()
        assert placement.choose(entry("x"), 0, devices, ctx).device_id == 1
        # All equal → lowest id.
        devices[1].completion_cycle = 500
        assert placement.choose(entry("x"), 0, devices, ctx).device_id == 0


class TestCapabilityScaling:
    """Least-loaded on big/little fleets: residents per peak IPC."""

    def device_with_config(self, device_id, config):
        from repro.core import make_context
        return Device(device_id, OnlineFCFS(2), ctx=make_context(config))

    def test_equal_loads_prefer_the_bigger_device(self, small_cfg, ctx):
        big = self.device_with_config(1, small_cfg.with_sms(8))
        little = self.device_with_config(0, small_cfg.with_sms(2))
        little.assign(entry("a"), 0)
        big.assign(entry("b", 1), 0)
        placement = LeastLoadedPlacement()
        # 1 resident / 8 SMs beats 1 resident / 2 SMs despite the id.
        assert placement.choose(entry("x", 2), 0, [little, big],
                                ctx).device_id == 1

    def test_big_device_absorbs_proportionally_more(self, small_cfg, ctx):
        big = self.device_with_config(1, small_cfg.with_sms(8))
        little = self.device_with_config(0, small_cfg.with_sms(2))
        placement = LeastLoadedPlacement()
        chosen = []
        for i in range(5):
            device = placement.choose(entry(f"s{i}", i), 0,
                                      [little, big], ctx)
            device.assign(entry(f"s{i}", i), 0)
            chosen.append(device.device_id)
        # Empty fleet ties to device 0, then the 4x device soaks up the
        # rest until the ratio evens out.
        assert chosen == [0, 1, 1, 1, 1]

    def test_devices_without_configs_rank_by_raw_load(self, ctx):
        devices = fleet(2, ctx)
        devices[0].assign(entry("a"), 0)
        placement = LeastLoadedPlacement()
        assert placement.choose(entry("x", 1), 0, devices,
                                ctx).device_id == 1


class TestInterferenceAware:
    def test_avoids_hostile_resident_mix(self, ctx):
        """An M app must dodge the device holding another M app."""
        ctx.interference = MODEL
        devices = fleet(2, ctx)
        classes = {"m0": AppClass.M, "a0": AppClass.A, "new": AppClass.M}
        devices[0].assign(entry("m0"), 0)
        devices[1].assign(entry("a0", 1), 0)
        placement = InterferenceAwarePlacement(classes=classes)
        assert placement.choose(entry("new", 2), 0, devices,
                                ctx).device_id == 1

    def test_empty_device_beats_benign_mix(self, ctx):
        """Score ties (A next to anything = 1.0) fall back to load."""
        ctx.interference = MODEL
        devices = fleet(2, ctx)
        classes = {"a0": AppClass.A, "new": AppClass.A}
        devices[0].assign(entry("a0"), 0)
        placement = InterferenceAwarePlacement(classes=classes)
        assert placement.choose(entry("new", 1), 0, devices,
                                ctx).device_id == 1

    def test_additive_model_penalizes_crowds(self, ctx):
        """Two mild aggressors outweigh one, per the additive model."""
        ctx.interference = MODEL
        devices = fleet(2, ctx)
        classes = {"mc0": AppClass.MC, "mc1": AppClass.MC,
                   "m0": AppClass.M, "new": AppClass.M}
        devices[0].assign(entry("mc0"), 0)
        devices[0].assign(entry("mc1", 1), 0)   # S = 1.5+1.5-1 = 2.0
        devices[1].assign(entry("m0", 2), 0)    # S = 3.0
        placement = InterferenceAwarePlacement(classes=classes)
        assert placement.choose(entry("new", 3), 0, devices,
                                ctx).device_id == 0

    def test_degrades_to_least_loaded_without_model(self, ctx):
        assert ctx.interference is None
        devices = fleet(2, ctx)
        devices[0].assign(entry("a"), 0)
        placement = InterferenceAwarePlacement(
            classes={"a": AppClass.M, "x": AppClass.M})
        assert placement.choose(entry("x", 1), 0, devices, ctx).device_id == 1

    def test_consults_each_devices_own_matrix(self, small_cfg, ctx):
        """In a mixed fleet the score of a candidate device must come
        from the matrix measured on that device's configuration."""
        from repro.core import make_context
        # Device 0's config predicts brutal M-on-M slowdown, device 1's
        # (a different config) predicts none.
        calm = InterferenceModel(slowdown=tuple(
            tuple(1.0 for _ in range(4)) for _ in range(4)))
        ctx0 = make_context(small_cfg)
        ctx0.interference = MODEL
        ctx1 = make_context(small_cfg.with_sms(2))
        ctx1.interference = calm
        devices = [Device(0, OnlineFCFS(2), ctx=ctx0),
                   Device(1, OnlineFCFS(2), ctx=ctx1)]
        classes = {"m0": AppClass.M, "m1": AppClass.M, "new": AppClass.M}
        devices[0].assign(entry("m0"), 0)
        devices[1].assign(entry("m1", 1), 0)
        placement = InterferenceAwarePlacement(classes=classes)
        # Same resident class on both sides; only device 1's matrix says
        # co-running M with M is free there.
        assert placement.choose(entry("new", 2), 0, devices,
                                ctx).device_id == 1

    def test_any_missing_matrix_degrades_to_least_loaded(self, small_cfg,
                                                         ctx):
        """A device context without a matrix must NOT be scored with the
        fleet-wide matrix (measured on a different config): the whole
        choice degrades to least-loaded."""
        from repro.core import make_context
        # Both the fleet-wide context and device 0 carry matrices;
        # device 1's context has none.  The mixes are arranged so
        # interference scoring would pick device 0 (benign A residents,
        # S=1.0) while least-loaded picks device 1 (equal load/capability
        # ratios of 2/128 vs 1/64, raw-load tie-break 1 < 2) — so a
        # fallback that wrongly scored device 1 with the fleet-wide
        # matrix would flip the outcome.
        ctx.interference = MODEL
        ctx0 = make_context(small_cfg)
        ctx0.interference = MODEL
        ctx1 = make_context(small_cfg.with_sms(2))  # no matrix
        devices = [Device(0, OnlineFCFS(2), ctx=ctx0),
                   Device(1, OnlineFCFS(2), ctx=ctx1)]
        devices[0].assign(entry("a0"), 0)
        devices[0].assign(entry("a1", 1), 0)
        devices[1].assign(entry("m0", 2), 0)
        placement = InterferenceAwarePlacement(
            classes={"a0": AppClass.A, "a1": AppClass.A,
                     "m0": AppClass.M, "x": AppClass.M})
        assert placement.choose(entry("x", 3), 0, devices,
                                ctx).device_id == 1

    def test_declares_interference_need(self):
        assert InterferenceAwarePlacement.needs_interference
        assert not RoundRobinPlacement.needs_interference
        assert not LeastLoadedPlacement.needs_interference


class TestRegistry:
    def test_known_keys(self):
        from repro.api import REGISTRY
        keys = REGISTRY.names("placements")
        assert set(keys) == {"round-robin", "least-loaded", "interference"}
        for key in keys:
            assert placement_policy(key).name == key

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            placement_policy("magic")

    def test_fresh_instance_per_call(self):
        assert placement_policy("round-robin") is not \
            placement_policy("round-robin")
