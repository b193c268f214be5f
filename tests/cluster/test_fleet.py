"""Fleet event-loop tests: parity, determinism, guards, bookkeeping."""

import pytest

from repro.core import make_context, PlannedGroup
from repro.cluster import (LeastLoadedPlacement, RoundRobinPlacement,
                           placement_policy, run_fleet)
from repro.runtime import (Arrival, OnlineFCFS, OnlinePolicy,
                           ParallelExecutor, run_stream)

from ..conftest import make_tiny_spec


@pytest.fixture
def ctx(small_cfg):
    return make_context(small_cfg)


def arrivals_every(gap, n, start=0):
    return [Arrival(start + gap * i, f"app{i}",
                    make_tiny_spec(f"app{i}", seed=i)) for i in range(n)]


def fcfs_factory(nc=2):
    return lambda _i: OnlineFCFS(nc)


def fingerprint(outcome):
    return {
        "assignments": dict(outcome.assignments),
        "makespan": outcome.makespan,
        "busy": [d.busy_cycles for d in outcome.devices],
        "groups": [[(g.start_cycle, tuple(g.outcome.members),
                     g.outcome.cycles) for g in d.groups]
                   for d in outcome.devices],
        "records": {n: (r.arrival_cycle, r.start_cycle, r.finish_cycle,
                        r.device) for n, r in outcome.records.items()},
    }


class TestSingleDeviceParity:
    def test_one_device_fleet_equals_run_stream(self, ctx):
        """A 1-device fleet is run_stream: same clocks, groups, records."""
        arrivals = arrivals_every(150, 6)
        fleet = run_fleet(arrivals, RoundRobinPlacement(), fcfs_factory(),
                          ctx, num_devices=1)
        stream = run_stream(arrivals, OnlineFCFS(2), ctx)
        assert fleet.makespan == stream.makespan
        assert fleet.devices[0].busy_cycles == stream.busy_cycles
        assert ([(g.start_cycle, tuple(g.outcome.members))
                 for g in fleet.devices[0].groups] ==
                [(g.start_cycle, tuple(g.outcome.members))
                 for g in stream.groups])
        for name, rec in stream.records.items():
            frec = fleet.records[name]
            assert (frec.arrival_cycle, frec.start_cycle,
                    frec.finish_cycle) == (rec.arrival_cycle,
                                           rec.start_cycle,
                                           rec.finish_cycle)
            assert frec.device == 0


class TestDeterminism:
    @pytest.mark.parametrize("placement_key",
                             ["round-robin", "least-loaded", "interference"])
    def test_workers_1_vs_4_identical(self, ctx, placement_key):
        """Same stream + same placement must yield identical per-device
        assignments and fleet metrics at 1 and 4 workers."""
        arrivals = arrivals_every(80, 8)
        serial = run_fleet(arrivals, placement_policy(placement_key),
                           fcfs_factory(), ctx, num_devices=3)
        with ParallelExecutor(4) as pool:
            parallel = run_fleet(arrivals, placement_policy(placement_key),
                                 fcfs_factory(), ctx, num_devices=3,
                                 executor=pool)
        assert fingerprint(serial) == fingerprint(parallel)
        assert serial.total_instructions == parallel.total_instructions
        assert serial.utilization == parallel.utilization

    def test_rerun_is_identical(self, ctx):
        arrivals = arrivals_every(80, 6)
        a = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                      ctx, num_devices=2)
        b = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                      ctx, num_devices=2)
        assert fingerprint(a) == fingerprint(b)


class TestFleetSemantics:
    def test_all_apps_complete_with_valid_records(self, ctx):
        arrivals = arrivals_every(100, 7)
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=3)
        assert set(out.records) == {a.name for a in arrivals}
        assert set(out.assignments) == set(out.records)
        for rec in out.records.values():
            assert rec.arrival_cycle <= rec.start_cycle < rec.finish_cycle
            assert rec.finish_cycle <= out.makespan
            assert rec.device == out.assignments[rec.name]
            group = out.devices[rec.device].groups[rec.group_index]
            assert group.start_cycle == rec.start_cycle
            assert rec.name in group.outcome.members

    def test_parallelism_across_devices_shrinks_makespan(self, ctx):
        """Two devices drain a simultaneous burst faster than one."""
        arrivals = [Arrival(0, f"app{i}", make_tiny_spec(f"app{i}", seed=i))
                    for i in range(4)]
        one = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=1)
        two = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=2)
        assert two.makespan < one.makespan
        assert sum(d.busy_cycles for d in two.devices) == \
            sum(d.busy_cycles for d in one.devices)

    def test_idle_devices_stay_idle(self, ctx):
        """One tiny app on a 3-device fleet leaves two devices empty."""
        out = run_fleet(arrivals_every(0, 1), RoundRobinPlacement(),
                        fcfs_factory(), ctx, num_devices=3)
        assert out.devices[0].busy_cycles > 0
        assert out.devices[1].busy_cycles == 0
        assert out.devices[2].busy_cycles == 0
        assert out.utilization < 1.0 / 2

    def test_empty_stream(self, ctx):
        out = run_fleet([], RoundRobinPlacement(), fcfs_factory(), ctx,
                        num_devices=2)
        assert out.makespan == 0
        assert out.records == {}
        assert all(not d.groups for d in out.devices)

    def test_late_arrival_fast_forwards(self, ctx):
        late = 1_000_000
        arrivals = [Arrival(0, "early", make_tiny_spec("early", seed=0)),
                    Arrival(late, "late", make_tiny_spec("late", seed=1))]
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=2)
        assert out.records["late"].start_cycle == late
        assert out.records["late"].wait_cycles == 0


class TestHeterogeneousFleet:
    """Per-device contexts: big/little fleets through run_fleet."""

    def test_groups_simulate_on_their_devices_config(self, small_cfg):
        import dataclasses
        half = dataclasses.replace(small_cfg.with_sms(2),
                                   name="TestGPU-half")
        ctxs = [make_context(small_cfg), make_context(half)]
        # Both devices get one identical app at the same instant.
        arrivals = [Arrival(0, "a", make_tiny_spec("same", seed=1)),
                    Arrival(0, "b", make_tiny_spec("same", seed=1))]
        out = run_fleet(arrivals, RoundRobinPlacement(), fcfs_factory(),
                        ctxs[0], num_devices=2, device_contexts=ctxs)
        assert out.devices[0].config_name == "TestGPU"
        assert out.devices[1].config_name == "TestGPU-half"
        # The same kernel takes longer on the half-size device.
        assert out.devices[1].busy_cycles > out.devices[0].busy_cycles

    def test_workers_1_vs_4_identical_on_mixed_fleet(self, small_cfg):
        import dataclasses
        half = dataclasses.replace(small_cfg.with_sms(2),
                                   name="TestGPU-half")
        ctxs = [make_context(small_cfg), make_context(half)]
        arrivals = arrivals_every(80, 8)
        serial = run_fleet(arrivals, LeastLoadedPlacement(),
                           fcfs_factory(), ctxs[0], num_devices=2,
                           device_contexts=ctxs)
        with ParallelExecutor(4) as pool:
            parallel = run_fleet(arrivals, LeastLoadedPlacement(),
                                 fcfs_factory(), ctxs[0], num_devices=2,
                                 device_contexts=ctxs, executor=pool)
        assert fingerprint(serial) == fingerprint(parallel)

    def test_context_count_must_match_devices(self, small_cfg):
        ctx = make_context(small_cfg)
        with pytest.raises(ValueError, match="device_contexts"):
            run_fleet([], RoundRobinPlacement(), fcfs_factory(), ctx,
                      num_devices=2, device_contexts=[ctx])

    def test_homogeneous_contexts_match_classic_path(self, small_cfg):
        """Explicit per-device contexts for one config change nothing."""
        ctx = make_context(small_cfg)
        arrivals = arrivals_every(100, 5)
        classic = run_fleet(arrivals, LeastLoadedPlacement(),
                            fcfs_factory(), ctx, num_devices=2)
        explicit = run_fleet(arrivals, LeastLoadedPlacement(),
                             fcfs_factory(), ctx, num_devices=2,
                             device_contexts=[ctx, ctx])
        assert fingerprint(classic) == fingerprint(explicit)

    def test_omitted_contexts_label_devices_with_the_fleet_config(
            self, small_cfg):
        """Every device carries its context: omitting `device_contexts`
        is the same run as listing `ctx` once per device."""
        ctx = make_context(small_cfg)
        arrivals = arrivals_every(100, 5)
        omitted = run_fleet(arrivals, LeastLoadedPlacement(),
                            fcfs_factory(), ctx, num_devices=3)
        listed = run_fleet(arrivals, LeastLoadedPlacement(),
                           fcfs_factory(), ctx, num_devices=3,
                           device_contexts=[ctx] * 3)
        assert ([d.config_name for d in omitted.devices]
                == [d.config_name for d in listed.devices]
                == [ctx.config.name] * 3)
        assert fingerprint(omitted) == fingerprint(listed)


class TestGuards:
    def test_zero_devices_rejected(self, ctx):
        with pytest.raises(ValueError, match="at least one device"):
            run_fleet([], RoundRobinPlacement(), fcfs_factory(), ctx,
                      num_devices=0)

    def test_duplicate_names_rejected(self, ctx):
        spec = make_tiny_spec("dup")
        with pytest.raises(ValueError, match="unique"):
            run_fleet([Arrival(0, "dup", spec), Arrival(5, "dup", spec)],
                      RoundRobinPlacement(), fcfs_factory(), ctx,
                      num_devices=2)

    def test_stalling_policy_detected(self, ctx):
        class Staller(OnlinePolicy):
            name = "staller"

            def next_group(self, now, ctx):
                return None

        with pytest.raises(RuntimeError, match="waiting applications"):
            run_fleet(arrivals_every(0, 1), RoundRobinPlacement(),
                      lambda _i: Staller(), ctx, num_devices=2)

    def test_cross_device_scheduling_detected(self, ctx):
        """A policy may only schedule apps placed on its own device."""
        leak = ("leak", make_tiny_spec("leak", seed=9))

        class Thief(OnlinePolicy):
            name = "thief"

            def next_group(self, now, ctx):
                if self.waiting:
                    self.waiting.clear()
                    return PlannedGroup(members=[leak])
                return None

        arrivals = [Arrival(0, "mine", make_tiny_spec("mine", seed=0)),
                    Arrival(0, *leak)]
        # Round-robin puts "mine" on device 0 and "leak" on device 1;
        # device 0's policy then tries to launch "leak".
        with pytest.raises(RuntimeError, match="placement assigned"):
            run_fleet(arrivals, RoundRobinPlacement(), lambda _i: Thief(),
                      ctx, num_devices=2)

    def test_foreign_device_from_placement_detected(self, ctx):
        from repro.cluster import Device, PlacementPolicy

        class Rogue(PlacementPolicy):
            name = "rogue"

            def choose(self, entry, now, devices, ctx):
                return Device(0, OnlineFCFS(2), ctx)  # not in the fleet

        with pytest.raises(RuntimeError, match="outside the fleet"):
            run_fleet(arrivals_every(0, 1), Rogue(), fcfs_factory(), ctx,
                      num_devices=2)
