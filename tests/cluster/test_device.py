"""Device lifecycle tests: assign → launch → complete bookkeeping."""

import pytest

from repro.core import make_context, run_group, PlannedGroup
from repro.cluster import Device
from repro.runtime import OnlineFCFS

from ..conftest import make_tiny_spec


@pytest.fixture
def ctx(small_cfg):
    return make_context(small_cfg)


def entries(n):
    return [(f"app{i}", make_tiny_spec(f"app{i}", seed=i)) for i in range(n)]


def simulate_group(members, ctx):
    return run_group(PlannedGroup(members=list(members)), ctx.config,
                     ctx.smra_params)


class TestLifecycle:
    def test_assign_tracks_residents_and_policy_queue(self, ctx):
        dev = Device(0, OnlineFCFS(2), ctx)
        for entry in entries(3):
            dev.assign(entry, 0)
        assert dev.load() == 3
        assert dev.pending
        assert not dev.busy
        assert dev.remaining_busy(0) == 0

    def test_launch_and_complete(self, ctx):
        dev = Device(0, OnlineFCFS(2), ctx)
        apps = entries(2)
        for entry in apps:
            dev.assign(entry, 0)
        group = dev.next_group(0)
        assert [n for n, _ in group.members] == ["app0", "app1"]
        outcome = simulate_group(group.members, ctx)
        dev.launch(outcome, now=100)
        assert dev.busy
        assert dev.completion_cycle == 100 + outcome.cycles
        assert dev.remaining_busy(100) == outcome.cycles
        assert dev.busy_cycles == outcome.cycles
        # Launched apps remain resident until their group completes.
        assert dev.load() == 2
        completed = dev.complete()
        assert completed is outcome
        assert not dev.busy
        assert dev.load() == 0
        assert len(dev.groups) == 1
        assert dev.groups[0].start_cycle == 100

    def test_complete_retires_only_running_members(self, ctx):
        dev = Device(0, OnlineFCFS(1), ctx)
        apps = entries(2)
        for entry in apps:
            dev.assign(entry, 0)
        group = dev.next_group(0)
        dev.launch(simulate_group(group.members, ctx), now=0)
        assert dev.load() == 2
        dev.complete()
        # app1 is still waiting on this device.
        assert dev.load() == 1
        assert dev.resident[0][0] == "app1"
        assert dev.pending


class TestGuards:
    def test_negative_device_id_rejected(self, ctx):
        with pytest.raises(ValueError):
            Device(-1, OnlineFCFS(2), ctx)

    def test_next_group_while_busy_rejected(self, ctx):
        dev = Device(0, OnlineFCFS(2), ctx)
        dev.assign(entries(1)[0], 0)
        group = dev.next_group(0)
        dev.launch(simulate_group(group.members, ctx), now=0)
        with pytest.raises(RuntimeError, match="busy"):
            dev.next_group(0)

    def test_double_launch_rejected(self, ctx):
        dev = Device(0, OnlineFCFS(2), ctx)
        dev.assign(entries(1)[0], 0)
        outcome = simulate_group(dev.next_group(0).members, ctx)
        dev.launch(outcome, now=0)
        with pytest.raises(RuntimeError, match="busy"):
            dev.launch(outcome, now=0)

    def test_complete_while_idle_rejected(self, ctx):
        with pytest.raises(RuntimeError, match="complete"):
            Device(0, OnlineFCFS(2), ctx).complete()
