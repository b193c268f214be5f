"""Fault injection + admission control: determinism, requeue, accounting."""

import pytest

from repro.core import make_context
from repro.cluster import (DeadlineAdmission, FaultEvent, FaultPlan,
                           LeastLoadedPlacement, QueueCapAdmission,
                           RoundRobinPlacement, mtbf_plan, run_fleet,
                           scheduled_plan, transient_plan)
from repro.runtime import Arrival, OnlineFCFS, ParallelExecutor

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
        "lost": [d.lost_cycles for d in outcome.devices],
        "down": [d.down_cycles for d in outcome.devices],
        "failed": [[(f.start_cycle, f.members, f.reason)
                    for f in d.failed_groups] for d in outcome.devices],
        "groups": [[(g.start_cycle, tuple(g.outcome.members),
                     g.outcome.cycles) for g in d.groups]
                   for d in outcome.devices],
        "records": {n: (r.arrival_cycle, r.start_cycle, r.finish_cycle,
                        r.device, r.retries)
                    for n, r in outcome.records.items()},
        "rejected": [(r.name, r.cycle, r.reason, r.retries)
                     for r in outcome.rejected],
        "events": list(outcome.fault_events),
    }


class TestFaultPlanValidation:
    def test_events_sorted_and_alternating(self):
        plan = scheduled_plan(2, events=[[500, 0, "up"], [100, 0, "down"]])
        assert plan.events == (FaultEvent(100, 0, "down"),
                               FaultEvent(500, 0, "up"))

    def test_up_before_down_rejected(self):
        with pytest.raises(ValueError, match="alternate down/up"):
            scheduled_plan(1, events=[[100, 0, "up"]])

    def test_double_down_rejected(self):
        with pytest.raises(ValueError, match="'up' was expected"):
            scheduled_plan(1, events=[[100, 0, "down"], [200, 0, "down"]])

    def test_device_out_of_range_has_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean device 1"):
            scheduled_plan(2, events=[[100, 2, "down"]])

    def test_all_down_at_cycle_zero_rejected(self):
        with pytest.raises(ValueError, match="DOWN at cycle 0"):
            scheduled_plan(2, events=[[0, 0, "down"], [0, 1, "down"]])

    def test_one_survivor_at_cycle_zero_is_fine(self):
        plan = scheduled_plan(2, events=[[0, 0, "down"]])
        assert plan.events[0].kind == "down"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="down.*up|up.*down"):
            FaultEvent(100, 0, "sideways")

    def test_empty_scheduled_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            scheduled_plan(2, events=[])

    def test_validate_for_other_fleet_size(self):
        plan = scheduled_plan(4, events=[[100, 3, "down"]])
        with pytest.raises(ValueError, match="did you mean device 1"):
            plan.validate_for(2)


class TestMtbfPlan:
    def test_same_seed_same_events(self):
        a = mtbf_plan(3, mtbf=20_000, mttr=5_000, horizon=100_000, seed=7)
        b = mtbf_plan(3, mtbf=20_000, mttr=5_000, horizon=100_000, seed=7)
        assert a.events == b.events
        assert a.events  # the horizon is long enough to produce churn

    def test_different_seed_different_events(self):
        a = mtbf_plan(3, mtbf=20_000, mttr=5_000, horizon=100_000, seed=7)
        b = mtbf_plan(3, mtbf=20_000, mttr=5_000, horizon=100_000, seed=8)
        assert a.events != b.events

    def test_every_down_has_a_matching_up(self):
        plan = mtbf_plan(4, mtbf=10_000, mttr=3_000, horizon=80_000,
                         seed=11)
        for device in range(4):
            kinds = [e.kind for e in plan.events if e.device == device]
            assert kinds == ["down", "up"] * (len(kinds) // 2)

    def test_no_device_down_at_cycle_zero(self):
        for seed in range(10):
            plan = mtbf_plan(2, mtbf=50.0, mttr=10.0, horizon=1_000,
                             seed=seed)
            assert all(e.cycle >= 1 for e in plan.events)


class TestTransientFailures:
    def test_group_fails_is_deterministic(self):
        plan = transient_plan(2, fail_prob=0.5, seed=3)
        members, attempts = ["a", "b"], [0, 0]
        assert plan.group_fails(members, attempts) == \
            plan.group_fails(members, attempts)

    def test_retry_changes_the_draw_input(self):
        plan = transient_plan(2, fail_prob=0.5, seed=3,
                              max_retries=10**6)
        draws = {plan.group_fails(["a"], [t]) for t in range(30)}
        assert draws == {True, False}

    def test_max_retries_forces_success(self):
        plan = transient_plan(2, fail_prob=1.0, max_retries=2, seed=0)
        assert plan.group_fails(["a"], [0]) is True
        assert plan.group_fails(["a"], [2]) is False

    def test_bounded_retry_serves_everything(self, ctx):
        arrivals = arrivals_every(80, 6)
        out = run_fleet(arrivals, RoundRobinPlacement(), fcfs_factory(),
                        ctx, num_devices=2,
                        faults=transient_plan(2, fail_prob=0.5, seed=3,
                                              max_retries=2))
        assert set(out.records) == {a.name for a in arrivals}
        assert all(r.retries <= 2 for r in out.records.values())
        assert sum(len(d.failed_groups) for d in out.devices) > 0
        assert sum(d.lost_cycles for d in out.devices) > 0
        for dev in out.devices:
            for failed in dev.failed_groups:
                assert failed.reason == "transient"
                assert failed.executed_cycles == failed.planned_cycles


class TestDeviceFailure:
    def test_down_device_requeues_onto_survivor(self, ctx):
        """Device 0 dies mid-group: its work re-places onto device 1."""
        arrivals = [Arrival(0, f"app{i}", make_tiny_spec(f"app{i}",
                                                         seed=i))
                    for i in range(4)]
        plan = scheduled_plan(2, events=[[50, 0, "down"]])
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=2, faults=plan)
        assert set(out.records) == {a.name for a in arrivals}
        assert all(r.device == 1 for r in out.records.values())
        displaced = [r for r in out.records.values() if r.retries > 0]
        assert displaced
        dev0 = out.devices[0]
        assert dev0.failed_groups
        assert dev0.failed_groups[0].reason == "device-down"
        assert dev0.failed_groups[0].executed_cycles < \
            dev0.failed_groups[0].planned_cycles
        assert dev0.down_cycles == out.makespan - 50
        assert dev0.lost_cycles > 0
        assert out.fault_events == [FaultEvent(50, 0, "down")]

    def test_recovered_device_serves_later_arrivals(self, ctx):
        """After the up event the device is placeable again."""
        early = arrivals_every(0, 2)
        late = [Arrival(500_000, "late0", make_tiny_spec("late0", seed=8)),
                Arrival(500_000, "late1", make_tiny_spec("late1", seed=9))]
        plan = scheduled_plan(2, events=[[50, 0, "down"], [400, 0, "up"]])
        out = run_fleet(early + late, RoundRobinPlacement(),
                        fcfs_factory(1), ctx, num_devices=2, faults=plan)
        assert set(out.records) == {"app0", "app1", "late0", "late1"}
        assert {out.records["late0"].device,
                out.records["late1"].device} == {0, 1}
        assert out.devices[0].down_cycles == 350
        assert out.fault_events == [FaultEvent(50, 0, "down"),
                                    FaultEvent(400, 0, "up")]

    def test_zero_fault_plan_matches_no_plan(self, ctx):
        """An armed-but-empty FaultPlan changes nothing."""
        arrivals = arrivals_every(80, 6)
        empty = FaultPlan(events=(), fail_prob=0.0, num_devices=2)
        a = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                      ctx, num_devices=2)
        b = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                      ctx, num_devices=2, faults=empty)
        assert fingerprint(a) == fingerprint(b)

    def test_graceful_degradation_rejects_without_crashing(self, ctx):
        """The whole fleet dies: pending + future work is rejected."""
        plan = scheduled_plan(2, events=[[100, 0, "down"],
                                         [100, 1, "down"]])
        out = run_fleet(arrivals_every(50, 6), LeastLoadedPlacement(),
                        fcfs_factory(), ctx, num_devices=2, faults=plan)
        assert not out.records
        assert len(out.rejected) == 6
        assert all(r.reason == "no-device" for r in out.rejected)
        assert all(d.down_cycles > 0 for d in out.devices)

    def test_workers_1_vs_4_identical_with_faults(self, ctx):
        arrivals = arrivals_every(60, 8)

        def drain(executor=None):
            return run_fleet(
                arrivals, LeastLoadedPlacement(), fcfs_factory(), ctx,
                num_devices=3, executor=executor,
                faults=mtbf_plan(3, mtbf=2_000, mttr=500, horizon=20_000,
                                 fail_prob=0.2, seed=9),
                admission=QueueCapAdmission(queue_cap=3, mode="defer",
                                            defer_gap=200, max_defers=2))

        serial = drain()
        with ParallelExecutor(4) as pool:
            parallel = drain(pool)
        assert fingerprint(serial) == fingerprint(parallel)


def bursty_arrivals(n, burst, gap):
    """`n` apps in bursts of `burst`, one burst every `gap` cycles, so
    every device holds a backlog when faults strike."""
    return [Arrival((i // burst) * gap, f"app{i}",
                    make_tiny_spec(f"app{i}", seed=i)) for i in range(n)]


class TestBackloggedFaults:
    """Faults under a backlog: requeued and re-placed work must follow
    the serial schedule exactly when groups fan out over a pool."""

    def test_transient_requeue_identical_w1_w2(self, ctx):
        arrivals = bursty_arrivals(24, burst=12, gap=8000)

        def drain(executor=None):
            return run_fleet(
                arrivals, LeastLoadedPlacement(), fcfs_factory(), ctx,
                num_devices=2, executor=executor,
                faults=transient_plan(2, fail_prob=0.3, max_retries=4,
                                      seed=11))

        serial = drain()
        assert any(r.retries for r in serial.records.values())
        with ParallelExecutor(2) as pool:
            parallel = drain(pool)
        assert fingerprint(serial) == fingerprint(parallel)

    def test_outage_and_recovery_identical_w1_w2(self, ctx):
        arrivals = bursty_arrivals(16, burst=8, gap=6000)

        def drain(executor=None):
            return run_fleet(
                arrivals, RoundRobinPlacement(), fcfs_factory(), ctx,
                num_devices=2, executor=executor,
                faults=scheduled_plan(2, events=[(3000, 1, "down"),
                                                 (9000, 1, "up")]))

        serial = drain()
        assert [ev.device for ev in serial.fault_events] == [1, 1]
        with ParallelExecutor(2) as pool:
            parallel = drain(pool)
        assert fingerprint(serial) == fingerprint(parallel)


class TestAdmission:
    def test_queue_cap_reject_accounting(self, ctx):
        arrivals = arrivals_every(10, 10)
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=1,
                        admission=QueueCapAdmission(queue_cap=1))
        assert len(out.records) + len(out.rejected) == len(arrivals)
        assert out.rejected
        assert all(r.reason == "queue-cap" for r in out.rejected)
        assert all(r.cycle == r.arrival_cycle for r in out.rejected)

    def test_defer_mode_retries_before_rejecting(self, ctx):
        arrivals = arrivals_every(10, 8)
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=1,
                        admission=QueueCapAdmission(queue_cap=1,
                                                    mode="defer",
                                                    defer_gap=100,
                                                    max_defers=2))
        assert len(out.records) + len(out.rejected) == len(arrivals)
        # A rejected deferral is stamped at its final re-offer, after
        # max_defers re-offers, not at arrival.
        for r in out.rejected:
            assert r.cycle == r.arrival_cycle + 2 * 100

    def test_defer_mode_admits_more_than_reject_mode(self, ctx):
        arrivals = arrivals_every(10, 8)
        reject = run_fleet(arrivals, LeastLoadedPlacement(),
                           fcfs_factory(), ctx, num_devices=1,
                           admission=QueueCapAdmission(queue_cap=1))
        defer = run_fleet(arrivals, LeastLoadedPlacement(),
                          fcfs_factory(), ctx, num_devices=1,
                          admission=QueueCapAdmission(queue_cap=1,
                                                      mode="defer",
                                                      defer_gap=2_000,
                                                      max_defers=3))
        assert len(defer.records) >= len(reject.records)

    def test_deadline_rejects_when_backlog_is_hopeless(self, ctx):
        # app0 lands on the idle device (optimistic bound 0); later
        # arrivals see its remaining busy cycles blow deadline 1.
        arrivals = arrivals_every(10, 6)
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=1,
                        admission=DeadlineAdmission(deadline_cycles=1))
        assert out.rejected
        assert all(r.reason == "deadline" for r in out.rejected)
        assert len(out.records) + len(out.rejected) == 6

    def test_bad_verdict_is_rejected(self, ctx):
        class Weird(QueueCapAdmission):
            name = "weird"

            def decide(self, entry, now, devices, ctx):
                return "maybe"

        with pytest.raises(RuntimeError, match="expected one of"):
            run_fleet(arrivals_every(0, 2), LeastLoadedPlacement(),
                      fcfs_factory(), ctx, num_devices=1,
                      admission=Weird())


class TestFaultAnalysis:
    def test_summarize_faults_accounting(self, ctx):
        from repro.analysis import summarize_faults
        arrivals = arrivals_every(10, 10)
        out = run_fleet(arrivals, LeastLoadedPlacement(), fcfs_factory(),
                        ctx, num_devices=2,
                        faults=scheduled_plan(2, events=[[50, 0, "down"]]),
                        admission=QueueCapAdmission(queue_cap=2))
        m = summarize_faults(out)
        assert m["arrivals"] == 10
        assert m["served"] + m["rejected"] == m["arrivals"]
        assert m["admitted"] == 10 - m["rejected_by_reason"].get(
            "queue-cap", 0)
        assert m["goodput_cycles"] == sum(
            d.busy_cycles - d.lost_cycles for d in out.devices)
        assert m["availability"] < 1.0
        assert m["availability_timeline"][0] == [0, 2]
        assert sum(m["retry_histogram"].values()) == m["arrivals"]

    def test_availability_timeline_coalesces_cycles(self):
        from repro.analysis import availability_timeline
        events = [FaultEvent(100, 0, "down"), FaultEvent(100, 1, "down"),
                  FaultEvent(300, 0, "up")]
        assert availability_timeline(events, 3) == [[0, 3], [100, 1],
                                                    [300, 2]]

    def test_deadline_attainment(self, ctx):
        from repro.analysis import deadline_attainment
        out = run_fleet(arrivals_every(0, 4), LeastLoadedPlacement(),
                        fcfs_factory(), ctx, num_devices=2)
        assert deadline_attainment(out.records, 10**9) == 1.0
        assert deadline_attainment(out.records, 1) == 0.0
        with pytest.raises(ValueError, match="deadline_cycles"):
            deadline_attainment(out.records, 0)
