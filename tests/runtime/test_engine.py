"""Stream engine tests: clock, waits, records, batch equivalence."""

import pytest

from repro.core import EvenPolicy, FCFSPolicy, make_context, run_queue
from repro.gpusim import small_test_config
from repro.obs import make_telemetry
from repro.runtime import (Arrival, BatchPolicyAdapter, OnlineFCFS,
                           OnlinePolicy, run_stream)

from ..conftest import make_tiny_spec


def specs(n):
    return {f"app{i}": make_tiny_spec(f"app{i}", seed=i) for i in range(n)}


@pytest.fixture
def ctx(small_cfg):
    return make_context(small_cfg)


class TestBatchEquivalence:
    def test_zero_cycle_arrivals_reproduce_run_queue(self, ctx):
        """All-at-zero arrivals under an adapted batch policy must equal
        the classic batch drain: same groups, same cycles."""
        suite = specs(4)
        queue = list(suite.items())
        batch = run_queue(queue, EvenPolicy(2), ctx)
        stream = run_stream(
            [Arrival(0, n, s) for n, s in queue],
            BatchPolicyAdapter(EvenPolicy(2)), ctx)
        assert stream.makespan == batch.total_cycles
        assert stream.busy_cycles == batch.total_cycles
        assert stream.total_instructions == batch.total_instructions
        assert ([g.outcome.members for g in stream.groups] ==
                [g.members for g in batch.groups])
        for sg, bg in zip(stream.groups, batch.groups):
            assert sg.outcome.cycles == bg.cycles

    def test_group_start_cycles_are_cumulative(self, ctx):
        suite = specs(4)
        stream = run_stream([Arrival(0, n, s) for n, s in suite.items()],
                            BatchPolicyAdapter(EvenPolicy(2)), ctx)
        expected_start = 0
        for g in stream.groups:
            assert g.start_cycle == expected_start
            expected_start += g.outcome.cycles


class TestOnlineClock:
    def test_policy_cannot_see_future_arrivals(self, ctx):
        """An app arriving while the device is busy must not join the
        in-flight group: FCFS with NC=2 still runs two solo groups."""
        suite = specs(2)
        arrivals = [Arrival(0, "app0", suite["app0"]),
                    Arrival(100, "app1", suite["app1"])]
        out = run_stream(arrivals, OnlineFCFS(2), ctx)
        assert len(out.groups) == 2
        assert [g.outcome.members for g in out.groups] == \
            [["app0"], ["app1"]]
        first = out.records["app0"]
        second = out.records["app1"]
        assert first.start_cycle == 0
        assert second.start_cycle == first.finish_cycle
        assert second.wait_cycles == first.finish_cycle - 100

    def test_idle_gap_fast_forwards(self, ctx):
        suite = specs(2)
        late = 1_000_000
        arrivals = [Arrival(0, "app0", suite["app0"]),
                    Arrival(late, "app1", suite["app1"])]
        out = run_stream(arrivals, OnlineFCFS(2), ctx)
        rec = out.records["app1"]
        assert rec.start_cycle == late
        assert rec.wait_cycles == 0
        assert out.makespan == rec.finish_cycle
        assert out.busy_cycles < out.makespan
        assert out.utilization < 1.0

    def test_simultaneous_arrivals_form_group(self, ctx):
        suite = specs(2)
        arrivals = [Arrival(500, n, s) for n, s in suite.items()]
        out = run_stream(arrivals, OnlineFCFS(2), ctx)
        assert len(out.groups) == 1
        assert out.groups[0].start_cycle == 500

    def test_record_invariants(self, ctx):
        suite = specs(3)
        arrivals = [Arrival(100 * i, n, s)
                    for i, (n, s) in enumerate(suite.items())]
        out = run_stream(arrivals, OnlineFCFS(2), ctx)
        assert set(out.records) == set(suite)
        for rec in out.records.values():
            assert rec.arrival_cycle <= rec.start_cycle < rec.finish_cycle
            assert rec.wait_cycles >= 0
            assert rec.turnaround_cycles == (rec.wait_cycles +
                                             rec.service_cycles)
            assert out.groups[rec.group_index].start_cycle == \
                rec.start_cycle


class TestTelemetry:
    def test_untraced_rerun_leaves_earlier_tracer_alone(self, ctx):
        """A policy object reused for an untraced run must not keep
        emitting into the tracer of the traced run before it."""
        arrivals = [Arrival(100 * i, n, s)
                    for i, (n, s) in enumerate(specs(5).items())]
        policy = BatchPolicyAdapter(FCFSPolicy(2))
        telemetry = make_telemetry("trace")
        run_stream(arrivals, policy, ctx, telemetry=telemetry)
        recorded = len(telemetry.events)
        assert any(ev.kind == "plan" for ev in telemetry.events)
        run_stream(arrivals, policy, ctx)
        assert len(telemetry.events) == recorded


class TestValidation:
    def test_duplicate_names_rejected(self, ctx):
        spec = make_tiny_spec("dup")
        with pytest.raises(ValueError):
            run_stream([Arrival(0, "dup", spec), Arrival(5, "dup", spec)],
                       OnlineFCFS(2), ctx)

    def test_negative_arrival_cycle_rejected(self):
        with pytest.raises(ValueError):
            Arrival(-1, "x", make_tiny_spec("x"))

    def test_stalling_policy_detected(self, ctx):
        class Staller(OnlinePolicy):
            name = "staller"

            def next_group(self, now, ctx):
                return None

        with pytest.raises(RuntimeError, match="waiting applications"):
            run_stream([Arrival(0, "app0", make_tiny_spec("app0"))],
                       Staller(), ctx)

    def test_phantom_group_detected(self, ctx):
        from repro.core import PlannedGroup

        class Phantom(OnlinePolicy):
            name = "phantom"

            def next_group(self, now, ctx):
                if self.waiting:
                    self.waiting.clear()
                    ghost = ("ghost", make_tiny_spec("ghost"))
                    return PlannedGroup(members=[ghost])
                return None

        with pytest.raises(RuntimeError, match="before"):
            run_stream([Arrival(0, "app0", make_tiny_spec("app0"))],
                       Phantom(), ctx)

    def test_empty_stream(self, ctx):
        out = run_stream([], OnlineFCFS(2), ctx)
        assert out.makespan == 0
        assert out.groups == []
        assert out.records == {}
