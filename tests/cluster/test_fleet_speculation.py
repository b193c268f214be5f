"""Fleet group speculation tests: faults × speculation, determinism.

Every test compares a speculative fleet run against the plain serial
run with the full result fingerprint — speculation must be invisible
in results while its counters prove the store actually served launches.
"""

from unittest import mock

import pytest

from repro.api.registry import REGISTRY
from repro.core import make_context
from repro.cluster import (LeastLoadedPlacement, RoundRobinPlacement,
                           run_fleet, scheduled_plan, transient_plan)
from repro.runtime import (Arrival, OnlineFCFS, ParallelExecutor,
                           SerialExecutor, make_speculation)

from ..conftest import make_tiny_spec


@pytest.fixture
def ctx(small_cfg):
    return make_context(small_cfg)


def fcfs_factory(nc=2):
    return lambda _i: OnlineFCFS(nc)


def bursty_arrivals(n, burst, gap):
    """`n` apps in bursts of `burst`, one burst every `gap` cycles —
    enough backlog per device that predictions have a queue to read."""
    return [Arrival((i // burst) * gap, f"app{i}",
                    make_tiny_spec(f"app{i}", seed=i)) for i in range(n)]


def fingerprint(outcome):
    return {
        "assignments": dict(outcome.assignments),
        "makespan": outcome.makespan,
        "busy": [d.busy_cycles for d in outcome.devices],
        "lost": [d.lost_cycles for d in outcome.devices],
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
    }


def speculation(executor, **params):
    params.setdefault("commit_check", True)
    return make_speculation(REGISTRY.create("speculation", "groups",
                                            **params), executor)


class TestGroupSpeculation:
    def test_groups_match_plain_with_hits(self, ctx):
        arrivals = bursty_arrivals(12, burst=6, gap=6000)
        plain = run_fleet(arrivals, RoundRobinPlacement(),
                          fcfs_factory(), ctx, num_devices=2)
        sim = speculation(SerialExecutor())
        spec = run_fleet(arrivals, RoundRobinPlacement(),
                         fcfs_factory(), ctx, num_devices=2,
                         speculation=sim)
        assert fingerprint(spec) == fingerprint(plain)
        assert sim.counters.hits > 0
        assert sim.counters.commit_checks == sim.counters.hits


class TestTransientRequeue:
    def scenario(self, ctx, sim=None):
        arrivals = bursty_arrivals(24, burst=12, gap=8000)
        faults = transient_plan(2, fail_prob=0.3, max_retries=4, seed=11)
        return run_fleet(arrivals, LeastLoadedPlacement(),
                         fcfs_factory(), ctx, num_devices=2,
                         faults=faults, speculation=sim)

    def test_requeue_matches_the_serial_schedule(self, ctx):
        """Transient failures requeue work the predictions never saw;
        the speculative timeline (including fault requeues and retry
        accounting) must equal the plain serial run exactly."""
        plain = self.scenario(ctx)
        assert any(r.retries for r in plain.records.values())
        sim = speculation(SerialExecutor())
        spec = self.scenario(ctx, sim)
        assert fingerprint(spec) == fingerprint(plain)
        assert sim.counters.hits + sim.counters.misses > 0

    def test_counters_identical_for_any_worker_count(self, ctx):
        serial_sim = speculation(SerialExecutor())
        serial = self.scenario(ctx, serial_sim)
        with ParallelExecutor(2) as pool:
            pool_sim = speculation(pool)
            parallel = self.scenario(ctx, pool_sim)
        assert serial_sim.counters.to_dict() == pool_sim.counters.to_dict()
        assert fingerprint(serial) == fingerprint(parallel)


class TestDeviceOutage:
    def test_outage_discards_the_device_predictions(self, ctx):
        """A device going DOWN (and coming back with a fresh policy)
        voids its predicted future: the store for that device is
        discarded unobserved, and the result equals the plain run."""
        arrivals = bursty_arrivals(16, burst=8, gap=6000)
        faults = scheduled_plan(2, events=[(3000, 1, "down"),
                                           (9000, 1, "up")])
        plain = run_fleet(arrivals, RoundRobinPlacement(),
                          fcfs_factory(), ctx, num_devices=2,
                          faults=faults)
        sim = speculation(SerialExecutor())
        with mock.patch.object(sim, "discard", wraps=sim.discard) as spy:
            spec = run_fleet(arrivals, RoundRobinPlacement(),
                             fcfs_factory(), ctx, num_devices=2,
                             faults=faults, speculation=sim)
        assert fingerprint(spec) == fingerprint(plain)
        assert [ev.device for ev in plain.fault_events] == [1, 1]
        # Both fault events discard device 1's store before close().
        assert [c.args for c in spy.call_args_list[:2]] == [(1,), (1,)]
