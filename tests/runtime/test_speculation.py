"""Speculation layer tests: purity keys, the store, stream equality.

The contract under test: speculation may only change *when* a group is
simulated, never *what* any caller observes — a store hit is
bit-identical to simulating on demand, a misprediction is discarded
unobserved, and every counter is deterministic for any worker count.
"""

import pytest

from repro.core import make_context
from repro.core.policies import PlannedGroup
from repro.core.scheduler import run_group
from repro.runtime import (Arrival, OnlineFCFS, OnlinePolicy,
                           ParallelExecutor, SerialExecutor,
                           SpeculationStrategy, SpeculativeSimulator,
                           make_speculation, run_stream)
from repro.runtime.speculation import group_key, outcome_fingerprint

from ..conftest import make_tiny_spec


def specs(n):
    return {f"app{i}": make_tiny_spec(f"app{i}", seed=i) for i in range(n)}


@pytest.fixture
def ctx(small_cfg):
    return make_context(small_cfg)


def checked_strategy(**overrides):
    params = dict(commit_check=True)
    params.update(overrides)
    return SpeculationStrategy(**params)


class TestGroupKey:
    def test_equal_groups_share_a_key(self, ctx):
        suite = list(specs(2).items())
        a = PlannedGroup(members=list(suite))
        b = PlannedGroup(members=list(suite))
        key = group_key(a, ctx.config, ctx.smra_params, 1000)
        assert key == group_key(b, ctx.config, ctx.smra_params, 1000)
        assert hash(key) == hash(
            group_key(b, ctx.config, ctx.smra_params, 1000))

    def test_key_separates_every_purity_input(self, ctx):
        suite = list(specs(3).items())
        base = PlannedGroup(members=suite[:2])
        key = group_key(base, ctx.config, ctx.smra_params, 1000)
        others = [
            group_key(PlannedGroup(members=suite[1:]), ctx.config,
                      ctx.smra_params, 1000),
            group_key(PlannedGroup(members=suite[:2], use_smra=True),
                      ctx.config, ctx.smra_params, 1000),
            group_key(PlannedGroup(members=suite[:2],
                                   partitions=[[0], [1]]),
                      ctx.config, ctx.smra_params, 1000),
            group_key(base, ctx.config, ctx.smra_params, 2000),
        ]
        assert all(other != key for other in others)

    def test_fingerprint_matches_reruns(self, ctx):
        group = PlannedGroup(members=list(specs(2).items()))
        first = run_group(group, ctx.config, ctx.smra_params, 100000)
        second = run_group(group, ctx.config, ctx.smra_params, 100000)
        assert outcome_fingerprint(first) == outcome_fingerprint(second)


class TestStrategyValidation:
    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="depth"):
            SpeculationStrategy(depth=0)
        with pytest.raises(ValueError, match="depth"):
            SpeculationStrategy(depth=True)

    def test_rejects_bad_commit_check(self):
        with pytest.raises(ValueError, match="commit_check"):
            SpeculationStrategy(commit_check=1)

    def test_make_speculation_none_builds_nothing(self):
        assert make_speculation(None, SerialExecutor()) is None


class TestStoreProtocol:
    def test_hit_pops_and_counts(self, ctx):
        sim = SpeculativeSimulator(SerialExecutor(), checked_strategy())
        group = PlannedGroup(members=list(specs(2).items()))
        policy = OnlineFCFS(2)
        policy.waiting = list(group.members)
        sim.predict(0, policy, 0, ctx, 100000)
        assert sim.counters.submitted == 1
        outcome = sim.fetch_batch(
            [(0, group, ctx.config, ctx.smra_params)], 100000)[0]
        assert list(outcome.members) == [n for n, _s in group.members]
        assert sim.counters.hits == 1
        assert sim.counters.misses == 0
        # The hit was popped: fetching again simulates on demand.
        sim.fetch_batch(
            [(0, group, ctx.config, ctx.smra_params)], 100000)
        assert sim.counters.misses == 1

    def test_miss_discards_stale_chain_but_not_fresh(self, ctx):
        suite = list(specs(6).items())
        sim = SpeculativeSimulator(SerialExecutor(),
                                   checked_strategy(depth=2))
        stale = OnlineFCFS(2)
        stale.waiting = suite[:2]
        sim.predict(0, stale, 0, ctx, 100000)
        assert sim.counters.submitted == 1
        # A new prediction round with a diverged queue, then a fetch
        # that misses: the first round's entry is stale and drops,
        # the current round's survives for the *next* launch.
        fresh = OnlineFCFS(2)
        fresh.waiting = suite[2:4]
        sim.predict(0, fresh, 0, ctx, 100000)
        assert sim.counters.submitted == 2
        probe = PlannedGroup(members=[suite[0], suite[3]])
        sim.fetch_batch(
            [(0, probe, ctx.config, ctx.smra_params)], 100000)
        assert sim.counters.misses == 1
        assert sim.counters.discarded == 1
        outcome = sim.fetch_batch(
            [(0, PlannedGroup(members=suite[2:4]), ctx.config,
              ctx.smra_params)], 100000)[0]
        assert sim.counters.hits == 1
        assert list(outcome.members) == [n for n, _s in suite[2:4]]

    def test_close_discards_everything(self, ctx):
        sim = SpeculativeSimulator(SerialExecutor(), checked_strategy())
        policy = OnlineFCFS(2)
        policy.waiting = list(specs(4).items())
        sim.predict(0, policy, 0, ctx, 100000)
        sim.predict(1, policy, 0, ctx, 100000)
        submitted = sim.counters.submitted
        sim.close()
        assert sim.counters.discarded == submitted

    def test_commit_check_catches_poisoned_store(self, ctx):
        suite = list(specs(4).items())
        right = PlannedGroup(members=suite[:2])
        wrong = PlannedGroup(members=suite[2:])
        poison = run_group(wrong, ctx.config, ctx.smra_params, 100000)
        sim = SpeculativeSimulator(_PoisonedExecutor(poison),
                                   checked_strategy())
        policy = OnlineFCFS(2)
        policy.waiting = list(right.members)
        # The prediction for `right` is stored with `wrong`'s outcome.
        sim.predict(0, policy, 0, ctx, 100000)
        with pytest.raises(RuntimeError, match="commit check"):
            sim.fetch_batch(
                [(0, right, ctx.config, ctx.smra_params)], 100000)


class _PoisonedExecutor(SerialExecutor):
    """Resolves every speculative submission to one fixed outcome."""

    def __init__(self, poison):
        super().__init__()
        self.poison = poison

    def submit_group(self, *_args, **_kwargs):
        return self.submit_job(lambda: self.poison)


class _CloneRaises(OnlineFCFS):
    """A policy that refuses prediction probes."""

    def clone_for_prediction(self):
        raise RuntimeError("unclonable")


class _CloneLies(OnlineFCFS):
    """A policy whose prediction clone reverses its queue: every
    prediction is wrong, so every launch must be a store miss."""

    def clone_for_prediction(self):
        probe = OnlineFCFS(self.nc)
        probe.waiting = list(reversed(self.waiting))
        return probe


class TestStreamSpeculation:
    def arrivals(self, n):
        return [Arrival(0, name, spec)
                for name, spec in specs(n).items()]

    def test_stream_results_identical_with_hits(self, ctx):
        arrivals = self.arrivals(8)
        plain = run_stream(arrivals, OnlineFCFS(2), ctx)
        sim = SpeculativeSimulator(SerialExecutor(), checked_strategy())
        spec = run_stream(arrivals, OnlineFCFS(2), ctx, speculation=sim)
        assert spec.makespan == plain.makespan
        assert ([g.outcome.members for g in spec.groups]
                == [g.outcome.members for g in plain.groups])
        assert [r.finish_cycle for r in spec.records.values()] \
            == [r.finish_cycle for r in plain.records.values()]
        # A fully backlogged FCFS stream is perfectly predictable:
        # every launch after the first is a hit.
        assert sim.counters.hits == len(plain.groups) - 1
        assert sim.counters.misses == 1

    def test_misprediction_never_leaks_into_results(self, ctx):
        arrivals = self.arrivals(8)
        plain = run_stream(arrivals, OnlineFCFS(2), ctx)
        sim = SpeculativeSimulator(SerialExecutor(), checked_strategy())
        spec = run_stream(arrivals, _CloneLies(2), ctx, speculation=sim)
        assert sim.counters.hits == 0
        assert sim.counters.misses == len(plain.groups)
        assert sim.counters.discarded == sim.counters.submitted > 0
        # Every discarded speculation stayed unobserved: the schedule
        # is the plain FCFS one.
        assert spec.makespan == plain.makespan
        assert ([g.outcome.members for g in spec.groups]
                == [g.outcome.members for g in plain.groups])

    def test_unclonable_policy_disables_prediction(self, ctx):
        arrivals = self.arrivals(6)
        plain = run_stream(arrivals, OnlineFCFS(2), ctx)
        sim = SpeculativeSimulator(SerialExecutor(), checked_strategy())
        spec = run_stream(arrivals, _CloneRaises(2), ctx, speculation=sim)
        assert sim.counters.submitted == 0
        assert spec.makespan == plain.makespan

    def test_counters_identical_across_worker_counts(self, ctx):
        arrivals = self.arrivals(8)
        serial_sim = SpeculativeSimulator(SerialExecutor(),
                                          checked_strategy())
        serial = run_stream(arrivals, OnlineFCFS(2), ctx,
                            speculation=serial_sim)
        with ParallelExecutor(2) as pool:
            pool_sim = SpeculativeSimulator(pool, checked_strategy())
            parallel = run_stream(arrivals, OnlineFCFS(2), ctx,
                                  speculation=pool_sim)
        assert serial_sim.counters.to_dict() == pool_sim.counters.to_dict()
        assert serial.makespan == parallel.makespan
        assert ([g.outcome.members for g in serial.groups]
                == [g.outcome.members for g in parallel.groups])
