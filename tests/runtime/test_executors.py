"""Executor tests: parallel execution must be bit-identical to serial."""

import pytest

from repro.core import (EvenPolicy, PlannedGroup, Profiler, SMRAParams,
                        make_context, measure_interference, run_group,
                        run_queue)
from repro.gpusim import small_test_config
from repro.runtime import (ParallelExecutor, SerialExecutor, make_executor,
                           workers_from_env)

from ..conftest import make_tiny_spec

STAT_FIELDS = ("warp_instructions", "thread_instructions", "alu_instructions",
               "mem_instructions", "mem_transactions", "l1_hits", "l2_hits",
               "dram_accesses", "dram_row_hits", "dram_bytes",
               "l2_to_l1_bytes", "blocks_completed", "start_cycle",
               "finish_cycle")


def tiny_suite():
    return {
        "mem": make_tiny_spec("mem", mem_fraction=0.4, blocks=8,
                              working_set_kb=8192, pattern="random",
                              tx_per_access=8, seed=1),
        "comp": make_tiny_spec("comp", mem_fraction=0.01, blocks=8, seed=2),
        "cache": make_tiny_spec("cache", mem_fraction=0.3, blocks=4,
                                working_set_kb=48, pattern="random",
                                tx_per_access=4, dep_gap=4.0, seed=3),
        "small": make_tiny_spec("small", blocks=2, instr_per_warp=40, seed=4),
    }


def planned_groups():
    suite = tiny_suite()
    entries = list(suite.items())
    return [PlannedGroup(members=entries[:2]),
            PlannedGroup(members=entries[2:], use_smra=True)]


@pytest.fixture(scope="module")
def pool():
    executor = ParallelExecutor(workers=2)
    yield executor
    executor.close()


def assert_outcomes_identical(a, b):
    assert a.members == b.members
    assert a.cycles == b.cycles
    assert set(a.result.app_stats) == set(b.result.app_stats)
    for app_id, stats in a.result.app_stats.items():
        other = b.result.app_stats[app_id]
        for field in STAT_FIELDS:
            assert getattr(stats, field) == getattr(other, field), (
                f"app {app_id} field {field}")


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_multi_worker_is_parallel(self):
        ex = make_executor(2)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 2
        ex.close()

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4", True])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ValueError, match="workers must be"):
            make_executor(bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_parallel_executor_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="workers must be"):
            ParallelExecutor(bad)

    def test_context_manager_closes(self):
        with ParallelExecutor(2) as ex:
            assert ex.run_pairs(small_test_config(), []) == []
        assert ex._pool is None


class TestWorkersFromEnv:
    def test_unset_and_empty_use_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env() == 1
        assert workers_from_env(default=3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert workers_from_env() == 1

    def test_valid_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " 4 ")
        assert workers_from_env() == 4

    @pytest.mark.parametrize("bad", ["O", "2.5", "-1", "0"])
    def test_invalid_value_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            workers_from_env()


def device_jobs(groups, config, params=SMRAParams()):
    return [(g, config, params) for g in groups]


class TestRunGroups:
    def test_serial_matches_direct_run_group(self, small_cfg):
        groups = planned_groups()
        params = SMRAParams(interval=500)
        direct = [run_group(g, small_cfg, params) for g in planned_groups()]
        via_exec = SerialExecutor().run_device_groups(
            device_jobs(groups, small_cfg, params))
        for a, b in zip(direct, via_exec):
            assert_outcomes_identical(a, b)

    def test_parallel_identical_to_serial(self, small_cfg, pool):
        params = SMRAParams(interval=500)
        serial = SerialExecutor().run_device_groups(
            device_jobs(planned_groups(), small_cfg, params))
        parallel = pool.run_device_groups(
            device_jobs(planned_groups(), small_cfg, params))
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert_outcomes_identical(a, b)

    def test_parallel_preserves_smra_controller(self, small_cfg, pool):
        outcomes = pool.run_device_groups(
            device_jobs(planned_groups(), small_cfg,
                        SMRAParams(interval=500)))
        assert outcomes[0].smra is None
        assert outcomes[1].smra is not None

    def test_empty_groups(self, small_cfg, pool):
        assert pool.run_device_groups([]) == []
        assert SerialExecutor().run_device_groups([]) == []


class TestRunPairs:
    def test_parallel_identical_to_serial(self, small_cfg, pool):
        suite = tiny_suite()
        pairs = [(("mem", suite["mem"]), ("comp#co", suite["comp"])),
                 (("cache", suite["cache"]), ("small#co", suite["small"]))]
        assert (SerialExecutor().run_pairs(small_cfg, pairs) ==
                pool.run_pairs(small_cfg, pairs))


class TestRunProfiles:
    def test_parallel_identical_to_inline(self, small_cfg, pool):
        entries = list(tiny_suite().items())
        profiler = Profiler(small_cfg)
        inline = [profiler.profile(n, s) for n, s in entries]
        assert pool.run_profiles(small_cfg, entries) == inline

    def test_workers_populate_disk_cache(self, small_cfg, pool, tmp_path):
        entries = list(tiny_suite().items())[:2]
        metrics = pool.run_profiles(small_cfg, entries, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("profile_*.json"))) == 2
        # A fresh profiler reads the worker-written entries: zero sims.
        reader = Profiler(small_cfg, cache_dir=tmp_path)
        for (name, spec), m in zip(entries, metrics):
            assert reader.profile(name, spec) == m
        assert reader.simulations_run == 0

    def test_prime_avoids_resimulation(self, small_cfg, pool):
        entries = list(tiny_suite().items())[:1]
        (metrics,) = pool.run_profiles(small_cfg, entries)
        profiler = Profiler(small_cfg)
        profiler.prime(entries[0][1], metrics)
        assert profiler.peek(entries[0][1]) == metrics
        assert profiler.profile(*entries[0]) == metrics
        assert profiler.simulations_run == 0


class TestParallelInterference:
    def test_matrix_identical_to_serial(self, small_cfg, pool):
        suite = tiny_suite()
        serial = measure_interference(small_cfg, suite, samples_per_pair=1)
        parallel = measure_interference(small_cfg, suite, samples_per_pair=1,
                                        executor=pool)
        assert serial.slowdown == parallel.slowdown
        assert serial.samples == parallel.samples


class TestParallelRunQueue:
    def test_bit_identical_queue_drain(self, small_cfg, pool):
        ctx = make_context(small_cfg)
        queue = list(tiny_suite().items())
        serial = run_queue(queue, EvenPolicy(2), ctx)
        parallel = run_queue(queue, EvenPolicy(2), ctx, executor=pool)
        assert serial.policy == parallel.policy
        assert serial.total_cycles == parallel.total_cycles
        assert serial.total_instructions == parallel.total_instructions
        for a, b in zip(serial.groups, parallel.groups):
            assert_outcomes_identical(a, b)
