"""Executors: how planned work is turned into simulation results.

The scheduling layers (batch ``drain_queue``, the ``run_fleet`` event
loop behind ``run_stream``, interference measurement) describe *what*
to simulate — co-execution groups, solo profiles, pair co-runs.  An
executor decides *where* those simulations run:

* :class:`SerialExecutor` — in-process, one after another.  This is the
  seed scheduler's behavior and the default everywhere; results are
  bit-identical to the pre-runtime code path.
* :class:`ParallelExecutor` — a ``concurrent.futures`` process pool.
  Each job simulates a fresh device in a worker process, so independent
  groups / solo profiles / interference pairs fan out across cores.
  Because the engine is deterministic, a worker's result is
  bit-identical to the same job run in-process, and results are merged
  back **in submission order**, so parallel execution is
  indistinguishable from serial execution except in wall-clock time.

Workers share solo profiles with the parent (and with each other)
through the on-disk profile cache: a worker's ``Profiler`` writes
the cache file atomically and the parent primes its in-memory cache from
the returned metrics.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.gpusim import (DEFAULT_MAX_CYCLES, Application, GPUConfig,
                          KernelSpec, simulate)

from repro.core.profiling import CacheDir, Profiler, ProfileMetrics
from repro.core.scheduler import GroupOutcome, run_group
from repro.core.policies import PlannedGroup
from repro.core.smra import SMRAParams

#: (name, spec) — one application of a pair co-run or a profile job.
Entry = Tuple[str, KernelSpec]


def _validated_workers(workers) -> int:
    """`workers` as a positive int, or a clear ValueError.

    Callers (CLI flags, ``REPRO_WORKERS``) used to hand bad values
    straight to the process pool, which died with a deep traceback;
    rejecting them here names the actual problem.
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def workers_from_env(var: str = "REPRO_WORKERS", default: int = 1) -> int:
    """Parse a worker count from the environment (``REPRO_WORKERS=N``).

    Unset or empty falls back to `default`; anything that is not a
    positive integer raises a ValueError naming the variable instead of
    surfacing as an int() traceback deep inside a harness.
    """
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{var} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{var} must be >= 1, got {value}")
    return value


# -- module-level job functions (picklable by the process pool) -------------

def _group_job(args) -> GroupOutcome:
    group, config, smra_params, max_cycles, backend = args
    return run_group(group, config, smra_params, max_cycles,
                     backend=backend)


def _pair_job(args) -> Tuple[int, int]:
    config, (name_a, spec_a), (name_b, spec_b), max_cycles = args
    result = simulate(config, [Application(name_a, spec_a),
                               Application(name_b, spec_b)],
                      max_cycles=max_cycles)
    return (result.app_stats[0].finish_cycle or result.cycles,
            result.app_stats[1].finish_cycle or result.cycles)


def _profile_job(args) -> ProfileMetrics:
    config, name, spec, cache_dir = args
    return Profiler(config, cache_dir=cache_dir).profile(name, spec)


class _LazyJobFuture:
    """Future-alike that runs an arbitrary job on first ``result()``.

    :meth:`SerialExecutor.submit_job` returns these so generic
    fan-out call sites (the campaign shard driver) can use one
    submit/collect code path for serial and pooled execution.
    """

    __slots__ = ("_call", "_value")

    def __init__(self, fn, args):
        self._call = (fn, args)
        self._value = None

    def result(self):
        if self._call is not None:
            fn, args = self._call
            self._value = fn(*args)
            self._call = None
        return self._value

    def cancel(self) -> bool:
        if self._call is not None:
            self._call = None
            return True
        return False


class Executor:
    """Runs independent simulation jobs; results come back in job order."""

    name = "base"
    workers = 1

    def run_device_groups(self, jobs: Sequence[
                              Tuple[PlannedGroup, GPUConfig, SMRAParams]],
                          max_cycles: int = DEFAULT_MAX_CYCLES,
                          backend: str = "event") -> List[GroupOutcome]:
        """Simulate each ``(group, config, smra_params)`` job on a fresh
        device; outcomes come back in job order.  Each job carries its
        own device configuration, so one batch may mix the devices of a
        heterogeneous fleet."""
        raise NotImplementedError

    def submit_job(self, fn, *args):
        """Submit an arbitrary picklable ``fn(*args)`` job.

        The campaign layer fans whole shard runs out through it.  The
        serial executor returns a lazy future (the job runs when
        ``result()`` is first called), the process pool a real
        ``Future``; either way ``result()`` returns ``fn(*args)``.
        """
        raise NotImplementedError

    def run_pairs(self, config: GPUConfig,
                  pairs: Sequence[Tuple[Entry, Entry]],
                  max_cycles: int = DEFAULT_MAX_CYCLES
                  ) -> List[Tuple[int, int]]:
        """Co-run each (a, b) pair on a fresh evenly-split device; return
        each side's finish cycle (the slowdown numerators of §3.2.2)."""
        raise NotImplementedError

    def run_profiles(self, config: GPUConfig, entries: Sequence[Entry],
                     cache_dir: CacheDir = None) -> List[ProfileMetrics]:
        """Solo-profile each entry (the §3.2 step-1 runs)."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process execution — the seed scheduler's exact behavior."""

    name = "serial"

    def run_device_groups(self, jobs, max_cycles=DEFAULT_MAX_CYCLES,
                          backend="event"):
        return [run_group(group, config, smra_params, max_cycles,
                          backend=backend)
                for group, config, smra_params in jobs]

    def submit_job(self, fn, *args):
        return _LazyJobFuture(fn, args)

    def run_pairs(self, config, pairs, max_cycles=DEFAULT_MAX_CYCLES):
        return [_pair_job((config, a, b, max_cycles)) for a, b in pairs]

    def run_profiles(self, config, entries, cache_dir=None):
        profiler = Profiler(config, cache_dir=cache_dir)
        return [profiler.profile(name, spec) for name, spec in entries]


class ParallelExecutor(Executor):
    """Fan-out over a process pool with deterministic in-order merging.

    The pool is created lazily on first use and reused across calls;
    call :meth:`close` (or use as a context manager) to release the
    workers.  ``workers`` defaults to the machine's CPU count.
    """

    name = "process-pool"

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = _validated_workers(workers)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _map(self, fn, jobs: list) -> list:
        if not jobs:
            return []
        # `Executor.map` yields results in submission order regardless of
        # which worker finishes first — the deterministic merge.
        return list(self._ensure_pool().map(fn, jobs))

    def run_device_groups(self, jobs, max_cycles=DEFAULT_MAX_CYCLES,
                          backend="event"):
        return self._map(_group_job,
                         [(group, config, smra_params, max_cycles, backend)
                          for group, config, smra_params in jobs])

    def submit_job(self, fn, *args):
        return self._ensure_pool().submit(fn, *args)

    def run_pairs(self, config, pairs, max_cycles=DEFAULT_MAX_CYCLES):
        return self._map(_pair_job,
                         [(config, a, b, max_cycles) for a, b in pairs])

    def run_profiles(self, config, entries, cache_dir=None):
        return self._map(_profile_job,
                         [(config, name, spec, cache_dir)
                          for name, spec in entries])

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(workers: Optional[int] = None) -> Executor:
    """``workers`` None/1 → serial; ≥ 2 → process pool.

    ``workers`` ≤ 0 or a non-integer raises a ValueError up front —
    silently mapping 0 to serial hid typos like ``REPRO_WORKERS=O``.
    """
    if workers is None or _validated_workers(workers) == 1:
        return SerialExecutor()
    return ParallelExecutor(workers)
