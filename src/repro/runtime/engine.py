"""Online and batch drains: arrival streams and queues → groups.

:func:`run_stream` is the paper's online model — one co-scheduled group
at a time on one GPU, fresh device per group — and runs as a one-device
:func:`repro.cluster.run_fleet`, the package's single event loop.
Completion times, waits, and turnarounds are recorded per application
for the stream metrics in :mod:`repro.analysis.streams`.

:func:`drain_queue` is the batch special case — every application
present at cycle 0 — and is what the classic ``run_queue`` API now
wraps: plan with a batch policy, execute the planned groups through an
executor, producing results bit-identical to the seed scheduler when
the executor is the default :class:`~repro.runtime.executors.SerialExecutor`.
It stays a separate function because it fans the whole plan out as one
executor batch, which a one-device fleet (one launch per instant) would
serialise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.gpusim import GPUConfig, KernelSpec

from repro.core.policies import Policy, PolicyContext, Queue
from repro.core.scheduler import GroupOutcome, QueueOutcome
from repro.obs import Telemetry, instruments, phase_of

from .executors import DEFAULT_MAX_CYCLES, Executor, SerialExecutor
from .online import OnlinePolicy


@dataclass(frozen=True)
class Arrival:
    """One application entering the system at `cycle`."""

    cycle: int
    name: str
    spec: KernelSpec

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("arrival cycle must be >= 0")


@dataclass
class AppRecord:
    """Lifecycle of one application through the stream."""

    name: str
    arrival_cycle: int
    start_cycle: int     # absolute cycle its group launched
    finish_cycle: int    # absolute cycle the app completed
    group_index: int

    @property
    def wait_cycles(self) -> int:
        """Cycles spent waiting before its group launched."""
        return self.start_cycle - self.arrival_cycle

    @property
    def service_cycles(self) -> int:
        """Cycles from group launch to this app's completion."""
        return self.finish_cycle - self.start_cycle

    @property
    def turnaround_cycles(self) -> int:
        """Arrival to completion — the latency a user observes."""
        return self.finish_cycle - self.arrival_cycle


@dataclass
class ScheduledGroup:
    """A group outcome placed on the stream's absolute timeline."""

    start_cycle: int
    outcome: GroupOutcome


@dataclass
class StreamOutcome:
    """Result of running one arrival stream under one online policy."""

    policy: str
    config: GPUConfig
    groups: List[ScheduledGroup]
    records: Dict[str, AppRecord]
    makespan: int
    busy_cycles: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(s.thread_instructions
                   for g in self.groups
                   for s in g.outcome.result.app_stats.values())

    @property
    def device_throughput(self) -> float:
        """Eq. 1.1 over the whole stream (idle gaps included)."""
        return self.total_instructions / max(1, self.makespan)

    @property
    def utilization(self) -> float:
        """Fraction of the makespan the device was executing a group."""
        return self.busy_cycles / max(1, self.makespan)


def run_stream(arrivals: Sequence[Arrival], policy: OnlinePolicy,
               ctx: PolicyContext,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               telemetry: Optional[Telemetry] = None) -> StreamOutcome:
    """Drive `policy` over `arrivals` on one device; return the timeline.

    This is :func:`repro.cluster.run_fleet` with a single device: the
    fleet loop delivers each arrival at its arrival cycle, asks the
    policy for a group whenever the device is idle, and raises when the
    policy holds waiting applications but returns no group with no
    arrivals left.

    `telemetry` (a :class:`~repro.obs.Telemetry`) observes the run
    without changing the returned timeline.
    """
    # Imported here: repro.cluster imports this module.
    from repro.cluster import RoundRobinPlacement, run_fleet

    fleet = run_fleet(arrivals, RoundRobinPlacement(), lambda _i: policy,
                      ctx, num_devices=1, max_cycles=max_cycles,
                      telemetry=telemetry)
    device = fleet.devices[0]
    return StreamOutcome(policy=policy.name, config=ctx.config,
                         groups=device.groups, records=fleet.records,
                         makespan=fleet.makespan,
                         busy_cycles=device.busy_cycles)


def drain_queue(queue: Queue, policy: Policy, ctx: PolicyContext,
                max_cycles: int = DEFAULT_MAX_CYCLES,
                executor: Optional[Executor] = None,
                telemetry: Optional[Telemetry] = None) -> QueueOutcome:
    """Batch drain: plan the full queue, execute groups via `executor`.

    With the default :class:`SerialExecutor` this is exactly the seed
    scheduler's loop (same calls in the same order); a parallel executor
    fans the independent groups across workers and merges results in
    plan order, which the engine's determinism makes bit-identical.

    `telemetry` observes the drain: the queue model runs its groups
    back to back on one device, so launch/finish events sit on the
    cumulative virtual timeline the queue metrics already use.
    """
    if executor is None:
        executor = SerialExecutor()
    tracer, metrics, profiler = instruments(telemetry)

    with phase_of(profiler, "solver"):
        planned = policy.plan(queue, ctx)
    with phase_of(profiler, "simulate"):
        outcomes = executor.run_device_groups(
            [(g, ctx.config, ctx.smra_params) for g in planned],
            max_cycles, backend=ctx.backend)

    now = 0
    for index, outcome in enumerate(outcomes):
        tracer.emit("launch", now, members=list(outcome.members),
                    cycles=outcome.cycles, group_index=index)
        tracer.emit("group_finish", now + outcome.cycles,
                    members=list(outcome.members), group_index=index)
        metrics.counter("queue.groups").inc()
        metrics.histogram("queue.group_cycles").observe(outcome.cycles)
        now += outcome.cycles
    return QueueOutcome(policy=policy.name, groups=outcomes,
                        config=ctx.config)
