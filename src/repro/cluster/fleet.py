"""The event loop: N devices draining one shared arrival stream.

:func:`run_fleet` is the only online event loop in the package:
:func:`repro.runtime.run_stream` (the paper's one-GPU online model) is
a one-device fleet.  One virtual clock advances over the merged event
sequence (arrivals plus per-device group completions); at every event
time the loop

1. retires every group completing now (device-id order) — the freed
   device's policy sees ``on_group_finish``;
2. delivers every arrival due now (arrival order), routing each through
   the placement policy onto one device's waiting queue;
3. asks every idle device's policy for its next group (device-id order)
   and simulates all groups launched at this instant as **one batch**
   through the executor.

A group's simulation result depends only on its membership, so a
:class:`~repro.runtime.executors.ParallelExecutor` can fan a batch out
across worker processes and merge it back in device-id order — results
are bit-identical for any worker count, because every *decision*
(placement, group formation, event ordering) happens on this loop's
clock, never in a worker.  The fan-out pays only at instants that
launch several groups (batch or bursty arrivals); under spread-out
arrivals nearly every batch holds one group, and a pool then adds
process round trips for nothing.

Per-application lifecycles come back as :class:`FleetAppRecord` (an
:class:`~repro.runtime.engine.AppRecord` plus the device id), so the
stream metrics of :mod:`repro.analysis.streams` apply unchanged and
:mod:`repro.analysis.fleet` adds the fleet-level view.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.gpusim import GPUConfig

from repro.core.policies import PolicyContext
from repro.obs import MetricsRegistry, Telemetry, instruments, phase_of
from repro.runtime.engine import AppRecord, Arrival, ScheduledGroup
from repro.runtime.executors import (DEFAULT_MAX_CYCLES, Executor,
                                     SerialExecutor)
from repro.runtime.online import OnlinePolicy

from .device import Device, Entry
from .faults import (VERDICTS, AdmissionPolicy, FailedGroup, FaultEvent,
                     FaultPlan, RejectedApp)
from .placement import PlacementPolicy

#: Builds one fresh policy per device (called with the device id).
PolicyFactory = Callable[[int], OnlinePolicy]


@dataclass
class FleetAppRecord(AppRecord):
    """An app's lifecycle plus the device that served it.

    ``group_index`` indexes into the *serving device's* ``groups`` list
    (not a fleet-global timeline — devices run concurrently).
    ``retries`` counts failed execution attempts (transient failures
    and device-down cancellations) before the successful one.
    """

    device: int = 0
    retries: int = 0


@dataclass
class DeviceOutcome:
    """One device's share of a fleet run.

    ``config_name`` is the :attr:`GPUConfig.name` of the device that
    produced this timeline — the key of the per-device-class fleet
    metrics.  ``lost_cycles`` / ``down_cycles`` / ``failed_groups``
    stay zero/empty on fault-free runs.
    """

    device_id: int
    policy: str
    groups: List[ScheduledGroup]
    busy_cycles: int
    config_name: str = ""
    lost_cycles: int = 0
    down_cycles: int = 0
    failed_groups: List[FailedGroup] = field(default_factory=list)

    @property
    def apps_served(self) -> int:
        return sum(len(g.outcome.members) for g in self.groups)


@dataclass
class FleetOutcome:
    """Result of draining one arrival stream across a fleet.

    Duck-type-compatible with :class:`~repro.runtime.StreamOutcome` for
    :func:`repro.analysis.streams.summarize_stream` — ``utilization``
    and ``device_throughput`` are fleet aggregates.
    """

    placement: str
    policy: str
    config: GPUConfig
    devices: List[DeviceOutcome]
    records: Dict[str, FleetAppRecord]
    #: app name → device id, exactly as the placement policy decided
    #: (the *last* placement for work re-placed after a failure).
    assignments: Dict[str, int]
    makespan: int
    #: arrivals never served (admission rejections + total degradation);
    #: ``len(records) + len(rejected)`` always equals the arrival count.
    rejected: List[RejectedApp] = field(default_factory=list)
    #: fault events actually applied, in application order (events
    #: scheduled past the drain point never fire and are not listed).
    fault_events: List[FaultEvent] = field(default_factory=list)

    @property
    def busy_cycles(self) -> int:
        return sum(d.busy_cycles for d in self.devices)

    @property
    def total_instructions(self) -> int:
        return sum(s.thread_instructions
                   for d in self.devices
                   for g in d.groups
                   for s in g.outcome.result.app_stats.values())

    @property
    def device_throughput(self) -> float:
        """Eq. 1.1 aggregated across the fleet (instructions/cycle)."""
        return self.total_instructions / max(1, self.makespan)

    @property
    def utilization(self) -> float:
        """Busy fraction of the fleet's total device-cycles."""
        return self.busy_cycles / max(1, len(self.devices) * self.makespan)


def run_fleet(arrivals: Sequence[Arrival], placement: PlacementPolicy,
              policy_factory: PolicyFactory, ctx: PolicyContext,
              num_devices: int = 2, executor: Optional[Executor] = None,
              max_cycles: int = DEFAULT_MAX_CYCLES,
              device_contexts: Optional[Sequence[PolicyContext]] = None,
              faults: Optional[FaultPlan] = None,
              admission: Optional[AdmissionPolicy] = None,
              telemetry: Optional[Telemetry] = None) -> FleetOutcome:
    """Drain `arrivals` across `num_devices` devices; return the timeline.

    Each device runs its own policy instance from `policy_factory`;
    `placement` routes every arrival to exactly one device.  `executor`
    only affects wall clock (same-instant group launches fan out), never
    results.

    `device_contexts` makes the fleet **heterogeneous**: one
    :class:`PolicyContext` per device, each built for that device's
    :class:`GPUConfig` (its profiler's solo denominators, thresholds,
    and interference matrix are all measured per config).  A device's
    policy hooks see its own context, config-aware placements read it
    through :attr:`Device.ctx`, and every group simulates on its
    device's configuration.  ``None`` (the default) hands every device
    `ctx` — the homogeneous case.

    `faults` merges a :class:`~repro.cluster.faults.FaultPlan` onto the
    virtual clock.  Within one instant events apply in a fixed order:
    group completions first, then fault events (so a group finishing
    exactly when its device dies still retires), then re-placement of
    displaced work, then deferred and fresh arrivals, then launches.  A
    DOWN device cancels its in-flight group and drains its queue; the
    displaced applications are re-placed across surviving (UP) devices
    and re-simulate on their new host's own configuration.  A recovered
    device rejoins placement with a fresh policy instance.  When *no*
    device is UP and no recovery is scheduled, the fleet drains
    gracefully: stranded work is recorded in ``rejected`` with reason
    ``no-device`` instead of raising.

    `admission` screens every arrival before placement: rejected
    arrivals are recorded (reason = the policy name), deferred arrivals
    re-offer ``defer_gap`` cycles later up to ``max_defers`` times.

    All of it is deterministic and bit-identical for any worker count:
    every decision (placement, fault application, admission, transient
    failure draws) happens on this loop's clock, never in a worker.
    The clock advances one way only, to the earliest pending event.

    `telemetry` (a :class:`~repro.obs.Telemetry`) observes the run —
    virtual-clock trace events, deterministic counters, wall-clock
    phase timers — without participating in it: every emission happens
    on this loop's clock after the decision it describes, and the
    returned :class:`FleetOutcome` is byte-identical with telemetry on
    or off.
    """
    if num_devices < 1:
        raise ValueError("a fleet needs at least one device")
    if device_contexts is not None and len(device_contexts) != num_devices:
        raise ValueError(
            f"device_contexts lists {len(device_contexts)} contexts for "
            f"{num_devices} device(s)")
    ordered = sorted(arrivals, key=lambda a: a.cycle)
    if len(set(a.name for a in ordered)) != len(ordered):
        raise ValueError("arrival names must be unique within a stream")
    if executor is None:
        executor = SerialExecutor()
    if faults is None:
        faults = FaultPlan()
    faults.validate_for(num_devices)
    events = faults.events
    if device_contexts is None:
        device_contexts = [ctx] * num_devices

    tracer, metrics, profiler = instruments(telemetry)
    devices = [Device(i, policy_factory(i), device_contexts[i])
               for i in range(num_devices)]
    for d in devices:
        d.tracer = tracer
        d.policy.tracer = tracer

    now = 0
    i = 0
    eidx = 0
    n = len(ordered)
    defer_seq = 0
    arrival_cycle: Dict[str, int] = {}
    assignments: Dict[str, int] = {}
    records: Dict[str, FleetAppRecord] = {}
    #: names launched and not displaced since — completed or running.
    #: The double-scheduling guard; legitimately relaunched (requeued)
    #: work leaves the set, a buggy policy's duplicate does not.
    active: Set[str] = set()
    retry_counts: Dict[str, int] = {}
    #: displaced work awaiting re-placement (no UP device right now).
    requeue: List[Entry] = []
    #: (due_cycle, seq, defers, name) kept sorted; admission re-offers.
    deferred: List[Tuple[int, int, int, str]] = []
    specs: Dict[str, object] = {a.name: a.spec for a in ordered}
    rejected: List[RejectedApp] = []
    applied: List[FaultEvent] = []

    def place(entry: Entry) -> None:
        """Route one admitted entry through placement, or buffer it."""
        up = [d for d in devices if d.up]
        if not up:
            requeue.append(entry)
            return
        with phase_of(profiler, "placement"):
            device = placement.choose(entry, now, up, ctx)
        # Candidate scores = the load state placement ranks on (resident
        # count, waiting depth, cycles until free) for every UP device,
        # so a trace explains *why* this device won under the load-based
        # policies.
        tracer.emit("placement", now, app=entry[0],
                    device=device.device_id,
                    candidates=[{"device": d.device_id,
                                 "load": d.load(),
                                 "waiting": d.waiting_count,
                                 "busy": d.remaining_busy(now)}
                                for d in up])
        metrics.counter("fleet.placements").inc()
        if not (0 <= device.device_id < len(devices)
                and devices[device.device_id] is device):
            raise RuntimeError(
                f"placement {placement.name!r} returned a device "
                f"outside the fleet")
        if not device.up:
            raise RuntimeError(
                f"placement {placement.name!r} routed {entry[0]!r} to "
                f"DOWN device {device.device_id}")
        assignments[entry[0]] = device.device_id
        device.assign(entry, now)

    def displace(entries: List[Entry]) -> None:
        """Book a device failure's displaced work for re-placement."""
        for name, _spec in entries:
            if name in active:
                # The entry was running when its device died: its
                # launch is void, so its record (if the launch was
                # healthy) disappears and the attempt counts as a retry.
                retry_counts[name] = retry_counts.get(name, 0) + 1
                records.pop(name, None)
                active.discard(name)
            tracer.emit("requeue", now, app=name, reason="device-down")
        if entries:
            metrics.counter("fleet.requeued").inc(len(entries))
        requeue.extend(entries)

    def deliver(a: Arrival, defers: int) -> None:
        """Admission-screen one (possibly re-offered) arrival."""
        nonlocal defer_seq
        if admission is not None:
            verdict = admission.decide((a.name, a.spec), now, devices,
                                       ctx)
            if verdict not in VERDICTS:
                raise RuntimeError(
                    f"admission {admission.name!r} returned "
                    f"{verdict!r}; expected one of {list(VERDICTS)}")
            if verdict == "defer" and defers >= admission.max_defers:
                verdict = "reject"
            tracer.emit("admission", now, app=a.name, verdict=verdict,
                        policy=admission.name, defers=defers)
            metrics.counter(f"admission.{verdict}").inc()
            if verdict == "reject":
                rejected.append(RejectedApp(
                    name=a.name, arrival_cycle=a.cycle, cycle=now,
                    reason=admission.name))
                return
            if verdict == "defer":
                bisect.insort(deferred, (now + admission.defer_gap,
                                         defer_seq, defers + 1, a.name))
                defer_seq += 1
                return
        place((a.name, a.spec))

    while True:
        # 1) retire every group finishing at `now` (device-id order);
        #    a transiently-failed attempt requeues instead of retiring.
        for device in devices:
            if device.busy and device.completion_cycle <= now:
                if device.inflight_failed:
                    entries = device.complete_failed()
                    for name, _spec in entries:
                        retry_counts[name] = retry_counts.get(name,
                                                              0) + 1
                        active.discard(name)
                        tracer.emit("requeue", now, app=name,
                                    reason="transient")
                    if entries:
                        metrics.counter("fleet.requeued").inc(len(entries))
                    requeue.extend(entries)
                else:
                    device.complete()

        # 1b) apply fault events due at `now` (after completions: a
        #     group finishing exactly at the outage still retires).
        while eidx < len(events) and events[eidx].cycle <= now:
            ev = events[eidx]
            eidx += 1
            applied.append(ev)
            if ev.kind == "down":
                displace(devices[ev.device].fail(now))
            else:
                devices[ev.device].recover(now,
                                           policy_factory(ev.device))

        # 2) re-place displaced work first (it has been in the system
        #    longest), then deferred re-offers, then fresh arrivals.
        if requeue and any(d.up for d in devices):
            entries, requeue = requeue, []
            for entry in entries:
                place(entry)
        while deferred and deferred[0][0] <= now:
            _due, _seq, defers, name = deferred.pop(0)
            deliver(Arrival(arrival_cycle[name], name, specs[name]),
                    defers)
        while i < n and ordered[i].cycle <= now:
            a = ordered[i]
            i += 1
            arrival_cycle[a.name] = a.cycle
            tracer.emit("arrival", now, app=a.name, arrival_cycle=a.cycle)
            metrics.counter("fleet.arrivals").inc()
            deliver(a, 0)

        # 3) launch on every idle UP device; simulate this instant's
        #    groups as one batch (the parallel fan-out).
        launches = []
        for device in devices:
            if device.busy or not device.up:
                continue
            with phase_of(profiler, "solver"):
                group = device.next_group(now)
            if group is None:
                continue
            for name, _spec in group.members:
                if name not in arrival_cycle:
                    raise RuntimeError(
                        f"device {device.device_id} policy "
                        f"{device.policy.name!r} scheduled {name!r} "
                        f"before its arrival")
                if name in active:
                    raise RuntimeError(
                        f"device {device.device_id} policy "
                        f"{device.policy.name!r} scheduled {name!r} twice")
                if assignments[name] != device.device_id:
                    raise RuntimeError(
                        f"device {device.device_id} scheduled {name!r}, "
                        f"which placement assigned to device "
                        f"{assignments[name]}")
            launches.append((device, group))
        if launches:
            # Every group simulates on its launching device's own
            # configuration; the instant's batch fans out as one job list.
            with phase_of(profiler, "simulate"):
                outcomes = executor.run_device_groups(
                    [(g, d.ctx.config, d.ctx.smra_params)
                     for d, g in launches],
                    max_cycles, backend=ctx.backend)
            for (device, _group), outcome in zip(launches, outcomes):
                members = list(outcome.members)
                failed = faults.group_fails(
                    members, [retry_counts.get(m, 0) for m in members])
                device.launch(outcome, now, failed=failed)
                metrics.counter("fleet.launches").inc()
                metrics.histogram("fleet.group_cycles").observe(
                    outcome.cycles)
                active.update(members)
                if failed:
                    continue  # no records: the attempt will requeue
                for name in members:
                    records[name] = FleetAppRecord(
                        name=name,
                        arrival_cycle=arrival_cycle[name],
                        start_cycle=now,
                        finish_cycle=now + outcome.finish_cycle_of(name),
                        group_index=len(device.groups) - 1,
                        device=device.device_id,
                        retries=retry_counts.get(name, 0))
            continue  # same instant: retire zero-length groups, if any

        # 4) advance the clock to the next completion / arrival / fault
        #    event / deferred re-offer, or stop.
        if not (i < n or requeue or deferred
                or any(d.busy for d in devices)
                or any(d.pending for d in devices)):
            break
        due = [d.completion_cycle for d in devices if d.busy]
        if i < n:
            due.append(ordered[i].cycle)
        if deferred:
            due.append(deferred[0][0])
        if eidx < len(events):
            due.append(events[eidx].cycle)
        if not due:
            if requeue:
                # Total degradation: no device is UP and no recovery
                # is ahead — drain gracefully, recording the stranded
                # applications instead of raising.
                for name, _spec in requeue:
                    tracer.emit("reject", now, app=name, reason="no-device")
                    rejected.append(RejectedApp(
                        name=name, arrival_cycle=arrival_cycle[name],
                        cycle=now, reason="no-device",
                        retries=retry_counts.get(name, 0)))
                requeue = []
                continue
            stalled = [d.device_id for d in devices if d.pending]
            raise RuntimeError(
                f"devices {stalled} hold waiting applications but "
                f"their policies returned no group and no arrivals "
                f"remain")
        now = min(due)

    for device in devices:
        device.close_downtime(now)

    # Fold per-device derived counters into the run registry in
    # device-id order — the same serial commit order every other merge
    # in this loop uses, so the registry is identical at any worker
    # count.
    for d in devices:
        per_device = MetricsRegistry()
        per_device.counter("device.groups").inc(len(d.groups))
        per_device.counter("device.busy_cycles").inc(d.busy_cycles)
        per_device.counter("device.lost_cycles").inc(d.lost_cycles)
        per_device.counter("device.down_cycles").inc(d.down_cycles)
        metrics.merge(per_device)
    metrics.gauge("fleet.makespan").set(now)
    metrics.gauge("fleet.devices").set(len(devices))

    with phase_of(profiler, "merge"):
        return FleetOutcome(
            placement=placement.name,
            policy=devices[0].policy.name,
            config=ctx.config,
            devices=[DeviceOutcome(
                device_id=d.device_id, policy=d.policy.name,
                groups=d.groups, busy_cycles=d.busy_cycles,
                config_name=d.config.name,
                lost_cycles=d.lost_cycles, down_cycles=d.down_cycles,
                failed_groups=d.failed_groups)
                for d in devices],
            records=records,
            assignments=assignments,
            makespan=now,
            rejected=rejected,
            fault_events=applied)
