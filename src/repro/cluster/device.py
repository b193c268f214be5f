"""One simulated GPU device inside a fleet.

A :class:`Device` bundles everything the fleet event loop needs to know
about one machine: its own online policy instance (holding the waiting
queue), the set of applications *resident* on it (assigned by the
placement layer and not yet finished — what interference-aware placement
scores against), the in-flight group, and the per-device timeline that
fleet analysis reads back (groups, busy cycles).

The lifecycle is assign → launch → complete.  The fleet clock stops at
every arrival, so ``on_arrival`` sees the true arrival cycle;
``on_group_finish`` fires at the completion instant, before the
arrivals and ``next_group`` of that instant.  A one-device fleet is
:func:`repro.runtime.run_stream`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.gpusim import GPUConfig, KernelSpec

from repro.core.policies import PlannedGroup, PolicyContext
from repro.core.scheduler import GroupOutcome
from repro.obs import Tracer
from repro.runtime.engine import ScheduledGroup
from repro.runtime.online import OnlinePolicy

from .faults import FailedGroup

Entry = Tuple[str, KernelSpec]


class Device:
    """Per-device queue + policy state driven by the fleet clock.

    ``ctx`` is the :class:`PolicyContext` the device simulates and
    decides with — its profiler, classification thresholds, and
    interference matrix are all measured on *this device's*
    :class:`GPUConfig`, so policy and placement decisions use
    device-correct denominators.  A homogeneous fleet hands every
    device the same context.
    """

    __slots__ = ("device_id", "policy", "ctx", "resident", "groups",
                 "busy_cycles", "completion_cycle", "_running", "up",
                 "lost_cycles", "down_cycles", "failed_groups",
                 "_down_since", "_inflight_failed", "tracer")

    def __init__(self, device_id: int, policy: OnlinePolicy,
                 ctx: PolicyContext):
        if device_id < 0:
            raise ValueError("device_id must be >= 0")
        self.device_id = device_id
        self.policy = policy
        self.ctx = ctx
        #: The run's :class:`~repro.obs.Tracer`, attached by the fleet
        #: loop (the no-op base class when the run is untraced).
        self.tracer = Tracer()
        #: Applications assigned here and not yet finished (waiting or
        #: running) — the "queue" of join-shortest-queue placement and
        #: the class mix interference-aware placement scores against.
        self.resident: List[Entry] = []
        self.groups: List[ScheduledGroup] = []
        self.busy_cycles = 0
        #: Absolute cycle the in-flight group completes; None = idle.
        self.completion_cycle: Optional[int] = None
        self._running: List[str] = []
        #: False while the device is failed (fault injection); a DOWN
        #: device holds no work and is invisible to placement.
        self.up = True
        #: Cycles burned on attempts that never retired (failed groups).
        self.lost_cycles = 0
        #: Total cycles spent DOWN (closed out at end of run).
        self.down_cycles = 0
        self.failed_groups: List[FailedGroup] = []
        self._down_since: Optional[int] = None
        #: The in-flight group is a doomed transient attempt: it burns
        #: its full duration, then requeues instead of retiring.
        self._inflight_failed = False

    @property
    def config(self) -> GPUConfig:
        """This device's configuration."""
        return self.ctx.config

    @property
    def busy(self) -> bool:
        return self.completion_cycle is not None

    @property
    def pending(self) -> bool:
        """True while the policy still holds undispatched applications."""
        return self.policy.pending

    @property
    def inflight_failed(self) -> bool:
        """True when the running group is a doomed transient attempt."""
        return self._inflight_failed

    @property
    def waiting_count(self) -> int:
        """Applications placed here but not yet launched."""
        return len(self.resident) - len(self._running)

    def load(self) -> int:
        """Applications in the system here (waiting + running)."""
        return len(self.resident)

    def remaining_busy(self, now: int) -> int:
        """Cycles until the in-flight group completes (0 when idle)."""
        if self.completion_cycle is None:
            return 0
        return max(0, self.completion_cycle - now)

    def assign(self, entry: Entry, now: int) -> None:
        """Placement routed `entry` here: it joins the waiting queue."""
        self.resident.append(entry)
        self.policy.on_arrival(entry, now, self.ctx)

    def next_group(self, now: int) -> Optional[PlannedGroup]:
        """Ask the policy what to launch; only valid while idle."""
        if self.busy:
            raise RuntimeError(
                f"device {self.device_id} asked for a group while busy")
        return self.policy.next_group(now, self.ctx)

    def launch(self, outcome: GroupOutcome, now: int,
               failed: bool = False) -> None:
        """Occupy the device with a simulated group starting at `now`.

        `failed` marks a transient fault attempt: the group occupies
        the device for its full duration exactly like a healthy launch,
        but must be retired through :meth:`complete_failed` (members
        requeue) instead of :meth:`complete`.
        """
        if self.busy:
            raise RuntimeError(
                f"device {self.device_id} launched a group while busy")
        if not self.up:
            raise RuntimeError(
                f"device {self.device_id} launched a group while DOWN")
        self.tracer.emit("launch", now, device=self.device_id,
                         members=list(outcome.members),
                         cycles=outcome.cycles,
                         group_index=len(self.groups), failed=failed)
        self.groups.append(ScheduledGroup(start_cycle=now, outcome=outcome))
        self.busy_cycles += outcome.cycles
        self.completion_cycle = now + outcome.cycles
        self._running = list(outcome.members)
        self._inflight_failed = failed

    def complete(self) -> GroupOutcome:
        """Retire the in-flight group at its completion cycle."""
        if not self.busy:
            raise RuntimeError(
                f"device {self.device_id} has no group to complete")
        if self._inflight_failed:
            raise RuntimeError(
                f"device {self.device_id} must retire a failed attempt "
                f"through complete_failed()")
        finished_at = self.completion_cycle
        outcome = self.groups[-1].outcome
        self.tracer.emit("group_finish", finished_at,
                         device=self.device_id,
                         members=list(outcome.members),
                         group_index=len(self.groups) - 1)
        self.completion_cycle = None
        done = set(self._running)
        self._running = []
        self.resident = [e for e in self.resident if e[0] not in done]
        self.policy.on_group_finish(outcome, finished_at, self.ctx)
        return outcome

    def complete_failed(self) -> List[Entry]:
        """Retire a transiently-failed attempt; return its members.

        The attempt burned its full planned duration (``busy_cycles``
        already counts it; it is additionally booked as lost), its
        group leaves the served timeline for :attr:`failed_groups`, and
        its members leave this device for re-placement.  The policy is
        *not* notified via ``on_group_finish`` — from its point of view
        the members simply departed.
        """
        if not self.busy:
            raise RuntimeError(
                f"device {self.device_id} has no group to complete")
        if not self._inflight_failed:
            raise RuntimeError(
                f"device {self.device_id} tried to fail a healthy "
                f"group")
        scheduled = self.groups.pop()
        outcome = scheduled.outcome
        self.tracer.emit("group_failed", self.completion_cycle,
                         device=self.device_id,
                         members=list(outcome.members),
                         reason="transient")
        self.lost_cycles += outcome.cycles
        self.failed_groups.append(FailedGroup(
            start_cycle=scheduled.start_cycle,
            members=tuple(outcome.members),
            planned_cycles=outcome.cycles,
            executed_cycles=outcome.cycles,
            reason="transient"))
        self.completion_cycle = None
        self._inflight_failed = False
        done = set(self._running)
        self._running = []
        spec_of = dict(self.resident)
        self.resident = [e for e in self.resident if e[0] not in done]
        return [(name, spec_of[name]) for name in outcome.members]

    def fail(self, now: int) -> List[Entry]:
        """Take the device DOWN at `now`; return every displaced entry.

        The in-flight group (if any) is cancelled — the device keeps
        only the cycles it actually executed, booked as lost — and the
        policy's waiting queue drains.  Displaced entries come back
        running-members-first (they have been in the system longest),
        then the drained waiting queue in policy order.
        """
        if not self.up:
            raise RuntimeError(f"device {self.device_id} failed while "
                               f"already DOWN")
        self.up = False
        self._down_since = now
        self.tracer.emit("fault", now, device=self.device_id,
                         inflight=list(self._running))
        displaced: List[Entry] = []
        if self.busy:
            scheduled = self.groups.pop()
            outcome = scheduled.outcome
            executed = now - scheduled.start_cycle
            self.busy_cycles -= self.completion_cycle - now
            self.lost_cycles += executed
            self.failed_groups.append(FailedGroup(
                start_cycle=scheduled.start_cycle,
                members=tuple(outcome.members),
                planned_cycles=outcome.cycles,
                executed_cycles=executed,
                reason="device-down"))
            self.completion_cycle = None
            self._inflight_failed = False
            spec_of = dict(self.resident)
            displaced.extend((name, spec_of[name])
                             for name in self._running)
            self._running = []
        displaced.extend(self.policy.drain())
        self.resident = []
        return displaced

    def recover(self, now: int, policy: OnlinePolicy) -> None:
        """Bring the device back UP at `now` with a fresh policy.

        A fresh policy instance (not the drained one) keeps recovery
        deterministic for stateful policies: the rebooted device starts
        from the same blank state a newly built device would.
        """
        if self.up:
            raise RuntimeError(f"device {self.device_id} recovered "
                               f"while already UP")
        self.up = True
        self.down_cycles += now - self._down_since
        self._down_since = None
        self.policy = policy
        policy.tracer = self.tracer
        self.tracer.emit("recover", now, device=self.device_id)

    def close_downtime(self, at: int) -> None:
        """Book the trailing outage of a still-DOWN device at end of run."""
        if not self.up and self._down_since is not None:
            self.down_cycles += max(0, at - self._down_since)
            self._down_since = at
