"""Online scheduling policies: event-driven group formation.

The batch interface (``Policy.plan(queue)``) sees the whole queue up
front.  Under continuous arrivals that is no longer possible: a policy
learns about applications one :class:`~repro.runtime.engine.Arrival` at
a time and must decide what to co-run whenever the device frees up.
The online interface is three hooks:

``on_arrival(entry, now, ctx)``
    A new application entered the waiting queue.
``on_group_finish(outcome, now, ctx)``
    The group the device was running completed.
``next_group(now, ctx) -> Optional[PlannedGroup]``
    The device is free — return the next group to launch, or ``None``
    to stay idle until the next arrival.

Every batch policy is usable online through
:class:`BatchPolicyAdapter`, which re-plans over the waiting backlog
whenever its previous plan is exhausted (so ILP-family policies solve
the grouping ILP per backlog window).  :class:`OnlineFCFS` is the
work-conserving baseline, and :class:`ClassAwareBackfill` is a
genuinely online policy: when the device frees it anchors on the oldest
waiting application (no starvation) and backfills the remaining slots
with the waiting applications whose classes the Fig. 3.4 interference
matrix predicts to co-run best with it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.gpusim import KernelSpec

from repro.api.registry import REGISTRY

from repro.core.classification import AppClass
from repro.core.policies import (EvenPolicy, FCFSPolicy, ILPPolicy,
                                 ILPSMRAPolicy, PlannedGroup, Policy,
                                 PolicyContext, ProfileBasedPolicy,
                                 SerialPolicy, cached_class_of)
from repro.obs import Tracer

Entry = Tuple[str, KernelSpec]


class OnlinePolicy:
    """Base class: keeps the arrival-ordered waiting queue."""

    name = "online-base"
    #: True when the policy's decisions use ctx.interference; callers
    #: (e.g. the CLI) measure the matrix only when a policy needs it.
    needs_interference = False
    #: The run's :class:`~repro.obs.Tracer`, attached by the fleet loop
    #: on every run (the no-op base class when the run is untraced).
    #: Class-level default so a policy driven outside a fleet has one.
    tracer = Tracer()

    def __init__(self):
        self.waiting: List[Entry] = []

    @property
    def pending(self) -> bool:
        """True while the policy still holds undispatched applications."""
        return bool(self.waiting)

    def on_arrival(self, entry: Entry, now: int,
                   ctx: PolicyContext) -> None:
        self.waiting.append(entry)

    def on_group_finish(self, outcome, now: int,
                        ctx: PolicyContext) -> None:
        pass

    def next_group(self, now: int,
                   ctx: PolicyContext) -> Optional[PlannedGroup]:
        raise NotImplementedError

    def drain(self) -> List[Entry]:
        """Remove and return every undispatched application.

        The fleet loop calls this when the policy's device fails: the
        drained entries are re-placed onto surviving devices.  Policies
        holding undispatched work outside ``waiting`` must override
        this (see :class:`BatchPolicyAdapter`) — anything not returned
        here is silently lost with its device.
        """
        entries = list(self.waiting)
        self.waiting.clear()
        return entries


class OnlineFCFS(OnlinePolicy):
    """Work-conserving FCFS: launch the oldest ≤ NC waiting apps."""

    name = "FCFS"

    def __init__(self, nc: int = 2):
        if nc < 1:
            raise ValueError("NC must be >= 1")
        super().__init__()
        self.nc = nc

    def next_group(self, now, ctx):
        if not self.waiting:
            return None
        members = self.waiting[:self.nc]
        del self.waiting[:self.nc]
        return PlannedGroup(members=members)


class BatchPolicyAdapter(OnlinePolicy):
    """Run any batch :class:`Policy` online by planning per backlog.

    Whenever the previous plan is exhausted and applications are
    waiting, the wrapped policy plans over the current backlog exactly
    as it would over a full queue; the planned groups then launch in
    order.  With every arrival at cycle 0 (the batch scenario) this
    reproduces ``Policy.plan(queue)`` group-for-group, which is what
    keeps the batch path bit-identical.
    """

    def __init__(self, policy: Policy):
        super().__init__()
        self.policy = policy
        self.name = policy.name
        self.needs_interference = policy.needs_interference
        self._planned: Deque[PlannedGroup] = deque()

    @property
    def pending(self) -> bool:
        return bool(self.waiting) or bool(self._planned)

    def next_group(self, now, ctx):
        if not self._planned and self.waiting:
            planned = self.policy.plan(list(self.waiting), ctx)
            if not planned:
                # Clearing `waiting` here would silently drop the apps
                # and defeat the event loop's stalled-policy guard.
                raise RuntimeError(
                    f"policy {self.name!r} planned no groups for a "
                    f"backlog of {len(self.waiting)} applications")
            self.tracer.emit("plan", now, backlog=len(self.waiting),
                             groups=len(planned))
            self._planned.extend(planned)
            self.waiting.clear()
        if self._planned:
            return self._planned.popleft()
        return None

    def drain(self) -> List[Entry]:
        """Planned-but-unlaunched members drain too, in plan order."""
        entries = [entry for group in self._planned
                   for entry in group.members]
        self._planned.clear()
        entries.extend(self.waiting)
        self.waiting.clear()
        return entries


class ClassAwareBackfill(OnlinePolicy):
    """Anchor-plus-backfill selection using the interference matrix.

    The oldest waiting application is always admitted (FCFS anchor, so
    nothing starves).  The remaining NC−1 slots are filled greedily
    with the waiting applications minimizing the group's predicted
    total slowdown ``Σ_i S(class_i | others)`` under the additive
    model of :class:`~repro.core.interference.InterferenceModel`.
    Without an interference model in the context the policy degrades
    to plain FCFS fill.

    ``classes`` optionally pre-supplies name → :class:`AppClass`
    (tests, or callers that already classified the stream); otherwise
    classes come from the context's profiler + thresholds, which the
    profile caches make a one-time cost per distinct kernel spec.
    """

    name = "Backfill"
    needs_interference = True

    def __init__(self, nc: int = 2, use_smra: bool = False,
                 classes: Optional[Mapping[str, AppClass]] = None):
        if nc < 1:
            raise ValueError("NC must be >= 1")
        super().__init__()
        self.nc = nc
        self.use_smra = use_smra
        if use_smra:
            self.name = "Backfill-SMRA"
        self._classes: Dict[str, AppClass] = dict(classes or {})

    def _class_of(self, entry: Entry, ctx: PolicyContext) -> AppClass:
        return cached_class_of(self._classes, entry, ctx)

    def _predicted_cost(self, classes: List[AppClass], ctx) -> float:
        model = ctx.interference
        return sum(
            model.group_slowdown(cls, classes[:i] + classes[i + 1:])
            for i, cls in enumerate(classes))

    def next_group(self, now, ctx):
        if not self.waiting:
            return None
        members = [self.waiting.pop(0)]  # FCFS anchor
        if ctx.interference is None:
            take = self.nc - 1
            members += self.waiting[:take]
            del self.waiting[:take]
        else:
            while len(members) < self.nc and self.waiting:
                classes = [self._class_of(e, ctx) for e in members]
                best_idx, best_cost = 0, None
                for idx, cand in enumerate(self.waiting):
                    cost = self._predicted_cost(
                        classes + [self._class_of(cand, ctx)], ctx)
                    # Strict `<`: ties keep the oldest waiting candidate.
                    if best_cost is None or cost < best_cost:
                        best_idx, best_cost = idx, cost
                members.append(self.waiting.pop(best_idx))
        group = PlannedGroup(members=members)
        if self.use_smra and len(members) > 1:
            group.use_smra = True
        return group


# -- registry wiring ---------------------------------------------------------
# The ``online-policies`` registry kind (the old module-level
# ``ONLINE_POLICY_FACTORIES`` dict).  Every factory takes the group
# arity ``nc``; batch policies arrive online through the adapter.
REGISTRY.register("online-policies", "serial",
                  lambda nc=1: BatchPolicyAdapter(SerialPolicy()))
REGISTRY.register("online-policies", "fcfs", lambda nc=2: OnlineFCFS(nc))
REGISTRY.register("online-policies", "even",
                  lambda nc=2: BatchPolicyAdapter(EvenPolicy(nc)))
REGISTRY.register("online-policies", "profile",
                  lambda nc=2: BatchPolicyAdapter(ProfileBasedPolicy(nc)))
REGISTRY.register("online-policies", "ilp",
                  lambda nc=2: BatchPolicyAdapter(ILPPolicy(nc)))
REGISTRY.register("online-policies", "ilp-smra",
                  lambda nc=2: BatchPolicyAdapter(ILPSMRAPolicy(nc)))
REGISTRY.register("online-policies", "backfill",
                  lambda nc=2: ClassAwareBackfill(nc))
REGISTRY.register("online-policies", "backfill-smra",
                  lambda nc=2: ClassAwareBackfill(nc, use_smra=True))


def online_policy(key: str, nc: int = 2) -> OnlinePolicy:
    """Build the online policy registered under `key`."""
    return REGISTRY.create("online-policies", key, nc)
