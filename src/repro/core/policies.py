"""Scheduling policies: Serial, Even/FCFS, Profile-based, ILP, ILP-SMRA.

A policy takes an application queue (arrival-ordered ``(name, spec)``
pairs) and plans *groups* of applications to co-execute, each with an SM
partition and optionally the SMRA controller:

* **Serial** — one application at a time on the whole device (Fig. 4.1's
  baseline).
* **Even / FCFS** — groups of NC in arrival order, equal SM split (the
  baseline of Fig. 4.3; the paper uses "Even" and "FCFS" for the same
  selection rule).
* **Profile-based** — arrival-order groups, but the SM split is
  proportional to each application's profiled SM demand (how many SMs its
  grid can actually occupy), modeling the offline-profiling spatial
  multitasking of Adriaens et al. [17].
* **ILP** — groups chosen by the §3.2.3 contention-minimization ILP,
  equal SM split.
* **ILP-SMRA** — ILP groups plus the §3.2.4 dynamic SM reallocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpusim import GPUConfig, KernelSpec, even_partition, proportional_partition

from repro.api.registry import REGISTRY

from .classification import AppClass, ClassificationThresholds, classify
from .contention import optimize_grouping
from .interference import InterferenceModel
from .profiling import Profiler
from .smra import SMRAParams

#: An application queue: arrival-ordered (unique name, kernel spec).
Queue = Sequence[Tuple[str, KernelSpec]]


@dataclass
class PlannedGroup:
    """One co-execution the scheduler should run."""

    members: List[Tuple[str, KernelSpec]]
    partitions: Optional[List[List[int]]] = None  # None = even split
    use_smra: bool = False


@dataclass
class PolicyContext:
    """Shared state policies may need: profiles, classes, interference."""

    config: GPUConfig
    profiler: Profiler
    thresholds: ClassificationThresholds
    interference: Optional[InterferenceModel] = None
    smra_params: SMRAParams = field(default_factory=SMRAParams)
    #: ``engine-backends`` name for group simulations run through this
    #: context; results are bit-identical across backends.
    backend: str = "event"

    def class_of(self, name: str, spec: KernelSpec) -> AppClass:
        """Profile-and-classify one application (profile caches make
        repeated queries a one-time cost per distinct kernel spec)."""
        return classify(self.profiler.profile(name, spec), self.thresholds)

    def classify_queue(self, queue: Queue) -> List[Tuple[str, AppClass]]:
        return [(name, self.class_of(name, spec)) for name, spec in queue]


def cached_class_of(cache: Dict[str, AppClass],
                    entry: Tuple[str, KernelSpec],
                    ctx: PolicyContext) -> AppClass:
    """`entry`'s class via a name-keyed memo dict.

    `cache` may be pre-seeded by callers that already classified their
    stream (tests, ablation harnesses); misses fall through to
    :meth:`PolicyContext.class_of` and are remembered.  Shared by every
    interference-aware component (backfill policy, placement).
    """
    name, spec = entry
    cls = cache.get(name)
    if cls is None:
        cls = ctx.class_of(name, spec)
        cache[name] = cls
    return cls


class Policy:
    """Base class: turn a queue into planned co-execution groups."""

    name = "base"
    nc = 1
    #: True when plan() requires ctx.interference (the Fig. 3.4 matrix);
    #: callers use it to decide whether to pay the measurement cost.
    needs_interference = False

    def plan(self, queue: Queue, ctx: PolicyContext) -> List[PlannedGroup]:
        raise NotImplementedError

    @staticmethod
    def _chunk(queue: Queue, nc: int) -> List[List[Tuple[str, KernelSpec]]]:
        queue = list(queue)
        return [queue[i:i + nc] for i in range(0, len(queue), nc)]


class SerialPolicy(Policy):
    """Each application alone on the full device."""

    name = "Serial"
    nc = 1

    def plan(self, queue: Queue, ctx: PolicyContext) -> List[PlannedGroup]:
        return [PlannedGroup(members=[entry]) for entry in queue]


class EvenPolicy(Policy):
    """Arrival-order groups of NC, equal SM split (the Even baseline)."""

    name = "Even"

    def __init__(self, nc: int = 2):
        if nc < 1:
            raise ValueError("NC must be >= 1")
        self.nc = nc

    def plan(self, queue: Queue, ctx: PolicyContext) -> List[PlannedGroup]:
        return [PlannedGroup(members=chunk)
                for chunk in self._chunk(queue, self.nc)]


class FCFSPolicy(EvenPolicy):
    """Alias of Even — the paper's FCFS selection with equal resources."""

    name = "FCFS"


def sm_demand(spec: KernelSpec, config: GPUConfig) -> int:
    """SMs the kernel can actually occupy (profile-derived).

    A grid of B blocks can keep at most ``min(num_sms, B)`` SMs busy —
    LUD's 12-block grid cannot use more than 12 SMs no matter how many it
    is given (Fig. 3.5), which is exactly the information the
    profile-based allocator of [17] exploits.
    """
    return max(1, min(config.num_sms, spec.blocks))


class ProfileBasedPolicy(Policy):
    """Arrival-order groups with profile-proportional SM partitioning [17]."""

    name = "Profile-based"

    def __init__(self, nc: int = 2):
        self.nc = nc

    def plan(self, queue: Queue, ctx: PolicyContext) -> List[PlannedGroup]:
        groups = []
        for chunk in self._chunk(queue, self.nc):
            weights = []
            for _name, spec in chunk:
                usable = sm_demand(spec, ctx.config)
                weights.append(float(usable))
            if len(chunk) == 1:
                groups.append(PlannedGroup(members=chunk))
                continue
            partitions = proportional_partition(ctx.config.num_sms, weights)
            groups.append(PlannedGroup(members=chunk, partitions=partitions))
        return groups


class ILPPolicy(Policy):
    """Contention-minimizing group selection (§3.2.3), equal SM split."""

    name = "ILP"
    needs_interference = True

    def __init__(self, nc: int = 2):
        if nc < 2:
            raise ValueError("the grouping ILP needs NC >= 2")
        self.nc = nc

    def _groups(self, queue: Queue, ctx: PolicyContext) -> List[List[str]]:
        if ctx.interference is None:
            raise ValueError(f"{self.name} policy requires an interference "
                             f"model in the context")
        classified = ctx.classify_queue(queue)
        plan = optimize_grouping(classified, self.nc, ctx.interference)
        return plan.all_groups

    def plan(self, queue: Queue, ctx: PolicyContext) -> List[PlannedGroup]:
        specs = dict(queue)
        return [
            PlannedGroup(members=[(name, specs[name]) for name in group])
            for group in self._groups(queue, ctx)
        ]


class ILPSMRAPolicy(ILPPolicy):
    """ILP grouping plus run-time SM reallocation (§3.2.4)."""

    name = "ILP-SMRA"

    def plan(self, queue: Queue, ctx: PolicyContext) -> List[PlannedGroup]:
        groups = super().plan(queue, ctx)
        for group in groups:
            group.use_smra = len(group.members) > 1
        return groups


def default_policies(nc: int = 2) -> List[Policy]:
    """The comparison set of Fig. 4.3/4.11."""
    return [EvenPolicy(nc), ProfileBasedPolicy(nc), ILPPolicy(nc),
            ILPSMRAPolicy(nc)]


# -- registry wiring ---------------------------------------------------------
# The batch policies under the ``policies`` kind (the CLI's old
# ``POLICY_FACTORIES``).  Every factory takes the group arity ``nc``;
# Serial ignores it (one app at a time by definition).
REGISTRY.register("policies", "serial", lambda nc=1: SerialPolicy())
REGISTRY.register("policies", "even", lambda nc=2: EvenPolicy(nc))
REGISTRY.register("policies", "fcfs", lambda nc=2: FCFSPolicy(nc))
REGISTRY.register("policies", "profile",
                  lambda nc=2: ProfileBasedPolicy(nc))
REGISTRY.register("policies", "ilp", lambda nc=2: ILPPolicy(nc))
REGISTRY.register("policies", "ilp-smra", lambda nc=2: ILPSMRAPolicy(nc))
