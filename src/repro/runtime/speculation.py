"""Speculative execution: pre-simulated groups.

The fleet event loop (streams are one-device fleets) is deterministic
but *clock-serial*: the virtual clock blocks on every in-flight group,
so a process pool only helps when several launches share one instant.
One observation unlocks more parallelism without changing a single
result: **group results are pure.**  ``run_group`` simulates a fresh
device per group, so an outcome depends only on (membership,
partitions, SMRA flag, device config, SMRA params, cycle budget) —
exactly the tuple :func:`group_key` freezes.  A group may therefore be
simulated *before* the policy commits to launching it: if the
prediction matches, the stored result is bit-identical to simulating on
demand; if not, the result is discarded unobserved.

:class:`SpeculativeSimulator` implements the store + counters;
:func:`repro.cluster.fleet.run_fleet` calls its ``predict`` before
every launch and its ``fetch_batch`` to resolve the launch.

The speculation contract
------------------------
Predictions replay the online policy against its current queue snapshot
via :meth:`~repro.runtime.online.OnlinePolicy.clone_for_prediction`, so
a policy must decide deterministically from its own state (every
shipped policy does; the determinism tests enforce it for the committed
example scenarios).  A mispredicted simulation is *never observed*:
only a key-exact store hit is returned, anything else is discarded.
``commit_check`` re-simulates every hit serially in-process and raises
if the speculative result is not bit-identical — the paranoid mode the
determinism tests run.

Speculation is an execution strategy, never part of a result's
identity: :meth:`repro.api.Scenario.spec_hash` normalizes it away, and
the counters below are reported *next to* a result (CLI stdout,
``--speculation-report``), never inside the canonical result JSON.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import REGISTRY

from repro.core.policies import PlannedGroup, PolicyContext
from repro.core.scheduler import GroupOutcome, run_group
from repro.core.smra import SMRAParams

from repro.gpusim import GPUConfig
from repro.obs import phase_of

from .executors import DEFAULT_MAX_CYCLES, Executor

__all__ = ["SpeculationStrategy", "SpeculationCounters",
           "SpeculativeSimulator", "group_key", "outcome_fingerprint",
           "make_speculation"]


def _freeze(value):
    """Nested lists/tuples → nested tuples (hashable key material)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def group_key(group: PlannedGroup, config: GPUConfig,
              smra_params: SMRAParams,
              max_cycles: int) -> Tuple:
    """The purity key: everything a group's simulation result depends on.

    Two :func:`~repro.core.scheduler.run_group` calls with equal keys
    return bit-identical outcomes (fresh device per group), which is
    what makes commit-on-match sound.  ``KernelSpec``, ``GPUConfig``
    and ``SMRAParams`` are frozen dataclasses, so the key hashes by
    value — a prediction made from a deep-copied policy matches the
    real launch.
    """
    return (_freeze(group.members), _freeze(group.partitions),
            bool(group.use_smra), config, smra_params, max_cycles)


def outcome_fingerprint(outcome: GroupOutcome) -> Tuple:
    """Value identity of a group outcome (commit-check comparison).

    Compares members, duration and every per-app counter of the device
    result.  ``GroupOutcome`` itself is not compared directly because
    an SMRA run carries its controller object, whose identity differs
    between a worker's copy and an in-process rerun.
    """
    result = outcome.result
    return (tuple(outcome.members), outcome.cycles, result.cycles,
            result.events,
            tuple(sorted((app_id, dataclasses.astuple(stats))
                         for app_id, stats in result.app_stats.items())))


@dataclass(frozen=True)
class SpeculationStrategy:
    """Prediction depth and commit checking (what the ``groups``
    registry entry builds; ``none`` builds no strategy at all)."""

    #: how many successor groups to predict per launch.
    depth: int = 2
    #: re-simulate every store hit serially and assert bit-identity.
    commit_check: bool = False

    def __post_init__(self):
        if not isinstance(self.depth, int) or isinstance(self.depth, bool) \
                or self.depth < 1:
            raise ValueError(
                f"speculation depth must be a positive integer, got "
                f"{self.depth!r}")
        if not isinstance(self.commit_check, bool):
            raise ValueError(
                f"commit_check must be a boolean, got "
                f"{self.commit_check!r}")


@dataclass
class SpeculationCounters:
    """Deterministic speculation accounting (identical for any worker
    count — every store decision happens on the coordinator's clock)."""

    #: speculative simulations submitted from predictions.
    submitted: int = 0
    #: launches served from the store.
    hits: int = 0
    #: launches simulated on demand.
    misses: int = 0
    #: store entries dropped unobserved (mispredictions, fail/recover).
    discarded: int = 0
    #: hits re-verified against a serial in-process rerun.
    commit_checks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / max(1, self.hits + self.misses)

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["hit_rate"] = round(self.hit_rate, 4)
        return data


class SpeculativeSimulator:
    """Store of in-flight speculative simulations, keyed by purity key.

    One simulator serves one fleet run (a stream is a one-device
    fleet).  Store entries are tagged with the device id, which keeps
    each device's prediction chain apart.  All decisions — what to
    predict, what counts as a hit, what to discard — happen on the
    caller's virtual clock, so counters and results are bit-identical
    for any worker count.
    """

    def __init__(self, executor: Executor, strategy: SpeculationStrategy,
                 telemetry=None, backend: str = "event"):
        self.executor = executor
        self.strategy = strategy
        #: ``engine-backends`` name every speculative (and on-demand)
        #: simulation runs on.  Not part of :func:`group_key`: backends
        #: are bit-identical and the backend is constant within a run.
        self.backend = backend
        self.counters = SpeculationCounters()
        #: Optional :class:`~repro.obs.Telemetry` — the engines attach
        #: theirs so predict/hit/miss show up in traces and metrics.
        self.telemetry = None
        self._tracer = None
        self._metrics = None
        self._profiler = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)
        #: tag → {purity key → (future, generation)}.
        self._store: Dict[int, Dict[Tuple, Tuple[Any, int]]] = {}
        #: monotonically increasing prediction-round counter.
        self._gen = 0
        #: tag → generation of its most recent prediction round.  A
        #: fetch miss discards only entries from *earlier* rounds: the
        #: callers predict successors right before resolving the
        #: current launch, so the current round's entries are for
        #: future launches and a miss on the current one says nothing
        #: about them.
        self._fresh: Dict[int, int] = {}

    def attach_telemetry(self, telemetry) -> None:
        """Observe this simulator with `telemetry` (idempotent)."""
        self.telemetry = telemetry
        self._tracer = telemetry.tracer
        self._metrics = telemetry.metrics
        self._profiler = telemetry.profiler

    # -- prediction --------------------------------------------------------

    def predict(self, tag: int, policy, now: int, ctx: PolicyContext,
                max_cycles: int = DEFAULT_MAX_CYCLES) -> None:
        """Replay `policy` (a deep copy) to pre-simulate likely successors.

        Called right after the real policy popped a group, so the clone
        yields the groups the device will most plausibly launch next.
        Clone or replay failures just skip prediction — a policy that
        cannot be probed safely simply never speculates.
        """
        store = self._store.setdefault(tag, {})
        self._gen += 1
        gen = self._fresh[tag] = self._gen
        if len(store) >= self.strategy.depth:
            return
        with phase_of(self._profiler, "predict"):
            submitted = self._predict_round(store, gen, policy, now, ctx,
                                            max_cycles)
        if submitted:
            if self._tracer is not None:
                self._tracer.emit("predict", now, device=tag,
                                  submitted=submitted)
            if self._metrics is not None:
                self._metrics.counter("spec.submitted").inc(submitted)

    def _predict_round(self, store, gen, policy, now, ctx,
                       max_cycles) -> int:
        try:
            probe = policy.clone_for_prediction()
        except Exception:
            return 0
        submitted = 0
        while len(store) < self.strategy.depth:
            try:
                group = probe.next_group(now, ctx)
            except Exception:
                break
            if group is None:
                break
            key = group_key(group, ctx.config, ctx.smra_params, max_cycles)
            if key not in store:
                store[key] = (self.executor.submit_group(
                    group, ctx.config, ctx.smra_params, max_cycles,
                    backend=self.backend), gen)
                self.counters.submitted += 1
                submitted += 1
        return submitted

    # -- consumption -------------------------------------------------------

    def fetch_batch(self, jobs: Sequence[Tuple[int, PlannedGroup,
                                               GPUConfig, SMRAParams]],
                    max_cycles: int = DEFAULT_MAX_CYCLES,
                    now: Optional[int] = None) -> List[GroupOutcome]:
        """The outcomes for one instant's batch of launches.

        Each job is ``(tag, group, config, smra_params)``.  Hits resolve
        from the store; misses fan out through the executor as one
        batch (in job order, the deterministic merge).  A miss
        invalidates its tag's *stale* prediction chain — every entry
        predicted before the current round diverged from the real
        future and is discarded unobserved.  Entries from the current
        round survive: they predict the launches *after* this one.
        `now` is purely observational — the virtual cycle stamped onto
        ``spec_hit``/``spec_miss`` trace events.
        """
        cycle = 0 if now is None else now
        results: List[Optional[GroupOutcome]] = [None] * len(jobs)
        hits: List[Tuple[int, Any]] = []
        miss_indices: List[int] = []
        miss_jobs = []
        checks: List[Tuple[int, Tuple[int, PlannedGroup, GPUConfig,
                                      SMRAParams]]] = []
        for idx, (tag, group, config, smra_params) in enumerate(jobs):
            key = group_key(group, config, smra_params, max_cycles)
            store = self._store.get(tag, {})
            entry = store.pop(key, None)
            members = [name for name, _spec in group.members]
            if entry is not None:
                hits.append((idx, entry[0]))
                self.counters.hits += 1
                if self._tracer is not None:
                    self._tracer.emit("spec_hit", cycle, device=tag,
                                      members=members)
                if self._metrics is not None:
                    self._metrics.counter("spec.hits").inc()
                if self.strategy.commit_check:
                    checks.append((idx, jobs[idx]))
            else:
                self._discard_stale(tag)
                self.counters.misses += 1
                if self._tracer is not None:
                    self._tracer.emit("spec_miss", cycle, device=tag,
                                      members=members)
                if self._metrics is not None:
                    self._metrics.counter("spec.misses").inc()
                miss_indices.append(idx)
                miss_jobs.append((group, config, smra_params))
        if miss_jobs:
            with phase_of(self._profiler, "simulate"):
                outcomes = self.executor.run_device_groups(
                    miss_jobs, max_cycles, backend=self.backend)
            for idx, outcome in zip(miss_indices, outcomes):
                results[idx] = outcome
        for idx, future in hits:
            results[idx] = future.result()
        if checks:
            with phase_of(self._profiler, "commit-check"):
                for idx, (_tag, group, config, smra_params) in checks:
                    self._commit_check(group, config, smra_params,
                                       max_cycles, results[idx])
        return results

    def _discard_stale(self, tag: int) -> None:
        """Drop `tag` entries predicted before its current round."""
        store = self._store.get(tag)
        if not store:
            return
        fresh = self._fresh.get(tag)
        stale = [key for key, (_fut, gen) in store.items() if gen != fresh]
        for key in stale:
            store.pop(key)[0].cancel()
        self.counters.discarded += len(stale)

    def discard(self, tag: int) -> None:
        """Drop every stored entry for `tag`, unobserved.

        Called when a device fails or recovers (its policy is drained
        or replaced, so its predicted future is void) and at the end
        of the run.
        """
        store = self._store.pop(tag, None)
        self._fresh.pop(tag, None)
        if not store:
            return
        for fut, _gen in store.values():
            fut.cancel()
        self.counters.discarded += len(store)

    def close(self) -> None:
        """Discard every outstanding speculation (end of run)."""
        for tag in list(self._store):
            self.discard(tag)

    # -- verification ------------------------------------------------------

    def _commit_check(self, group: PlannedGroup, config: GPUConfig,
                      smra_params: SMRAParams, max_cycles: int,
                      outcome: GroupOutcome) -> None:
        self.counters.commit_checks += 1
        reference = run_group(group, config, smra_params, max_cycles,
                              backend=self.backend)
        if outcome_fingerprint(reference) != outcome_fingerprint(outcome):
            members = [name for name, _spec in group.members]
            raise RuntimeError(
                f"speculation commit check failed: the speculative "
                f"result for group {members} differs from serial "
                f"execution — the engine or the executor broke "
                f"determinism")


def make_speculation(strategy: Optional[SpeculationStrategy],
                     executor: Executor, backend: str = "event"
                     ) -> Optional[SpeculativeSimulator]:
    """A simulator for `strategy`, or ``None`` for no speculation."""
    if strategy is None:
        return None
    return SpeculativeSimulator(executor, strategy, backend=backend)


# -- registry wiring ---------------------------------------------------------
# The ``speculation`` registry kind, mirroring ``faults``/``admission``:
# ``none`` exists for validation and builds no strategy at all (the
# scenario layer canonicalizes it away).

REGISTRY.register("speculation", "none", lambda **_params: None)


def _make_groups(depth: int = 2, commit_check: bool = False, **_params):
    return SpeculationStrategy(depth=depth, commit_check=commit_check)


REGISTRY.register("speculation", "groups", _make_groups)
