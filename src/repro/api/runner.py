"""``run_scenario``: one entry point for queue, stream, and fleet runs.

Dispatches a :class:`~repro.api.scenario.Scenario` to the matching
engine — batch :func:`~repro.core.scheduler.run_queue`, online
:func:`~repro.runtime.run_stream`, or :func:`~repro.cluster.run_fleet` —
and normalizes the outcome into one :class:`RunResult` schema:

* ``metrics`` — the headline scorecard (throughput for queues;
  ANTT/STP/utilization/percentiles for streams; plus imbalance and
  per-device aggregates for fleets);
* ``apps`` — one record per application (arrival/start/finish cycles,
  group index, serving device, solo cycles where measured);
* ``groups`` — the scheduled timeline (members, cycles, start, device);
* ``devices`` — the per-device breakdown (fleet scenarios);
* ``provenance`` — engine version, schema version, seed, spec hash.

Everything in a :class:`RunResult` is deterministic data: no wall-clock
timestamps, no host names, no worker counts.  Running the same scenario
twice — serially or through a 4-worker executor — produces byte-equal
``to_json()`` output, which the CI scenario smoke job and the
determinism tests assert.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional

from repro import __version__
from repro.gpusim import ENGINE_VERSION, GPUConfig

from .engines import engine_class
from .registry import REGISTRY
from .scenario import SCHEMA_VERSION, Scenario, normalize_execution

#: Standard kwargs handed to every ``streams`` registry factory (each
#: factory keyword-consumes what it needs and ``**_``-ignores the rest).
_ARRIVAL_KEYS = ("mean_gap", "burst_size", "burst_gap", "seed")


@dataclass
class RunResult:
    """One scenario's outcome, normalized across run kinds."""

    kind: str
    #: the scenario as authored, except ``execution.workers`` is
    #: normalized to 1 — results never depend on the worker count, so
    #: a serial run and a ``--workers 4`` run of the same experiment
    #: serialize byte-identically.
    scenario: Dict[str, Any]
    #: headline scorecard; always includes ``policy`` and ``makespan``.
    metrics: Dict[str, Any]
    #: per-application lifecycle records.
    apps: List[Dict[str, Any]]
    #: scheduled groups in launch order (fleet: per-device order).
    groups: List[Dict[str, Any]]
    #: per-device breakdown; ``None`` for queue/stream scenarios.
    devices: Optional[List[Dict[str, Any]]]
    #: engine version, schema version, seed, spec hash.
    provenance: Dict[str, Any]

    #: Telemetry snapshot (trace event count, metrics registry dump,
    #: profiler phases), attached by :func:`run_scenario` when the
    #: scenario enables telemetry.  Deliberately a ``ClassVar``, not a
    #: dataclass field: how the run was observed is not part of what it
    #: computed, so it stays out of ``to_dict``/``to_json`` and a traced
    #: result file is byte-identical to a plain one.
    telemetry: ClassVar[Optional[Dict[str, Any]]] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """Canonical encoding: byte-identical across equal results."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          indent=indent) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(f"result has unknown key(s): "
                             f"{', '.join(unknown)}")
        missing = sorted(fields - set(data))
        if missing:
            raise ValueError(f"result is missing key(s): "
                             f"{', '.join(missing)}")
        return cls(**{name: data[name] for name in fields})


def _provenance(scenario: Scenario) -> Dict[str, Any]:
    data = {
        "engine_version": ENGINE_VERSION,
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "seed": scenario.workload.seed,
        "spec_hash": scenario.spec_hash(),
        #: the resolved gpu-configs name of every device, in device-id
        #: order (one entry for queue/stream scenarios) — the record a
        #: heterogeneous result needs to be replayed or audited.
        "device_configs": list(scenario.devices.config_names()),
    }
    # Optional keys: fault-free results stay byte-identical to builds
    # that predate fault injection.
    if scenario.faults is not None:
        data["faults"] = scenario.faults.kind
    if scenario.admission is not None:
        data["admission"] = scenario.admission.kind
    # The backend actually used — recorded only when non-default, so
    # event-engine results stay byte-identical to pre-backend builds.
    if scenario.execution.backend != "event":
        data["backend"] = scenario.execution.backend
    return data


def _embedded_scenario(scenario: Scenario) -> Dict[str, Any]:
    """The scenario dict stored in results, its execution block reduced
    by :func:`normalize_execution` — workers, telemetry and backend
    are never part of what the run computed.  The backend
    actually used is recorded in provenance."""
    data = scenario.to_dict()
    normalize_execution(data["execution"])
    return data


def _build_telemetry(scenario: Scenario, telemetry=None):
    """The run's :class:`~repro.obs.Telemetry`, or ``None``.

    An explicit `telemetry` instance (the CLI builds one from
    ``--trace``/``--profile``) wins over the scenario's declarative
    ``execution.telemetry`` block.
    """
    if telemetry is not None:
        return telemetry
    spec = scenario.execution.telemetry
    if spec is None:
        return None
    return REGISTRY.create("telemetry", spec.kind, **spec.params())


def build_queue(scenario: Scenario):
    """The application queue a scenario's workload describes."""
    from repro.workloads import (distribution_queue, paper_queue,
                                 paper_queue_three, stream_queue)
    w = scenario.workload
    if w.source == "paper":
        builder = (paper_queue if scenario.policy.nc != 3
                   else paper_queue_three)
        return builder(scale=w.scale)
    if w.source == "distribution":
        return distribution_queue(w.distribution, length=w.length,
                                  seed=w.seed, scale=w.scale)
    if w.source == "stream":
        return stream_queue(w.apps, seed=w.seed,
                            synthetic_fraction=w.synthetic_fraction,
                            scale=w.scale)
    raise ValueError(f"workload source {w.source!r} builds an arrival "
                     f"trace, not a queue")


def build_arrivals(scenario: Scenario):
    """The arrival stream a scenario's workload describes.

    Every random draw (stream mix, synthetic specs, inter-arrival gaps)
    derives from ``workload.seed``, so an identical scenario JSON
    replays the identical stream.
    """
    from repro.workloads import load_trace, slice_arrivals
    w = scenario.workload
    if w.source == "trace":
        arrivals = load_trace(w.trace, scale=w.scale)
    else:
        queue = build_queue(scenario)
        arrivals = REGISTRY.create(
            "streams", w.arrival, queue,
            **{key: getattr(w, key) for key in _ARRIVAL_KEYS})
    if not arrivals:
        raise ValueError("the arrival stream is empty (trace with no "
                         "entries?)")
    if w.slice is not None:
        # Campaign trace sharding: the full stream is built (so every
        # slice sees identical names/specs/cycles), then the scenario's
        # contiguous window is cut out deterministically.
        arrivals = slice_arrivals(arrivals, *w.slice)
    return arrivals


def _build_policy(scenario: Scenario):
    return REGISTRY.create(scenario._policy_kind(), scenario.policy.name,
                           scenario.policy.nc)


def _solo_cycles(ctx, executor, arrivals) -> Dict[str, int]:
    """ANTT/STP denominators — parallel warm, then served from cache."""
    from repro.core import warm_profiles
    warm_profiles(ctx.profiler, executor,
                  [(a.name, a.spec) for a in arrivals])
    return {a.name: ctx.profiler.profile(a.name, a.spec).solo_cycles
            for a in arrivals}


def _summary_dict(summary) -> Dict[str, Any]:
    data = dataclasses.asdict(summary)
    for key, value in data.items():
        if isinstance(value, tuple):
            data[key] = list(value)
    return data


def _group_dicts(scheduled, device: Optional[int] = None
                 ) -> List[Dict[str, Any]]:
    out = []
    for g in scheduled:
        entry = {"start_cycle": g.start_cycle,
                 "members": list(g.outcome.members),
                 "cycles": g.outcome.cycles}
        if device is not None:
            entry["device"] = device
        out.append(entry)
    return out


def _record_dicts(records, solo: Mapping[str, int],
                  with_device: bool = False,
                  with_retries: bool = False) -> List[Dict[str, Any]]:
    out = []
    for name in sorted(records):
        rec = records[name]
        entry = {"name": rec.name,
                 "arrival_cycle": rec.arrival_cycle,
                 "start_cycle": rec.start_cycle,
                 "finish_cycle": rec.finish_cycle,
                 "group_index": rec.group_index,
                 "solo_cycles": solo[rec.name]}
        if with_device:
            entry["device"] = rec.device
        if with_retries:
            entry["retries"] = rec.retries
        out.append(entry)
    return out


def run_scenario(scenario: Scenario, executor=None,
                 telemetry=None) -> RunResult:
    """Run `scenario` end-to-end; return its normalized :class:`RunResult`.

    `executor` optionally supplies a shared
    :class:`~repro.runtime.executors.Executor` (the CLI reuses one
    across a policy comparison); by default one is built from
    ``scenario.execution.workers`` and closed on return.  The executor
    affects wall-clock only — results are bit-identical for any worker
    count.

    `telemetry` optionally supplies a pre-built
    :class:`~repro.obs.Telemetry` (the CLI builds one from ``--trace``
    and ``--profile``), overriding the scenario's declarative
    ``execution.telemetry`` block.  Telemetry observes the run and
    never steers it: the returned result is byte-identical with it on
    or off.  The snapshot lands on ``result.telemetry`` (a side
    channel) and configured trace sinks are written before returning.
    """
    from repro.core import SMRAParams, make_context
    from repro.runtime import make_executor
    from repro.workloads import RODINIA_SPECS

    # Resolve the engine before any simulation: a "vector" run without
    # the compiled core warns once here, and forked pool workers
    # inherit the resolved class instead of warning again.
    engine_class(scenario.execution.backend)
    owned = executor is None
    if owned:
        executor = make_executor(scenario.execution.workers)
    try:
        config: GPUConfig = REGISTRY.create("gpu-configs",
                                            scenario.devices.config)
        policy = _build_policy(scenario)
        placement = None
        need_interference = policy.needs_interference
        if scenario.kind == "fleet":
            placement = REGISTRY.create("placements",
                                        scenario.placement.name)
            need_interference = (need_interference
                                 or placement.needs_interference)
        ctx = make_context(config, suite=dict(RODINIA_SPECS),
                           need_interference=need_interference,
                           samples_per_pair=(scenario.execution
                                             .samples_per_pair),
                           smra_params=SMRAParams(), executor=executor,
                           backend=scenario.execution.backend)
        max_cycles = scenario.execution.max_cycles

        tel = _build_telemetry(scenario, telemetry)
        if scenario.kind == "queue":
            result = _run_queue_scenario(scenario, policy, ctx, executor,
                                         max_cycles, tel)
        elif scenario.kind == "stream":
            result = _run_stream_scenario(scenario, policy, ctx, executor,
                                          max_cycles, tel)
        else:
            result = _run_fleet_scenario(scenario, placement, ctx,
                                         executor, max_cycles, tel)
        if tel is not None:
            result.telemetry = tel.snapshot()
            tel.export()
        return result
    finally:
        if owned:
            executor.close()


def _run_queue_scenario(scenario, policy, ctx, executor,
                        max_cycles, telemetry=None) -> RunResult:
    from repro.core import run_queue
    queue = build_queue(scenario)
    outcome = run_queue(queue, policy, ctx, max_cycles=max_cycles,
                        executor=executor, telemetry=telemetry)
    # Queue drains run back-to-back: reconstruct the absolute timeline
    # so app/group cycles mean the same thing they do for streams
    # (every application "arrives" at cycle 0, the batch scenario).
    apps = []
    groups = []
    start = 0
    for index, group in enumerate(outcome.groups):
        groups.append({"start_cycle": start,
                       "members": list(group.members),
                       "cycles": group.cycles})
        for name in group.members:
            apps.append({"name": name,
                         "arrival_cycle": 0,
                         "start_cycle": start,
                         "finish_cycle": start + group.finish_cycle_of(name),
                         "group_index": index})
        start += group.cycles
    apps.sort(key=lambda a: a["name"])
    metrics = {
        "policy": outcome.policy,
        "groups": len(outcome.groups),
        "makespan": outcome.total_cycles,
        "total_cycles": outcome.total_cycles,
        "total_instructions": outcome.total_instructions,
        "device_throughput": outcome.device_throughput,
    }
    return RunResult(kind="queue", scenario=_embedded_scenario(scenario),
                     metrics=metrics, apps=apps, groups=groups,
                     devices=None, provenance=_provenance(scenario))


def _run_stream_scenario(scenario, policy, ctx, executor,
                         max_cycles, telemetry=None) -> RunResult:
    from repro.analysis import summarize_stream
    from repro.runtime import run_stream
    arrivals = build_arrivals(scenario)
    solo = _solo_cycles(ctx, executor, arrivals)
    outcome = run_stream(arrivals, policy, ctx, max_cycles=max_cycles,
                         telemetry=telemetry)
    summary = summarize_stream(outcome, solo)
    return RunResult(kind="stream", scenario=_embedded_scenario(scenario),
                     metrics=_summary_dict(summary),
                     apps=_record_dicts(outcome.records, solo),
                     groups=_group_dicts(outcome.groups),
                     devices=None, provenance=_provenance(scenario))


def _device_contexts(scenario, ctx, executor):
    """One :class:`PolicyContext` per device for a heterogeneous fleet.

    Contexts are shared between devices of the same configuration (the
    profiler and interference caches are per config anyway); the
    homogeneous case returns ``None`` and :func:`repro.cluster.run_fleet`
    hands every device `ctx`.
    """
    if not scenario.devices.heterogeneous:
        return None
    from repro.core import SMRAParams, make_context
    from repro.workloads import RODINIA_SPECS
    need = ctx.interference is not None
    contexts: Dict[str, Any] = {}
    for name in scenario.devices.config_names():
        if name not in contexts:
            contexts[name] = make_context(
                REGISTRY.create("gpu-configs", name),
                suite=dict(RODINIA_SPECS), need_interference=need,
                samples_per_pair=scenario.execution.samples_per_pair,
                smra_params=SMRAParams(), executor=executor,
                backend=scenario.execution.backend)
    return [contexts[name] for name in scenario.devices.config_names()]


def _per_device_solo(device_contexts, outcome, executor,
                     arrivals) -> Dict[str, int]:
    """Device-correct ANTT/STP denominators for a heterogeneous fleet:
    each application's solo run is measured on the configuration of the
    device that served it, warmed per config in one executor batch."""
    from repro.core import warm_profiles
    specs = {a.name: a.spec for a in arrivals}
    by_ctx: Dict[int, Any] = {}
    entries: Dict[int, List] = {}
    for name, record in sorted(outcome.records.items()):
        dctx = device_contexts[record.device]
        by_ctx.setdefault(id(dctx), dctx)
        entries.setdefault(id(dctx), []).append((name, specs[name]))
    for key, dctx in by_ctx.items():
        warm_profiles(dctx.profiler, executor, entries[key])
    return {name: device_contexts[record.device]
            .profiler.profile(name, specs[name]).solo_cycles
            for name, record in outcome.records.items()}


def _run_fleet_scenario(scenario, placement, ctx, executor,
                        max_cycles, telemetry=None) -> RunResult:
    from repro.analysis import summarize_faults, summarize_fleet
    from repro.cluster import run_fleet
    arrivals = build_arrivals(scenario)
    device_contexts = _device_contexts(scenario, ctx, executor)
    if device_contexts is None:
        solo = _solo_cycles(ctx, executor, arrivals)
    faults = admission = None
    if scenario.faults is not None:
        faults = REGISTRY.create("faults", scenario.faults.kind,
                                 scenario.devices.count,
                                 **scenario.faults.params())
    if scenario.admission is not None:
        admission = REGISTRY.create("admission", scenario.admission.kind,
                                    **scenario.admission.params())
    # Spec-level, not object-level: whether the author asked for fault
    # semantics decides the result shape (extra metrics/app/device keys).
    fault_mode = (scenario.faults is not None
                  or scenario.admission is not None)
    outcome = run_fleet(
        arrivals, placement,
        lambda _i: _build_policy(scenario), ctx,
        num_devices=scenario.devices.count, executor=executor,
        max_cycles=max_cycles, device_contexts=device_contexts,
        faults=faults, admission=admission, telemetry=telemetry)
    if device_contexts is not None:
        solo = _per_device_solo(device_contexts, outcome, executor,
                                arrivals)
    config_names = scenario.devices.config_names()
    if outcome.records:
        summary = summarize_fleet(outcome, solo,
                                  device_configs=config_names)
        metrics = _summary_dict(summary)
    else:
        # Fully-degraded fleet: every arrival was rejected, there is no
        # served stream to summarize — report the skeleton scorecard
        # and let the fault metrics below carry the story.
        metrics = {
            "placement": outcome.placement,
            "policy": outcome.policy,
            "devices": len(outcome.devices),
            "apps": 0,
            "makespan": outcome.makespan,
        }
    if fault_mode:
        deadline = (scenario.admission.deadline_cycles
                    if scenario.admission is not None
                    and scenario.admission.kind == "deadline" else 0)
        metrics.update(summarize_faults(outcome,
                                        deadline_cycles=deadline))
    groups: List[Dict[str, Any]] = []
    devices = []
    for dev in outcome.devices:
        groups.extend(_group_dicts(dev.groups, device=dev.device_id))
        entry = {
            "device_id": dev.device_id,
            "policy": dev.policy,
            "config": config_names[dev.device_id],
            "groups": len(dev.groups),
            "apps_served": dev.apps_served,
            "busy_cycles": dev.busy_cycles,
            "utilization": dev.busy_cycles / max(1, outcome.makespan),
        }
        if fault_mode:
            entry["lost_cycles"] = dev.lost_cycles
            entry["down_cycles"] = dev.down_cycles
            entry["failed_groups"] = len(dev.failed_groups)
        devices.append(entry)
    return RunResult(kind="fleet", scenario=_embedded_scenario(scenario),
                     metrics=metrics,
                     apps=_record_dicts(outcome.records, solo,
                                        with_device=True,
                                        with_retries=fault_mode),
                     groups=groups, devices=devices,
                     provenance=_provenance(scenario))
