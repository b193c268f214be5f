"""The declarative Scenario tree: one serializable run description.

A :class:`Scenario` fully describes one queue / stream / fleet run —
workload, policy, placement, devices, execution — as plain data with a
lossless JSON round-trip (``Scenario.from_dict(s.to_dict()) == s``).
It is the single input format of :func:`repro.api.runner.run_scenario`,
the ``python -m repro run`` CLI, and the sweep expander; the classic
``run-queue`` / ``run-stream`` / ``run-fleet`` subcommands are thin
wrappers that build a :class:`Scenario` from their flags.

Design rules
------------
* **Strict validation at construction.**  Every spec validates in
  ``__post_init__``; a malformed dict never becomes a half-usable
  object.  Registry names (policy, placement, config, arrival) are
  validated against :data:`~repro.api.registry.REGISTRY` so a typo
  fails at load time with a did-you-mean message, not mid-run.
* **Strict decoding.**  ``from_dict`` rejects unknown keys and wrong
  schema versions with errors naming the offending key.
* **Deterministic identity.**  :meth:`Scenario.spec_hash` is a sha256
  over the canonical JSON encoding with ``execution.workers``
  normalized to 1 — the worker count changes wall-clock only, never
  results, so two runs of the same experiment share one hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .registry import REGISTRY

#: Version of the Scenario/RunResult JSON schema.  Bump on any change
#: that alters field meaning; ``from_dict`` rejects other versions.
SCHEMA_VERSION = 1

#: The run kinds :func:`repro.api.runner.run_scenario` dispatches on.
KINDS = ("queue", "stream", "fleet")

#: Workload sources understood by :class:`WorkloadSpec`.
SOURCES = ("paper", "distribution", "stream", "trace")

#: The distribution-queue orientations of §4.1 (mirrors
#: ``repro.workloads.DISTRIBUTIONS`` without importing the heavyweight
#: workloads package at decode time).
_DISTRIBUTIONS = ("equal", "M", "MC", "C", "A")

#: Simulation budget default (mirrors ``repro.gpusim.DEFAULT_MAX_CYCLES``).
_DEFAULT_MAX_CYCLES = 50_000_000


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_registry(kind: str, name: str) -> None:
    # Delegates to the registry so the error carries the did-you-mean
    # hint; RegistryError is a ValueError, the decode contract.
    REGISTRY.get(kind, name)


def _decode(cls, data: Mapping[str, Any], context: str):
    """Build dataclass `cls` from `data`, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{context} must be an object, got "
                         f"{type(data).__name__}")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - fields)
    if unknown:
        raise ValueError(f"{context} has unknown key(s): "
                         f"{', '.join(unknown)} (known: "
                         f"{', '.join(sorted(fields))})")
    return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """What applications arrive, and when.

    ``source`` selects the queue builder:

    * ``paper`` — the paper's 14-app queue (12-app when the policy runs
      NC=3 groups), Fig. 4.1/4.2;
    * ``distribution`` — a §4.1 class-distribution queue
      (``distribution`` + ``length``);
    * ``stream`` — the Rodinia+synthetic mixed queue of the online
      scenarios (``apps`` + ``synthetic_fraction``);
    * ``trace`` — replay a ``<cycle> <benchmark>`` file (``trace``).

    ``arrival`` selects the arrival process layered on top (a name of
    the ``streams`` registry kind): ``batch`` (everything at cycle 0 —
    the only choice for ``queue`` scenarios), ``poisson`` or ``bursty``.
    A ``trace`` source carries its own arrival cycles.

    Every stochastic choice — the stream mix, synthetic specs, Poisson
    and bursty gaps, the distribution-queue shuffle — derives from
    ``seed`` alone, so one scenario JSON reproduces bit-identical
    results.
    """

    source: str = "paper"
    #: class orientation for ``source="distribution"``.
    distribution: str = "equal"
    #: queue length for ``source="distribution"``.
    length: int = 20
    #: stream length for ``source="stream"``.
    apps: int = 50
    #: synthetic share of the stream mix for ``source="stream"``.
    synthetic_fraction: float = 0.5
    #: trace file path for ``source="trace"``.
    trace: str = ""
    #: kernel scale factor (smaller = faster runs).
    scale: float = 1.0
    #: master seed for mix + arrival randomness.
    seed: int = 42
    #: arrival process (``streams`` registry kind).
    arrival: str = "batch"
    #: mean Poisson inter-arrival gap in cycles.
    mean_gap: float = 5000.0
    #: arrivals per burst for ``arrival="bursty"``.
    burst_size: int = 8
    #: mean quiet gap between bursts in cycles.
    burst_gap: float = 50000.0
    #: campaign shard window ``(index, count)``: run only the
    #: ``index``-th of ``count`` contiguous arrival slices (see
    #: :func:`repro.workloads.slice_arrivals`).  ``None`` (the default)
    #: runs the whole stream.  Unlike ``workers``, a slice changes what
    #: the run computes, so it IS part of :meth:`Scenario.spec_hash`.
    slice: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.slice is not None:
            # JSON decodes to lists; normalize to the hashable tuple.
            object.__setattr__(self, "slice", tuple(self.slice))
            _require(len(self.slice) == 2
                     and all(isinstance(v, int)
                             and not isinstance(v, bool)
                             for v in self.slice),
                     f"slice must be an [index, count] integer pair, got "
                     f"{list(self.slice)!r}")
            index, count = self.slice
            _require(count >= 1,
                     f"slice count must be >= 1, got {count!r}")
            _require(0 <= index < count,
                     f"slice index must be in [0, {count}), got {index!r}")
        _require(self.source in SOURCES,
                 f"unknown workload source {self.source!r}; expected one "
                 f"of {list(SOURCES)}")
        _require(self.distribution in _DISTRIBUTIONS,
                 f"unknown distribution {self.distribution!r}; expected "
                 f"one of {list(_DISTRIBUTIONS)}")
        _require(isinstance(self.length, int) and self.length >= 1,
                 f"length must be a positive integer, got {self.length!r}")
        _require(isinstance(self.apps, int) and self.apps >= 1,
                 f"apps must be a positive integer, got {self.apps!r}")
        _require(0.0 <= self.synthetic_fraction <= 1.0,
                 f"synthetic_fraction must be in [0, 1], got "
                 f"{self.synthetic_fraction!r}")
        _require(self.scale > 0,
                 f"scale must be > 0, got {self.scale!r}")
        _require(isinstance(self.seed, int) and self.seed >= 0,
                 f"seed must be a non-negative integer, got {self.seed!r}")
        _require(self.source != "trace" or bool(self.trace),
                 "a trace workload needs a trace file path")
        _require(self.source == "trace" or not self.trace,
                 f"trace path is only valid with source='trace', not "
                 f"{self.source!r}")
        if self.source != "trace":
            _check_registry("streams", self.arrival)
        _require(self.mean_gap > 0,
                 f"mean_gap must be > 0, got {self.mean_gap!r}")
        _require(isinstance(self.burst_size, int) and self.burst_size >= 1,
                 f"burst_size must be a positive integer, got "
                 f"{self.burst_size!r}")
        _require(self.burst_gap > 0,
                 f"burst_gap must be > 0, got {self.burst_gap!r}")

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if data["slice"] is None:
            # Absent-when-unset: an unsliced workload serializes exactly
            # as it did before slices existed, so spec hashes, embedded
            # scenarios, and golden files are untouched.
            del data["slice"]
        else:
            data["slice"] = list(data["slice"])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return _decode(cls, data, "workload")


@dataclass(frozen=True)
class PolicySpec:
    """Which scheduling policy forms groups, and its arity.

    ``name`` is a ``policies`` registry name for queue scenarios and an
    ``online-policies`` name for stream/fleet scenarios (the scenario's
    ``kind`` decides which; :meth:`Scenario.__post_init__` validates).
    """

    name: str = "fcfs"
    #: concurrent applications per group.
    nc: int = 2

    def __post_init__(self):
        _require(bool(self.name) and isinstance(self.name, str),
                 f"policy name must be a non-empty string, got "
                 f"{self.name!r}")
        _require(isinstance(self.nc, int) and self.nc >= 1,
                 f"nc must be a positive integer, got {self.nc!r}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        return _decode(cls, data, "policy")


@dataclass(frozen=True)
class PlacementSpec:
    """Which device an arriving application joins (fleet scenarios)."""

    name: str = "least-loaded"

    def __post_init__(self):
        _check_registry("placements", self.name)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementSpec":
        return _decode(cls, data, "placement")


@dataclass(frozen=True)
class DeviceSpec:
    """How many devices, and which named configuration they run.

    ``per_device`` lists one ``gpu-configs`` name per device for
    **heterogeneous** (big/little) fleets; its length must equal
    ``count``.  A homogeneous ``per_device`` list (every entry equal)
    is canonicalized into the plain ``config`` form — the two spellings
    describe the same fleet, so they compare equal, serialize
    identically, and share one :meth:`Scenario.spec_hash`.  When
    ``per_device`` mixes configs, ``config`` is normalized to the first
    entry (device 0's configuration) so the encoding stays canonical.
    """

    count: int = 1
    #: a ``gpu-configs`` registry name.
    config: str = "gtx480"
    #: per-device config names (heterogeneous fleets); length must
    #: equal ``count``.  ``None`` means every device runs ``config``.
    per_device: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        _require(isinstance(self.count, int) and self.count >= 1,
                 f"device count must be a positive integer, got "
                 f"{self.count!r}")
        _check_registry("gpu-configs", self.config)
        if self.per_device is not None:
            # JSON decodes to lists; normalize to the hashable tuple.
            object.__setattr__(self, "per_device", tuple(self.per_device))
            _require(len(self.per_device) == self.count,
                     f"per_device lists {len(self.per_device)} configs "
                     f"for {self.count} device(s)")
            for name in self.per_device:
                _check_registry("gpu-configs", name)
            if len(set(self.per_device)) == 1:
                # Canonical form: a homogeneous list IS the config path.
                object.__setattr__(self, "config", self.per_device[0])
                object.__setattr__(self, "per_device", None)
            else:
                object.__setattr__(self, "config", self.per_device[0])

    @property
    def heterogeneous(self) -> bool:
        """True when the fleet mixes device configurations."""
        return self.per_device is not None

    def config_names(self) -> Tuple[str, ...]:
        """One ``gpu-configs`` name per device, in device-id order."""
        if self.per_device is not None:
            return self.per_device
        return (self.config,) * self.count

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if data["per_device"] is not None:
            data["per_device"] = list(data["per_device"])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeviceSpec":
        return _decode(cls, data, "devices")


#: Trace sink formats understood by :class:`TelemetrySpec` (mirrors
#: ``repro.obs.TRACE_FORMATS`` without importing obs at decode time).
_TRACE_SINKS = ("jsonl", "chrome")

#: Telemetry kinds that record trace events (and hence accept sinks).
_TRACING_KINDS = ("trace", "full")


@dataclass(frozen=True)
class TelemetrySpec:
    """Observability for any scenario kind (see :mod:`repro.obs`).

    ``kind`` names a ``telemetry`` registry bundle:

    * ``none`` — no telemetry; canonicalized away (the spec compares
      and serializes identically to leaving ``telemetry`` out);
    * ``trace`` — record virtual-clock :class:`~repro.obs.TraceEvent`\\ s;
    * ``metrics`` — deterministic counters/gauges/histograms only;
    * ``profile`` — wall-clock phase timers only;
    * ``full`` — all three.

    ``sinks`` lists trace export formats (``jsonl``, ``chrome``) and is
    only valid with a tracing kind; ``path`` is where the trace is
    written after the run (with two sinks, each writes
    ``{path}.{format}``).  Telemetry observes a run without
    participating in it — results are byte-identical with any kind —
    so :meth:`Scenario.spec_hash` normalizes the block away.
    """

    kind: str = "none"
    #: trace export formats written after the run.
    sinks: Tuple[str, ...] = ()
    #: output path for the trace sinks.
    path: str = ""

    def __post_init__(self):
        _check_registry("telemetry", self.kind)
        # JSON decodes to lists; normalize to the hashable tuple.
        object.__setattr__(self, "sinks", tuple(self.sinks))
        for fmt in self.sinks:
            _require(fmt in _TRACE_SINKS,
                     f"unknown trace sink {fmt!r}; expected one of "
                     f"{list(_TRACE_SINKS)}")
        _require(len(set(self.sinks)) == len(self.sinks),
                 f"duplicate trace sinks in {list(self.sinks)}")
        _require(not self.sinks or self.kind in _TRACING_KINDS,
                 f"trace sinks are only valid with kind in "
                 f"{list(_TRACING_KINDS)}, not {self.kind!r}")
        _require(not self.sinks or bool(self.path),
                 "telemetry sinks need an output path")
        _require(not self.path or bool(self.sinks),
                 "a telemetry path needs at least one sink")
        _require(isinstance(self.path, str),
                 f"telemetry path must be a string, got {self.path!r}")

    def params(self) -> Dict[str, Any]:
        """Keyword arguments for the ``telemetry`` registry factory."""
        return {"sinks": self.sinks, "path": self.path}

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["sinks"] = list(self.sinks)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetrySpec":
        return _decode(cls, data, "telemetry")


@dataclass(frozen=True)
class ExecutionSpec:
    """Resources and budgets: never part of the result's identity.

    ``workers`` fans independent simulations across processes — the
    engines guarantee bit-identical results for any worker count, so
    :meth:`Scenario.spec_hash` normalizes it away.  ``samples_per_pair``
    sizes the Fig. 3.4 interference measurement; ``max_cycles`` is the
    per-simulation safety budget.  ``telemetry`` selects the
    observability bundle (see :class:`TelemetrySpec`) — a
    ``kind="none"`` spec canonicalizes to ``None``, and telemetry
    observes a run without changing its results.
    ``backend`` names the ``engine-backends`` registry entry that
    simulates each device — every backend is bit-identical to the
    reference ``"event"`` engine, so like ``workers`` it is
    resources-not-identity: :meth:`Scenario.spec_hash` normalizes it
    away and the default ``"event"`` serializes to no key.
    """

    workers: int = 1
    max_cycles: int = _DEFAULT_MAX_CYCLES
    samples_per_pair: int = 1
    telemetry: Optional[TelemetrySpec] = None
    backend: str = "event"

    def __post_init__(self):
        _require(isinstance(self.workers, int)
                 and not isinstance(self.workers, bool)
                 and self.workers >= 1,
                 f"workers must be a positive integer, got "
                 f"{self.workers!r}")
        _require(isinstance(self.max_cycles, int) and self.max_cycles >= 1,
                 f"max_cycles must be a positive integer, got "
                 f"{self.max_cycles!r}")
        _require(isinstance(self.samples_per_pair, int)
                 and self.samples_per_pair >= 1,
                 f"samples_per_pair must be a positive integer, got "
                 f"{self.samples_per_pair!r}")
        if isinstance(self.telemetry, Mapping):
            # from_dict hands the nested block through as a plain dict.
            object.__setattr__(self, "telemetry",
                               TelemetrySpec.from_dict(self.telemetry))
        _require(self.telemetry is None
                 or isinstance(self.telemetry, TelemetrySpec),
                 f"telemetry must be a telemetry spec object, got "
                 f"{self.telemetry!r}")
        if self.telemetry is not None and self.telemetry.kind == "none":
            object.__setattr__(self, "telemetry", None)
        _require(isinstance(self.backend, str) and self.backend,
                 f"backend must be a non-empty string, got "
                 f"{self.backend!r}")
        _check_registry("engine-backends", self.backend)

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if data["backend"] == "event":
            # Canonical form: the default backend IS the absent key, so
            # pre-backend scenario files round-trip byte-identically.
            del data["backend"]
        if data["telemetry"] is None:
            del data["telemetry"]
        elif data["telemetry"]["sinks"] is not None:
            data["telemetry"]["sinks"] = list(data["telemetry"]["sinks"])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionSpec":
        if isinstance(data, Mapping) and "speculation" in data:
            data = dict(data)
            _drop_legacy_speculation(data.pop("speculation"))
        return _decode(cls, data, "execution")


#: Speculation kinds older scenario files may name.  Speculative
#: pre-simulation never changed a result and was removed; ``spec_hash``
#: never included the block, so dropping it keeps every file's identity.
_LEGACY_SPECULATION_KINDS = ("none", "groups", "devices", "full")


def _drop_legacy_speculation(block: Any) -> None:
    """Accept a retired ``execution.speculation`` block, with a warning."""
    kind = block.get("kind", "none") if isinstance(block, Mapping) else None
    _require(kind in _LEGACY_SPECULATION_KINDS,
             f"execution.speculation was removed; old files may name only "
             f"the kinds {', '.join(_LEGACY_SPECULATION_KINDS)}, got "
             f"{kind!r}")
    warnings.warn(f"execution.speculation (kind {kind!r}) is deprecated "
                  f"and ignored: speculative pre-simulation was removed",
                  DeprecationWarning, stacklevel=3)


def normalize_execution(execution: Dict[str, Any]) -> None:
    """Reduce an ``ExecutionSpec.to_dict()`` to its identity, in place.

    Workers, telemetry and backend are resources, not identity: the
    engines produce bit-identical results for any worker count,
    telemetry bundle and engine backend.  So ``workers`` is set to 1
    and the other two are dropped.  Both
    :meth:`Scenario.spec_hash` and ``CampaignSpec.spec_hash`` hash
    through this.
    """
    execution["workers"] = 1
    for key in ("telemetry", "backend"):
        execution.pop(key, None)


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection for a fleet scenario.

    ``kind`` names a ``faults`` registry generator:

    * ``none`` — no faults; canonicalized away (the spec compares and
      serializes identically to leaving ``faults`` out entirely);
    * ``scheduled`` — explicit ``events`` list of
      ``[cycle, device, "down"|"up"]`` triples;
    * ``mtbf`` — seeded exponential churn: per-device outages drawn
      from ``mtbf``/``mttr`` means over ``horizon`` cycles;
    * ``transient`` — no outages, only group-level transient failures.

    ``fail_prob`` additionally arms transient group failures (a failed
    attempt burns its full duration, then its members requeue) under
    every kind; ``max_retries`` bounds attempts per application.  All
    randomness derives from ``seed``, so one spec reproduces
    bit-identical fault streams.
    """

    kind: str = "none"
    #: ``(cycle, device, "down"|"up")`` triples for ``kind="scheduled"``.
    events: Tuple[Tuple[int, int, str], ...] = ()
    #: mean cycles between failures per device (``kind="mtbf"``).
    mtbf: float = 500_000.0
    #: mean repair time in cycles (``kind="mtbf"``).
    mttr: float = 100_000.0
    #: cycle horizon for generated churn (``kind="mtbf"``).
    horizon: int = 2_000_000
    #: probability a launched group fails transiently.
    fail_prob: float = 0.0
    #: attempts per application before a transient failure is final.
    max_retries: int = 2
    #: seed for churn and transient-failure randomness.
    seed: int = 0

    def __post_init__(self):
        _check_registry("faults", self.kind)
        object.__setattr__(self, "events",
                           tuple(tuple(e) for e in self.events))
        if self.kind == "scheduled":
            _require(bool(self.events),
                     "faults kind 'scheduled' needs at least one "
                     "[cycle, device, 'down'|'up'] event")
        else:
            _require(not self.events,
                     f"fault events are only valid with kind='scheduled', "
                     f"not {self.kind!r}")
        if self.kind == "transient":
            _require(0.0 < self.fail_prob <= 1.0,
                     f"faults kind 'transient' needs fail_prob in (0, 1], "
                     f"got {self.fail_prob!r}")
        _require(0.0 <= self.fail_prob <= 1.0,
                 f"fail_prob must be in [0, 1], got {self.fail_prob!r}")
        _require(self.mtbf > 0, f"mtbf must be > 0, got {self.mtbf!r}")
        _require(self.mttr > 0, f"mttr must be > 0, got {self.mttr!r}")
        _require(isinstance(self.horizon, int) and self.horizon >= 1,
                 f"horizon must be a positive integer, got "
                 f"{self.horizon!r}")
        _require(isinstance(self.max_retries, int) and self.max_retries >= 0,
                 f"max_retries must be a non-negative integer, got "
                 f"{self.max_retries!r}")
        _require(isinstance(self.seed, int) and self.seed >= 0,
                 f"seed must be a non-negative integer, got {self.seed!r}")

    def params(self) -> Dict[str, Any]:
        """Keyword arguments for the ``faults`` registry factory."""
        data = dataclasses.asdict(self)
        del data["kind"]
        return data

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["events"] = [list(e) for e in self.events]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return _decode(cls, data, "faults")


@dataclass(frozen=True)
class AdmissionSpec:
    """Admission control for a fleet scenario.

    ``kind`` names an ``admission`` registry policy: ``none``
    (canonicalized away, like :class:`FaultSpec`), ``queue-cap``
    (reject or defer arrivals while fleet-wide waiting depth is at
    ``queue_cap``), or ``deadline`` (reject arrivals whose optimistic
    completion bound already misses ``deadline_cycles``).
    """

    kind: str = "none"
    #: fleet-wide waiting-apps cap for ``kind="queue-cap"``.
    queue_cap: int = 8
    #: what happens at the cap: ``reject`` or ``defer``.
    mode: str = "reject"
    #: cycles between re-offers of a deferred arrival.
    defer_gap: int = 5_000
    #: re-offers before a deferred arrival is finally rejected.
    max_defers: int = 3
    #: turnaround budget in cycles for ``kind="deadline"``.
    deadline_cycles: int = 50_000

    def __post_init__(self):
        _check_registry("admission", self.kind)
        _require(isinstance(self.queue_cap, int) and self.queue_cap >= 1,
                 f"queue_cap must be a positive integer, got "
                 f"{self.queue_cap!r}")
        _require(self.mode in ("reject", "defer"),
                 f"admission mode must be 'reject' or 'defer', got "
                 f"{self.mode!r}")
        _require(isinstance(self.defer_gap, int) and self.defer_gap >= 1,
                 f"defer_gap must be a positive integer, got "
                 f"{self.defer_gap!r}")
        _require(isinstance(self.max_defers, int) and self.max_defers >= 0,
                 f"max_defers must be a non-negative integer, got "
                 f"{self.max_defers!r}")
        _require(isinstance(self.deadline_cycles, int)
                 and self.deadline_cycles >= 1,
                 f"deadline_cycles must be a positive integer, got "
                 f"{self.deadline_cycles!r}")

    def params(self) -> Dict[str, Any]:
        """Keyword arguments for the ``admission`` registry factory."""
        data = dataclasses.asdict(self)
        del data["kind"]
        return data

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdmissionSpec":
        return _decode(cls, data, "admission")


@dataclass(frozen=True)
class Scenario:
    """One declarative run: kind + workload + policy (+ placement).

    ``kind`` selects the engine — ``queue`` (batch drain), ``stream``
    (one device, online arrivals), ``fleet`` (N devices + placement).
    Fleet scenarios optionally carry ``faults`` (deterministic fault
    injection) and ``admission`` (admission control); a ``kind="none"``
    spec in either slot canonicalizes to ``None``, so a fault-free
    scenario serializes byte-identically whether the spec was given or
    not.
    """

    kind: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    placement: Optional[PlacementSpec] = None
    devices: DeviceSpec = field(default_factory=DeviceSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    faults: Optional[FaultSpec] = None
    admission: Optional[AdmissionSpec] = None
    #: free-form label, carried into results and sweep file names.
    name: str = ""

    def __post_init__(self):
        _require(self.kind in KINDS,
                 f"unknown scenario kind {self.kind!r}; expected one of "
                 f"{list(KINDS)}")
        _check_registry(self._policy_kind(), self.policy.name)
        if self.kind == "queue":
            _require(self.workload.arrival == "batch",
                     "queue scenarios drain a batch; set workload.arrival "
                     "to 'batch' (or use kind='stream')")
            _require(self.workload.source != "trace",
                     "queue scenarios have no arrival timeline; replay "
                     "traces with kind='stream'")
            _require(self.workload.slice is None,
                     "workload slices split an arrival timeline; queue "
                     "scenarios have none (use kind='stream')")
        if self.faults is not None and self.faults.kind == "none":
            # Canonical form: a no-op FaultSpec IS the absent-spec path.
            object.__setattr__(self, "faults", None)
        if self.admission is not None and self.admission.kind == "none":
            object.__setattr__(self, "admission", None)
        if self.kind == "fleet":
            if self.placement is None:
                object.__setattr__(self, "placement", PlacementSpec())
            if self.faults is not None:
                # Building the plan validates device ranges and the
                # all-DOWN-at-cycle-0 degenerate case at load time.
                REGISTRY.create("faults", self.faults.kind,
                                self.devices.count, **self.faults.params())
        else:
            _require(self.placement is None,
                     f"placement is only valid for fleet scenarios, not "
                     f"kind={self.kind!r}")
            _require(self.devices.count == 1,
                     f"{self.kind} scenarios run one device; use "
                     f"kind='fleet' for {self.devices.count}")
            _require(self.faults is None,
                     f"fault injection is only valid for fleet scenarios, "
                     f"not kind={self.kind!r}")
            _require(self.admission is None,
                     f"admission control is only valid for fleet "
                     f"scenarios, not kind={self.kind!r}")
        _require(isinstance(self.name, str),
                 f"name must be a string, got {self.name!r}")

    def _policy_kind(self) -> str:
        """The registry kind ``policy.name`` resolves in."""
        return "policies" if self.kind == "queue" else "online-policies"

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data encoding; ``from_dict`` inverts it losslessly."""
        data: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "devices": self.devices.to_dict(),
            "execution": self.execution.to_dict(),
        }
        if self.placement is not None:
            data["placement"] = self.placement.to_dict()
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        if self.admission is not None:
            data["admission"] = self.admission.to_dict()
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Strict decode: unknown keys / versions are :class:`ValueError`."""
        if not isinstance(data, Mapping):
            raise ValueError(f"scenario must be an object, got "
                             f"{type(data).__name__}")
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario schema_version {version!r}; this "
                f"build reads version {SCHEMA_VERSION}")
        known = {"kind", "workload", "policy", "placement", "devices",
                 "execution", "faults", "admission", "name"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"scenario has unknown key(s): "
                             f"{', '.join(unknown)} (known: "
                             f"{', '.join(sorted(known))})")
        if "kind" not in data:
            raise ValueError("scenario is missing the required 'kind' key")
        placement = data.get("placement")
        faults = data.get("faults")
        admission = data.get("admission")
        return cls(
            kind=data["kind"],
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            policy=PolicySpec.from_dict(data.get("policy", {})),
            placement=(PlacementSpec.from_dict(placement)
                       if placement is not None else None),
            devices=DeviceSpec.from_dict(data.get("devices", {})),
            execution=ExecutionSpec.from_dict(data.get("execution", {})),
            faults=(FaultSpec.from_dict(faults)
                    if faults is not None else None),
            admission=(AdmissionSpec.from_dict(admission)
                       if admission is not None else None),
            name=data.get("name", ""),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- identity ----------------------------------------------------------

    def spec_hash(self) -> str:
        """sha256 identity of the *experiment* this scenario describes.

        The execution block is normalized by :func:`normalize_execution`
        before hashing, so a serial run and a ``--workers 4
        --backend vector --trace out.jsonl`` run of
        the same scenario share one hash (and their result JSONs compare
        byte-equal).
        """
        data = self.to_dict()
        normalize_execution(data["execution"])
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()
