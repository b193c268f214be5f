"""The declarative Scenario/Experiment API: one entry point for runs.

Three pieces (see ``docs/api.md``):

* **registry** (:mod:`.registry`) — the single pluggable kind → name →
  factory table behind every policy / placement / stream / benchmark /
  config lookup, with decorator-based extension;
* **scenario** (:mod:`.scenario`) — the :class:`Scenario` dataclass
  tree (workload, policy, placement, devices, execution) with strict
  validation and a lossless JSON round-trip;
* **runner** (:mod:`.runner`) — :func:`run_scenario` dispatches a
  scenario to the queue / stream / fleet engine and normalizes the
  outcome into one serializable :class:`RunResult` (headline metrics,
  per-app records, per-device breakdown, provenance block);
  :mod:`.sweep` expands a base scenario × parameter grid into points.

The CLI front ends are ``python -m repro run <scenario.json>`` and
``python -m repro sweep <sweep.json>``; the classic ``run-queue`` /
``run-stream`` / ``run-fleet`` subcommands are thin wrappers over the
same path.
"""

from .registry import BUILTIN_KINDS, REGISTRY, Registry, RegistryError
from .runner import RunResult, build_arrivals, build_queue, run_scenario
from .scenario import (KINDS, SCHEMA_VERSION, SOURCES, AdmissionSpec,
                       DeviceSpec, ExecutionSpec, FaultSpec, PlacementSpec,
                       PolicySpec, Scenario, TelemetrySpec, WorkloadSpec)
from .sweep import expand_grid, load_sweep, point_filename

#: Campaign-layer specs re-exported through the Scenario API.  Lazy
#: (module __getattr__): repro.campaign imports the submodules above,
#: so an eager import here would be circular whichever side loads
#: first.
_CAMPAIGN_EXPORTS = ("CampaignSpec", "ShardSpec")


def __getattr__(name):
    if name in _CAMPAIGN_EXPORTS:
        import repro.campaign
        return getattr(repro.campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute "
                         f"{name!r}")


__all__ = [
    "REGISTRY", "Registry", "RegistryError", "BUILTIN_KINDS",
    "Scenario", "WorkloadSpec", "PolicySpec", "PlacementSpec",
    "DeviceSpec", "ExecutionSpec", "FaultSpec", "AdmissionSpec",
    "TelemetrySpec", "KINDS", "SOURCES",
    "SCHEMA_VERSION",
    "RunResult", "run_scenario", "build_queue", "build_arrivals",
    "expand_grid", "load_sweep", "point_filename",
    "CampaignSpec", "ShardSpec",
]
