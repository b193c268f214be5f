"""The :class:`CampaignSpec` tree: one serializable campaign description.

A campaign is a base :class:`~repro.api.scenario.Scenario` × parameter
grid (the sweep model) plus a **shard strategy** that cuts the work
into independently runnable units, and a **resume policy** that decides
how committed shards are trusted on restart.  The spec follows every
Scenario API rule: strict ``__post_init__`` validation, unknown-key
rejection in ``from_dict``, a lossless JSON round-trip, and a
:meth:`CampaignSpec.spec_hash` normalized exactly like
``Scenario.spec_hash`` (the base's worker count, telemetry block and
backend never change what a campaign computes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence

from repro.api.registry import REGISTRY
from repro.api.scenario import SCHEMA_VERSION, Scenario, normalize_execution

#: How a restarted campaign treats shards the manifest marks done:
#: ``verify`` re-hashes every committed shard file against the
#: manifest's result hash (and the planned spec hash) before skipping
#: it; ``trust`` skips on manifest status + file presence alone.
RESUME_POLICIES = ("verify", "trust")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class ShardSpec:
    """How a campaign's work is cut into shards.

    ``strategy`` names a ``shard-strategies`` registry entry:

    * ``by-point`` — one unit per grid point; shards are chunks of at
      most ``max_shard_size`` consecutive points.
    * ``by-trace-slice`` — each grid point's arrival stream is split
      into contiguous slices of about ``slice_apps`` arrivals (see
      :func:`repro.workloads.slice_arrivals`); every slice is a unit,
      chunked into shards the same way.

    ``max_shard_size`` bounds the units per shard — the granularity of
    checkpointing and of the multi-process fan-out.
    """

    strategy: str = "by-point"
    #: units (points or slices) per shard.
    max_shard_size: int = 1
    #: target arrivals per slice for ``strategy="by-trace-slice"``.
    slice_apps: int = 0

    def __post_init__(self):
        # Delegate to the registry for the did-you-mean error.
        REGISTRY.get("shard-strategies", self.strategy)
        _require(isinstance(self.max_shard_size, int)
                 and not isinstance(self.max_shard_size, bool)
                 and self.max_shard_size >= 1,
                 f"max_shard_size must be a positive integer, got "
                 f"{self.max_shard_size!r}")
        _require(isinstance(self.slice_apps, int)
                 and not isinstance(self.slice_apps, bool)
                 and self.slice_apps >= 0,
                 f"slice_apps must be a non-negative integer, got "
                 f"{self.slice_apps!r}")
        if self.strategy == "by-trace-slice":
            _require(self.slice_apps >= 1,
                     "shard strategy 'by-trace-slice' needs slice_apps "
                     ">= 1 (the target arrivals per slice)")
        else:
            _require(self.slice_apps == 0,
                     f"slice_apps is only valid with "
                     f"strategy='by-trace-slice', not "
                     f"{self.strategy!r}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"shard must be an object, got "
                             f"{type(data).__name__}")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(f"shard has unknown key(s): "
                             f"{', '.join(unknown)} (known: "
                             f"{', '.join(sorted(fields))})")
        return cls(**data)


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: base scenario × grid, sharded."""

    base: Scenario
    #: dotted-path grid, exactly the sweep format (may be empty).
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    shard: ShardSpec = field(default_factory=ShardSpec)
    #: committed-shard acceptance on restart (see RESUME_POLICIES).
    resume: str = "verify"
    #: free-form label, carried into the manifest and result.
    name: str = ""

    def __post_init__(self):
        if isinstance(self.base, Mapping):
            object.__setattr__(self, "base",
                               Scenario.from_dict(self.base))
        _require(isinstance(self.base, Scenario),
                 f"base must be a scenario object, got {self.base!r}")
        if isinstance(self.shard, Mapping):
            object.__setattr__(self, "shard",
                               ShardSpec.from_dict(self.shard))
        _require(isinstance(self.shard, ShardSpec),
                 f"shard must be a shard spec object, got "
                 f"{self.shard!r}")
        _require(isinstance(self.grid, Mapping),
                 f"grid must be an object mapping dotted paths to value "
                 f"lists, got {type(self.grid).__name__}")
        for path, values in self.grid.items():
            _require(isinstance(path, str) and bool(path),
                     f"grid keys must be non-empty dotted paths, got "
                     f"{path!r}")
            _require(isinstance(values, Sequence)
                     and not isinstance(values, str) and len(values) > 0,
                     f"grid values for {path!r} must be a non-empty "
                     f"list, got {values!r}")
        object.__setattr__(self, "grid",
                           {path: list(self.grid[path])
                            for path in self.grid})
        _require(self.resume in RESUME_POLICIES,
                 f"unknown resume policy {self.resume!r}; expected one "
                 f"of {list(RESUME_POLICIES)}")
        _require(isinstance(self.name, str),
                 f"name must be a string, got {self.name!r}")
        if self.shard.strategy == "by-trace-slice":
            _require(self.base.kind in ("stream", "fleet"),
                     "shard strategy 'by-trace-slice' splits an arrival "
                     "timeline; queue scenarios have none")
        _require(self.base.workload.slice is None,
                 "the campaign base scenario must be unsliced — the "
                 "shard planner assigns workload.slice itself")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "grid": {path: list(values)
                     for path, values in self.grid.items()},
            "shard": self.shard.to_dict(),
            "resume": self.resume,
        }
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"campaign must be an object, got "
                             f"{type(data).__name__}")
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported campaign schema_version {version!r}; this "
                f"build reads version {SCHEMA_VERSION}")
        known = {"base", "grid", "shard", "resume", "name"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"campaign has unknown key(s): "
                             f"{', '.join(unknown)} (known: "
                             f"{', '.join(sorted(known))})")
        if "base" not in data:
            raise ValueError("campaign is missing the required 'base' "
                             "scenario")
        return cls(
            base=Scenario.from_dict(data["base"]),
            grid=data.get("grid", {}),
            shard=ShardSpec.from_dict(data.get("shard", {})),
            resume=data.get("resume", "verify"),
            name=data.get("name", ""),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"campaign is not valid JSON: {exc}") \
                from None
        return cls.from_dict(data)

    # -- identity ----------------------------------------------------------

    def spec_hash(self) -> str:
        """sha256 identity of the campaign's *experiment*.

        The base scenario's execution block is normalized the way
        :meth:`Scenario.spec_hash` normalizes its own (see
        :func:`~repro.api.scenario.normalize_execution`), so a
        ``--shard-workers 8`` rerun of a campaign, or one whose base
        selects the vector backend, shares the hash (and the manifest)
        of the serial event-engine one.
        """
        data = self.to_dict()
        normalize_execution(data["base"]["execution"])
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()
