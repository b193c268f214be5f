"""The campaign merge: committed shard files → one ``CampaignResult``.

The merge is a **deterministic shard-ordered fold**: shard files are
read in shard-index order, one at a time, and their per-application
records are pushed through the O(1)-state estimators of
:mod:`repro.analysis.incremental`.  Nothing depends on *how* the
shards were produced — serial or pooled, fresh or resumed — only on
the committed bytes and the fold order, which is why a killed-and-
resumed campaign merges to output byte-identical to an uninterrupted
run's.

Memory is bounded by the largest single shard (one shard file is
parsed at a time) plus the constant estimator state; the merge never
holds the campaign's full record set.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Union

from repro import __version__
from repro.analysis.incremental import StreamAccumulator
from repro.api.scenario import SCHEMA_VERSION

from .manifest import MANIFEST_SCHEMA_VERSION, result_hash
from .plan import CampaignPlan

#: Unit metric keys summed across a campaign when present (the fleet
#: fault/admission scorecard).
_SUMMED_METRICS = ("arrivals", "served", "rejected")


class MergeError(ValueError):
    """A shard file is missing, torn, or contradicts the manifest."""


@dataclass(frozen=True)
class CampaignResult:
    """One campaign's merged outcome (plain data, canonical JSON)."""

    campaign: Dict[str, Any]
    metrics: Dict[str, Any]
    per_shard: List[Dict[str, Any]]
    provenance: Dict[str, Any]
    name: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": "campaign",
            "campaign": self.campaign,
            "metrics": self.metrics,
            "per_shard": self.per_shard,
            "provenance": self.provenance,
        }
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self, indent: int = 2) -> str:
        """Canonical encoding: byte-identical across equal results."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          indent=indent) + "\n"


def _normalized_campaign(plan: CampaignPlan) -> Dict[str, Any]:
    """The campaign spec as embedded in results (base workers
    normalized to 1, telemetry dropped)."""
    data = plan.spec.to_dict()
    data["base"]["execution"]["workers"] = 1
    data["base"]["execution"].pop("telemetry", None)
    return data


def _unit_results(shard_data: Mapping[str, Any],
                  context: str) -> List[Mapping[str, Any]]:
    """The unit ``RunResult`` dicts inside one shard file."""
    if "results" in shard_data:
        results = shard_data["results"]
        if not isinstance(results, list):
            raise MergeError(f"{context}: shard 'results' must be a "
                             f"list")
        return results
    return [shard_data]


def merge_campaign(plan: CampaignPlan,
                   out_dir: Union[str, pathlib.Path],
                   manifest: Mapping[str, Any]) -> CampaignResult:
    """Fold every committed shard of `plan` into a CampaignResult.

    `manifest` must be the final manifest: every shard row ``done``
    with a ``result_hash``.  Each file is re-hashed and checked against
    both the manifest row and the planned ``spec_hash`` before its
    records enter the fold — the merge contract.
    """
    out_dir = pathlib.Path(out_dir)
    rows = {row["index"]: row for row in manifest["shards"]}
    acc = StreamAccumulator()
    per_shard: List[Dict[str, Any]] = []
    shard_provenance: List[Dict[str, Any]] = []
    summed: Dict[str, int] = {}
    engine_versions = set()
    makespan_max = 0
    total_units = 0
    for shard in plan.shards:
        row = rows.get(shard.index)
        if row is None or row.get("status") != "done":
            raise MergeError(f"shard {shard.index} is not committed; "
                             f"cannot merge an incomplete campaign")
        if row.get("spec_hash") != shard.spec_hash:
            raise MergeError(
                f"shard {shard.index} manifest spec_hash "
                f"{row.get('spec_hash')!r} does not match the plan's "
                f"{shard.spec_hash!r}")
        path = out_dir / row["file"]
        if not path.exists():
            raise MergeError(f"shard {shard.index} result file "
                             f"{row['file']!r} is missing")
        raw = path.read_bytes()
        digest = result_hash(raw)
        if row.get("result_hash") not in (None, digest):
            raise MergeError(
                f"shard {shard.index} result file {row['file']!r} "
                f"hash {digest} does not match the manifest's "
                f"{row['result_hash']}")
        shard_data = json.loads(raw)
        shard_apps = 0
        for unit in _unit_results(shard_data,
                                  f"shard {shard.index}"):
            prov = unit.get("provenance", {})
            if "engine_version" in prov:
                engine_versions.add(prov["engine_version"])
            metrics = unit.get("metrics", {})
            makespan_max = max(makespan_max,
                               metrics.get("makespan", 0))
            for key in _SUMMED_METRICS:
                if key in metrics:
                    summed[key] = summed.get(key, 0) + metrics[key]
            for app in unit.get("apps", []):
                shard_apps += 1
                if "solo_cycles" in app:
                    acc.push_app(app)
            total_units += 1
        per_shard.append({
            "index": shard.index,
            "file": row["file"],
            "spec_hash": shard.spec_hash,
            "result_hash": digest,
            "units": len(shard.units),
            "apps": shard_apps,
        })
        shard_provenance.append({
            "index": shard.index,
            "spec_hash": shard.spec_hash,
            "result_hash": digest,
            "file": row["file"],
        })
    if len(engine_versions) > 1:
        raise MergeError(
            f"shards were produced by different engine versions: "
            f"{sorted(engine_versions)} — rerun the stale shards")
    metrics: Dict[str, Any] = {
        "shards": len(plan.shards),
        "units": total_units,
        "makespan_max": makespan_max,
    }
    metrics.update(acc.metrics())
    for key in _SUMMED_METRICS:
        if key in summed:
            metrics[key] = summed[key]
    provenance: Dict[str, Any] = {
        "engine_version": (sorted(engine_versions)[0]
                           if engine_versions else None),
        "schema_version": SCHEMA_VERSION,
        "manifest_schema_version": MANIFEST_SCHEMA_VERSION,
        "repro_version": __version__,
        "campaign_hash": plan.campaign_hash,
        "shards": shard_provenance,
    }
    return CampaignResult(
        campaign=_normalized_campaign(plan),
        metrics=metrics,
        per_shard=per_shard,
        provenance=provenance,
        name=plan.spec.name,
    )
