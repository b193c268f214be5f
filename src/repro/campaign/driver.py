"""The campaign driver: plan → fan out shards → commit → merge.

One call, :func:`run_campaign`, drives a :class:`CampaignSpec` end to
end against an output directory:

1. **Plan** — :func:`~.plan.plan_campaign` (pure, deterministic).
2. **Resume** — with ``resume=True``, committed shards whose manifest
   row, planned ``spec_hash``, and (under the ``verify`` policy) file
   sha256 all agree are skipped; everything else reruns.
3. **Run** — pending shards fan out through the PR-2 executor pool
   (:func:`repro.runtime.make_executor`); each worker runs its shard's
   unit scenarios with a serial executor (shard-level parallelism
   replaces run-level parallelism, so pools never nest).  Every
   finished shard is committed atomically — result file first, then
   the manifest row — so a kill at any instant loses at most the
   in-flight shards.
4. **Merge** — when every shard is committed, the shard-ordered fold
   of :func:`~.result.merge_campaign` writes ``campaign_result.json``.

Campaign-level counters (shards planned / skipped / run, units, apps)
land in a :class:`~repro.obs.MetricsRegistry` and wall-clock phase
timings in a :class:`~repro.obs.PhaseProfiler`; both are written to
``campaign_counters.json`` as a **side channel** — exactly like
``RunResult.telemetry`` — so the merged result stays byte-identical
between fresh, resumed, serial, and pooled invocations.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.api.runner import RunResult, run_scenario
from repro.api.scenario import Scenario
from repro.obs import MetricsRegistry, PhaseProfiler

from .manifest import (MANIFEST_NAME, RESULT_NAME, STATUS_DONE,
                       atomic_write, committed_shards, load_manifest,
                       manifest_dict, result_hash, write_manifest)
from .plan import plan_campaign
from .result import CampaignResult, merge_campaign
from .spec import CampaignSpec

#: Side-channel file with campaign counters and phase timings (never
#: part of the merged result).
COUNTERS_NAME = "campaign_counters.json"


def shard_job(scenario_dicts: List[Dict[str, Any]]) -> str:
    """Run one shard's unit scenarios; return the shard file text.

    Module-level and dict-in/str-out so the process pool can pickle
    it.  Units run with ``workers=1`` (a serial executor) — the
    campaign parallelizes across shards, never inside them — and the
    returned text is canonical: a single-unit shard file is exactly
    the ``RunResult.to_json()`` bytes ``repro run`` would write for
    that scenario, a multi-unit file wraps the unit results in a
    ``results`` list.
    """
    from repro.runtime import SerialExecutor
    results: List[RunResult] = []
    for data in scenario_dicts:
        scenario = Scenario.from_dict(data)
        results.append(run_scenario(scenario,
                                    executor=SerialExecutor()))
    if len(results) == 1:
        return results[0].to_json()
    return json.dumps({
        "schema_version": 1,
        "kind": "campaign-shard",
        "results": [r.to_dict() for r in results],
    }, sort_keys=True, indent=2) + "\n"


@dataclass
class CampaignOutcome:
    """What one :func:`run_campaign` invocation did."""

    complete: bool
    shards_total: int
    shards_skipped: int
    shards_run: int
    manifest_path: pathlib.Path
    result_path: Optional[pathlib.Path]
    result: Optional[CampaignResult]
    counters: Dict[str, Any] = field(default_factory=dict)


def run_campaign(spec: CampaignSpec,
                 out_dir: Union[str, pathlib.Path],
                 resume: bool = False,
                 shard_workers: int = 1,
                 max_shards: Optional[int] = None,
                 progress=None) -> CampaignOutcome:
    """Drive `spec` to a merged result under `out_dir`.

    `resume` skips shards already committed there (per the spec's
    resume policy); `shard_workers` sizes the shard process pool;
    `max_shards` bounds how many pending shards this invocation
    commits (the deterministic kill switch the CI interruption test
    uses) — when it stops the campaign early, no merge happens and
    the outcome reports ``complete=False``.  `progress` is an optional
    ``callable(str)`` the driver narrates commits through (the CLI
    passes ``print``).
    """
    from repro.runtime import make_executor
    if max_shards is not None and max_shards < 1:
        raise ValueError(f"max_shards must be >= 1, got {max_shards!r}")
    say = progress or (lambda _message: None)
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    profiler = PhaseProfiler()

    with profiler.phase("plan"):
        plan = plan_campaign(spec)
        existing = load_manifest(out_dir) if resume else None
        statuses = committed_shards(out_dir, plan, existing,
                                    spec.resume)
        manifest_path = write_manifest(out_dir,
                                       manifest_dict(plan, statuses))
    skipped = len(statuses)
    say(f"planned {len(plan.shards)} shard(s) / {plan.total_units} "
        f"unit(s)" + (f", {skipped} already committed" if skipped
                      else ""))
    registry.counter("campaign.shards.planned").inc(len(plan.shards))
    registry.counter("campaign.shards.skipped").inc(skipped)
    registry.counter("campaign.units.planned").inc(plan.total_units)

    pending = [s for s in plan.shards if s.index not in statuses]
    budget = len(pending) if max_shards is None else min(max_shards,
                                                         len(pending))
    to_run = pending[:budget]
    with profiler.phase("run"):
        executor = make_executor(shard_workers)
        try:
            futures = [
                (shard,
                 executor.submit_job(
                     shard_job,
                     [u.scenario.to_dict() for u in shard.units]))
                for shard in to_run]
            for shard, future in futures:
                text = future.result()
                # Commit order: result bytes first, manifest row
                # second — a kill between the two leaves a file the
                # next resume re-verifies by content hash.
                atomic_write(out_dir / shard.filename, text)
                statuses[shard.index] = {
                    "status": STATUS_DONE,
                    "result_hash": result_hash(text),
                }
                write_manifest(out_dir, manifest_dict(plan, statuses))
                registry.counter("campaign.shards.run").inc()
                registry.counter("campaign.units.run").inc(
                    len(shard.units))
                say(f"[{len(statuses)}/{len(plan.shards)}] committed "
                    f"{shard.filename}")
        finally:
            executor.close()

    complete = len(statuses) == len(plan.shards)
    result = None
    result_path = None
    if complete:
        with profiler.phase("merge"):
            manifest_data = manifest_dict(plan, statuses)
            result = merge_campaign(plan, out_dir, manifest_data)
            result_path = out_dir / RESULT_NAME
            atomic_write(result_path, result.to_json())
        registry.counter("campaign.apps.merged").inc(
            result.metrics["apps"])

    counters = {
        "metrics": registry.to_dict(),
        "phases": profiler.to_dict(),
    }
    atomic_write(out_dir / COUNTERS_NAME,
                 json.dumps(counters, sort_keys=True, indent=2) + "\n")
    return CampaignOutcome(
        complete=complete,
        shards_total=len(plan.shards),
        shards_skipped=skipped,
        shards_run=len(to_run),
        manifest_path=manifest_path,
        result_path=result_path,
        result=result,
        counters=counters,
    )
