"""The benchmark's workloads: inputs made from the seed, and the
canonical result bytes every run is checked against.

Every workload is a closed loop with one caller: one process runs the
workload's scenarios (or its campaign) back to back with the serial
executor.  The inputs are generated here from ``--seed`` and handed to
the program as plain scenario / campaign dicts and trace files; the
program receives nothing else from the benchmark.

Arrival traces hold a fixed multiset of the 14 Rodinia kernels.  The
seed shuffles their order, permutes the inter-arrival gaps (stratified
exponential quantiles, so the arrival span is the same for every seed)
and seeds the fault schedule.  Every seed therefore asks for the same
amount of simulated work, which keeps the host timings comparable
across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
from typing import Any, Dict, List, Sequence

#: The seed whose reference fingerprints are recorded in
#: ``reference.json``.
DEFAULT_SEED = 1

#: The workloads; README.md says why each is in the benchmark.
WORKLOADS = ("fleet_vector", "paper_ilp_cold", "campaign_streams")

#: Workloads whose profile cache is empty at the start of every process.
COLD = frozenset({"paper_ilp_cold"})

FLEET_COPIES = 4          # 4 x 14 Rodinia kernels = 56 apps
FLEET_MEAN_GAP = 3000.0
CAMPAIGN_TRACES = 6       # 6 traces x 7 apps = 3 x 14 Rodinia kernels
CAMPAIGN_APPS = 7
CAMPAIGN_MEAN_GAP = 5000.0
CAMPAIGN_POLICIES = ("fcfs", "backfill", "ilp")
PAPER_POLICIES = ("ilp-smra", "ilp")


def balanced_trace(names: Sequence[str], rng: random.Random,
                   mean_gap: float) -> List[str]:
    """``<cycle> <benchmark>`` lines for `names` in a shuffled order.

    The gaps are the exponential distribution's quantiles at
    ``(i + 0.5) / n``, shuffled, so every shuffle spans the same
    number of cycles.
    """
    order = list(names)
    rng.shuffle(order)
    n = len(order)
    gaps = [-mean_gap * math.log(1.0 - (i + 0.5) / n) for i in range(n)]
    rng.shuffle(gaps)
    lines = []
    cycle = 0.0
    for name, gap in zip(order, gaps):
        lines.append(f"{int(cycle)} {name}")
        cycle += gap
    return lines


def _write_trace(path: pathlib.Path, lines: List[str]) -> str:
    path.write_text("\n".join(lines) + "\n")
    return path.as_posix()


def make_inputs(workload: str, seed: int, rodinia: Sequence[str],
                input_dir: pathlib.Path) -> Dict[str, Any]:
    """The workload's inputs for `seed`, with trace files written under
    `input_dir` (a path relative to the checkout, so it is the same
    string in every run's result)."""
    input_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    kernels = sorted(rodinia)
    if workload == "fleet_vector":
        trace = _write_trace(input_dir / "fleet.trace", balanced_trace(
            kernels * FLEET_COPIES, rng, FLEET_MEAN_GAP))
        return {"scenarios": [{
            "schema_version": 1, "kind": "fleet",
            "name": "perfbench-fleet",
            "workload": {"source": "trace", "trace": trace, "scale": 0.3,
                         "seed": seed},
            "policy": {"name": "fcfs", "nc": 2},
            "placement": {"name": "least-loaded"},
            "devices": {"count": 4, "config": "gtx480"},
            "faults": {"kind": "mtbf", "mtbf": 400000.0, "mttr": 10000.0,
                       "horizon": 400000, "seed": seed},
            "admission": {"kind": "queue-cap", "queue_cap": 8,
                          "mode": "defer"},
            "execution": {"workers": 1},
        }]}
    if workload == "paper_ilp_cold":
        # The paper queue is fixed; the seed only labels the runs.
        return {"scenarios": [{
            "schema_version": 1, "kind": "queue",
            "name": f"perfbench-paper-{policy}",
            "workload": {"source": "paper", "seed": seed},
            "policy": {"name": policy, "nc": 2},
            "execution": {"workers": 1, "samples_per_pair": 2},
        } for policy in PAPER_POLICIES]}
    if workload == "campaign_streams":
        pool = kernels * (CAMPAIGN_TRACES * CAMPAIGN_APPS // len(kernels))
        rng.shuffle(pool)
        traces = [
            _write_trace(input_dir / f"unit{i}.trace", balanced_trace(
                pool[i * CAMPAIGN_APPS:(i + 1) * CAMPAIGN_APPS], rng,
                CAMPAIGN_MEAN_GAP))
            for i in range(CAMPAIGN_TRACES)]
        return {"campaign": {
            "schema_version": 1, "name": "perfbench-campaign",
            "base": {
                "schema_version": 1, "kind": "stream",
                "name": "perfbench-campaign-unit",
                "workload": {"source": "trace", "trace": traces[0],
                             "scale": 0.15, "seed": seed},
                "policy": {"name": "fcfs", "nc": 2},
                "execution": {"workers": 1},
            },
            "grid": {"workload.trace": traces,
                     "policy.name": list(CAMPAIGN_POLICIES)},
            "shard": {"strategy": "by-point", "max_shard_size": 1},
            "resume": "verify",
        }}
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{list(WORKLOADS)}")


def with_backend(inputs: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """A copy of `inputs` whose scenarios run on `backend`."""
    inputs = json.loads(json.dumps(inputs))
    specs = ([inputs["campaign"]["base"]] if "campaign" in inputs
             else inputs["scenarios"])
    for spec in specs:
        spec["execution"]["backend"] = backend
    return inputs


# -- canonical result bytes ---------------------------------------------------


def _dump(data: Any) -> bytes:
    # The encoding RunResult.to_json and CampaignResult.to_json use.
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()


def canonical_run(text: str) -> bytes:
    """``RunResult.to_json()`` text with ``provenance.backend`` dropped."""
    data = json.loads(text)
    data["provenance"].pop("backend", None)
    return _dump(data)


def canonical_campaign(text: str) -> bytes:
    """``campaign_result.json`` text without what depends on the
    backend: the base scenario's ``execution.backend``, the campaign
    hash (``CampaignSpec.spec_hash`` keeps the backend) and the
    shard-file hashes (each shard file is checked on its own through
    :func:`canonical_run`)."""
    data = json.loads(text)
    data["campaign"]["base"]["execution"].pop("backend", None)
    data["provenance"].pop("campaign_hash", None)
    for row in data["per_shard"] + data["provenance"]["shards"]:
        row.pop("result_hash", None)
    return _dump(data)


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatches(expected: Sequence[str], actual: Sequence[str]) -> int:
    """Operations whose fingerprint differs from the reference (a
    missing or extra operation counts as a mismatch)."""
    count = sum(1 for e, a in zip(expected, actual) if e != a)
    return count + abs(len(expected) - len(actual))
