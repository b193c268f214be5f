"""One benchmark process: set up, run one workload, verify, report.

Run from the checkout root with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.worker REQUEST.json

``REQUEST.json`` (written by ``run.py``) holds the workload's inputs,
the engine backend, the reference fingerprints to check against (none
for a reference run), the campaign output directory and whether to
trace.  The process prints one JSON report as its last stdout line.

Timestamps are ``time.perf_counter()`` values, a system-wide monotonic
clock on Linux, so the parent can measure set-up from the moment it
started this process.  The process is "ready" when the first
``make_context`` call returns: imports, spec parsing, the native core
load and the first policy context (solo profiles, interference matrix)
are done.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

from perfbench import spans
from perfbench.workloads import (canonical_campaign, canonical_run,
                                 fingerprint, mismatches)


def _cpu_rss():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux.
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


class _Ready:
    """Marks the end of set-up: the first ``make_context`` return."""

    def __init__(self):
        self.time = None
        self.cpu = None
        self.context = None

    def install(self) -> None:
        import repro.core
        original = repro.core.make_context

        def make_context(*args, **kwargs):
            ctx = original(*args, **kwargs)
            if self.time is None:
                self.time = time.perf_counter()
                self.cpu = _cpu_rss()[0]
            self.context = ctx
            return ctx

        spans.rebind_function(original, make_context)


def _queue_turnaround(result, ctx, scenario) -> Dict[str, float]:
    """STP and ANTT of a batch queue run (every app arrives at cycle 0),
    from the run's finish cycles and the context's solo profiles."""
    from repro.analysis.metrics import (average_normalized_turnaround,
                                        weighted_speedup)
    from repro.api import build_queue
    specs = dict(build_queue(scenario))
    solo = {a["name"]: ctx.profiler.profile(a["name"],
                                            specs[a["name"]]).solo_cycles
            for a in result.apps}
    turnaround = {a["name"]: a["finish_cycle"] for a in result.apps}
    return {"stp": weighted_speedup(solo, turnaround),
            "antt": average_normalized_turnaround(solo, turnaround)}


def _scenario_sim(results, scenarios, ctx) -> Dict[str, Any]:
    cycles = instructions = busy = apps = 0
    stp: List[float] = []
    antt: List[float] = []
    for result, scenario in zip(results, scenarios):
        m = result.metrics
        cycles += m["makespan"]
        busy += sum(g["cycles"] for g in result.groups)
        if result.kind == "queue":
            instructions += m["total_instructions"]
            apps += len(result.apps)
            extra = _queue_turnaround(result, ctx, scenario)
        else:
            instructions += m["fleet_throughput"] * m["makespan"]
            apps += m["apps"]
            extra = m
        stp.append(extra["stp"])
        antt.append(extra["antt"])
    return {"makespan_cycles": cycles, "sim_ipc": instructions / cycles,
            "stp": sum(stp) / len(stp), "antt": sum(antt) / len(antt),
            "apps": apps, "busy_cycles": busy}


def _campaign_sim(merged: Dict[str, Any], units: List[Dict[str, Any]]
                  ) -> Dict[str, Any]:
    m = merged["metrics"]
    cycles = sum(u["metrics"]["makespan"] for u in units)
    instructions = sum(u["metrics"]["device_throughput"]
                       * u["metrics"]["makespan"] for u in units)
    return {"makespan_cycles": m["makespan_max"],
            "sim_ipc": instructions / cycles,
            "stp": m["stp"], "antt": m["antt"], "apps": m["apps"],
            "busy_cycles": sum(g["cycles"] for u in units
                               for g in u["groups"])}


def _run_scenarios(scenarios, ready: _Ready):
    """Run scenarios back to back; return their fingerprints, a function
    computing the simulated statistics, and no campaign phases."""
    from repro.api import run_scenario
    results = [run_scenario(scenario) for scenario in scenarios]
    prints = {"ops": [fingerprint(canonical_run(r.to_json()))
                      for r in results], "merged": None}
    return (prints, lambda: _scenario_sim(results, scenarios,
                                          ready.context), {})


def _run_campaign(spec, out_dir: pathlib.Path):
    """Run a campaign; return the fingerprints of its shard files and
    merged result, a function computing the simulated statistics, and
    the campaign's wall-clock phases."""
    from repro.campaign import run_campaign
    outcome = run_campaign(spec, out_dir, shard_workers=1)
    units = [(out_dir / row["file"]).read_text()
             for row in outcome.result.per_shard]
    merged = outcome.result_path.read_text()
    prints = {"ops": [fingerprint(canonical_run(text)) for text in units],
              "merged": fingerprint(canonical_campaign(merged))}
    return (prints, lambda: _campaign_sim(
        json.loads(merged), [json.loads(text) for text in units]),
        outcome.counters["phases"])


def run(request: Dict[str, Any], t_start: float) -> Dict[str, Any]:
    tracer = None
    if request["trace"]:
        tracer = spans.Tracer(request["run_id"])
        spans.instrument(tracer)
    elif request["preimport"]:
        # The untraced baseline of a traced run imports what the tracer
        # imports, so the overhead compares like with like.
        for module in spans.MODULES:
            importlib.import_module(module)
    ready = _Ready()
    ready.install()
    from repro.api import Scenario
    from repro.campaign import CampaignSpec
    from repro.gpusim import _native

    inputs = request["inputs"]
    report: Dict[str, Any] = {"t_start": t_start, "errors": []}
    if "campaign" in inputs:
        spec = CampaignSpec.from_dict(inputs["campaign"])
        out_dir = pathlib.Path(request["out_dir"])
        execute = functools.partial(_run_campaign, spec, out_dir)
    else:
        scenarios = [Scenario.from_dict(d) for d in inputs["scenarios"]]
        execute = functools.partial(_run_scenarios, scenarios, ready)
    # Loaded on every backend: the reference run builds the core.
    lib = _native.load()
    if request["backend"] == "vector":
        if lib is None:
            report["errors"].append("vector backend fell back to pure "
                                    f"Python: {_native.unavailable_reason}")
            return report
        report["engine_path"] = ("vector, native core "
                                 f"{os.path.relpath(lib._name)}")
    else:
        report["engine_path"] = request["backend"]

    prints, sim, phases = execute()
    failed = 0
    expected = request["expected"]
    if expected is not None:
        failed = mismatches(expected["ops"], prints["ops"])
        if expected["merged"] != prints["merged"]:
            report["errors"].append("merged campaign result differs from "
                                    "the reference")
    t_done = time.perf_counter()
    cpu_done, rss = _cpu_rss()
    if tracer is not None:
        # Snapshot now: the statistics below make calls of their own.
        report["trace"] = _trace_report(tracer, request, t_start,
                                        ready.time, t_done, phases)
    report.update({
        "t_ready": ready.time, "t_done": t_done,
        "cpu_s": cpu_done - ready.cpu, "peak_rss_mb": rss,
        "fingerprints": prints, "failed": failed, "sim": sim(),
    })
    return report


def _trace_report(tracer, request, t_start, t_ready, t_done, phases):
    pathlib.Path(request["spans_out"]).write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "run_id"],
        "spans": tracer.spans}))
    intervals: Dict[str, List] = {}
    for span in tracer.spans:
        intervals.setdefault(span[spans.NAME], []).append(
            (span[spans.START], span[spans.END]))
    measure = intervals.get("core.profile", []) + intervals.get(
        "core.interference", [])
    return {
        "t_ready": t_ready,
        "layers": spans.layer_totals(tracer.spans),
        # Wall-clock time inside each layer (children included), split
        # at the end of set-up.
        "inside": {name: (spans.covered(iv, t_start, t_ready),
                          spans.covered(iv, t_ready, t_done))
                   for name, iv in intervals.items()},
        "measure_setup_s": spans.covered(measure, t_start, t_ready),
        "run_group_ms": [(end - start) * 1e3 for start, end
                         in intervals.get("core.run_group", [])],
        "counts": dict(tracer.counts),
        "phases": {name: entry["total_s"] for name, entry in phases.items()},
        "unattributed_frac": spans.unattributed(tracer.spans, t_start,
                                                t_done),
    }


def main(argv: List[str]) -> int:
    t_start = time.perf_counter()
    request = json.loads(pathlib.Path(argv[1]).read_text())
    try:
        report = run(request, t_start)
    except Exception:  # report the failure; the parent counts it
        report = {"t_start": t_start, "errors": [traceback.format_exc()]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
