"""The repository benchmark: one command, one workload, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_vector --seed 1 \\
        --seconds 20 --trace 0

Before timing it runs the workload once on the event engine to get the
reference fingerprints; that run also builds the native vector core
into a private cache and fills the private profile cache the warm
workloads use.  Then it starts fresh worker processes back to back until
``--seconds`` have passed (at least :data:`MIN_SAMPLES` of them).  Each
worker runs the workload on the vector backend and checks every result
against the reference.  Host timings are medians over the workers.

``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics instead.  The last stdout line is the result object.
See ``perfbench/README.md`` for the metrics and why each workload is
here.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import stats, workloads  # noqa: E402

#: Private state, relative to the checkout root (the working directory).
WORK = pathlib.Path(".perfbench")
REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"
#: Fewest timed workers per run (per kind, untraced and traced, with
#: ``--trace 1``), however long they take.
MIN_SAMPLES = 3
MIN_TRACED = 2
#: Failed workers after which a run stops starting new ones.
MAX_FAILED_WORKERS = 3
WORKER_TIMEOUT_S = 90

#: End-to-end metric -> unit (``--trace 0``).  Host timings are medians
#: over the workers; the simulated metrics repeat exactly.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "apps_per_s": "apps/s",
    "sim_cycles_per_s": "cycles/s", "peak_rss_mb": "MB",
    "makespan_cycles": "cycles", "sim_ipc": "instr/cycle", "stp": "ratio",
}
SIM_METRICS = ("makespan_cycles", "sim_ipc", "stp")

#: Layers every workload enters: self time in seconds.
LAYER_SECONDS = {
    "gpusim.run": "gpusim.run_s", "gpusim.dispatch": "gpusim.dispatch_s",
    "gpusim.init": "gpusim.init_s",
    "core.make_context": "core.make_context_s",
    "core.profile": "core.profile_s", "core.run_group": "core.run_group_s",
    "runtime.executor": "runtime.executor_self_s",
    "api.parse": "api.parse_s", "api.to_json": "api.to_json_s",
}
#: Layers some workloads never enter: self time as a share of the
#: traced process time (a layer that does not run reads 0).
LAYER_FRACS = {
    "gpusim.simulate": "gpusim.simulate_frac",
    "core.interference": "core.interference_frac",
    "core.plan": "core.plan_frac", "ilp.solve": "ilp.solve_frac",
    "runtime.next_group": "runtime.next_group_frac",
    "runtime.run_stream": "runtime.run_stream_self_frac",
    "cluster.run_fleet": "cluster.run_fleet_self_frac",
    "cluster.place": "cluster.place_frac",
    "workloads.arrivals": "workloads.arrivals_frac",
    "analysis.summarize": "analysis.summarize_frac",
    "campaign.commit": "campaign.commit_frac",
}
LAYER_CALLS = ("gpusim.run", "gpusim.dispatch", "gpusim.init",
               "gpusim.simulate", "core.make_context", "core.profile",
               "core.interference", "core.run_group", "core.plan",
               "ilp.solve", "runtime.next_group", "cluster.place")
#: ``run_campaign`` wall-clock phases, as a share of the traced time.
CAMPAIGN_PHASES = ("plan", "run", "merge")

#: Per-layer metric -> unit (``--trace 1``).
PER_LAYER = {
    **{name: "s" for name in LAYER_SECONDS.values()},
    **{name: "frac" for name in LAYER_FRACS.values()},
    **{f"campaign.{phase}_frac": "frac" for phase in CAMPAIGN_PHASES},
    **{f"{layer}_calls": "count" for layer in LAYER_CALLS},
    "gpusim.events": "count", "gpusim.events_per_s": "1/s",
    "gpusim.native": "count", "core.profile_sims": "count",
    "core.profile_hit_ratio": "ratio", "core.run_group_ms_p50": "ms",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _fresh_dir(path: pathlib.Path) -> pathlib.Path:
    """`path` as a new, empty directory."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Bench:
    """One benchmark invocation: private directories, inputs, workers."""

    def __init__(self, workload: str, seed: int, root: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.tag = f"{workload}-{seed}"
        self.cold = workload in workloads.COLD
        self.errors: List[str] = []
        self.attempted = self.failed = 0
        self.work = root / WORK
        for sub in ("native", "warm", "requests", "spans"):
            (self.work / sub).mkdir(parents=True, exist_ok=True)

    def env(self) -> Dict[str, str]:
        """Worker environment: the checkout's sources, private caches.

        A cold workload's profile cache is a directory emptied before
        every worker; the warm workloads share one filled before timing.
        """
        env = dict(os.environ)
        env.pop("REPRO_WORKERS", None)
        env.update({
            "PYTHONPATH": str(self.root / "src"),
            "PYTHONHASHSEED": "0",
            "REPRO_NATIVE_CACHE": str(self.work / "native"),
            "REPRO_PROFILE_CACHE": str(self.work / "warm"),
        })
        return env

    def cold_env(self) -> Dict[str, str]:
        env = self.env()
        env["REPRO_PROFILE_CACHE"] = str(_fresh_dir(self.work / "cold"))
        return env

    def spawn(self, request: Dict[str, Any], name: str,
              env: Dict[str, str]) -> Dict[str, Any]:
        """Run one worker; return its report with ``t_spawn`` added."""
        path = self.work / "requests" / f"{self.tag}-{name}.json"
        path.write_text(json.dumps(request))
        if "campaign" in request["inputs"]:
            _fresh_dir(pathlib.Path(request["out_dir"]))
        t_spawn = time.perf_counter()
        try:
            # On timeout or interruption run() kills the worker and
            # waits for it.
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", str(path)],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"errors": [f"worker {name} timed out after "
                               f"{WORKER_TIMEOUT_S} s"]}
        lines = proc.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = {"errors": [f"worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}"]}
        report["t_spawn"] = t_spawn
        return report

    def inputs(self) -> Dict[str, Any]:
        """The workload's inputs for this seed (``src`` must be on
        ``sys.path``)."""
        from repro.workloads import RODINIA_SPECS
        return workloads.make_inputs(self.workload, self.seed,
                                     sorted(RODINIA_SPECS),
                                     WORK / "inputs" / self.tag)

    def reference(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Reference fingerprints from one event-engine run.

        The run also fills the warm cache and builds the native core,
        so no timed worker pays for either.  For the default seed the
        recorded fingerprints are the reference, and the event run must
        match them.
        """
        ref = self.spawn(self.request(inputs, "event", None, False, "ref"),
                         "ref", self.env())
        if ref["errors"]:
            _fail(f"reference run failed: {ref['errors']}")
        expected = ref["fingerprints"]
        if self.seed == workloads.DEFAULT_SEED:
            recorded = _recorded(self.workload)
            if recorded != expected:
                self.errors.append("event-engine results differ from the "
                                   "recorded reference fingerprints")
                self.attempted += len(recorded["ops"])
                self.failed += len(recorded["ops"])
            expected = recorded
        return expected

    def measure(self, inputs, expected, seconds: float, trace: bool):
        """Run vector workers back to back for `seconds` (and at least
        the minimum counts); return the untraced and traced reports of
        the workers that succeeded."""
        samples: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        failed_workers = 0
        deadline = time.perf_counter() + seconds
        index = 0
        while failed_workers < MAX_FAILED_WORKERS and (
                time.perf_counter() < deadline
                or len(samples) < MIN_SAMPLES
                or (trace and len(traced) < MIN_TRACED)):
            traced_worker = trace and index % 2 == 1
            index += 1
            run_id = f"{'traced' if traced_worker else 'timed'}{index}"
            report = self.spawn(
                self.request(inputs, "vector", expected, traced_worker,
                             run_id, preimport=trace),
                run_id, self.cold_env() if self.cold else self.env())
            self.attempted += len(expected["ops"])
            if report["errors"]:
                failed_workers += 1
                self.failed += report.get("failed") or len(expected["ops"])
                self.errors.extend(report["errors"])
                continue
            self.failed += report["failed"]
            (traced if traced_worker else samples).append(report)
        return samples, traced

    def request(self, inputs, backend: str, expected, trace: bool,
                run_id: str, preimport: bool = False) -> Dict[str, Any]:
        return {
            "inputs": workloads.with_backend(inputs, backend),
            "backend": backend, "expected": expected, "trace": trace,
            "preimport": preimport, "run_id": run_id,
            "out_dir": str(WORK / "out" / self.workload),
            "spans_out": str(WORK / "spans" / f"{self.tag}-{run_id}.json"),
        }


def _recorded(workload: str) -> Dict[str, Any]:
    data = json.loads(REFERENCE.read_text())
    if data["seed"] != workloads.DEFAULT_SEED:
        raise ValueError("reference.json was recorded for another seed")
    return data["fingerprints"][workload]


def _git_commit(root: pathlib.Path) -> str:
    if not (root / ".git").exists():  # git would search the parents
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _sample(report: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end host metrics of one worker."""
    setup = report["t_ready"] - report["t_spawn"]
    wall = report["t_done"] - report["t_ready"]
    sim = report["sim"]
    return {"setup_s": setup, "wall_s": wall, "cpu_s": report["cpu_s"],
            "apps_per_s": sim["apps"] / (setup + wall),
            "sim_cycles_per_s": sim["busy_cycles"] / wall,
            "peak_rss_mb": report["peak_rss_mb"]}


def _layer_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced worker (all but the run-level
    ``trace.overhead_frac`` and ``core.run_group_ms_p50``)."""
    trace = report["trace"]
    counts = trace["counts"]
    span_s = report["t_done"] - report["t_start"]
    seconds = {name: entry[0] for name, entry in trace["layers"].items()}
    calls = {name: entry[1] for name, entry in trace["layers"].items()}
    metrics = {metric: seconds.get(layer, 0.0)
               for layer, metric in LAYER_SECONDS.items()}
    metrics.update({metric: seconds.get(layer, 0.0) / span_s
                    for layer, metric in LAYER_FRACS.items()})
    metrics.update({f"campaign.{phase}_frac":
                    trace["phases"].get(phase, 0.0) / span_s
                    for phase in CAMPAIGN_PHASES})
    metrics.update({f"{layer}_calls": calls.get(layer, 0)
                    for layer in LAYER_CALLS})
    events = counts.get("gpusim.events", 0)
    metrics["gpusim.events"] = events
    metrics["gpusim.events_per_s"] = events / (
        seconds["gpusim.run"] + seconds["gpusim.dispatch"])
    metrics["gpusim.native"] = int(counts.get("gpusim.native_runs", 0)
                                   == counts.get("gpusim.vector_runs"))
    metrics["core.profile_sims"] = counts.get("core.profile_sims", 0)
    metrics["core.profile_hit_ratio"] = (
        1.0 - metrics["core.profile_sims"] / calls["core.profile"])
    metrics["trace.unattributed_frac"] = trace["unattributed_frac"]
    return metrics


def _trace_table(traced: List[Dict[str, Any]]) -> None:
    """Print each layer's self time, calls and the wall-clock time spent
    inside it during set-up and after it, plus the shares the
    workloads were chosen for (medians over the traced workers)."""
    med = statistics.median
    traces = [r["trace"] for r in traced]
    print(f"  {'layer':22s} {'self_s':>9s} {'calls':>7s} "
          f"{'in_setup_s':>10s} {'in_wall_s':>10s}")
    for name in sorted({n for t in traces for n in t["layers"]}):
        layer = [t["layers"].get(name, (0.0, 0)) for t in traces]
        inside = [t["inside"].get(name, (0.0, 0.0)) for t in traces]
        print(f"  {name:22s} {med(x[0] for x in layer):9.4f} "
              f"{med(x[1] for x in layer):7g} "
              f"{med(x[0] for x in inside):10.4f} "
              f"{med(x[1] for x in inside):10.4f}")
    wall = med(r["t_done"] - r["trace"]["t_ready"] for r in traced)
    setup = med(r["trace"]["t_ready"] - r["t_start"] for r in traced)
    engine = med(t["inside"]["gpusim.run"][1] for t in traces)
    init = med(t["inside"]["gpusim.init"][1] for t in traces)
    measure = med(t["measure_setup_s"] for t in traces)
    print(f"  share of traced wall inside gpusim.run (dispatch included): "
          f"{engine / wall:.3f}")
    print(f"  share of traced wall inside gpusim.init: {init / wall:.3f}")
    print(f"  share of traced set-up inside core.profile or "
          f"core.interference: {measure / setup:.3f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit, so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {root / 'src'}; run from the root "
              f"of a checkout")
    sys.path.insert(0, str(root / "src"))
    bench = Bench(args.workload, args.seed, root)
    inputs = bench.inputs()
    expected = bench.reference(inputs)
    samples, traced = bench.measure(inputs, expected, args.seconds,
                                    bool(args.trace))
    if not samples or (args.trace and not traced):
        _fail(f"too few workers succeeded: {bench.errors}")

    sims = [r["sim"] for r in samples + traced]
    if any(s != sims[0] for s in sims):
        bench.errors.append("simulated statistics differ between workers")
    engine_paths = sorted({r["engine_path"] for r in samples + traced})
    print("run: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "engine_path": engine_paths, "git_commit": _git_commit(root),
        "workers": len(samples), "traced_workers": len(traced),
    }))

    host = [_sample(r) for r in samples]
    if args.trace:
        per_worker = [_layer_metrics(r) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_worker)
                   for name in per_worker[0]}
        group_ms = [ms for r in traced for ms in r["trace"]["run_group_ms"]]
        metrics["core.run_group_ms_p50"] = statistics.median(group_ms)
        metrics["trace.overhead_frac"] = statistics.median(
            r["t_done"] - r["t_ready"] for r in traced) / statistics.median(
            h["wall_s"] for h in host) - 1.0
        _trace_table(traced)
        print(f"  core.run_group_ms: {stats.describe(group_ms)}")
        sims_profile = metrics["core.profile_sims"]
        if (sims_profile > 0) != bench.cold:
            bench.errors.append(
                f"core.profile_sims is {sims_profile} on a "
                f"{'cold' if bench.cold else 'warm'} workload")
        units = PER_LAYER
    else:
        metrics = {name: statistics.median(h[name] for h in host)
                   for name in host[0]}
        metrics.update({name: sims[0][name] for name in SIM_METRICS})
        units = END_TO_END
        for name, unit in END_TO_END.items():
            values = [h[name] for h in host] if name in host[0] else [
                metrics[name]]
            print(f"  {name:18s} {stats.describe(values)} {unit}")
        print(f"  simulated (not gated): {json.dumps(sims[0])}")
    for error in bench.errors:
        print(f"error: {error}")
    print(json.dumps({
        "correct": not bench.errors and bench.failed == 0,
        "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
