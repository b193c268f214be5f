"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``run``
    Execute one declarative scenario JSON (queue / stream / fleet)
    through :func:`repro.api.run_scenario`; print the headline metrics
    and optionally write the full :class:`~repro.api.RunResult` JSON.
``sweep``
    Expand a base scenario × parameter grid into scenarios and run each
    point, writing one results JSON per point plus a manifest.
``campaign``
    Run a sharded, resumable campaign (base scenario × grid cut into
    content-addressed shards) to a manifest-verified merged result;
    ``--resume`` skips shards already committed in the output
    directory (see ``docs/campaign.md``).
``profile``
    Solo-profile benchmarks and print their Table 3.2 metric rows.
``classify``
    Profile + classify (adds the class column and thresholds).
``interference``
    Measure and print the Fig. 3.4 class slowdown matrix.
``run-queue``
    Drain an application queue under one or more scheduling policies and
    print the device-throughput comparison (``--workers N`` fans the
    independent groups across worker processes).
``run-stream``
    Run an online arrival stream (Poisson / bursty / trace) under online
    scheduling policies and print ANTT/STP + latency percentiles.
``run-fleet``
    Drain one shared arrival stream across a fleet of simulated devices
    under one or more placement policies; print fleet ANTT/STP, load
    imbalance, and per-device utilization.  ``--faults`` /
    ``--admission`` add deterministic fault injection and admission
    control (availability, goodput, and rejection accounting).
``scalability``
    Sweep SM counts for selected benchmarks (Fig. 3.5/3.6).
``list``
    List the benchmark models, or any registry kind via ``--kind``.

``run-queue`` / ``run-stream`` / ``run-fleet`` are thin wrappers: each
builds a :class:`~repro.api.Scenario` per policy (or placement) and
routes it through the same :func:`~repro.api.run_scenario` path as
``run`` — component lookups all resolve in the single
:data:`~repro.api.REGISTRY`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis import (normalize, render_bars, render_table,
                            summarize_fleet, summarize_stream)
from repro.api import (REGISTRY, AdmissionSpec, DeviceSpec, ExecutionSpec,
                       FaultSpec, PlacementSpec, PolicySpec, RunResult,
                       Scenario, WorkloadSpec, load_sweep, point_filename,
                       run_scenario)
from repro.campaign import (MANIFEST_SCHEMA_VERSION, CampaignSpec,
                            result_hash, run_campaign)
from repro.core import (CLASS_ORDER, ClassificationThresholds, classify,
                        make_context, shared_profiler)
from repro.gpusim import Application, gtx480, simulate
from repro.runtime import make_executor
from repro.workloads import (ALL_BENCHMARKS, DISTRIBUTIONS, RODINIA_SPECS,
                             TABLE_3_2_CLASSES)


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, rejected clearly."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive, finite rate/gap/scale."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}") from None
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _fraction(text: str) -> float:
    """argparse type: a fraction in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction in [0, 1], got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {text}")
    return value


def _seed(text: str) -> int:
    """argparse type: a non-negative stream seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer seed, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: a non-negative integer count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _select_benchmarks(names: Optional[Sequence[str]]) -> List[str]:
    if not names:
        return list(ALL_BENCHMARKS)
    unknown = [n for n in names if n not in RODINIA_SPECS]
    if unknown:
        raise SystemExit(f"unknown benchmark(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(ALL_BENCHMARKS)}")
    return list(names)


def _run_or_exit(scenario: Scenario, executor=None,
                 telemetry=None) -> RunResult:
    """:func:`run_scenario` with CLI-grade errors (clean exit, no trace)."""
    try:
        return run_scenario(scenario, executor=executor,
                            telemetry=telemetry)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _telemetry_from_args(args, suffix: str = ""):
    """The ``--trace``/``--profile`` flags as a Telemetry (or None).

    `suffix` disambiguates sink paths when one invocation compares
    several policies or placements (each run writes its own trace).
    """
    from repro.obs import make_telemetry
    trace_path = getattr(args, "trace_out", None)
    profile = getattr(args, "profile", False)
    if not trace_path and not profile:
        return None
    if trace_path and profile:
        kind = "full"
    elif trace_path:
        kind = "trace"
    else:
        kind = "profile"
    sinks = (args.trace_format,) if trace_path else ()
    path = f"{trace_path}{suffix}" if trace_path else ""
    return make_telemetry(kind, sinks=sinks, path=path)


def _print_telemetry(result: RunResult, telemetry=None) -> None:
    """Report telemetry next to (never inside) the result."""
    snap = result.telemetry
    if snap is None:
        return
    if "events" in snap:
        line = f"telemetry: {snap['events']} trace event(s)"
        if telemetry is not None:
            paths = ", ".join(sorted(telemetry.sink_paths().values()))
            if paths:
                line += f" -> {paths}"
        print(line)
    if telemetry is not None and telemetry.profiler is not None:
        print(telemetry.profiler.format_table())


def cmd_list(args) -> int:
    kind = getattr(args, "kind", None)
    if kind and kind != "benchmarks":
        names = REGISTRY.names(kind)
        print(render_table(["name"], [[n] for n in names],
                           title=f"Registered {kind} ({len(names)})"))
        return 0
    rows = [(name, TABLE_3_2_CLASSES[name],
             RODINIA_SPECS[name].blocks, RODINIA_SPECS[name].warps_per_block,
             RODINIA_SPECS[name].kernel_launches)
            for name in ALL_BENCHMARKS]
    print(render_table(
        ["benchmark", "class", "blocks/launch", "warps/block", "launches"],
        rows, title="Calibrated Rodinia benchmark models"))
    return 0


def cmd_profile(args) -> int:
    config = gtx480()
    profiler = shared_profiler(config)
    rows = []
    for name in _select_benchmarks(args.benchmarks):
        m = profiler.profile(name, RODINIA_SPECS[name])
        rows.append((name, m.memory_bandwidth_gbps, m.l2_to_l1_gbps, m.ipc,
                     m.mem_compute_ratio, m.solo_cycles,
                     m.utilization * 100))
    print(render_table(
        ["benchmark", "MB (GB/s)", "L2->L1", "IPC", "R", "solo cycles",
         "util %"], rows, title="Solo profiles (GTX-480 configuration)"))
    return 0


def cmd_classify(args) -> int:
    config = gtx480()
    profiler = shared_profiler(config)
    thresholds = ClassificationThresholds.for_device(config)
    rows = []
    for name in _select_benchmarks(args.benchmarks):
        m = profiler.profile(name, RODINIA_SPECS[name])
        rows.append((name, m.memory_bandwidth_gbps, m.l2_to_l1_gbps,
                     m.ipc, m.mem_compute_ratio,
                     str(classify(m, thresholds)),
                     TABLE_3_2_CLASSES[name]))
    print(render_table(
        ["benchmark", "MB", "L2->L1", "IPC", "R", "class", "paper"],
        rows, title=f"Classification (alpha={thresholds.alpha_gbps:.1f}, "
                    f"beta={thresholds.beta_gbps:.1f})"))
    mismatches = [r[0] for r in rows if r[5] != r[6]]
    if mismatches:
        print(f"\nWARNING: classes differ from Table 3.2 for: "
              f"{', '.join(mismatches)}")
        return 1
    return 0


def cmd_interference(args) -> int:
    config = gtx480()
    with make_executor(args.workers) as executor:
        ctx = make_context(config, suite=dict(RODINIA_SPECS),
                           need_interference=True,
                           samples_per_pair=args.samples,
                           executor=executor)
    headers = ["victim \\ with"] + [str(c) for c in CLASS_ORDER]
    rows = [[str(v)] + list(r)
            for v, r in zip(CLASS_ORDER, ctx.interference.slowdown)]
    print(render_table(headers, rows,
                       title="Class slowdown matrix (Fig 3.4)"))
    return 0


def _unique(keys: Sequence[str]) -> List[str]:
    """Deduplicate, preserving first-seen order."""
    out: List[str] = []
    for key in keys:
        if key not in out:
            out.append(key)
    return out


def _policy_keys(keys: Sequence[str]) -> List[str]:
    """Expand the ``all`` shorthand, preserving order and uniqueness."""
    out: List[str] = []
    for key in keys:
        out.extend(REGISTRY.names("policies") if key == "all" else [key])
    return _unique(out)


# -- scenario construction from argparse namespaces --------------------------

def _queue_scenario(args, policy_key: str) -> Scenario:
    if args.queue == "paper":
        workload = WorkloadSpec(source="paper", seed=args.seed)
    else:
        workload = WorkloadSpec(source="distribution",
                                distribution=args.queue,
                                length=args.length, seed=args.seed)
    return Scenario(
        kind="queue",
        workload=workload,
        policy=PolicySpec(name=policy_key, nc=args.nc),
        execution=ExecutionSpec(workers=args.workers,
                                samples_per_pair=args.samples,
                                backend=args.backend))


def _stream_workload(args) -> WorkloadSpec:
    """The arrival stream an `args` namespace describes.

    Everything is reproducible from ``--seed``: the stream queue's
    kernel mix and the Poisson/bursty arrival process both derive from
    it (a trace replay is deterministic by construction).
    """
    if getattr(args, "trace", None):
        return WorkloadSpec(source="trace", trace=args.trace,
                            scale=args.scale, seed=args.seed)
    return WorkloadSpec(source="stream", apps=args.apps,
                        synthetic_fraction=args.synthetic_fraction,
                        scale=args.scale, seed=args.seed,
                        arrival=args.arrival, mean_gap=args.mean_gap,
                        burst_size=args.burst_size,
                        burst_gap=args.burst_gap)


def _stream_scenario(args, policy_key: str) -> Scenario:
    return Scenario(
        kind="stream",
        workload=_stream_workload(args),
        policy=PolicySpec(name=policy_key, nc=args.nc),
        execution=ExecutionSpec(workers=args.workers,
                                samples_per_pair=args.samples,
                                backend=args.backend))


def _fleet_devices(args) -> DeviceSpec:
    """The fleet's :class:`DeviceSpec` from ``--devices``/``--device-configs``.

    One config name applies to the whole fleet; N names (N = the device
    count) build a heterogeneous big/little fleet, device by device.
    """
    configs = getattr(args, "device_configs", None)
    if not configs:
        return DeviceSpec(count=args.devices)
    if len(configs) == 1:
        return DeviceSpec(count=args.devices, config=configs[0])
    if len(configs) != args.devices:
        raise SystemExit(
            f"--device-configs lists {len(configs)} config(s) for "
            f"--devices {args.devices}; give one name for a homogeneous "
            f"fleet or exactly one per device")
    return DeviceSpec(count=args.devices, config=configs[0],
                      per_device=tuple(configs))


def _parse_fault_event(text: str) -> List:
    """Decode one ``CYCLE:DEVICE:down|up`` flag into an event triple."""
    parts = text.split(":")
    if len(parts) != 3 or parts[2] not in ("down", "up"):
        raise SystemExit(
            f"--fault-events expects CYCLE:DEVICE:down|up, got {text!r}")
    try:
        cycle, device = int(parts[0]), int(parts[1])
    except ValueError:
        raise SystemExit(
            f"--fault-events expects integer cycle and device in "
            f"{text!r}") from None
    return [cycle, device, parts[2]]


def _fault_spec(args) -> Optional[FaultSpec]:
    """The run-fleet fault flags as a :class:`FaultSpec` (or None)."""
    if args.faults == "none":
        if args.fault_events:
            raise SystemExit("--fault-events needs --faults scheduled")
        return None
    if args.faults == "scheduled" and not args.fault_events:
        raise SystemExit("--faults scheduled needs at least one "
                         "--fault-events CYCLE:DEVICE:down|up")
    events = tuple(tuple(_parse_fault_event(text))
                   for text in args.fault_events or [])
    return FaultSpec(kind=args.faults, events=events, mtbf=args.mtbf,
                     mttr=args.mttr, horizon=args.fault_horizon,
                     fail_prob=args.fail_prob,
                     max_retries=args.max_retries, seed=args.fault_seed)


def _admission_spec(args) -> Optional[AdmissionSpec]:
    """The run-fleet admission flags as an :class:`AdmissionSpec`."""
    if args.admission == "none":
        return None
    return AdmissionSpec(kind=args.admission, queue_cap=args.queue_cap,
                         mode=args.admission_mode,
                         defer_gap=args.defer_gap,
                         max_defers=args.max_defers,
                         deadline_cycles=args.deadline)


def _fleet_scenario(args, placement_key: str) -> Scenario:
    return Scenario(
        kind="fleet",
        workload=_stream_workload(args),
        policy=PolicySpec(name=args.policy, nc=args.nc),
        placement=PlacementSpec(name=placement_key),
        devices=_fleet_devices(args),
        execution=ExecutionSpec(workers=args.workers,
                                samples_per_pair=args.samples,
                                backend=args.backend),
        faults=_fault_spec(args),
        admission=_admission_spec(args))


# -- the declarative entry points --------------------------------------------

def _write_result(result: RunResult, path: str) -> None:
    pathlib.Path(path).write_text(result.to_json())


def _print_result_summary(result: RunResult) -> None:
    prov = result.provenance
    label = result.scenario.get("name") or result.metrics.get("policy", "")
    rows = [[key, value] for key, value in sorted(result.metrics.items())
            if not isinstance(value, (list, dict))]
    print(render_table(
        ["metric", "value"], rows,
        title=f"{result.kind} scenario {label!r} "
              f"(engine v{prov['engine_version']}, "
              f"spec {prov['spec_hash'][:10]})"))


def cmd_run(args) -> int:
    try:
        scenario = Scenario.from_json(
            pathlib.Path(args.scenario).read_text())
    except ValueError as exc:
        raise SystemExit(f"{args.scenario}: {exc}") from None
    if args.backend is not None:
        # Override without touching the file: the backend is
        # resources-not-identity, so swapping it never changes the
        # result bytes.
        try:
            scenario = dataclasses.replace(
                scenario,
                execution=dataclasses.replace(scenario.execution,
                                              backend=args.backend))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    telemetry = _telemetry_from_args(args)
    executor = make_executor(args.workers) if args.workers else None
    try:
        result = _run_or_exit(scenario, executor=executor,
                              telemetry=telemetry)
    finally:
        if executor is not None:
            executor.close()
    _print_result_summary(result)
    _print_telemetry(result, telemetry)
    if args.out:
        _write_result(result, args.out)
        print(f"\nwrote results to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    try:
        points = load_sweep(pathlib.Path(args.sweep).read_text())
    except ValueError as exc:
        raise SystemExit(f"{args.sweep}: {exc}") from None
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # One executor per distinct worker count, shared across every point
    # that uses it: a ParallelExecutor's process pool warms up once
    # instead of once per point.  Points still run one at a time in
    # grid order and merge results in submission order, so the written
    # files are byte-identical to per-point executors.
    executors = {}

    def _executor_for(scenario: Scenario):
        workers = args.workers or scenario.execution.workers
        if workers not in executors:
            executors[workers] = make_executor(workers)
        return executors[workers]

    manifest = []
    try:
        for index, (overrides, scenario) in enumerate(points):
            result = _run_or_exit(scenario, _executor_for(scenario))
            filename = point_filename(scenario, index)
            _write_result(result, out_dir / filename)
            # The campaign manifest row schema (status + result_hash on
            # top of index/file/spec_hash): a finished sweep directory
            # is a valid resume source for a by-point campaign.
            manifest.append({"index": index, "overrides": overrides,
                             "file": filename,
                             "spec_hash": result.provenance["spec_hash"],
                             "status": "done",
                             "result_hash": result_hash(result.to_json())})
            shown = ", ".join(f"{k}={v}" for k, v in overrides.items())
            print(f"[{index + 1}/{len(points)}] {filename}"
                  + (f"  ({shown})" if shown else ""))
    finally:
        for pool in executors.values():
            pool.close()
    (out_dir / "sweep_manifest.json").write_text(
        json.dumps({"schema_version": MANIFEST_SCHEMA_VERSION,
                    "kind": "sweep", "points": manifest},
                   sort_keys=True, indent=2) + "\n")
    print(f"\n{len(points)} point(s) written to {out_dir}")
    return 0


def cmd_campaign(args) -> int:
    try:
        spec = CampaignSpec.from_json(
            pathlib.Path(args.campaign).read_text())
    except ValueError as exc:
        raise SystemExit(f"{args.campaign}: {exc}") from None
    try:
        outcome = run_campaign(spec, args.out_dir, resume=args.resume,
                               shard_workers=args.shard_workers,
                               max_shards=args.max_shards,
                               progress=print)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"\n{outcome.shards_run} shard(s) run, "
          f"{outcome.shards_skipped} skipped, "
          f"{outcome.shards_total} total in {args.out_dir}")
    if not outcome.complete:
        print(f"campaign incomplete "
              f"({outcome.shards_total - outcome.shards_run - outcome.shards_skipped} "
              f"shard(s) pending) — rerun with --resume to continue")
        return 3
    result = outcome.result
    rows = [[key, value]
            for key, value in sorted(result.metrics.items())
            if not isinstance(value, (list, dict))]
    label = result.name or spec.base.kind
    print(render_table(
        ["metric", "value"], rows,
        title=f"campaign {label!r} ({result.metrics['shards']} shard(s), "
              f"hash {result.provenance['campaign_hash'][:10]})"))
    print(f"wrote merged result to {outcome.result_path}")
    return 0


# -- classic front doors (thin wrappers over run_scenario) -------------------

def cmd_run_queue(args) -> int:
    with make_executor(args.workers) as executor:
        throughputs = {}
        for key in _policy_keys(args.policies):
            result = _run_or_exit(_queue_scenario(args, key), executor)
            throughputs[result.metrics["policy"]] = \
                result.metrics["device_throughput"]
            if args.verbose:
                print(f"\n{result.metrics['policy']}:")
                for group in result.groups:
                    print(f"  {' + '.join(group['members']):40} "
                          f"{group['cycles']:>9,} cycles")

    baseline = list(throughputs)[0]
    print()
    print(render_bars(normalize(throughputs, baseline), width=40,
                      baseline=1.0,
                      title=f"Device throughput on the '{args.queue}' "
                            f"queue (NC={args.nc}, normalized to "
                            f"{baseline})"))
    return 0


def cmd_run_stream(args) -> int:
    rows = []
    apps = 0
    with make_executor(args.workers) as executor:
        keys = args.policies
        for key in keys:
            telemetry = _telemetry_from_args(
                args, suffix=f".{key}" if len(keys) > 1 else "")
            result = _run_or_exit(_stream_scenario(args, key), executor,
                                  telemetry)
            _print_telemetry(result, telemetry)
            m = result.metrics
            apps = m["apps"]
            rows.append([m["policy"], m["antt"], m["stp"],
                         m["device_throughput"], 100.0 * m["utilization"],
                         m["wait_p50"], m["wait_p99"],
                         m["latency_p50"], m["latency_p99"]])
            if args.verbose:
                print(f"\n{m['policy']}: makespan {m['makespan']:,} "
                      f"cycles, {len(result.groups)} groups")
                for g in result.groups:
                    print(f"  @{g['start_cycle']:>10,} "
                          f"{' + '.join(g['members']):46} "
                          f"{g['cycles']:>9,} cycles")

    kind = f"trace:{args.trace}" if args.trace else args.arrival
    print()
    print(render_table(
        ["policy", "ANTT", "STP", "IPC", "util %", "wait p50", "wait p99",
         "lat p50", "lat p99"],
        rows,
        title=f"Online stream: {apps} apps, {kind} arrivals, "
              f"NC={args.nc} (ANTT lower / STP higher is better)"))
    return 0


def cmd_run_fleet(args) -> int:
    rows = []
    summaries = []
    apps = 0
    with make_executor(args.workers) as executor:
        keys = _unique(args.placement)
        for key in keys:
            try:
                scenario = _fleet_scenario(args, key)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
            telemetry = _telemetry_from_args(
                args, suffix=f".{key}" if len(keys) > 1 else "")
            result = _run_or_exit(scenario, executor, telemetry)
            _print_telemetry(result, telemetry)
            m = result.metrics
            apps = m["apps"]
            summaries.append(m)
            if "antt" in m:
                rows.append([m["placement"], m["antt"], m["stp"],
                             m["fleet_throughput"],
                             100.0 * m["utilization"],
                             m["load_imbalance"], m["wait_p50"],
                             m["wait_p99"], m["latency_p99"]])
            else:
                # Fully-degraded run: nothing was served, so there is
                # no stream scorecard row to print.
                print(f"\n{m['placement']}: no applications served "
                      f"({m.get('rejected', 0)} rejected)")
            if args.verbose:
                print(f"\n{m['placement']}: makespan {m['makespan']:,} "
                      f"cycles")
                hetero = bool(result.scenario["devices"].get("per_device"))
                for dev in result.devices:
                    suffix = f" [{dev['config']}]" if hetero else ""
                    faulty = ""
                    if dev.get("down_cycles") or dev.get("lost_cycles"):
                        faulty = (f", {dev['down_cycles']:,} down / "
                                  f"{dev['lost_cycles']:,} lost cycles")
                    print(f"  device {dev['device_id']}: "
                          f"{dev['apps_served']:>3} apps in "
                          f"{dev['groups']:>3} groups, "
                          f"{dev['busy_cycles']:>12,} busy cycles"
                          f"{suffix}{faulty}")

    kind = f"trace:{args.trace}" if args.trace else args.arrival
    print()
    if rows:
        print(render_table(
            ["placement", "ANTT", "STP", "IPC", "util %", "imbalance",
             "wait p50", "wait p99", "lat p99"],
            rows,
            title=f"Fleet of {args.devices} devices x {args.policy}: "
                  f"{apps} apps, {kind} arrivals, NC={args.nc} "
                  f"(ANTT/imbalance lower, STP higher is better)"))
    for m in summaries:
        if "per_device_utilization" in m:
            utils = " ".join(f"{100.0 * u:.0f}%"
                             for u in m["per_device_utilization"])
            app_counts = " ".join(str(a) for a in m["per_device_apps"])
            print(f"{m['placement']:>14}: util/device = {utils}   "
                  f"apps/device = {app_counts}")
        if "availability" in m:
            reasons = ", ".join(f"{reason}: {count}" for reason, count
                                in m["rejected_by_reason"].items()) or "-"
            print(f"{m['placement']:>14}: availability = "
                  f"{100.0 * m['availability']:.1f}%   served "
                  f"{m['served']}/{m['arrivals']}   rejected "
                  f"{m['rejected']} ({reasons})   retries "
                  f"{m['retries_total']}")
    return 0


def cmd_scalability(args) -> int:
    config = gtx480()
    points = args.sms
    rows = []
    for name in _select_benchmarks(args.benchmarks):
        ipcs = []
        for sms in points:
            res = simulate(config.with_sms(sms),
                           [Application(name, RODINIA_SPECS[name])])
            ipcs.append(res.app_stats[0].ipc(res.cycles))
        rows.append([name] + ipcs)
    print(render_table(["benchmark"] + [f"{n} SMs" for n in points], rows,
                       ndigits=1, title="IPC vs SM count (Fig 3.5/3.6)"))
    return 0


def add_telemetry_arguments(p, trace_flag: str = "--trace-out") -> None:
    """Telemetry options shared by run / run-stream / run-fleet.

    The flag spelling differs per command (``repro run --trace``, but
    ``--trace-out`` on the stream/fleet wrappers where ``--trace``
    already means "replay this workload trace file"); the ``trace_out``
    destination is shared.  Telemetry never changes results — traced
    and plain runs serialize byte-identically.
    """
    p.add_argument(trace_flag, dest="trace_out", default=None,
                   metavar="PATH",
                   help="record the run's virtual-clock trace events "
                        "and write them here (results are "
                        "byte-identical with tracing on or off)")
    p.add_argument("--trace-format", default="jsonl",
                   choices=("jsonl", "chrome"),
                   help="trace sink format: jsonl lines or a Chrome "
                        "trace_event file for Perfetto (default jsonl)")
    p.add_argument("--profile", action="store_true",
                   help="time the run's wall-clock phases (simulate, "
                        "solver, placement, ...) and print a summary "
                        "table; wall-clock only, never the virtual "
                        "clock")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU multi-application co-scheduling reproduction "
                    "(DATE 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list benchmark models or any "
                                    "registry kind")
    p.add_argument("--kind", default=None,
                   choices=sorted(REGISTRY.kinds()),
                   help="registry kind to list (default: the benchmark "
                        "table)")

    p = sub.add_parser("run", help="execute one scenario JSON")
    p.add_argument("scenario", help="path to a scenario .json file")
    p.add_argument("--out", default=None,
                   help="write the full RunResult JSON here")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="override the scenario's worker count (results "
                        "are bit-identical for any value)")
    p.add_argument("--backend", default=None,
                   choices=REGISTRY.names("engine-backends"),
                   help="override the scenario's engine backend "
                        "(results are bit-identical for any value)")
    add_telemetry_arguments(p, trace_flag="--trace")

    p = sub.add_parser("sweep", help="run a base scenario x parameter grid")
    p.add_argument("sweep", help="path to a sweep .json file "
                                 "({'base': scenario, 'grid': {path: "
                                 "[values]}})")
    p.add_argument("--out-dir", default="sweep-results",
                   help="directory for per-point result JSONs "
                        "(default sweep-results)")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="override every point's worker count")

    p = sub.add_parser("campaign", help="run a sharded, resumable "
                                        "campaign to a merged result")
    p.add_argument("campaign", help="path to a campaign .json file "
                                    "({'base': scenario, 'grid': {...}, "
                                    "'shard': {...}})")
    p.add_argument("--out-dir", default="campaign-results",
                   help="directory for shard results, the manifest, and "
                        "the merged result (default campaign-results)")
    p.add_argument("--resume", action="store_true",
                   help="skip shards already committed in --out-dir "
                        "(verified per the spec's resume policy)")
    p.add_argument("--shard-workers", type=_positive_int, default=1,
                   help="worker processes for the shard fan-out "
                        "(results are byte-identical for any value)")
    p.add_argument("--max-shards", type=_positive_int, default=None,
                   help="commit at most N pending shards then stop "
                        "without merging (exit 3; the deterministic "
                        "interruption the CI resume test uses)")

    p = sub.add_parser("profile", help="solo-profile benchmarks")
    p.add_argument("benchmarks", nargs="*", help="benchmark names "
                   "(default: all)")

    p = sub.add_parser("classify", help="profile and classify benchmarks")
    p.add_argument("benchmarks", nargs="*")

    p = sub.add_parser("interference",
                       help="measure the class slowdown matrix")
    p.add_argument("--samples", type=_positive_int, default=2,
                   help="benchmark pairs per class pair (default 2)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for the pair co-runs")

    p = sub.add_parser("run-queue", help="drain a queue under policies")
    p.add_argument("--queue", default="paper",
                   choices=["paper"] + sorted(DISTRIBUTIONS),
                   help="queue to run (default: the paper's 14-app queue)")
    p.add_argument("--nc", type=int, default=2, choices=(2, 3),
                   help="concurrent applications per group")
    p.add_argument("--length", type=_positive_int, default=20,
                   help="queue length for distribution queues")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--samples", type=_positive_int, default=2)
    p.add_argument("--policies", nargs="+",
                   default=["serial", "fcfs", "ilp", "ilp-smra"],
                   choices=REGISTRY.names("policies") + ["all"])
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for group execution and "
                        "interference measurement (default: serial)")
    p.add_argument("--backend", default="event",
                   choices=REGISTRY.names("engine-backends"),
                   help="engine backend for group simulations (results "
                        "are bit-identical; default event)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print each group's members and cycles")

    def add_stream_arguments(p, default_apps):
        """Arrival-stream options shared by run-stream and run-fleet.

        Every random choice (queue mix, Poisson/bursty gaps) derives
        from ``--seed``, so a scenario is reproducible from its command
        line alone; rates and gaps reject non-positive values up front.
        """
        p.add_argument("--apps", type=_positive_int, default=default_apps,
                       help=f"stream length (default {default_apps})")
        p.add_argument("--arrival", default="poisson",
                       choices=REGISTRY.names("streams"),
                       help="arrival process (default poisson)")
        p.add_argument("--trace", default=None,
                       help="replay a '<cycle> <benchmark>' trace file "
                            "(overrides --arrival/--apps)")
        p.add_argument("--mean-gap", type=_positive_float, default=5000.0,
                       help="mean Poisson inter-arrival gap in cycles")
        p.add_argument("--burst-size", type=_positive_int, default=8)
        p.add_argument("--burst-gap", type=_positive_float, default=50000.0,
                       help="mean quiet gap between bursts in cycles")
        p.add_argument("--nc", type=int, default=2, choices=(2, 3),
                       help="concurrent applications per group")
        p.add_argument("--seed", type=_seed, default=42,
                       help="seed for the stream mix and arrival gaps "
                            "(default 42)")
        p.add_argument("--scale", type=_positive_float, default=1.0,
                       help="kernel scale factor (smaller = faster runs)")
        p.add_argument("--synthetic-fraction", type=_fraction, default=0.5,
                       help="fraction of stream apps drawn from the "
                            "synthetic generator (rest are Rodinia)")
        p.add_argument("--samples", type=_positive_int, default=1,
                       help="benchmark pairs per class pair for the "
                            "interference matrix")
        p.add_argument("--backend", default="event",
                       choices=REGISTRY.names("engine-backends"),
                       help="engine backend for group simulations "
                            "(results are bit-identical; default event)")

    p = sub.add_parser("run-stream",
                       help="run an online arrival stream under policies")
    add_stream_arguments(p, default_apps=50)
    p.add_argument("--policies", nargs="+",
                   default=["fcfs", "backfill", "ilp"],
                   choices=REGISTRY.names("online-policies"))
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for profiling/interference")
    add_telemetry_arguments(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print the scheduled timeline per policy")

    p = sub.add_parser("run-fleet",
                       help="drain one arrival stream across a device fleet")
    add_stream_arguments(p, default_apps=200)
    p.add_argument("--devices", type=_positive_int, default=4,
                   help="number of simulated devices (default 4)")
    p.add_argument("--device-configs", nargs="+", default=None,
                   choices=REGISTRY.names("gpu-configs"),
                   help="gpu-config name(s): one name for the whole "
                        "fleet, or exactly --devices names for a "
                        "heterogeneous big/little fleet "
                        "(default: gtx480 everywhere)")
    p.add_argument("--placement", nargs="+",
                   default=["round-robin", "least-loaded", "interference"],
                   choices=REGISTRY.names("placements"),
                   help="placement policies to compare (default: all)")
    p.add_argument("--policy", default="fcfs",
                   choices=REGISTRY.names("online-policies"),
                   help="per-device online policy (default fcfs)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for same-instant group "
                        "simulations and profiling")
    p.add_argument("--faults", default="none",
                   choices=REGISTRY.names("faults"),
                   help="fault injection: scheduled events, mtbf churn, "
                        "or transient group failures (default none)")
    p.add_argument("--fault-events", nargs="+", default=None,
                   metavar="CYCLE:DEVICE:down|up",
                   help="explicit outage events for --faults scheduled")
    p.add_argument("--mtbf", type=_positive_float, default=500000.0,
                   help="mean cycles between failures per device "
                        "(--faults mtbf)")
    p.add_argument("--mttr", type=_positive_float, default=100000.0,
                   help="mean repair time in cycles (--faults mtbf)")
    p.add_argument("--fault-horizon", type=_positive_int,
                   default=2000000,
                   help="cycle horizon for generated mtbf churn")
    p.add_argument("--fail-prob", type=_fraction, default=0.0,
                   help="transient group-failure probability")
    p.add_argument("--max-retries", type=_nonneg_int, default=2,
                   help="attempts per app before a transient failure "
                        "is final")
    p.add_argument("--fault-seed", type=_seed, default=0,
                   help="seed for churn and transient failures")
    p.add_argument("--admission", default="none",
                   choices=REGISTRY.names("admission"),
                   help="admission control policy (default none)")
    p.add_argument("--queue-cap", type=_positive_int, default=8,
                   help="fleet-wide waiting-apps cap "
                        "(--admission queue-cap)")
    p.add_argument("--admission-mode", default="reject",
                   choices=("reject", "defer"),
                   help="what happens at the cap (default reject)")
    p.add_argument("--defer-gap", type=_positive_int, default=5000,
                   help="cycles between re-offers of a deferred arrival")
    p.add_argument("--max-defers", type=_nonneg_int, default=3,
                   help="re-offers before a deferred arrival is "
                        "rejected")
    p.add_argument("--deadline", type=_positive_int, default=50000,
                   help="turnaround budget in cycles "
                        "(--admission deadline)")
    add_telemetry_arguments(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print the per-device breakdown per placement")

    p = sub.add_parser("scalability", help="IPC vs SM count sweep")
    p.add_argument("benchmarks", nargs="*")
    p.add_argument("--sms", type=int, nargs="+",
                   default=[10, 15, 20, 25, 30, 60])

    return parser


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "campaign": cmd_campaign,
    "profile": cmd_profile,
    "classify": cmd_classify,
    "interference": cmd_interference,
    "run-queue": cmd_run_queue,
    "run-stream": cmd_run_stream,
    "run-fleet": cmd_run_fleet,
    "scalability": cmd_scalability,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
