"""Stream metrics: how well an online policy served an arrival stream.

Works on the per-application records of a
:class:`repro.runtime.StreamOutcome` (duck-typed: anything exposing
``records`` with ``arrival_cycle`` / ``start_cycle`` / ``finish_cycle``
per app, plus ``policy`` / ``makespan`` / ``total_instructions``).

Metric definitions (standard multi-programming metrics, solo times from
the profiler):

* **ANTT** — average normalized turnaround time: mean over apps of
  ``(finish − arrival) / solo``; 1.0 is a private machine with no
  queueing, lower is better.
* **STP** — system throughput: ``Σ solo / (finish − arrival)``, the
  number of "solo machines" the shared device replaced.
* **service slowdown** — mean ``(finish − start) / solo``: interference
  only, the §3.2.2 slowdown without the queueing wait.
* **wait / latency percentiles** — distribution of queueing wait
  (``start − arrival``) and completion latency (``finish − arrival``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

from .metrics import average_normalized_turnaround, weighted_speedup


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


@dataclass(frozen=True)
class StreamSummary:
    """One policy's scorecard over one arrival stream."""

    policy: str
    apps: int
    makespan: int
    device_throughput: float
    utilization: float
    antt: float
    stp: float
    service_slowdown: float
    wait_p50: float
    wait_p90: float
    wait_p99: float
    latency_p50: float
    latency_p90: float
    latency_p99: float


def per_app_slowdown(outcome, solo_cycles: Mapping[str, int]
                     ) -> Dict[str, float]:
    """Per-app normalized turnaround ``(finish − arrival) / solo``."""
    out = {}
    for name, rec in outcome.records.items():
        out[name] = rec.turnaround_cycles / max(1, solo_cycles[name])
    return out


def deadline_attainment(records: Mapping[str, Any],
                        deadline_cycles: int) -> float:
    """Fraction of served applications finishing within the deadline.

    An application attains its deadline when its turnaround (arrival →
    finish) is at most `deadline_cycles`.  Only *served* records count —
    rejected arrivals never attain anything, so SLO reporting divides
    by arrivals separately when it wants the stricter figure.
    """
    if deadline_cycles <= 0:
        raise ValueError(f"deadline_cycles must be > 0, got "
                         f"{deadline_cycles!r}")
    if not records:
        raise ValueError("deadline attainment of an empty record set")
    met = sum(1 for rec in records.values()
              if rec.turnaround_cycles <= deadline_cycles)
    return met / len(records)


def _empty_summary(outcome) -> StreamSummary:
    """Defined zero-completion semantics: a stream where nothing was
    served (e.g. every arrival rejected by admission control) summarizes
    to an all-zero scorecard instead of crashing in ``percentile()``.
    Zeros (not NaN) keep the summary JSON-portable — strict JSON has no
    NaN literal — and ``apps == 0`` is the unambiguous emptiness flag.
    """
    return StreamSummary(
        policy=outcome.policy, apps=0, makespan=outcome.makespan,
        device_throughput=outcome.device_throughput,
        utilization=outcome.utilization,
        antt=0.0, stp=0.0, service_slowdown=0.0,
        wait_p50=0.0, wait_p90=0.0, wait_p99=0.0,
        latency_p50=0.0, latency_p90=0.0, latency_p99=0.0)


def summarize_stream(outcome, solo_cycles: Mapping[str, int]
                     ) -> StreamSummary:
    """Compute the :class:`StreamSummary` of one stream outcome."""
    records = list(outcome.records.values())
    if not records:
        return _empty_summary(outcome)
    missing = [r.name for r in records if r.name not in solo_cycles]
    if missing:
        raise ValueError(f"missing solo cycles for: {', '.join(missing)}")

    # ANTT / STP come from the shared metric definitions in
    # :mod:`.metrics`, fed with turnaround (arrival → finish) as the
    # "shared" time — one source of truth with the batch figures.
    solo = {r.name: solo_cycles[r.name] for r in records}
    turnaround = {r.name: r.turnaround_cycles for r in records}
    service: List[float] = []
    waits: List[float] = []
    latencies: List[float] = []
    for rec in records:
        service.append(rec.service_cycles / max(1, solo[rec.name]))
        waits.append(float(rec.wait_cycles))
        latencies.append(float(rec.turnaround_cycles))

    return StreamSummary(
        policy=outcome.policy,
        apps=len(records),
        makespan=outcome.makespan,
        device_throughput=outcome.device_throughput,
        utilization=outcome.utilization,
        antt=average_normalized_turnaround(solo, turnaround),
        stp=weighted_speedup(solo, turnaround),
        service_slowdown=sum(service) / len(service),
        wait_p50=percentile(waits, 50),
        wait_p90=percentile(waits, 90),
        wait_p99=percentile(waits, 99),
        latency_p50=percentile(latencies, 50),
        latency_p90=percentile(latencies, 90),
        latency_p99=percentile(latencies, 99),
    )
