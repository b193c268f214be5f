"""Deterministic observability: tracing, metrics, profiling.

Three instruments, one bundle (:class:`Telemetry`), near-zero overhead
when off.  Loops take their instruments from :func:`instruments`, which
stands a no-op :class:`Tracer` and a throwaway :class:`MetricsRegistry`
in for the missing ones, so trace and metric emission sites run
unconditionally; profiled phases go through
:func:`~repro.obs.profiling.phase_of`, a shared no-op context when no
profiler is attached:

* :mod:`.trace` — virtual-clock :class:`TraceEvent` stream with JSONL
  and Chrome ``trace_event`` exporters (open a fleet run in Perfetto).
* :mod:`.metrics` — deterministic, worker-count-invariant counters /
  gauges / histograms, updated in serial commit order.
* :mod:`.profiling` — wall-clock phase timers for ``--profile``,
  strictly outside the virtual-clock path.

The hard invariant (tested, CI-enforced): canonical ``RunResult`` JSON
is byte-identical with telemetry off vs on, at any worker count.
Telemetry observes the timeline; it never participates in it.

Registry kinds (``REGISTRY`` kind ``"telemetry"``): ``none`` (no-op,
canonicalized away by :class:`~repro.api.scenario.TelemetrySpec`),
``trace``, ``metrics``, ``profile``, ``full``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import REGISTRY

from .metrics import (Counter, Gauge, Histogram, HISTOGRAM_EDGES,
                      MetricsRegistry)
from .profiling import PHASES, PhaseProfiler, phase_of
from .trace import (EVENT_KINDS, FLEET_PID, TRACE_FORMATS,
                    TRACE_SCHEMA_VERSION, RecordingTracer, TraceEvent,
                    Tracer, export_chrome, export_jsonl, load_events,
                    render_trace, write_trace)

__all__ = [
    "Telemetry", "make_telemetry", "instruments",
    "Tracer", "RecordingTracer", "TraceEvent", "EVENT_KINDS",
    "TRACE_FORMATS", "TRACE_SCHEMA_VERSION", "FLEET_PID",
    "export_jsonl", "export_chrome", "render_trace", "write_trace",
    "load_events",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "HISTOGRAM_EDGES",
    "PhaseProfiler", "PHASES", "phase_of",
]


class Telemetry:
    """The bundle threaded through engines: tracer + metrics + profiler.

    Any of the three may be ``None`` (the registry kinds build the
    combinations).  ``sinks``/``path`` remember where a trace should be
    written; :meth:`export` performs the writes after a run.  A single
    sink writes ``path`` verbatim; multiple sinks write
    ``{path}.{format}`` each so both renderings of one run can coexist.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profiler: Optional[PhaseProfiler] = None,
                 sinks: Sequence[str] = (), path: str = "") -> None:
        for fmt in sinks:
            if fmt not in TRACE_FORMATS:
                raise ValueError(f"unknown trace sink {fmt!r} "
                                 f"(expected one of {TRACE_FORMATS})")
        if sinks and not path:
            raise ValueError("telemetry sinks need a path")
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.sinks = tuple(sinks)
        self.path = path

    @property
    def events(self) -> List[TraceEvent]:
        if isinstance(self.tracer, RecordingTracer):
            return self.tracer.events
        return []

    def sink_paths(self) -> Dict[str, str]:
        if not self.sinks or not self.path:
            return {}
        if len(self.sinks) == 1:
            return {self.sinks[0]: self.path}
        return {fmt: f"{self.path}.{fmt}" for fmt in self.sinks}

    def export(self) -> List[str]:
        """Write every configured sink; returns the paths written."""
        written = []
        for fmt, path in self.sink_paths().items():
            written.append(write_trace(self.events, path, fmt))
        return written

    def snapshot(self) -> Dict[str, Any]:
        """Side-channel summary for ``RunResult.telemetry``.

        Everything except ``profile`` is deterministic and
        worker-count-invariant; ``profile`` is wall-clock and exists
        for human eyes only.  None of this ever enters the canonical
        result JSON.
        """
        out: Dict[str, Any] = {}
        if self.tracer is not None:
            out["events"] = len(self.events)
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.profiler is not None:
            out["profile"] = self.profiler.to_dict()
        return out


def instruments(telemetry: Optional[Telemetry]
                ) -> Tuple[Tracer, MetricsRegistry, Optional[PhaseProfiler]]:
    """The run's ``(tracer, metrics, profiler)``, stand-ins for the gaps.

    A missing tracer becomes the no-op base :class:`Tracer` and missing
    metrics a throwaway :class:`MetricsRegistry`, so emission sites
    never ask whether telemetry is attached.  The profiler stays
    ``None``: :func:`phase_of` already handles that.  (Test the fields
    with ``is None``: an empty recording tracer or registry is falsy.)
    """
    if telemetry is None:
        telemetry = Telemetry()
    tracer = Tracer() if telemetry.tracer is None else telemetry.tracer
    metrics = (MetricsRegistry() if telemetry.metrics is None
               else telemetry.metrics)
    return tracer, metrics, telemetry.profiler


# -- registry wiring ---------------------------------------------------------

def _make_none(sinks: Sequence[str] = (), path: str = "") -> None:
    return None


def _make_trace(sinks: Sequence[str] = (), path: str = "") -> Telemetry:
    return Telemetry(tracer=RecordingTracer(), sinks=sinks, path=path)


def _make_metrics(sinks: Sequence[str] = (), path: str = "") -> Telemetry:
    return Telemetry(metrics=MetricsRegistry())


def _make_profile(sinks: Sequence[str] = (), path: str = "") -> Telemetry:
    return Telemetry(profiler=PhaseProfiler())


def _make_full(sinks: Sequence[str] = (), path: str = "") -> Telemetry:
    return Telemetry(tracer=RecordingTracer(), metrics=MetricsRegistry(),
                     profiler=PhaseProfiler(), sinks=sinks, path=path)


REGISTRY.register("telemetry", "none", _make_none)
REGISTRY.register("telemetry", "trace", _make_trace)
REGISTRY.register("telemetry", "metrics", _make_metrics)
REGISTRY.register("telemetry", "profile", _make_profile)
REGISTRY.register("telemetry", "full", _make_full)


def make_telemetry(kind: str, sinks: Sequence[str] = (),
                   path: str = "") -> Optional[Telemetry]:
    """Build the telemetry bundle registered under ``kind``."""
    return REGISTRY.create("telemetry", kind, sinks=tuple(sinks), path=path)
