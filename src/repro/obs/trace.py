"""Virtual-clock tracing: typed events, a recording tracer, exporters.

Every interesting decision of the execution loops — arrivals, admission
verdicts, placement choices with per-candidate scores, launches, group
retirements, faults, recoveries and requeues — becomes one
:class:`TraceEvent` stamped with the **virtual** cycle at which it
happened.  Wall-clock time never appears in an event, which is what
makes a trace comparable across worker counts: the same scenario run at
``--workers 1`` and ``--workers 4`` produces byte-identical traces.

Two exporters:

* :func:`export_jsonl` — one sorted-keys JSON object per line; the
  stable, diff-able, machine-checkable format
  (``tools/validate_trace.py`` lints it).
* :func:`export_chrome` — the Chrome ``trace_event`` JSON array format
  (load it in ``chrome://tracing`` or https://ui.perfetto.dev):
  devices map to processes, a device's group slots map to threads,
  virtual cycles map to microsecond timestamps.  Launch events carry
  their duration, so group executions render as solid spans.

Every event is emitted on the fleet loop's one clock, after the
decision it describes, so a trace describes exactly the timeline the
result records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional, Tuple

#: Bumped when the shape of exported events changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: The closed event taxonomy (see docs/observability.md).  ``emit``
#: rejects unknown kinds so typos fail fast instead of producing
#: unvalidatable traces.
EVENT_KINDS: Tuple[str, ...] = (
    "arrival",          # application delivered to the loop
    "admission",        # admission-control verdict (admit/defer/reject)
    "reject",           # application dropped (no device will ever serve it)
    "placement",        # placement decision + per-candidate scores
    "plan",             # online policy (re)planned its backlog
    "launch",           # group started on a device
    "group_finish",     # group retired successfully
    "group_failed",     # group hit a transient fault and will retry
    "fault",            # device went DOWN
    "recover",          # device came back UP
    "requeue",          # displaced/failed work re-entered a queue
)

_KIND_SET = frozenset(EVENT_KINDS)

#: Chrome trace_event process id used for fleet-level events (arrival,
#: admission, placement) that belong to no single device.
#: Device ``d`` maps to pid ``d + 1``.
FLEET_PID = 0


@dataclass(frozen=True)
class TraceEvent:
    """One virtual-clock event.  Immutable, wall-clock free."""

    kind: str
    cycle: int
    device: Optional[int] = None
    app: str = ""
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "cycle": self.cycle}
        if self.device is not None:
            out["device"] = self.device
        if self.app:
            out["app"] = self.app
        if self.data:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceEvent":
        return cls(kind=payload["kind"], cycle=payload["cycle"],
                   device=payload.get("device"), app=payload.get("app", ""),
                   data=dict(payload.get("data", {})))


class Tracer:
    """Tracer protocol: loops call :meth:`emit`, nothing else.

    The base class is also the no-op: an untraced run emits into a
    plain ``Tracer()`` (see :func:`repro.obs.instruments`), so every
    emission site calls :meth:`emit` unconditionally.
    """

    def emit(self, kind: str, cycle: int, device: Optional[int] = None,
             app: str = "", **data: Any) -> None:
        """Record one event.  ``data`` must be JSON-serializable."""


class RecordingTracer(Tracer):
    """Append-only in-memory tracer; the only concrete implementation.

    Events are kept in emission order, which for the serial commit path
    is the canonical order: non-decreasing per device, globally ordered
    by the coordinating loop's virtual clock.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, kind, cycle, device=None, app="", **data):
        if kind not in _KIND_SET:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self.events.append(TraceEvent(kind=kind, cycle=int(cycle),
                                      device=device, app=app, data=data))

    def __len__(self) -> int:
        return len(self.events)


# -- exporters ---------------------------------------------------------------

def export_jsonl(events: Iterable[TraceEvent]) -> str:
    """One sorted-keys JSON object per line (trailing newline included)."""
    lines = [json.dumps(ev.to_dict(), sort_keys=True, separators=(",", ":"))
             for ev in events]
    return "\n".join(lines) + ("\n" if lines else "")


def _chrome_pid(event: TraceEvent) -> int:
    return FLEET_PID if event.device is None else event.device + 1


def export_chrome(events: Iterable[TraceEvent]) -> str:
    """Chrome ``trace_event`` JSON (the ``{"traceEvents": [...]}`` form).

    Mapping: device → process (pid = device + 1; pid 0 is the fleet
    coordinator), group slot → thread (tid = the device's running group
    index from the launch event, 0 otherwise), virtual cycle →
    timestamp in microseconds.  ``launch`` events become ``"X"``
    complete events spanning their group's cycles; everything else is
    an ``"i"`` instant.  Every exported event carries the original
    ``kind``/``app``/``data`` in ``args`` so a Chrome trace can be
    validated (and round-tripped) by ``tools/validate_trace.py``.
    """
    events = list(events)
    out: List[Dict[str, Any]] = []
    pids: Dict[int, str] = {FLEET_PID: "fleet"}
    for ev in events:
        if ev.device is not None:
            pids.setdefault(ev.device + 1, f"device {ev.device}")
    for pid in sorted(pids):
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": pids[pid]}})
    for ev in events:
        pid = _chrome_pid(ev)
        args: Dict[str, Any] = {"kind": ev.kind}
        if ev.app:
            args["app"] = ev.app
        args.update(ev.data)
        entry: Dict[str, Any] = {
            "name": ev.kind if not ev.app else f"{ev.kind} {ev.app}",
            "cat": "repro", "pid": pid,
            "tid": int(ev.data.get("group_index", 0)),
            "ts": ev.cycle, "args": args,
        }
        if ev.kind == "launch" and "cycles" in ev.data:
            entry["ph"] = "X"
            entry["dur"] = int(ev.data["cycles"])
            entry["name"] = "group " + ",".join(ev.data.get("members", ()))
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        out.append(entry)
    return json.dumps({"traceEvents": out,
                       "displayTimeUnit": "ms",
                       "otherData": {"schema": TRACE_SCHEMA_VERSION}},
                      sort_keys=True, separators=(",", ":")) + "\n"


TRACE_FORMATS: Tuple[str, ...] = ("jsonl", "chrome")


def render_trace(events: Iterable[TraceEvent], fmt: str) -> str:
    if fmt == "jsonl":
        return export_jsonl(events)
    if fmt == "chrome":
        return export_chrome(events)
    raise ValueError(f"unknown trace format {fmt!r} "
                     f"(expected one of {TRACE_FORMATS})")


def write_trace(events: Iterable[TraceEvent], path: str, fmt: str) -> str:
    """Render ``events`` as ``fmt`` into ``path``; returns ``path``."""
    text = render_trace(events, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def load_events(path: str) -> List[TraceEvent]:
    """Read a trace file (either format) back into events.

    JSONL loads verbatim.  Chrome traces are recognized by their
    ``traceEvents`` envelope and reconstructed from the ``args`` echo
    of each event (metadata records are skipped), so both formats are
    first-class inputs to the validator.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    # A Chrome trace is ONE JSON document with a "traceEvents" key;
    # JSONL is many lines that each parse alone (a multi-line file
    # fails the single-document parse with "Extra data").
    payload = None
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except ValueError:
            payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        events: List[TraceEvent] = []
        for entry in payload.get("traceEvents", []):
            if entry.get("ph") == "M":
                continue
            args = dict(entry.get("args", {}))
            kind = args.pop("kind", None)
            if kind is None:
                continue
            app = args.pop("app", "")
            pid = entry.get("pid", FLEET_PID)
            device = None if pid == FLEET_PID else pid - 1
            events.append(TraceEvent(kind=kind, cycle=int(entry["ts"]),
                                     device=device, app=app, data=args))
        return events
    return [TraceEvent.from_dict(json.loads(line))
            for line in text.splitlines() if line.strip()]
