#!/usr/bin/env python
"""Trace lint: structural invariants every committed trace must hold.

``repro run --trace`` (and ``run-stream`` / ``run-fleet``
``--trace-out``) record the virtual-clock event stream described in
``docs/observability.md``.  This script re-reads a trace file (JSONL or
Chrome ``trace_event`` — both exporters echo enough to validate) and
checks the invariants the engines guarantee by construction:

1. **Known, well-formed events** — every event kind is in the closed
   taxonomy and every cycle stamp is a non-negative integer.
2. **Monotonic per-device timelines** — for *timeline* kinds (launch,
   group_finish, group_failed, fault, recover) the cycle stamps of each
   device track never decrease.
3. **Launch/retire pairing** — per device track, a ``launch`` while a
   group is still in flight is an error; ``group_finish`` /
   ``group_failed`` / ``fault`` close the in-flight group (with
   matching members for finish/failed); nothing is left in flight at
   end of trace.

Usage::

    python tools/validate_trace.py TRACE [TRACE ...] [--quiet]

Exit status: 0 = every trace valid, 1 = violations found or a trace
could not be read.  The CI ``trace-smoke`` job runs this over a fresh
``fleet_faults`` trace in both formats; the unit tests drive
:func:`validate_events` directly.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.obs import EVENT_KINDS, TraceEvent, load_events  # noqa: E402

#: Kinds whose cycle stamps form a per-device timeline and
#: must therefore never decrease within one device track.
TIMELINE_KINDS = ("launch", "group_finish", "group_failed", "fault",
                  "recover")

#: Kinds that close an in-flight launch on their device track.
_CLOSERS = ("group_finish", "group_failed", "fault")


def _track(event: TraceEvent) -> str:
    """The per-device track key (`fleet` for device-less events)."""
    return "fleet" if event.device is None else f"device {event.device}"


def validate_events(events: Sequence[TraceEvent]) -> List[str]:
    """Every invariant violation in `events`, as human-readable lines."""
    errors: List[str] = []
    known = frozenset(EVENT_KINDS)
    timeline = frozenset(TIMELINE_KINDS)
    last_cycle = {}          # track -> last timeline cycle seen
    inflight = {}            # track -> (index, members) of open launch

    for index, ev in enumerate(events):
        where = f"event {index} ({ev.kind} @ {ev.cycle})"
        if ev.kind not in known:
            errors.append(f"{where}: unknown event kind {ev.kind!r}")
            continue
        if not isinstance(ev.cycle, int) or ev.cycle < 0:
            errors.append(f"{where}: cycle must be a non-negative "
                          f"integer, got {ev.cycle!r}")
            continue
        track = _track(ev)

        if ev.kind in timeline:
            prev = last_cycle.get(track)
            if prev is not None and ev.cycle < prev:
                errors.append(
                    f"{where}: {track} timeline went backwards "
                    f"({prev} -> {ev.cycle})")
            last_cycle[track] = max(prev or 0, ev.cycle)

        if ev.kind == "launch":
            if track in inflight:
                open_idx, members = inflight[track]
                errors.append(
                    f"{where}: {track} launched while the group from "
                    f"event {open_idx} ({', '.join(members)}) is still "
                    f"in flight")
            inflight[track] = (index, list(ev.data.get("members", [])))
        elif ev.kind in _CLOSERS:
            open_entry = inflight.pop(track, None)
            if ev.kind == "fault":
                # A fault closes any in-flight group (cancelled), but a
                # fault on an idle device is equally legal.
                pass
            elif open_entry is None:
                errors.append(f"{where}: {track} retired a group with "
                              f"no launch in flight")
            else:
                members = list(ev.data.get("members", []))
                if members != open_entry[1]:
                    errors.append(
                        f"{where}: {track} retired members {members} "
                        f"but launched {open_entry[1]} "
                        f"(event {open_entry[0]})")

    for track, (open_idx, members) in sorted(inflight.items()):
        errors.append(f"end of trace: {track} still has the group from "
                      f"event {open_idx} ({', '.join(members)}) in "
                      f"flight")
    return errors


def validate_file(path: str) -> List[str]:
    """Load and validate one trace file; unreadable = one error."""
    try:
        events = load_events(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"could not read trace: {exc}"]
    if not events:
        return ["trace contains no events"]
    return validate_events(events)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate repro trace files (JSONL or Chrome "
                    "trace_event)")
    parser.add_argument("traces", nargs="+", metavar="TRACE",
                        help="trace file(s) to validate")
    parser.add_argument("--quiet", action="store_true",
                        help="print nothing on success")
    args = parser.parse_args(argv)

    failed = False
    for path in args.traces:
        errors = validate_file(path)
        if errors:
            failed = True
            print(f"{path}: INVALID")
            for line in errors:
                print(f"  {line}")
        elif not args.quiet:
            count = len(load_events(path))
            print(f"{path}: OK ({count} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
