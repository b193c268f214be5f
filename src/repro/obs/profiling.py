"""Wall-clock phase profiling — strictly outside the virtual clock.

:class:`PhaseProfiler` times named phases of the host process
(``simulate`` / ``placement`` / ``solver`` / ``merge``) with
``time.perf_counter``.  Wall-clock numbers never feed back into any
scheduling decision, never enter a
:class:`~repro.obs.trace.TraceEvent`, and never reach the canonical
``RunResult`` JSON — they exist only for the ``--profile`` summary
table and the ``telemetry_overhead`` benchmark entry.

Usage::

    prof = PhaseProfiler()
    with prof.phase("placement"):
        device = placement.choose(entry, now, up, ctx)
    print(prof.format_table())

Loops whose profiler may be ``None`` write ``with phase_of(profiler,
"simulate"):`` — :func:`phase_of` hands back one shared
``nullcontext`` when profiling is off, so an unprofiled run pays a
function call per phase and never touches the clock.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Canonical phase names used by the engines (callers may add more).
PHASES: Tuple[str, ...] = ("simulate", "placement", "solver", "merge")


_NO_PHASE = nullcontext()


def phase_of(profiler: Optional[PhaseProfiler],
             name: str) -> AbstractContextManager:
    """``profiler.phase(name)``, or a shared no-op when `profiler` is None."""
    return _NO_PHASE if profiler is None else profiler.phase(name)


class PhaseProfiler:
    """Accumulates wall-clock time per named phase."""

    def __init__(self) -> None:
        #: name -> [calls, total_seconds, max_seconds]
        self._phases: Dict[str, List[float]] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            slot = self._phases.get(name)
            if slot is None:
                self._phases[name] = [1, elapsed, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
                if elapsed > slot[2]:
                    slot[2] = elapsed

    def __len__(self) -> int:
        return len(self._phases)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Phase → {calls, total_s, max_s, mean_s}, sorted by name."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._phases):
            calls, total, peak = self._phases[name]
            out[name] = {"calls": int(calls),
                         "total_s": round(total, 6),
                         "max_s": round(peak, 6),
                         "mean_s": round(total / calls, 6) if calls else 0.0}
        return out

    def merge(self, other: "PhaseProfiler") -> None:
        for name, (calls, total, peak) in other._phases.items():
            slot = self._phases.get(name)
            if slot is None:
                self._phases[name] = [calls, total, peak]
            else:
                slot[0] += calls
                slot[1] += total
                if peak > slot[2]:
                    slot[2] = peak

    def format_table(self) -> str:
        """The ``--profile`` summary table (phases sorted by total time)."""
        rows = sorted(self._phases.items(), key=lambda kv: (-kv[1][1], kv[0]))
        if not rows:
            return "profile: no phases recorded"
        grand = sum(slot[1] for _, slot in rows) or 1.0
        lines = [f"{'phase':<14} {'calls':>8} {'total s':>10} "
                 f"{'mean ms':>10} {'max ms':>10} {'share':>7}"]
        for name, (calls, total, peak) in rows:
            mean_ms = 1e3 * total / calls if calls else 0.0
            lines.append(f"{name:<14} {int(calls):>8} {total:>10.4f} "
                         f"{mean_ms:>10.4f} {1e3 * peak:>10.4f} "
                         f"{100.0 * total / grand:>6.1f}%")
        return "\n".join(lines)
