"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

Every update happens on the coordinating loop's thread, in **serial
commit order** — the order in which results are merged back from the
executor, which is identical at any worker count.  Worker processes
never touch a registry; whatever they compute flows back through the
executor's deterministic merge and is counted by the coordinator.  Two
runs of the same scenario therefore produce byte-identical
``to_dict()`` snapshots at ``--workers 1`` and ``--workers 4``.

Histograms use fixed power-of-two bucket edges instead of adaptive
ones: adaptive buckets would depend on observation order nuances and
float summaries; integer counts in pinned buckets compare with ``==``.

Nothing here is ever serialized into the canonical ``RunResult`` JSON
— the registry rides the ``RunResult.telemetry`` side channel (a
``ClassVar`` the dataclass serializer ignores).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Upper bucket edges for histograms: 1, 2, 4, ... 2**30, +inf.
#: Fixed and global so any two histograms merge bucket-by-bucket.
HISTOGRAM_EDGES: Tuple[int, ...] = tuple(1 << i for i in range(31))


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_value(self) -> int:
        return self.value


class Gauge:
    """Last-write-wins integer gauge that also remembers its peak."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value: int) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def to_value(self) -> Dict[str, int]:
        return {"value": self.value, "peak": self.peak}


class Histogram:
    """Integer histogram over the fixed power-of-two edges."""

    __slots__ = ("name", "counts", "total", "count", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * (len(HISTOGRAM_EDGES) + 1)
        self.total = 0
        self.count = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        idx = len(HISTOGRAM_EDGES)
        for i, edge in enumerate(HISTOGRAM_EDGES):
            if value <= edge:
                idx = i
                break
        self.counts[idx] += 1
        self.total += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_value(self) -> Dict[str, Any]:
        buckets = {}
        for i, n in enumerate(self.counts):
            if n:
                label = (f"le_{HISTOGRAM_EDGES[i]}"
                         if i < len(HISTOGRAM_EDGES) else "inf")
                buckets[label] = n
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "buckets": buckets}


class MetricsRegistry:
    """Name → instrument table, created on first touch.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (a name
    is pinned to its first instrument type; mixing types is an error).
    ``merge`` folds another registry in — used by ``run_fleet`` to fold
    per-device registries into the run registry in device-id order,
    i.e. the same serial commit order the result merge uses.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(f"metric {name!r} is a "
                            f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def to_dict(self) -> Dict[str, Any]:
        """Sorted, JSON-ready snapshot — the comparison currency."""
        return {name: self._metrics[name].to_value()
                for name in sorted(self._metrics)}

    def merge(self, other: "MetricsRegistry") -> None:
        for name in sorted(other._metrics):
            metric = other._metrics[name]
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                mine = self.gauge(name)
                mine.set(metric.value)
                if metric.peak > mine.peak:
                    mine.peak = metric.peak
            elif isinstance(metric, Histogram):
                mine = self.histogram(name)
                for i, n in enumerate(metric.counts):
                    mine.counts[i] += n
                mine.total += metric.total
                mine.count += metric.count
                for bound in (metric.min,):
                    if bound is not None:
                        mine.min = (bound if mine.min is None
                                    else min(mine.min, bound))
                for bound in (metric.max,):
                    if bound is not None:
                        mine.max = (bound if mine.max is None
                                    else max(mine.max, bound))
