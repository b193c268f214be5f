"""Layer spans for the traced benchmark run.

The program itself carries no benchmark instrumentation.  Instead,
:func:`instrument` replaces the public entry points of each
``src/repro`` layer with wrappers that record one span per call:
name, start, end, parent span id and run id.  Spans stay in memory
(:class:`Tracer`) and are written once, when the traced process ends.

A wrapper is installed on the concrete class or module the run actually
looks up: a method on the named base class and on every subclass that
overrides it, a function on every loaded ``repro`` module that holds a
reference to it (``from x import f`` copies the reference).

A layer's self time is the duration of its spans minus the part of
each span's interval that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Modules imported before wrapping, so every subclass and every
#: re-exported reference exists when the wrappers go in.
MODULES = (
    "repro.api", "repro.api.runner", "repro.api.scenario",
    "repro.campaign", "repro.cluster", "repro.cluster.fleet",
    "repro.cluster.placement", "repro.core", "repro.core.interference",
    "repro.core.policies", "repro.core.profiling", "repro.core.scheduler",
    "repro.gpusim", "repro.gpusim.dispatcher", "repro.gpusim.gpu",
    "repro.gpusim.vector", "repro.ilp", "repro.ilp.model",
    "repro.runtime", "repro.runtime.engine", "repro.runtime.executors",
    "repro.runtime.online", "repro.analysis", "repro.analysis.fleet",
    "repro.analysis.streams", "repro.workloads",
)

#: Span name -> entry points, as ``module:Class.method`` (the base
#: class; overriding subclasses are found) or ``module:function``.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("gpusim.run", ("repro.gpusim.gpu:GPU.run",)),
    ("gpusim.dispatch", ("repro.gpusim.dispatcher:WorkDistributor.dispatch",)),
    ("gpusim.init", ("repro.gpusim.gpu:GPU.__init__",)),
    ("gpusim.simulate", ("repro.gpusim.gpu:simulate",)),
    ("core.make_context", ("repro.core.scheduler:make_context",)),
    ("core.profile", ("repro.core.profiling:Profiler.profile",)),
    ("core.interference", ("repro.core.interference:measure_interference",)),
    ("core.run_group", ("repro.core.scheduler:run_group",)),
    ("core.plan", ("repro.core.policies:Policy.plan",)),
    ("ilp.solve", ("repro.ilp.model:Model.solve",)),
    ("runtime.executor", ("repro.runtime.executors:Executor.run_groups",
                          "repro.runtime.executors:Executor.run_device_groups",
                          "repro.runtime.executors:Executor.submit_group",
                          "repro.runtime.executors:Executor.submit_job")),
    ("runtime.next_group", ("repro.runtime.online:OnlinePolicy.next_group",)),
    ("runtime.run_stream", ("repro.runtime.engine:run_stream",)),
    ("cluster.run_fleet", ("repro.cluster.fleet:run_fleet",)),
    ("cluster.place", ("repro.cluster.placement:PlacementPolicy.choose",)),
    ("workloads.arrivals", ("repro.api.runner:build_arrivals",)),
    ("analysis.summarize", ("repro.analysis.streams:summarize_stream",
                            "repro.analysis.fleet:summarize_fleet",
                            "repro.analysis.fleet:summarize_faults")),
    ("api.parse", ("repro.api.scenario:Scenario.from_dict",
                   "repro.campaign.spec:CampaignSpec.from_dict")),
    ("api.to_json", ("repro.api.runner:RunResult.to_json",)),
    ("campaign.commit", ("repro.campaign.manifest:atomic_write",
                         "repro.campaign.manifest:write_manifest")),
)

# Span record fields (lists, so a span can be closed in place).
ID, NAME, START, END, PARENT, RUN = range(6)


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._stack: List[list] = []

    def wrap(self, name: str, fn: Callable,
             hooks: Tuple[Optional[Callable], Optional[Callable]] = (
                 None, None)) -> Callable:
        """`fn` recording a `name` span per call.

        `hooks` is ``(probe, after)``: ``probe(args)`` runs as the call
        begins, ``after(counts, args, result, probed)`` when it returns,
        to update :attr:`counts`.
        """
        stack, spans = self._stack, self.spans
        counts, run_id = self.counts, self.run_id
        probe, after = hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][ID] if stack else None
            span = [len(spans), name, 0.0, 0.0, parent, run_id]
            spans.append(span)
            stack.append(span)
            before = probe(args) if probe is not None else None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result, before)
            return result

        return traced


def _count_events(counts, args, result, _before):
    counts["gpusim.events"] += result.events
    gpu = args[0]
    if hasattr(gpu, "_native_lib"):  # a vector-backend engine
        counts["gpusim.vector_runs"] += 1
        counts["gpusim.native_runs"] += getattr(gpu, "_native",
                                                None) is not None


def _count_sims(counts, args, _result, before):
    counts["core.profile_sims"] += args[0].simulations_run - before


#: ``(probe, after)`` counter hooks of some layers (see Tracer.wrap).
_HOOKS = {
    "gpusim.run": (None, _count_events),
    "core.profile": (lambda args: args[0].simulations_run, _count_sims),
}


def _subclasses(cls) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def rebind_function(original: Callable, replacement: Callable) -> int:
    """Point every loaded ``repro`` module's reference to `original` at
    `replacement`; return how many references were replaced."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def _wrap_method(tracer: Tracer, name: str, cls: type, method: str,
                 hooks) -> None:
    for klass in set(_subclasses(cls)):
        raw = klass.__dict__.get(method)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(klass, method,
                    classmethod(tracer.wrap(name, raw.__func__, hooks)))
        else:
            setattr(klass, method, tracer.wrap(name, raw, hooks))


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` with `tracer` spans."""
    for module in MODULES:
        importlib.import_module(module)
    for name, targets in LAYERS:
        hooks = _HOOKS.get(name, (None, None))
        for target in targets:
            module_name, _, path = target.partition(":")
            module = sys.modules[module_name]
            owner, _, attr = path.rpartition(".")
            if owner:
                _wrap_method(tracer, name, getattr(module, owner), attr,
                             hooks)
            else:
                original = getattr(module, attr)
                if not rebind_function(original,
                                       tracer.wrap(name, original, hooks)):
                    raise RuntimeError(f"no reference to {target} found")


# -- span arithmetic ----------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], low: float,
            high: float) -> float:
    """Length of the union of `intervals`, clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(
        list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {span[ID]: (span[END] - span[START])
            - covered(children.get(span[ID], ()), span[START], span[END])
            for span in spans}


def layer_totals(spans: List[list]) -> Dict[str, Tuple[float, int]]:
    """Span name -> (summed self seconds, calls).

    A call nested directly in a span of the same name (a subclass
    method calling its base, a spec parser parsing its base scenario)
    adds self time but is not counted as another call.
    """
    selfs = self_times(spans)
    names = {span[ID]: span[NAME] for span in spans}
    totals: Dict[str, list] = collections.defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[span[NAME]]
        entry[0] += selfs[span[ID]]
        entry[1] += names.get(span[PARENT]) != span[NAME]
    return {name: (secs, calls) for name, (secs, calls) in totals.items()}


def unattributed(spans: List[list], low: float, high: float) -> float:
    """Share of ``[low, high]`` that no top-level span covers."""
    roots = [(s[START], s[END]) for s in spans if s[PARENT] is None]
    return 1.0 - covered(roots, low, high) / (high - low)
