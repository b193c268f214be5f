"""Placement policies: which device an arriving application joins.

The fleet event loop calls :meth:`PlacementPolicy.choose` once per
arrival, before the application enters any device queue.  Placement is
the fleet-level counterpart of the paper's group-formation problem: the
online policy on each device decides *who shares the device*, placement
decides *which device's resident mix* the application will eventually
share.

Three policies, in increasing awareness:

* :class:`RoundRobinPlacement` — rotate through devices regardless of
  state (the classic load-oblivious baseline).
* :class:`LeastLoadedPlacement` — join the shortest queue *per unit of
  capability*: the device with the fewest resident applications
  relative to its peak throughput, breaking ties toward the fewest
  absolute residents, then the one that frees up soonest, then the
  lowest device id.  On a homogeneous fleet the capability scaling is
  a no-op (identical choices to plain join-shortest-queue); on a
  big/little fleet a double-capability device absorbs proportionally
  more residents before it stops winning.
* :class:`InterferenceAwarePlacement` — route to the device whose
  resident class mix the Fig. 3.4 interference matrix predicts to
  degrade the arrival least (additive model of
  :class:`~repro.core.interference.InterferenceModel`), breaking ties
  like least-loaded.  Each device's *own* context supplies the matrix
  and the classification, so the score of a candidate device uses the
  slowdowns measured on that device's configuration.  Degrades to least-loaded when any device lacks an
  interference model.

All three are deterministic: same arrivals + same device states → same
choice, independent of executor workers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import REGISTRY

from repro.core.classification import AppClass
from repro.core.policies import PolicyContext, cached_class_of

from .device import Device, Entry


class PlacementPolicy:
    """Base class: route one arrival to one device of the fleet."""

    name = "base"
    #: True when choices use ctx.interference; callers (e.g. the CLI)
    #: measure the matrix only when placement or policy needs it.
    needs_interference = False

    def choose(self, entry: Entry, now: int, devices: Sequence[Device],
               ctx: PolicyContext) -> Device:
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """Rotate through devices in id order, ignoring their state."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def choose(self, entry, now, devices, ctx):
        device = devices[self._next % len(devices)]
        self._next += 1
        return device


def _least_loaded_key(device: Device,
                      now: int) -> Tuple[float, int, int, int]:
    """Capability-scaled join-shortest-queue ordering.

    The primary score is residents per unit of peak throughput; the raw
    resident count is the first tie-break so a homogeneous fleet (equal
    capabilities, where the division is order-preserving) ranks exactly
    as the classic least-loaded rule did.
    """
    load = device.load()
    return (load / device.config.peak_ipc, load,
            device.remaining_busy(now), device.device_id)


class LeastLoadedPlacement(PlacementPolicy):
    """Join the shortest queue (fewest residents per capability)."""

    name = "least-loaded"

    def choose(self, entry, now, devices, ctx):
        return min(devices, key=lambda d: _least_loaded_key(d, now))


class InterferenceAwarePlacement(PlacementPolicy):
    """Route to the device whose resident mix degrades the arrival least.

    The score of a device is the predicted slowdown the arriving
    application would suffer co-resident with that device's current
    applications: ``S(class_new | resident classes)`` under the additive
    model.  Lower is better; ties fall back to the least-loaded key so
    an empty device (score exactly 1.0) still wins over a loaded device
    with a benign mix.

    Every device carries its own context (:attr:`Device.ctx`), and the
    score consults **that device's** interference matrix, classifying the arrival and the residents with
    the device's profiler/thresholds — an application can be class M on
    a little device and MC on a big one, and the slowdown it predicts
    is the one measured on the candidate device's configuration.

    ``classes`` optionally pre-supplies name → :class:`AppClass` (tests,
    or callers that already classified the stream); these override the
    per-config classification on every device.  Otherwise classes come
    from each context's profiler + thresholds, a one-time cost per
    distinct (kernel spec, device config) thanks to the profile caches.
    """

    name = "interference"
    needs_interference = True

    def __init__(self, classes: Optional[Mapping[str, AppClass]] = None):
        self._classes: Dict[str, AppClass] = dict(classes or {})
        #: per-config memo dicts (heterogeneous fleets classify the
        #: same application differently per device configuration); the
        #: caller-supplied ``classes`` pre-seed every one of them.
        self._per_config: Dict[object, Dict[str, AppClass]] = {}

    def _class_of(self, entry: Entry, ctx: PolicyContext) -> AppClass:
        cache = self._per_config.get(ctx.config)
        if cache is None:
            cache = dict(self._classes)
            self._per_config[ctx.config] = cache
        return cached_class_of(cache, entry, ctx)

    def choose(self, entry, now, devices, ctx):
        # Each device is scored with its own matrix — the fleet-wide one
        # would price it with slowdowns measured on another config.
        if any(d.ctx.interference is None for d in devices):
            return min(devices, key=lambda d: _least_loaded_key(d, now))

        def score(device: Device):
            dctx = device.ctx
            cls = self._class_of(entry, dctx)
            mix: List[AppClass] = [self._class_of(e, dctx)
                                   for e in device.resident]
            return ((dctx.interference.group_slowdown(cls, mix),)
                    + _least_loaded_key(device, now))

        return min(devices, key=score)


# -- registry wiring ---------------------------------------------------------
# The ``placements`` registry kind (the old module-level
# ``PLACEMENT_FACTORIES`` dict).  Factories take no arguments and build
# a fresh instance per fleet run — round-robin counters and class
# caches are per-run state.
REGISTRY.register("placements", "round-robin", RoundRobinPlacement)
REGISTRY.register("placements", "least-loaded", LeastLoadedPlacement)
REGISTRY.register("placements", "interference",
                  InterferenceAwarePlacement)


def placement_policy(key: str) -> PlacementPolicy:
    """Build the placement policy registered under `key`."""
    return REGISTRY.create("placements", key)
