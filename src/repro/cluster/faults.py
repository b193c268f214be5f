"""Deterministic fault injection and admission control for fleets.

The fleet event loop of :func:`repro.cluster.run_fleet` simulates a
*healthy* cluster; this module supplies the failure model layered onto
its virtual clock:

* :class:`FaultEvent` — one device going DOWN or coming back UP at an
  absolute cycle.  A DOWN device cancels its in-flight group, drains
  its waiting queue, and hands all of that work back to the fleet loop
  for re-placement onto surviving devices; an UP device rejoins
  placement with a fresh policy instance.
* :class:`FaultPlan` — a validated, sorted event sequence plus the
  transient-failure parameters (``fail_prob`` / ``max_retries`` /
  ``seed``).  Plans are built by the ``faults`` registry factories:
  ``scheduled`` (explicit events), ``mtbf`` (exponential churn, one
  seeded RNG stream per device), ``transient`` (group-level failures
  only), and ``none``.
* :class:`AdmissionPolicy` — accept / reject / defer each arrival
  before placement: ``queue-cap`` bounds the fleet-wide waiting depth,
  ``deadline`` rejects arrivals whose optimistic wait bound already
  blows their deadline.

Everything here is deterministic and independent of the executor's
worker count: churn derives from ``random.Random(f"{seed}:{device}")``
per device, and transient failure decisions hash the group membership
and attempt counts (sha256) instead of consuming a shared RNG whose
state would depend on event interleaving.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.registry import REGISTRY

#: The two things that can happen to a device.
EVENT_KINDS = ("down", "up")


@dataclass(frozen=True)
class FaultEvent:
    """One device state transition at an absolute fleet cycle."""

    cycle: int
    device: int
    kind: str  # "down" | "up"

    def __post_init__(self):
        if not isinstance(self.cycle, int) or self.cycle < 0:
            raise ValueError(
                f"fault event cycle must be a non-negative integer, got "
                f"{self.cycle!r}")
        if not isinstance(self.device, int) or self.device < 0:
            raise ValueError(
                f"fault event device must be a non-negative integer, "
                f"got {self.device!r}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"fault event kind must be one of {list(EVENT_KINDS)}, "
                f"got {self.kind!r}")


@dataclass(frozen=True)
class FailedGroup:
    """A launched group that never retired normally.

    ``executed_cycles`` is what the device actually burned on the
    attempt: the full ``planned_cycles`` for a transient failure (the
    failure surfaces at the end of the run), the partial progress up to
    the outage for a device-down cancellation.
    """

    start_cycle: int
    members: Tuple[str, ...]
    planned_cycles: int
    executed_cycles: int
    reason: str  # "transient" | "device-down"


@dataclass(frozen=True)
class RejectedApp:
    """An arrival the fleet never served.

    ``reason`` is the admission policy's name (``queue-cap`` /
    ``deadline``) for admission rejections, or ``no-device`` when the
    fleet degraded to zero serving devices with no recovery ahead.
    ``retries`` counts failed execution attempts before the rejection
    (non-zero only for requeued work stranded by total degradation).
    """

    name: str
    arrival_cycle: int
    cycle: int
    reason: str
    retries: int = 0


def _hash_fraction(text: str) -> float:
    """A uniform [0, 1) draw derived from `text` alone (order-free)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A validated fault schedule plus transient-failure parameters.

    ``events`` must be consistent with every device starting UP: per
    device they alternate down → up → down … with strictly increasing
    cycles.  When ``num_devices`` is known the plan also rejects events
    addressing devices outside the fleet and the degenerate schedule
    where *every* device is DOWN at cycle 0 (the fleet could never
    serve anything) — both with messages naming the fix.

    ``fail_prob`` enables transient group-level failures: each launch
    may fail (burning its full duration, then requeueing its members)
    with that probability, decided by a sha256 hash over ``seed``, the
    member names, and their attempt counts — deterministic, identical
    for any worker count, and independent across retries.  A group
    whose most-retried member already has ``max_retries`` failed
    attempts always succeeds (bounded retry, no livelock).
    """

    def __init__(self, events: Sequence[FaultEvent] = (),
                 fail_prob: float = 0.0, max_retries: int = 2,
                 seed: int = 0,
                 num_devices: Optional[int] = None):
        if not 0.0 <= fail_prob <= 1.0:
            raise ValueError(
                f"fail_prob must be in [0, 1], got {fail_prob!r}")
        if not isinstance(max_retries, int) or max_retries < 0:
            raise ValueError(
                f"max_retries must be a non-negative integer, got "
                f"{max_retries!r}")
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(
                f"fault seed must be a non-negative integer, got "
                f"{seed!r}")
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.cycle, e.device,
                                          e.kind == "up")))
        self.fail_prob = float(fail_prob)
        self.max_retries = max_retries
        self.seed = seed
        self._validate(num_devices)

    def _validate(self, num_devices: Optional[int]) -> None:
        state: Dict[int, str] = {}
        last_cycle: Dict[int, int] = {}
        for ev in self.events:
            if num_devices is not None and ev.device >= num_devices:
                raise ValueError(
                    f"fault event at cycle {ev.cycle} addresses device "
                    f"{ev.device}, but the fleet has {num_devices} "
                    f"device(s) (ids 0..{num_devices - 1}) — did you "
                    f"mean device {num_devices - 1}?")
            expected = "down" if state.get(ev.device, "up") == "up" \
                else "up"
            if ev.kind != expected:
                raise ValueError(
                    f"fault events for device {ev.device} must "
                    f"alternate down/up starting from UP; got "
                    f"{ev.kind!r} at cycle {ev.cycle} when "
                    f"{expected!r} was expected")
            if ev.device in last_cycle and \
                    ev.cycle <= last_cycle[ev.device]:
                raise ValueError(
                    f"fault events for device {ev.device} must have "
                    f"strictly increasing cycles; cycle {ev.cycle} "
                    f"follows cycle {last_cycle[ev.device]}")
            state[ev.device] = ev.kind
            last_cycle[ev.device] = ev.cycle
        if num_devices is not None:
            down_at_zero = {ev.device for ev in self.events
                            if ev.cycle == 0 and ev.kind == "down"}
            if len(down_at_zero) >= num_devices:
                raise ValueError(
                    f"all {num_devices} device(s) are DOWN at cycle 0, "
                    f"so the fleet could never serve an arrival — did "
                    f"you mean to stagger the outages (move at least "
                    f"one 'down' event past cycle 0)?")

    def validate_for(self, num_devices: int) -> None:
        """Re-check the plan against an actual fleet size.

        A plan built without ``num_devices`` (events only) revalidates
        here when :func:`repro.cluster.run_fleet` learns the real
        device count — out-of-range devices and the all-DOWN-at-0
        degenerate schedule fail with the construction-time messages.
        """
        self._validate(num_devices)

    def group_fails(self, members: Sequence[str],
                    attempts: Sequence[int]) -> bool:
        """Transient-failure decision for one launch.

        Hash-based rather than RNG-stream-based: the draw depends only
        on (seed, member names, per-member attempt counts), never on
        how many other groups launched first, so the decision is
        identical for any device interleaving and worker count.
        """
        if self.fail_prob <= 0.0:
            return False
        if attempts and max(attempts) >= self.max_retries:
            return False  # bounded retry: the next attempt must stick
        key = ";".join(f"{name}@{tries}"
                       for name, tries in zip(members, attempts))
        return _hash_fraction(f"{self.seed}|{key}") < self.fail_prob


# -- plan builders (the ``faults`` registry factories) ------------------------

def scheduled_plan(num_devices: int, events: Sequence = (),
                   fail_prob: float = 0.0, max_retries: int = 2,
                   seed: int = 0, **_params) -> FaultPlan:
    """Explicit down/up events (``[cycle, device, kind]`` triples)."""
    decoded = []
    for item in events:
        if isinstance(item, FaultEvent):
            decoded.append(item)
            continue
        try:
            cycle, device, kind = item
        except (TypeError, ValueError):
            raise ValueError(
                f"fault events must be [cycle, device, kind] triples, "
                f"got {item!r}") from None
        decoded.append(FaultEvent(int(cycle), int(device), str(kind)))
    if not decoded:
        raise ValueError("a scheduled fault plan needs at least one "
                         "event; use kind 'none' for a fault-free run")
    return FaultPlan(events=decoded, fail_prob=fail_prob,
                     max_retries=max_retries, seed=seed,
                     num_devices=num_devices)


def mtbf_plan(num_devices: int, mtbf: float = 500_000.0,
              mttr: float = 100_000.0, horizon: int = 2_000_000,
              fail_prob: float = 0.0, max_retries: int = 2,
              seed: int = 0, **_params) -> FaultPlan:
    """Exponential churn: per-device MTBF/MTTR outage streams.

    Each device draws its own outage timeline from
    ``random.Random(f"{seed}:{device}")`` — time-to-failure is
    exponential with mean `mtbf`, repair time exponential with mean
    `mttr`.  Failures are generated while they start before `horizon`;
    every generated outage carries its matching recovery (possibly past
    the horizon), so churn never strands a device DOWN forever.
    """
    if mtbf <= 0 or mttr <= 0:
        raise ValueError(f"mtbf and mttr must be > 0, got mtbf={mtbf!r} "
                         f"mttr={mttr!r}")
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got "
                         f"{horizon!r}")
    events: List[FaultEvent] = []
    for device in range(num_devices):
        rng = random.Random(f"{seed}:{device}")
        t = rng.expovariate(1.0 / mtbf)
        while t < horizon:
            down = max(1, int(t))
            up = down + max(1, int(rng.expovariate(1.0 / mttr)))
            events.append(FaultEvent(down, device, "down"))
            events.append(FaultEvent(up, device, "up"))
            t = up + max(1.0, rng.expovariate(1.0 / mtbf))
    return FaultPlan(events=events, fail_prob=fail_prob,
                     max_retries=max_retries, seed=seed,
                     num_devices=num_devices)


def transient_plan(num_devices: int, fail_prob: float = 0.1,
                   max_retries: int = 2, seed: int = 0,
                   **_params) -> FaultPlan:
    """Group-level transient failures only (no device outages)."""
    if not 0.0 < fail_prob <= 1.0:
        raise ValueError(
            f"a transient fault plan needs fail_prob in (0, 1], got "
            f"{fail_prob!r}")
    return FaultPlan(events=(), fail_prob=fail_prob,
                     max_retries=max_retries, seed=seed,
                     num_devices=num_devices)


# -- admission policies -------------------------------------------------------

#: The verdicts :meth:`AdmissionPolicy.decide` may return.
VERDICTS = ("accept", "reject", "defer")


class AdmissionPolicy:
    """Accept, reject, or defer one arrival before placement.

    ``decide`` runs on the fleet loop's clock for every arrival (and
    for every re-try of a deferred arrival), *before* placement — a
    rejected application never enters any device queue.  ``defer``
    re-offers the arrival ``defer_gap`` cycles later, at most
    ``max_defers`` times, after which it is rejected.
    """

    name = "admission-base"
    defer_gap = 5_000
    max_defers = 3

    def decide(self, entry, now: int, devices, ctx) -> str:
        raise NotImplementedError


class QueueCapAdmission(AdmissionPolicy):
    """Bound the fleet-wide waiting depth.

    An arrival is admitted while the total number of *waiting* (placed
    but not launched) applications across UP devices is below
    ``queue_cap``; otherwise it is rejected or deferred per ``mode``.
    """

    name = "queue-cap"

    def __init__(self, queue_cap: int = 8, mode: str = "reject",
                 defer_gap: int = 5_000, max_defers: int = 3):
        if not isinstance(queue_cap, int) or queue_cap < 1:
            raise ValueError(f"queue_cap must be a positive integer, "
                             f"got {queue_cap!r}")
        if mode not in ("reject", "defer"):
            raise ValueError(f"admission mode must be 'reject' or "
                             f"'defer', got {mode!r}")
        if not isinstance(defer_gap, int) or defer_gap < 1:
            raise ValueError(f"defer_gap must be a positive integer, "
                             f"got {defer_gap!r}")
        if not isinstance(max_defers, int) or max_defers < 0:
            raise ValueError(f"max_defers must be a non-negative "
                             f"integer, got {max_defers!r}")
        self.queue_cap = queue_cap
        self.mode = mode
        self.defer_gap = defer_gap
        self.max_defers = max_defers

    def decide(self, entry, now, devices, ctx):
        depth = sum(d.waiting_count for d in devices if d.up)
        if depth < self.queue_cap:
            return "accept"
        return self.mode


class DeadlineAdmission(AdmissionPolicy):
    """Reject arrivals that already cannot meet their deadline.

    The optimistic wait bound of an arrival is the smallest
    ``remaining_busy`` over UP devices — the soonest any device could
    even *start* it, ignoring queued work ahead of it.  When that bound
    alone exceeds ``deadline_cycles`` the arrival is rejected up front
    instead of occupying a queue it is guaranteed to time out of.
    """

    name = "deadline"

    def __init__(self, deadline_cycles: int = 50_000):
        if not isinstance(deadline_cycles, int) or deadline_cycles < 1:
            raise ValueError(
                f"deadline_cycles must be a positive integer, got "
                f"{deadline_cycles!r}")
        self.deadline_cycles = deadline_cycles

    def decide(self, entry, now, devices, ctx):
        bounds = [d.remaining_busy(now) for d in devices if d.up]
        if not bounds:
            return "reject"
        return "accept" if min(bounds) <= self.deadline_cycles \
            else "reject"


# -- registry wiring ----------------------------------------------------------
# Kind ``faults``: ``factory(num_devices, **params) ->
# Optional[FaultPlan]`` — ``None`` means a fault-free run (the fleet
# loop's classic path).  Kind ``admission``: ``factory(**params) ->
# Optional[AdmissionPolicy]``.  Factories ``**_``-ignore parameters
# they do not consume, the same contract as the ``streams`` kind.
REGISTRY.register("faults", "none", lambda num_devices, **_p: None)
REGISTRY.register("faults", "scheduled", scheduled_plan)
REGISTRY.register("faults", "mtbf", mtbf_plan)
REGISTRY.register("faults", "transient", transient_plan)

REGISTRY.register("admission", "none", lambda **_p: None)
REGISTRY.register(
    "admission", "queue-cap",
    lambda queue_cap=8, mode="reject", defer_gap=5_000, max_defers=3,
    **_p: QueueCapAdmission(queue_cap, mode, defer_gap, max_defers))
REGISTRY.register(
    "admission", "deadline",
    lambda deadline_cycles=50_000, **_p:
        DeadlineAdmission(deadline_cycles))
