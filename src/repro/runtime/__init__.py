"""Online scheduling runtime: arrival streams, pluggable executors.

Three coordinated layers on top of :mod:`repro.core`:

* **policies** (:mod:`.online`) — the event-driven scheduling interface
  (``on_arrival`` / ``on_group_finish`` / ``next_group``), adapters
  that lift every batch policy into it, and genuinely online policies
  (class-aware backfill).
* **executors** (:mod:`.executors`) — where simulations run: in-process
  (:class:`SerialExecutor`, the seed behavior) or fanned across a
  process pool (:class:`ParallelExecutor`) with deterministic merging.
* **engine** (:mod:`.engine`) — :func:`run_stream` drives a policy over
  an arrival stream as a one-device :func:`repro.cluster.run_fleet`;
  :func:`drain_queue` is the batch special case behind the classic
  ``run_queue`` API.
"""

from .engine import (AppRecord, Arrival, ScheduledGroup, StreamOutcome,
                     drain_queue, run_stream)
from .executors import (Executor, ParallelExecutor, SerialExecutor,
                        make_executor, workers_from_env)
from .online import (BatchPolicyAdapter, ClassAwareBackfill, OnlineFCFS,
                     OnlinePolicy, online_policy)

__all__ = [
    "Arrival", "AppRecord", "ScheduledGroup", "StreamOutcome",
    "run_stream", "drain_queue",
    "Executor", "SerialExecutor", "ParallelExecutor", "make_executor",
    "workers_from_env",
    "OnlinePolicy", "OnlineFCFS", "BatchPolicyAdapter",
    "ClassAwareBackfill", "online_policy",
]
