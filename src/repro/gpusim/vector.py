"""The ``vector`` engine backend: Python glue around the compiled core.

:class:`VectorGPU` is a drop-in replacement for :class:`~repro.gpusim.gpu.GPU`
(same constructor, ``launch``/``run``/``result`` surface, same
:class:`~repro.gpusim.gpu.DeviceResult`) whose run loop is the C core in
``_vectorcore.c``, loaded through :mod:`repro.gpusim._native`.  It is
selected through the ``engine-backends`` registry kind
(``ExecutionSpec.backend = "vector"``); when the core cannot be loaded
the registry hands out the event engine :class:`GPU` instead, so this
class always runs natively.

This module holds the Python half of the backend:

* **The line-record memo.**  A warp's memory lines are a pure function
  of ``(KernelSpec, warp_index, base_line, device geometry)``.
  :class:`VectorWorkDistributor` decodes each line's partition / L2-set /
  bank / DRAM-row indices *once*, flattens the records into an
  ``array('q')`` in exactly the layout the C core reads, and keeps the
  array in a process-wide memo (:data:`_STREAM_MEMO`).  Every later run
  of the same spec (bench repeats, solo profiles, interference pairs,
  sweep points) reuses it — skipping the Mersenne-Twister seeding, the
  per-line address decode, and the flattening — and the native state
  imports it with one array extend (a memcpy).
* **The distributor.**  Blocks are built by the base
  :class:`~repro.gpusim.dispatcher.WorkDistributor` admission logic;
  only warp construction differs (memoized records instead of a lazy
  address stream).
* **The glue.**  :class:`VectorGPU` installs L1 caches whose
  invalidations the native state can see, guards the native packing
  limits, and forwards ``run`` to :func:`repro.gpusim._native.run_native`.

Bit identity with the event engine is by construction: ``_vectorcore.c``
is an operation-for-operation transcription of ``GPU.run`` +
``sm.issue_batch`` + ``MemorySystem.access_line``; the golden
determinism suite and the bench ``--ab`` mode compare both backends
across the full scenario matrix.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from . import _native
from .dispatcher import WorkDistributor
from .gpu import DEFAULT_MAX_CYCLES, GPU, Callback, DeviceResult
from .kernel import AddressStream, BlockContext, WarpContext

#: Exclusive upper bound on ``max_cycles``: the width of the wake field
#: in the native core's packed heap entries.
MAX_CYCLES_LIMIT = 1 << 40

# -- the cross-run line-record memo -----------------------------------------

#: (spec, base_line, geometry) → {warp_index: array('q') of flattened
#: (line, p, s2i, bgi, row) records}.  Bounded: when the memo holds more
#: than _MEMO_MAX_LINES line records in total, least-recently-used spec
#: entries are dropped.  Per-process (each pool worker warms its own);
#: purely a cache of deterministic preprocessing, so hits cannot change
#: results.
_STREAM_MEMO: dict = {}
_MEMO_MAX_LINES = 1_500_000
_memo_lines = 0


class VectorWorkDistributor(WorkDistributor):
    """Block builder producing precomputed, memoized line records.

    A record ``(line, p, s2i, bgi, row)`` carries the global line number
    plus its memory-partition index, flat L2-set index, flat bank index,
    and DRAM row — everything the core's memory path needs, decoded
    once instead of per access per run.  A warp's records are stored
    back to back in one ``array('q')``.
    """

    def __init__(self, gpu: "VectorGPU"):
        super().__init__(gpu)
        mem = gpu.memory
        self._np = mem._num_partitions
        self._banks_per = mem._banks
        self._span = mem._bank_row_span
        self._l2_nsets = mem._l2_nsets
        self._l2_mask = mem._l2_mask
        #: Everything record contents depend on besides (spec, base_line).
        self._geom = (self._line_size, self._lines_per_row, self._np,
                      self._banks_per, self._l2_nsets)

    def _records(self, lines: List[int]) -> array:
        np_, banks_per = self._np, self._banks_per
        span, nsets, mask = self._span, self._l2_nsets, self._l2_mask
        out: List[int] = []
        extend = out.extend
        for line in lines:
            p = line % np_
            local = line // np_
            extend((line, p,
                    p * nsets + (line & mask if mask is not None
                                 else line % nsets),
                    p * banks_per + local % banks_per,
                    local // span))
        return array("q", out)

    def _make_block(self, app, now: int):
        global _memo_lines
        spec = app.spec
        block_id = app.blocks_dispatched
        block = BlockContext(app.app_id, block_id, spec.warps_per_block)
        program = self._program_of(app)
        warps = []
        app_stats = self._gpu.stats.apps.get(app.app_id)
        has_mem = any(n_tx for _alu, n_tx in program)
        base_line = app.base_line
        per_spec = None
        if has_mem:
            key = (spec, base_line, self._geom)
            per_spec = _STREAM_MEMO.get(key)
            if per_spec is None:
                if _memo_lines > _MEMO_MAX_LINES:
                    # Evict oldest spec entries (dict preserves insertion
                    # order) until back under the cap.
                    for old_key in list(_STREAM_MEMO):
                        dropped = _STREAM_MEMO.pop(old_key)
                        _memo_lines -= sum(len(r) for r in
                                           dropped.values()) // 5
                        if _memo_lines <= _MEMO_MAX_LINES:
                            break
                _STREAM_MEMO[key] = per_spec = {}
        for w in range(spec.warps_per_block):
            warp_index = block_id * spec.warps_per_block + w
            recs = per_spec.get(warp_index) if per_spec is not None else None
            if recs is None:
                stream = AddressStream(spec, base_line, warp_index,
                                       self._line_size, self._lines_per_row,
                                       row_stride=self._row_stride)
                warp = WarpContext(app.app_id, block, program, stream,
                                   age=0, dep_gap=spec.dep_gap,
                                   stats=app_stats)
                if has_mem:
                    recs = self._records(stream.pregenerate(program))
                    per_spec[warp_index] = recs
                    _memo_lines += len(recs) // 5
                    warp.lines = recs
            else:
                # Warm hit: skip AddressStream construction entirely (the
                # RNG seeding is a large share of cold block-build cost).
                warp = WarpContext(app.app_id, block, program, None,
                                   age=0, dep_gap=spec.dep_gap,
                                   stats=app_stats)
                warp.lines = recs
            warps.append(warp)
        app.blocks_dispatched += 1
        return block, warps


class VectorGPU(GPU):
    """The compiled-core engine backend (see module docstring)."""

    __slots__ = ("_native_lib", "_native", "_l1_dirty")

    def __init__(self, config):
        super().__init__(config)
        if config.num_sms > 0xFFF:
            raise ValueError("vector backend supports at most 4095 SMs")
        self._native_lib = _native.load()
        if self._native_lib is None:
            raise RuntimeError("vector backend needs the compiled core, "
                               "which is unavailable: "
                               f"{_native.unavailable_reason}")
        self.distributor = VectorWorkDistributor(self)
        self._native = None
        self._l1_dirty = set()
        for sm in self.sms:
            sm.l1 = _native._TrackedL1(config.l1_sets, config.l1_assoc,
                                       self._l1_dirty, sm.index)

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES,
            callbacks: Sequence[Callback] = ()) -> DeviceResult:
        """Simulate on the compiled core; same contract as :meth:`GPU.run`."""
        if max_cycles >= MAX_CYCLES_LIMIT:
            raise ValueError("vector backend supports max_cycles below "
                             f"2**40 ({MAX_CYCLES_LIMIT}), got {max_cycles}")
        return _native.run_native(self, max_cycles, callbacks)
