"""ctypes loader and glue for the compiled vector-engine core.

``_vectorcore.c`` implements the vector backend's run loop in C; this
module compiles it on demand (``gcc -O2``, cached by source hash under
``~/.cache/repro-gpusim``), maps the shared ``Core`` struct, translates a
:class:`~repro.gpusim.vector.VectorGPU`'s state into flat buffers, and
bridges the four places the loop re-enters Python: warp retirement
(block/app bookkeeping, SMRA drain completion), dispatch sweeps,
periodic callbacks (telemetry, SMRA controllers), and empty-heap
recovery.  Results are bit-identical to the event engine — the C loop
is the same operation sequence over the same integers and IEEE doubles
(see the header comment of ``_vectorcore.c``).

Any failure to find a compiler, build, or load leaves :func:`load`
returning None with :data:`unavailable_reason` set; the ``vector``
registry factory then falls back to the event engine (same results,
just slower) with a ``RuntimeWarning``.  Set ``REPRO_VECTOR_NATIVE=0``
to force the fallback; set ``REPRO_NATIVE_CACHE`` to relocate the build
cache.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from array import array
from pathlib import Path

from .cache import SetAssocCache

_SRC = Path(__file__).with_name("_vectorcore.c")
_HUGE = 1 << 60

_i64 = ctypes.c_longlong
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p

_RETIRE_CB = ctypes.CFUNCTYPE(None, _ptr, _i64, _i64, _i64)
_DISPATCH_CB = ctypes.CFUNCTYPE(None, _ptr, _i64)
_FIRE_CB = ctypes.CFUNCTYPE(None, _ptr, _i64)
_EMPTY_CB = ctypes.CFUNCTYPE(_i64, _ptr, _i64)
_GROW_CB = ctypes.CFUNCTYPE(None, _ptr)


class Core(ctypes.Structure):
    """Mirror of ``struct Core`` in ``_vectorcore.c`` (same field order;
    ``vc_struct_size`` is checked at load so drift fails fast)."""

    _fields_ = [
        ("nsm", _i64), ("npart", _i64), ("nbanks_per", _i64),
        ("window", _i64),
        ("l1_nsets", _i64), ("l1_assoc", _i64), ("l1_mask", _i64),
        ("l2_nsets", _i64), ("l2_assoc", _i64), ("l2_mask", _i64),
        ("l2_bip", _i64), ("l2_eps", _i64),
        ("icnt", _i64), ("l2_service", _i64), ("l2_lat_icnt", _i64),
        ("row_hit_t", _i64), ("row_miss_t", _i64), ("bus_t", _i64),
        ("done_add", _i64),
        ("issue_width", _i64), ("max_issue", _i64), ("warp_size", _i64),
        ("l1_latency", _i64), ("gto", _i64),
        ("mem_issue_cost", _f64),
        ("max_cycles", _i64),
        ("rheap_cap", _i64),
        ("dheap_len", _i64), ("dheap_cap", _i64),
        ("dheap", _ptr),
        ("isf", _ptr), ("lsf", _ptr),
        ("lia", _ptr), ("rrp", _ptr),
        ("rheap", _ptr), ("rlen", _ptr),
        ("l1_lines", _ptr), ("l1_cnt", _ptr),
        ("l1h", _ptr), ("l1m", _ptr), ("l1e", _ptr),
        ("l2_busy", _ptr), ("bus_busy", _ptr),
        ("l2_lines", _ptr), ("l2_cnt", _ptr),
        ("l2h", _ptr), ("l2m", _ptr), ("l2e", _ptr), ("bipc", _ptr),
        ("bank_busy", _ptr),
        ("rows", _ptr), ("rows_cnt", _ptr),
        ("bank_acc", _ptr), ("bank_rh", _ptr),
        ("w_pc", _ptr), ("w_li", _ptr), ("w_prog_off", _ptr),
        ("w_prog_len", _ptr), ("w_rec_off", _ptr), ("w_app", _ptr),
        ("w_age", _ptr),
        ("w_done", _ptr), ("w_mem_pending", _ptr),
        ("w_dep_gap", _ptr),
        ("p_alu", _ptr), ("p_ntx", _ptr),
        ("recs", _ptr),
        ("a_wi", _ptr), ("a_ti", _ptr), ("a_alu", _ptr), ("a_mi", _ptr),
        ("a_mtx", _ptr), ("a_l1h", _ptr), ("a_l2h", _ptr),
        ("a_dram", _ptr), ("a_drh", _ptr),
        ("unfinished", _i64), ("dispatch_needed", _i64), ("seq_n", _i64),
        ("events", _i64), ("cycle", _i64), ("next_cb", _i64),
        ("abort_flag", _i64),
        ("ctx", _ptr),
        ("cb_retire", _RETIRE_CB), ("cb_dispatch", _DISPATCH_CB),
        ("cb_fire", _FIRE_CB), ("cb_empty", _EMPTY_CB),
        ("cb_grow_dheap", _GROW_CB),
    ]


# -- build / load ------------------------------------------------------------

_lib = None
_tried = False
#: Why the compiled core is unavailable (None while it is available).
unavailable_reason = None


def load():
    """The compiled core library, or None with `unavailable_reason` set."""
    global _lib, _tried, unavailable_reason
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_VECTOR_NATIVE", "1") == "0":
        unavailable_reason = "disabled via REPRO_VECTOR_NATIVE=0"
        return None
    try:
        _lib = _build_and_load()
    except Exception as exc:  # pragma: no cover - depends on host toolchain
        unavailable_reason = f"{type(exc).__name__}: {exc}"
        _lib = None
    return _lib


def _build_and_load():
    src = _SRC.read_bytes()
    tag = hashlib.sha256(src).hexdigest()[:16]
    cache = Path(os.environ.get("REPRO_NATIVE_CACHE")
                 or Path.home() / ".cache" / "repro-gpusim")
    so = cache / f"vectorcore-{tag}.so"
    if not so.exists():
        cache.mkdir(parents=True, exist_ok=True)
        cc = os.environ.get("CC") or shutil.which("gcc") or shutil.which("cc")
        if cc is None:
            raise RuntimeError("no C compiler on PATH")
        tmp = so.with_name(so.name + f".tmp.{os.getpid()}")
        # NOTE: no -ffast-math — the doubles must be IEEE to stay
        # bit-identical with CPython floats.
        subprocess.run([cc, "-O2", "-fPIC", "-shared",
                        "-o", str(tmp), str(_SRC)],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, so)
    lib = ctypes.CDLL(str(so))
    lib.vc_struct_size.restype = _i64
    lib.vc_struct_size.argtypes = []
    if lib.vc_struct_size() != ctypes.sizeof(Core):
        raise RuntimeError("Core struct layout mismatch between "
                           "_vectorcore.c and _native.Core")
    lib.vc_run.restype = _i64
    lib.vc_run.argtypes = [ctypes.POINTER(Core)]
    lib.vc_push_sm.restype = None
    lib.vc_push_sm.argtypes = [ctypes.POINTER(Core), _i64]
    lib.vc_push_ready.restype = None
    lib.vc_push_ready.argtypes = [ctypes.POINTER(Core)] + [_i64] * 5
    return lib


# -- L1 invalidation tracking ------------------------------------------------


class _TrackedL1(SetAssocCache):
    """L1 cache whose invalidations are visible to the native core.

    ``invalidate_all`` (owner migration: a new application starts cold)
    records the SM index so the glue can zero the corresponding native
    set arrays at the next crossing.  Counters are untouched, exactly
    like the base class.
    """

    __slots__ = ("_dirty", "_smi")

    def __init__(self, num_sets, assoc, dirty, smi):
        super().__init__(num_sets, assoc)
        self._dirty = dirty
        self._smi = smi

    def invalidate_all(self):
        super().invalidate_all()
        self._dirty.add(self._smi)


# -- state translation -------------------------------------------------------

_APP_FIELDS = ("warp_instructions", "thread_instructions",
               "alu_instructions", "mem_instructions", "mem_transactions",
               "l1_hits", "l2_hits", "dram_accesses", "dram_row_hits")


def _addr(a):
    return a.buffer_info()[0]


class NativeState:
    """Flat-buffer image of a VectorGPU plus the Python crossing handlers.

    Created lazily at the first ``run`` and kept on the GPU object: the
    C side then owns the hot state (heaps, caches, warps, servers,
    counters) until flushed back at crossings and at exit.  Translation
    imports the cache contents, server clocks and counters the device
    already has; the device event heap is still empty then, because only
    the native loop ever fills it.
    """

    def __init__(self, gpu):
        self.gpu = gpu
        self.lib = gpu._native_lib
        self.exc = None
        self.run_callbacks = []
        self.l1_dirty = gpu._l1_dirty
        cfg = gpu.config
        mem = gpu.memory
        sms = gpu.sms
        parts = mem.partitions
        nsm = len(sms)
        npart = len(parts)
        sm0 = sms[0]

        c = self.core = Core()
        self._cref = ctypes.byref(c)
        c.nsm = nsm
        c.npart = npart
        c.nbanks_per = mem._banks
        c.window = parts[0].banks[0].window if parts[0].banks else 1
        c.l1_nsets = sm0.l1.num_sets
        c.l1_assoc = sm0.l1.assoc
        c.l1_mask = -1 if sm0.l1._set_mask is None else sm0.l1._set_mask
        c.l2_nsets = mem._l2_nsets
        c.l2_assoc = mem._l2_assoc
        c.l2_mask = -1 if mem._l2_mask is None else mem._l2_mask
        c.l2_bip = 1 if mem._l2_bip else 0
        c.l2_eps = mem._l2_eps
        c.icnt = mem._icnt
        c.l2_service = mem._l2_service
        c.l2_lat_icnt = mem._l2_latency + mem._icnt
        fcfs = mem._fcfs_time
        c.row_hit_t = fcfs if fcfs is not None else mem._row_hit
        c.row_miss_t = fcfs if fcfs is not None else mem._row_miss
        c.bus_t = mem._bus
        c.done_add = mem._bus + mem._extra_latency + mem._icnt
        c.issue_width = sm0._issue_width
        c.max_issue = sm0._max_issue
        c.warp_size = sm0._warp_size
        c.l1_latency = sm0._l1_latency
        c.gto = 1 if sm0._gto else 0
        c.mem_issue_cost = sm0._mem_issue_cost
        c.rheap_cap = cfg.max_warps_per_sm + 8
        self._line_size = mem._line_size
        nbanks = npart * c.nbanks_per

        # -- fixed buffers (never reallocated) --
        c.dheap_cap = 4 * nsm + 64
        c.dheap_len = 0
        self._dheap = self._zq(2 * c.dheap_cap)
        self._isf = array("d", [s._issue_free for s in sms])
        self._lsf = array("d", [s._lsu_free for s in sms])
        self._lia = array("q", [s._last_issued_age for s in sms])
        self._rrp = array("q", [s._rr_pointer for s in sms])
        self._rheap = self._zq(2 * nsm * c.rheap_cap)
        self._rlen = self._zq(nsm)
        self._l1_lines = self._zq(nsm * c.l1_nsets * c.l1_assoc)
        self._l1_cnt = self._zq(nsm * c.l1_nsets)
        self._zero_sets = array("q", bytes(8 * c.l1_nsets))
        for smi, s in enumerate(sms):
            base = smi * c.l1_nsets
            for si, d in enumerate(s.l1.sets):
                if d:
                    off = (base + si) * c.l1_assoc
                    for j, line in enumerate(d):
                        self._l1_lines[off + j] = line
                    self._l1_cnt[base + si] = len(d)
        self._l1h = array("q", [s.l1.hits for s in sms])
        self._l1m = array("q", [s.l1.misses for s in sms])
        self._l1e = array("q", [s.l1.evictions for s in sms])
        self._l2_busy = array("q", [p.l2_busy_until for p in parts])
        self._bus_busy = array("q", [p.bus_busy_until for p in parts])
        self._l2_lines = self._zq(npart * c.l2_nsets * c.l2_assoc)
        self._l2_cnt = self._zq(npart * c.l2_nsets)
        flat = 0
        for p in parts:
            for d in p.l2.sets:
                if d:
                    off = flat * c.l2_assoc
                    for j, line in enumerate(d):
                        self._l2_lines[off + j] = line
                    self._l2_cnt[flat] = len(d)
                flat += 1
        self._l2h = array("q", [p.l2.hits for p in parts])
        self._l2m = array("q", [p.l2.misses for p in parts])
        self._l2e = array("q", [p.l2.evictions for p in parts])
        self._bipc = array("q", [p.l2._bip_counter for p in parts])
        self._rows = self._zq(nbanks * c.window)
        self._rows_cnt = self._zq(nbanks)
        bank_busy, bank_acc, bank_rh = [], [], []
        bi = 0
        for p in parts:
            for b in p.banks:
                if b.rows:
                    off = bi * c.window
                    for j, r in enumerate(b.rows):
                        self._rows[off + j] = r
                    self._rows_cnt[bi] = len(b.rows)
                bank_busy.append(b.busy_until)
                bank_acc.append(b.accesses)
                bank_rh.append(b.row_hits)
                bi += 1
        self._bank_busy = array("q", bank_busy)
        self._bank_acc = array("q", bank_acc)
        self._bank_rh = array("q", bank_rh)

        # -- growing buffers (struct pointers refreshed after appends) --
        self._w_pc = array("q")
        self._w_li = array("q")
        self._w_prog_off = array("q")
        self._w_prog_len = array("q")
        self._w_rec_off = array("q")
        self._w_app = array("q")
        self._w_age = array("q")
        self._w_done = array("q")
        self._w_mem_pending = array("q")
        self._w_dep_gap = array("d")
        self._p_alu = array("q")
        self._p_ntx = array("q")
        self._recs = array("q")
        self._a_wi = array("q")
        self._a_ti = array("q")
        self._a_alu = array("q")
        self._a_mi = array("q")
        self._a_mtx = array("q")
        self._a_l1h = array("q")
        self._a_l2h = array("q")
        self._a_dram = array("q")
        self._a_drh = array("q")
        self._app_arrays = (self._a_wi, self._a_ti, self._a_alu,
                           self._a_mi, self._a_mtx, self._a_l1h,
                           self._a_l2h, self._a_dram, self._a_drh)

        self.slot_warps = []
        self._prog_off = {}       # id(program) → (offset, program, has_mem)
        self._rec_off = {}        # id(records) → (offset, records)
        self._app_rows = {}       # app_id → dense counter row

        # Keep the callback trampolines alive for the GPU's lifetime.
        self._cb_retire = _RETIRE_CB(self._on_retire)
        self._cb_dispatch = _DISPATCH_CB(self._on_dispatch)
        self._cb_fire = _FIRE_CB(self._on_fire)
        self._cb_empty = _EMPTY_CB(self._on_empty)
        self._cb_grow = _GROW_CB(self._on_grow)
        c.cb_retire = self._cb_retire
        c.cb_dispatch = self._cb_dispatch
        c.cb_fire = self._cb_fire
        c.cb_empty = self._cb_empty
        c.cb_grow_dheap = self._cb_grow
        c.ctx = None

        self._sync_fixed()
        self._sync_growing()
        self.drain_admissions()
        self.l1_dirty.clear()     # Python-side sets were read post-clear

    def _zq(self, n):
        return array("q", bytes(8 * n)) if n else array("q")

    def _sync_fixed(self):
        c = self.core
        c.dheap = _addr(self._dheap)
        c.isf = _addr(self._isf)
        c.lsf = _addr(self._lsf)
        c.lia = _addr(self._lia)
        c.rrp = _addr(self._rrp)
        c.rheap = _addr(self._rheap)
        c.rlen = _addr(self._rlen)
        c.l1_lines = _addr(self._l1_lines)
        c.l1_cnt = _addr(self._l1_cnt)
        c.l1h = _addr(self._l1h)
        c.l1m = _addr(self._l1m)
        c.l1e = _addr(self._l1e)
        c.l2_busy = _addr(self._l2_busy)
        c.bus_busy = _addr(self._bus_busy)
        c.l2_lines = _addr(self._l2_lines)
        c.l2_cnt = _addr(self._l2_cnt)
        c.l2h = _addr(self._l2h)
        c.l2m = _addr(self._l2m)
        c.l2e = _addr(self._l2e)
        c.bipc = _addr(self._bipc)
        c.bank_busy = _addr(self._bank_busy)
        c.rows = _addr(self._rows)
        c.rows_cnt = _addr(self._rows_cnt)
        c.bank_acc = _addr(self._bank_acc)
        c.bank_rh = _addr(self._bank_rh)

    def _sync_growing(self):
        c = self.core
        c.w_pc = _addr(self._w_pc)
        c.w_li = _addr(self._w_li)
        c.w_prog_off = _addr(self._w_prog_off)
        c.w_prog_len = _addr(self._w_prog_len)
        c.w_rec_off = _addr(self._w_rec_off)
        c.w_app = _addr(self._w_app)
        c.w_age = _addr(self._w_age)
        c.w_done = _addr(self._w_done)
        c.w_mem_pending = _addr(self._w_mem_pending)
        c.w_dep_gap = _addr(self._w_dep_gap)
        c.p_alu = _addr(self._p_alu)
        c.p_ntx = _addr(self._p_ntx)
        c.recs = _addr(self._recs)
        c.a_wi = _addr(self._a_wi)
        c.a_ti = _addr(self._a_ti)
        c.a_alu = _addr(self._a_alu)
        c.a_mi = _addr(self._a_mi)
        c.a_mtx = _addr(self._a_mtx)
        c.a_l1h = _addr(self._a_l1h)
        c.a_l2h = _addr(self._a_l2h)
        c.a_dram = _addr(self._a_dram)
        c.a_drh = _addr(self._a_drh)

    # -- admission translation -------------------------------------------

    def drain_admissions(self):
        """Move freshly admitted warps from the SMs' Python ready heaps
        into the native arrays and ready heaps."""
        c = self.core
        push_ready = self.lib.vc_push_ready
        cref = self._cref
        slot_warps = self.slot_warps
        append_warp = self._append_warp
        rlen = self._rlen
        for sm in self.gpu.sms:
            ready = sm._ready
            if not ready:
                continue
            smi = sm.index
            if rlen[smi] + len(ready) > c.rheap_cap:
                raise RuntimeError("native ready-heap overflow "
                                   f"on SM{smi}")
            for ready_at, key, age, warp in ready:
                slot = len(slot_warps)
                if age >= 1 << 30 or slot >= 1 << 28 \
                        or ready_at >= 1 << 40:
                    raise RuntimeError(
                        "native vector core packing limits exceeded")
                slot_warps.append(warp)
                append_warp(warp)
                push_ready(cref, smi, ready_at, key, age, slot)
            del ready[:]
        self._sync_growing()

    def _append_warp(self, warp):
        self._w_pc.append(warp.pc)
        self._w_li.append(warp.li)
        prog = warp.program
        ent = self._prog_off.get(id(prog))
        if ent is None or ent[1] is not prog:
            off = len(self._p_alu)
            self._p_alu.extend([a for a, _t in prog])
            self._p_ntx.extend([t for _a, t in prog])
            ent = (off, prog, any(t for _a, t in prog))
            self._prog_off[id(prog)] = ent
        self._w_prog_off.append(ent[0])
        self._w_prog_len.append(warp.prog_end)
        recs = warp.lines
        if recs:
            rent = self._rec_off.get(id(recs))
            if rent is None or rent[1] is not recs:
                roff = len(self._recs) // 5
                self._recs.extend(recs)
                rent = (roff, recs)
                self._rec_off[id(recs)] = rent
            self._w_rec_off.append(rent[0])
        else:
            if ent[2]:
                # Only VectorWorkDistributor-built warps (which always
                # pregenerate) are supported natively.
                raise RuntimeError("warp with memory segments but no "
                                   "pregenerated line records")
            self._w_rec_off.append(0)
        self._w_app.append(self._app_row(warp.app_id))
        self._w_age.append(warp.age)
        self._w_done.append(1 if warp.done else 0)
        self._w_mem_pending.append(1 if warp.mem_pending else 0)
        self._w_dep_gap.append(warp.dep_gap)

    def _app_row(self, app_id):
        row = self._app_rows.get(app_id)
        if row is None:
            st = self.gpu.stats.apps[app_id]
            row = len(self._a_wi)
            self._app_rows[app_id] = row
            for arr, name in zip(self._app_arrays, _APP_FIELDS):
                arr.append(getattr(st, name))
        return row

    # -- flush back to the model objects ----------------------------------

    def _flush_sched(self):
        # The dispatcher's admit path reads the scheduler key inputs.
        lia, rrp = self._lia, self._rrp
        for i, s in enumerate(self.gpu.sms):
            s._last_issued_age = lia[i]
            s._rr_pointer = rrp[i]

    def _flush_all(self):
        """Write every counter, server clock and per-app counter back to
        the model objects, so callbacks and ``result()`` read exactly the
        state the event engine would show."""
        gpu = self.gpu
        for i, s in enumerate(gpu.sms):
            s._issue_free = self._isf[i]
            s._lsu_free = self._lsf[i]
            s._last_issued_age = self._lia[i]
            s._rr_pointer = self._rrp[i]
            l1 = s.l1
            l1.hits = self._l1h[i]
            l1.misses = self._l1m[i]
            l1.evictions = self._l1e[i]
        parts = gpu.memory.partitions
        for i, p in enumerate(parts):
            p.l2_busy_until = self._l2_busy[i]
            p.bus_busy_until = self._bus_busy[i]
            l2 = p.l2
            l2.hits = self._l2h[i]
            l2.misses = self._l2m[i]
            l2.evictions = self._l2e[i]
            l2._bip_counter = self._bipc[i]
        bi = 0
        for p in parts:
            for b in p.banks:
                b.busy_until = self._bank_busy[bi]
                b.accesses = self._bank_acc[bi]
                b.row_hits = self._bank_rh[bi]
                bi += 1
        apps = gpu.stats.apps
        for app_id, row in self._app_rows.items():
            st = apps[app_id]
            st.warp_instructions = self._a_wi[row]
            st.thread_instructions = self._a_ti[row]
            st.alu_instructions = self._a_alu[row]
            st.mem_instructions = self._a_mi[row]
            st.mem_transactions = self._a_mtx[row]
            st.l1_hits = self._a_l1h[row]
            st.l2_hits = self._a_l2h[row]
            st.dram_accesses = self._a_dram[row]
            st.dram_row_hits = self._a_drh[row]
        ls = self._line_size
        for st in apps.values():
            st.dram_bytes = st.dram_accesses * ls
            st.l2_to_l1_bytes = st.l2_hits * ls
        gpu.events_processed = self.core.events

    def _clear_dirty_l1(self):
        nsets = self.core.l1_nsets
        zeros = self._zero_sets
        for smi in self.l1_dirty:
            self._l1_cnt[smi * nsets:(smi + 1) * nsets] = zeros
        self.l1_dirty.clear()

    # -- crossings (C → Python) -------------------------------------------

    def _abort(self, exc):
        self.exc = exc
        self.core.abort_flag = 1

    def _on_retire(self, ctx, smi, slot, now):
        try:
            gpu = self.gpu
            gpu.cycle = now
            gpu.sms[smi]._finish_warp(self.slot_warps[slot])
            if self.l1_dirty:
                self._clear_dirty_l1()
            c = self.core
            if gpu._dispatch_needed:
                gpu._dispatch_needed = False
                c.dispatch_needed = 1
            c.unfinished = gpu._unfinished
        except BaseException as exc:
            self._abort(exc)

    def _dispatch_and_push(self, now):
        """Shared body of the dispatch / empty-heap crossings; mirrors
        the dispatch block of ``GPU.run``."""
        gpu = self.gpu
        c = self.core
        self._flush_sched()
        gpu._seq_n = c.seq_n
        dispatched = gpu.distributor.dispatch(now)
        if dispatched:
            self.drain_admissions()
            push_sm = self.lib.vc_push_sm
            cref = self._cref
            for smi in range(c.nsm):
                push_sm(cref, smi)
            gpu._seq_n = c.seq_n
        if self.l1_dirty:
            self._clear_dirty_l1()
        if gpu._dispatch_needed:
            gpu._dispatch_needed = False
            c.dispatch_needed = 1
        return dispatched

    def _on_dispatch(self, ctx, now):
        try:
            self.gpu.cycle = now
            self._dispatch_and_push(now)
        except BaseException as exc:
            self._abort(exc)

    def _on_empty(self, ctx, now):
        try:
            self.gpu.cycle = now
            return 1 if self._dispatch_and_push(now) else 0
        except BaseException as exc:
            self._abort(exc)
            return 0

    def _on_fire(self, ctx, t):
        try:
            gpu = self.gpu
            c = self.core
            self._flush_all()
            nxt = _HUGE
            for cb in self.run_callbacks:
                while cb.next_at <= t:
                    gpu.cycle = cb.next_at
                    cb.fn(gpu, gpu.cycle)
                    cb.next_at += cb.interval
                if cb.next_at < nxt:
                    nxt = cb.next_at
            c.next_cb = nxt
            if self.l1_dirty:
                self._clear_dirty_l1()
            if gpu._dispatch_needed:
                gpu._dispatch_needed = False
                c.dispatch_needed = 1
            c.unfinished = gpu._unfinished
        except BaseException as exc:
            self._abort(exc)

    def _on_grow(self, ctx):
        try:
            c = self.core
            newcap = c.dheap_cap * 2
            new = array("q", bytes(16 * newcap))
            n = 2 * c.dheap_len
            new[:n] = self._dheap[:n]
            self._dheap = new
            c.dheap = _addr(new)
            c.dheap_cap = newcap
        except BaseException as exc:
            self._abort(exc)


# -- entry point -------------------------------------------------------------


def run_native(gpu, max_cycles, callbacks):
    """Body of ``VectorGPU.run`` (same contract/results as ``GPU.run``)."""
    if not gpu.apps:
        raise RuntimeError("no applications launched")
    st = gpu._native
    if st is None:
        st = gpu._native = NativeState(gpu)
    c = st.core
    lib = st.lib
    cref = st._cref

    callbacks = list(callbacks)
    for cb in callbacks:
        cb.next_at = gpu.cycle + cb.interval
    st.run_callbacks = callbacks
    c.next_cb = min((cb.next_at for cb in callbacks), default=_HUGE)
    c.max_cycles = max_cycles
    c.unfinished = gpu._unfinished
    c.dispatch_needed = 0
    c.cycle = gpu.cycle
    c.events = gpu.events_processed
    c.seq_n = gpu._seq_n
    c.abort_flag = 0
    st.exc = None

    if gpu._dispatch_needed:
        gpu._dispatch_needed = False
        gpu.distributor.dispatch(gpu.cycle)
        st.drain_admissions()
        for smi in range(c.nsm):
            lib.vc_push_sm(cref, smi)
        gpu._seq_n = c.seq_n
        if st.l1_dirty:
            st._clear_dirty_l1()

    try:
        ret = lib.vc_run(cref)
    finally:
        gpu._seq_n = max(gpu._seq_n, c.seq_n)
        gpu.cycle = c.cycle
        st._flush_all()
    if st.exc is not None:
        exc, st.exc = st.exc, None
        raise exc
    if ret == 2:
        raise RuntimeError(
            "simulation deadlock: no events and nothing to dispatch")
    return gpu.result()
