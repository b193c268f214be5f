/* _vectorcore.c — compiled core of the "vector" engine backend.
 *
 * This is an operation-for-operation transcription of the event engine's
 * GPU.run + sm.issue_batch + MemorySystem.access_line over flattened
 * state.  Keep the two in sync; the golden determinism suite and the
 * bench --ab gate compare the backends bit-for-bit.
 *
 * Bit-identity notes
 * ------------------
 * - The memory chain (interconnect/L2/bank/bus clocks, completion times)
 *   is pure int64 arithmetic: every arrival enters through nk = (i64)first
 *   (the truncated LSU start), so no fractional value ever reaches it.
 *   Python computes the identical integers.
 * - The issue/LSU servers are IEEE doubles; Python floats are the same
 *   doubles and every operation here (+ * / max, int truncation of a
 *   positive value) maps to the same IEEE operation in the same order.
 *   All magnitudes stay far below 2^53, so int<->double round trips are
 *   exact.  Compile without -ffast-math.
 * - Caches and DRAM row windows replicate OrderedDict order exactly:
 *   arrays store front(=LRU/oldest)..back(=MRU/newest); probe scans,
 *   hits move to the back, evictions drop the front, BIP reinserts at
 *   the front.  The heaps store totally ordered packed keys, so pop
 *   order is layout-independent and identical to heapq's.
 *
 * Everything is addressed through the Core struct on every use (never
 * cached across a Python callback) because Python callbacks may grow
 * pools and swap buffer pointers mid-run.
 */

#include <stdint.h>

typedef long long i64;
typedef double f64;
typedef unsigned __int128 u128;

/* Ready-heap entry packing: [wake:40][key+1:30][age:30][slot:28].
 * Total order == tuple order (wake, key, age); ages are unique per SM so
 * the slot bits never decide a comparison. */
#define SLOT_MASK ((((u128)1) << 28) - 1)

typedef struct Core Core;
struct Core {
    /* geometry / constants (set once by Python; all scalars are i64 or
     * f64 so the struct layout is uniform 8-byte fields) */
    i64 nsm, npart, nbanks_per, window;
    i64 l1_nsets, l1_assoc, l1_mask;      /* mask: -1 when sets not 2^n */
    i64 l2_nsets, l2_assoc, l2_mask, l2_bip, l2_eps;
    i64 icnt, l2_service, l2_lat_icnt;
    i64 row_hit_t, row_miss_t, bus_t, done_add;
    i64 issue_width, max_issue, warp_size, l1_latency, gto;
    f64 mem_issue_cost;
    i64 max_cycles;
    i64 rheap_cap;

    /* device heap: t << 44 | seq << 12 | smi (same order as GPU._heap's
     * (t, seq, smi) tuples) */
    i64 dheap_len, dheap_cap;
    u128 *dheap;

    /* per-SM */
    f64 *isf, *lsf;
    i64 *lia, *rrp;
    u128 *rheap;                 /* nsm * rheap_cap entries */
    i64 *rlen;
    i64 *l1_lines, *l1_cnt;      /* nsm*l1_nsets*l1_assoc / nsm*l1_nsets */
    i64 *l1h, *l1m, *l1e;

    /* per-partition */
    i64 *l2_busy, *bus_busy;
    i64 *l2_lines, *l2_cnt;      /* flat set index s2i = p*l2_nsets + set */
    i64 *l2h, *l2m, *l2e, *bipc;

    /* per-bank (flat bgi = p*nbanks_per + bank) */
    i64 *bank_busy;
    i64 *rows, *rows_cnt;        /* nbanks*window / nbanks */
    i64 *bank_acc, *bank_rh;

    /* warps (slot-indexed; Python appends, pointers may move) */
    i64 *w_pc, *w_li, *w_prog_off, *w_prog_len, *w_rec_off, *w_app, *w_age;
    i64 *w_done, *w_mem_pending;
    f64 *w_dep_gap;

    /* pools */
    i64 *p_alu, *p_ntx;          /* program segments */
    i64 *recs;                   /* 5 i64 per record: line,p,s2i,bgi,row */

    /* per-app counter rows */
    i64 *a_wi, *a_ti, *a_alu, *a_mi, *a_mtx, *a_l1h, *a_l2h, *a_dram,
        *a_drh;

    /* mailbox (shared with Python) */
    i64 unfinished, dispatch_needed, seq_n, events, cycle;
    i64 next_cb;                 /* huge when no callbacks */
    i64 abort_flag;

    /* callbacks into Python */
    void *ctx;
    void (*cb_retire)(void *ctx, i64 smi, i64 slot, i64 now);
    void (*cb_dispatch)(void *ctx, i64 now);
    void (*cb_fire)(void *ctx, i64 t);
    i64 (*cb_empty)(void *ctx, i64 now);
    void (*cb_grow_dheap)(void *ctx);
};

i64 vc_struct_size(void) { return (i64)sizeof(Core); }

/* -- device heap (min-heap of u128; entries unique via seq) ------------- */

static void dpush(Core *c, u128 e) {
    if (c->dheap_len >= c->dheap_cap) {
        c->cb_grow_dheap(c->ctx);
        if (c->dheap_len >= c->dheap_cap) {
            /* growth failed Python-side; abort rather than overflow */
            c->abort_flag = 1;
            return;
        }
    }
    u128 *h = c->dheap;          /* after possible growth */
    i64 i = c->dheap_len++;
    while (i > 0) {
        i64 par = (i - 1) >> 1;
        if (h[par] <= e)
            break;
        h[i] = h[par];
        i = par;
    }
    h[i] = e;
}

static u128 dpop(Core *c) {
    u128 *h = c->dheap;
    u128 top = h[0];
    i64 n = --c->dheap_len;
    if (n > 0) {
        u128 e = h[n];
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1;
            if (l >= n)
                break;
            i64 r = l + 1;
            i64 m = (r < n && h[r] < h[l]) ? r : l;
            if (h[m] >= e)
                break;
            h[i] = h[m];
            i = m;
        }
        h[i] = e;
    }
    return top;
}

static u128 dpushpop(Core *c, u128 e) {
    u128 *h = c->dheap;
    i64 n = c->dheap_len;
    if (n == 0 || e <= h[0])
        return e;                /* heapq: only swap when heap[0] < item */
    u128 top = h[0];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1;
        if (l >= n)
            break;
        i64 r = l + 1;
        i64 m = (r < n && h[r] < h[l]) ? r : l;
        if (h[m] >= e)
            break;
        h[i] = h[m];
        i = m;
    }
    h[i] = e;
    return top;
}

/* -- per-SM ready heaps ------------------------------------------------- */

static void rpop(Core *c, i64 smi) {
    u128 *h = c->rheap + smi * c->rheap_cap;
    i64 n = --c->rlen[smi];
    if (n > 0) {
        u128 e = h[n];
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1;
            if (l >= n)
                break;
            i64 r = l + 1;
            i64 m = (r < n && h[r] < h[l]) ? r : l;
            if (h[m] >= e)
                break;
            h[i] = h[m];
            i = m;
        }
        h[i] = e;
    }
}

static void rreplace(Core *c, i64 smi, u128 e) {
    u128 *h = c->rheap + smi * c->rheap_cap;
    i64 n = c->rlen[smi];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1;
        if (l >= n)
            break;
        i64 r = l + 1;
        i64 m = (r < n && h[r] < h[l]) ? r : l;
        if (h[m] >= e)
            break;
        h[i] = h[m];
        i = m;
    }
    h[i] = e;
}

void vc_push_ready(Core *c, i64 smi, i64 wake, i64 key, i64 age, i64 slot) {
    u128 e = ((u128)(unsigned long long)wake << 88)
           | ((u128)(unsigned long long)(key + 1) << 58)
           | ((u128)(unsigned long long)age << 28)
           | (u128)(unsigned long long)slot;
    u128 *h = c->rheap + smi * c->rheap_cap;
    i64 i = c->rlen[smi]++;
    while (i > 0) {
        i64 par = (i - 1) >> 1;
        if (h[par] <= e)
            break;
        h[i] = h[par];
        i = par;
    }
    h[i] = e;
}

/* GPU._push_sm: push (ready-head time, next seq, smi) when non-empty. */
void vc_push_sm(Core *c, i64 smi) {
    if (c->rlen[smi] > 0) {
        i64 t = (i64)(c->rheap[smi * c->rheap_cap] >> 88);
        c->seq_n += 1;
        dpush(c, ((u128)(unsigned long long)t << 44)
                 | ((u128)(unsigned long long)c->seq_n << 12)
                 | (u128)(unsigned long long)smi);
    }
}

/* -- the main loop ------------------------------------------------------ */
/* Returns 0 = all applications finished, 1 = max_cycles reached,
 * 2 = deadlock (no events, nothing to dispatch), 3 = Python abort. */

i64 vc_run(Core *c) {
    i64 chained = -1;
    int have_pending = 0;
    u128 pending = 0;
    i64 smi = 0;
    i64 seq_n = c->seq_n;
    i64 events = c->events;
    i64 cap = c->rheap_cap;
    i64 t = 0;
    i64 ret = 0;

    while (c->unfinished > 0) {
        if (chained < 0) {
            u128 entry;
            if (have_pending) {
                entry = dpushpop(c, pending);
                have_pending = 0;
            } else if (c->dheap_len > 0) {
                entry = dpop(c);
            } else {
                /* Everything blocked on dispatch (e.g. after migration). */
                c->seq_n = seq_n;
                c->events = events;
                i64 ok = c->cb_empty(c->ctx, c->cycle);
                if (c->abort_flag)
                    return 3;
                if (ok) {
                    seq_n = c->seq_n;
                    continue;
                }
                return 2;
            }
            t = (i64)(entry >> 44);
            smi = (i64)(entry & 0xFFF);
            if (c->rlen[smi] == 0 ||
                (i64)(c->rheap[smi * cap] >> 88) != t)
                continue;        /* stale entry */
        } else {
            t = chained;
            chained = -1;
        }
        if (t > c->max_cycles) {
            c->cycle = c->max_cycles;
            ret = 1;
            break;
        }

        if (c->next_cb <= t) {
            c->seq_n = seq_n;
            c->events = events;
            c->cb_fire(c->ctx, t);
            if (c->abort_flag)
                return 3;
        }

        c->cycle = t;
        /* ---- inlined issue batch for SM smi at cycle t ---- */
        if (c->rlen[smi] > 0 && (i64)(c->rheap[smi * cap] >> 88) <= t) {
            i64 issued = 0;
            i64 rr_pointer = c->gto ? 0 : c->rrp[smi];
            f64 srv_issue_free = c->isf[smi];
            f64 srv_lsu_free = c->lsf[smi];
            i64 last_issued_age = c->lia[smi];
            i64 l1h_c = 0, l1m_c = 0, l1e_c = 0;
            while (c->rlen[smi] > 0) {
                u128 head = c->rheap[smi * cap];
                if ((i64)(head >> 88) > t || issued >= c->max_issue)
                    break;
                i64 slot = (i64)(head & SLOT_MASK);
                if (c->w_done[slot]) {
                    /* Retire: pop, then let Python do block bookkeeping
                     * (and possibly owner migration / L1 invalidation,
                     * applied directly to our arrays). */
                    rpop(c, smi);
                    c->seq_n = seq_n;
                    c->events = events;
                    c->cb_retire(c->ctx, smi, slot, t);
                    if (c->abort_flag)
                        return 3;
                    continue;
                }
                i64 po = c->w_prog_off[slot] + c->w_pc[slot];
                i64 alu_n = c->p_alu[po];
                i64 n_tx = c->p_ntx[po];
                i64 arow = c->w_app[slot];
                i64 wake;
                if (c->w_mem_pending[slot]) {
                    /* Phase 2: the memory instruction executes. */
                    c->a_wi[arow] += 1;
                    c->a_ti[arow] += c->warp_size;
                    c->a_mi[arow] += 1;
                    c->a_mtx[arow] += n_tx;
                    f64 issue_start = srv_issue_free;
                    if ((f64)t > issue_start)
                        issue_start = (f64)t;
                    f64 issue_free = issue_start + c->mem_issue_cost;
                    srv_issue_free = issue_free;
                    i64 li = c->w_li[slot];
                    c->w_li[slot] = li + n_tx;
                    i64 *R = c->recs + 5 * (c->w_rec_off[slot] + li);
                    /* LSU starts are consecutive from the first. */
                    f64 first = issue_start > srv_lsu_free
                              ? issue_start : srv_lsu_free;
                    srv_lsu_free = first + (f64)n_tx;
                    i64 nk = (i64)first;
                    i64 maxdone = 0;
                    i64 l1h_l = 0, l2h_l = 0, dram_l = 0, drh_l = 0;
                    for (i64 k = 0; k < n_tx; k++) {
                        i64 line = R[0], p = R[1], s2i = R[2],
                            bgi = R[3], row = R[4];
                        R += 5;
                        i64 d;
                        i64 si = c->l1_mask >= 0 ? (line & c->l1_mask)
                                                 : (line % c->l1_nsets);
                        i64 *set = c->l1_lines
                                 + (smi * c->l1_nsets + si) * c->l1_assoc;
                        i64 *cnt = c->l1_cnt + smi * c->l1_nsets + si;
                        i64 n = *cnt;
                        i64 hit = -1;
                        for (i64 j = 0; j < n; j++)
                            if (set[j] == line) { hit = j; break; }
                        if (hit >= 0) {
                            for (i64 j = hit; j < n - 1; j++)
                                set[j] = set[j + 1];
                            set[n - 1] = line;    /* move_to_end */
                            l1h_l++;
                            d = nk + c->l1_latency;
                        } else {
                            l1m_c++;
                            if (n >= c->l1_assoc) {
                                for (i64 j = 0; j < n - 1; j++)
                                    set[j] = set[j + 1];
                                n--;
                                l1e_c++;
                            }
                            set[n] = line;
                            *cnt = n + 1;
                            /* -- memory system (access_line) -- */
                            i64 arrival = nk + c->icnt;
                            i64 bz = c->l2_busy[p];
                            i64 l2_start = arrival > bz ? arrival : bz;
                            c->l2_busy[p] = l2_start + c->l2_service;
                            i64 *s2 = c->l2_lines + s2i * c->l2_assoc;
                            i64 *c2 = c->l2_cnt + s2i;
                            i64 n2 = *c2;
                            i64 hit2 = -1;
                            for (i64 j = 0; j < n2; j++)
                                if (s2[j] == line) { hit2 = j; break; }
                            if (hit2 >= 0) {
                                for (i64 j = hit2; j < n2 - 1; j++)
                                    s2[j] = s2[j + 1];
                                s2[n2 - 1] = line;
                                c->l2h[p]++;
                                l2h_l++;
                                d = l2_start + c->l2_lat_icnt;
                            } else {
                                c->l2m[p]++;
                                if (n2 >= c->l2_assoc) {
                                    for (i64 j = 0; j < n2 - 1; j++)
                                        s2[j] = s2[j + 1];
                                    n2--;
                                    c->l2e[p]++;
                                }
                                s2[n2] = line;
                                n2++;
                                *c2 = n2;
                                if (c->l2_bip) {
                                    i64 bc = ++c->bipc[p];
                                    if (bc % c->l2_eps) {
                                        /* insert at LRU (front) */
                                        for (i64 j = n2 - 1; j > 0; j--)
                                            s2[j] = s2[j - 1];
                                        s2[0] = line;
                                    }
                                }
                                i64 bb = c->bank_busy[bgi];
                                i64 start = l2_start > bb ? l2_start : bb;
                                i64 *rw = c->rows + bgi * c->window;
                                i64 *rc = c->rows_cnt + bgi;
                                i64 nr = *rc;
                                i64 rhit = -1;
                                for (i64 j = 0; j < nr; j++)
                                    if (rw[j] == row) { rhit = j; break; }
                                i64 occ;
                                if (rhit >= 0) {
                                    for (i64 j = rhit; j < nr - 1; j++)
                                        rw[j] = rw[j + 1];
                                    rw[nr - 1] = row;  /* refresh recency */
                                    occ = c->row_hit_t;
                                    c->bank_rh[bgi]++;
                                    drh_l++;
                                } else {
                                    if (nr >= c->window) {
                                        for (i64 j = 0; j < nr - 1; j++)
                                            rw[j] = rw[j + 1];
                                        nr--;
                                    }
                                    rw[nr] = row;
                                    *rc = nr + 1;
                                    occ = c->row_miss_t;
                                }
                                i64 bank_done = start + occ;
                                c->bank_busy[bgi] = bank_done;
                                c->bank_acc[bgi]++;
                                dram_l++;
                                i64 bz2 = c->bus_busy[p];
                                i64 bus_start = bank_done > bz2
                                              ? bank_done : bz2;
                                c->bus_busy[p] = bus_start + c->bus_t;
                                d = bus_start + c->done_add;
                            }
                        }
                        if (d > maxdone)
                            maxdone = d;
                        nk++;
                    }
                    if (l1h_l) {
                        l1h_c += l1h_l;
                        c->a_l1h[arow] += l1h_l;
                    }
                    if (l2h_l)
                        c->a_l2h[arow] += l2h_l;
                    if (dram_l) {
                        c->a_dram[arow] += dram_l;
                        if (drh_l)
                            c->a_drh[arow] += drh_l;
                    }
                    c->w_mem_pending[slot] = 0;
                    i64 pc = c->w_pc[slot] + 1;
                    c->w_pc[slot] = pc;
                    if (pc >= c->w_prog_len[slot])
                        c->w_done[slot] = 1;
                    /* wake = int(max(issue_start, dones, issue_free));
                     * floor is monotonic and issue_free > issue_start. */
                    wake = (i64)issue_free;
                    if (maxdone > wake)
                        wake = maxdone;
                } else {
                    /* Phase 1: the ALU run issues. */
                    f64 issue_start = srv_issue_free;
                    if ((f64)t > issue_start)
                        issue_start = (f64)t;
                    f64 issue_free = issue_start
                                   + (f64)alu_n / (f64)c->issue_width;
                    srv_issue_free = issue_free;
                    c->a_wi[arow] += alu_n;
                    c->a_ti[arow] += alu_n * c->warp_size;
                    c->a_alu[arow] += alu_n;
                    f64 wk = issue_start + (f64)alu_n * c->w_dep_gap[slot];
                    if (n_tx) {
                        c->w_mem_pending[slot] = 1;
                    } else {
                        i64 pc = c->w_pc[slot] + 1;
                        c->w_pc[slot] = pc;
                        if (pc >= c->w_prog_len[slot])
                            c->w_done[slot] = 1;
                    }
                    if (wk < issue_free)
                        wk = issue_free;
                    wake = (i64)wk;
                }
                i64 age = c->w_age[slot];
                last_issued_age = age;
                if (wake <= t)
                    wake = t + 1;
                i64 key;
                if (c->gto) {
                    key = -1;
                } else {
                    key = (age - rr_pointer) % 1000000;
                    if (key < 0)   /* match Python's non-negative % */
                        key += 1000000;
                }
                rreplace(c, smi,
                         ((u128)(unsigned long long)wake << 88)
                         | ((u128)(unsigned long long)(key + 1) << 58)
                         | ((u128)(unsigned long long)age << 28)
                         | (u128)(unsigned long long)slot);
                issued++;
            }
            c->isf[smi] = srv_issue_free;
            c->lsf[smi] = srv_lsu_free;
            c->lia[smi] = last_issued_age;
            if (!c->gto)
                c->rrp[smi] = rr_pointer + issued;
            if (l1h_c)
                c->l1h[smi] += l1h_c;
            if (l1m_c)
                c->l1m[smi] += l1m_c;
            if (l1e_c)
                c->l1e[smi] += l1e_c;
        }
        /* ---- end inlined batch ---- */
        events++;
        if (c->rlen[smi] > 0) {
            i64 t_next = (i64)(c->rheap[smi * cap] >> 88);
            if (!c->dispatch_needed &&
                (c->dheap_len == 0 || t_next < (i64)(c->dheap[0] >> 44))) {
                chained = t_next;
                continue;
            }
            seq_n++;
            pending = ((u128)(unsigned long long)t_next << 44)
                    | ((u128)(unsigned long long)seq_n << 12)
                    | (u128)(unsigned long long)smi;
            have_pending = 1;
        }
        if (c->dispatch_needed) {
            c->dispatch_needed = 0;
            if (have_pending) {
                dpush(c, pending);
                have_pending = 0;
            }
            c->seq_n = seq_n;
            c->events = events;
            c->cb_dispatch(c->ctx, t);
            if (c->abort_flag)
                return 3;
            seq_n = c->seq_n;
        }
    }

    c->seq_n = seq_n;
    if (have_pending)
        dpush(c, pending);
    if (chained >= 0)
        vc_push_sm(c, smi);
    c->events = events;
    return ret;
}
