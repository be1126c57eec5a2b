/* Structure-of-arrays replay kernel (see repro/sim/soatrace.py).
 *
 * A line-for-line transliteration of the scalar machinery it replaces.
 * Comments reference the Python each function mirrors; every formula
 * (queue clamps, leg timestamps, counter sites, mutation order) must
 * match repro.sim.engine / repro.sim.node / repro.coherence /
 * repro.interconnect / repro.mem exactly -- the three-way parity matrix
 * in tests/test_perf_parity.py is the enforcement.
 *
 * soatrace.py reads the SoaState typedef below as the cffi declaration
 * and hashes this whole file into the compiled library's cache key, so
 * every edit here rebuilds the kernel.  The enums must stay in sync
 * with the slot constants at the top of soatrace.py.
 */
#include <stdint.h>

typedef struct {
    const int64_t *P;
    const uint8_t *kinds;
    const int64_t *args;
    const int64_t *tr_off;
    const int64_t *tr_len;
    int64_t *pos;
    int64_t *clock;
    int64_t *arrival;
    int64_t *barrier_id;
    uint8_t *finished;
    uint8_t *waiting;
    int64_t *ctl;
    int64_t *l1_tags;
    uint8_t *l1_dirty;
    int64_t *rac;
    uint8_t *owned;
    uint8_t *ever;
    uint64_t *copyset;
    int64_t *owner;
    int64_t *refetch;
    int64_t *modes;
    uint64_t *scoma_valid;
    int64_t *pc_hits;
    uint8_t *ref_bits;
    const int64_t *home;
    const int64_t *net_base;
    int64_t *net_port;
    int64_t *mem_busy;
    int64_t *bus_busy;
    int64_t *free_frames;
    const int64_t *free_min;
    const int64_t *next_run;
    const int64_t *thr;
    int64_t *clk_buf;
    int64_t *clk_head;
    int64_t *clk_len;
    int64_t *st;
    int64_t *aux;
    int64_t *glob;
    uint64_t *inv_scratch;
    int64_t *ring;
} SoaState;

#define EV_WRITE 1
#define EV_COMPUTE 2
#define EV_LOCAL 3

/* PageMode */
#define M_UNMAPPED 0
#define M_HOME 1
#define M_SCOMA 2
#define M_CCNUMA 3

enum { P_N, P_QUANTUM, P_NO_LIMIT, P_LINE_SHIFT, P_CHUNK_SHIFT, P_CPP_MASK,
       P_SET_MASK, P_RAC_MASK, P_RAC_VICTIM, P_HIT_CYCLES, P_RAC_CYCLES,
       P_DSM2, P_GRANT_EX, P_STALL_INV, P_SKIP_NODE, P_BANK_MASK,
       P_MEM_SERVICE, P_MEM_OCC, P_MEM_MAXQ, P_BUS_OCC, P_BUS_FIXED,
       P_BUS_MAXQ, P_NET_OCC, P_NET_MAXQ, P_LPC, P_N_PAGES, P_N_SETS,
       P_N_BANKS, P_RAC_ENTRIES, P_PC_SHIFT, P_N_CHUNKS, P_CS_WORDS,
       P_SV_WORDS, P_RING_INV, P_RING_DEM, P_RING_CAP, P_FT_RULE,
       P_PAGE_FAULT, P_PAGE_REMAP, P_FLUSH_PER_LINE, P_FRAMES, P_CLK_CAP,
       N_PARAMS };

enum { S_USH, S_UINSTR, S_ULC, S_HOME, S_SCOMA, S_RAC, S_COLD, S_CONF,
       S_HOME_LAT, S_SCOMA_LAT, S_RAC_LAT, S_COLD_LAT, S_CONF_LAT,
       S_UPGRADES, S_INDUCED, S_ESSENTIAL, S_L1_HITS, S_L1_MISSES,
       S_KBASE, S_KOVERHD, S_PAGE_FAULTS, S_EVICTIONS, S_FORCED,
       S_LINES_FLUSHED, N_STATS };

enum { A_WB, A_INVAL, A_RAC_HITS, A_RAC_MISSES, A_RAC_FILLS, A_MEM_ACC,
       A_MEM_CONT, A_MEM_Q, A_BUS_TX, A_BUS_CONT, A_BUS_Q, A_PT_FAULTS,
       A_L1_FLUSHED, A_SHOOTDOWNS, A_POOL_ALLOC, A_POOL_REL, A_POOL_FAILED,
       N_AUX };

enum { G_NET_MSGS, G_NET_CONT, G_NET_Q, G_DIR_REFETCH, G_DIR_FWD,
       G_DIR_INV, G_DIR_EXCL, G_REMOTE, G_THREE_HOP, G_STALLS, N_GLOB };

enum { C_IN_SLICE, C_BEST, C_LIMIT, C_NOW, C_RLEN, C_RING, C_REASON,
       C_DAEMON_AT, C_SKIP_DAEMON };

enum { RC_DONE, RC_RESIDUAL, RC_DAEMON, RC_BARRIER, RC_DEADLOCK, RC_RING,
       RC_BAD_PARAMS, RC_EMPTY_CLOCK };

/* Why a reference left the kernel (ctl[C_REASON] on RC_RESIDUAL); the
 * two extra codes are internal to shared_ref's caller. */
enum { R_HINT, R_HOME_ASSIGN, R_DAEMON, R_EMPTY_CLOCK };

/* First-touch rule of the policy (Engine._page_fault + initial_mode). */
enum { FT_CCNUMA, FT_SCOMA_IF_FREE, FT_SCOMA };

/* Entry-time precondition: the shape and params soatrace.py promises.
 * A violation is a caller bug; returning RC_BAD_PARAMS beats indexing
 * out of bounds. */
static int params_ok(const SoaState *s) {
    const int64_t *P = s->P;
    int64_t n = P[P_N];
    if (n < 1 || P[P_CS_WORDS] != (n + 63) / 64) return 0;
    if (P[P_QUANTUM] < 1) return 0;
    if (P[P_CHUNK_SHIFT] < 0 || P[P_LINE_SHIFT] < P[P_CHUNK_SHIFT]
        || P[P_LINE_SHIFT] > 40) return 0;
    if (P[P_LPC] != (int64_t)1 << P[P_CHUNK_SHIFT]) return 0;
    if (P[P_PC_SHIFT] != P[P_LINE_SHIFT] - P[P_CHUNK_SHIFT]) return 0;
    if (P[P_CPP_MASK] != ((int64_t)1 << P[P_PC_SHIFT]) - 1) return 0;
    if (P[P_SV_WORDS] != (P[P_CPP_MASK] + 64) / 64) return 0;
    if (P[P_N_PAGES] < 1 || P[P_N_CHUNKS] != P[P_N_PAGES] << P[P_PC_SHIFT])
        return 0;
    if (P[P_N_SETS] < 1 || P[P_SET_MASK] != P[P_N_SETS] - 1
        || (P[P_N_SETS] & P[P_SET_MASK])) return 0;
    if (P[P_RAC_ENTRIES] < 1 || P[P_RAC_MASK] != P[P_RAC_ENTRIES] - 1
        || (P[P_RAC_ENTRIES] & P[P_RAC_MASK])) return 0;
    if (P[P_N_BANKS] < 1 || P[P_BANK_MASK] != P[P_N_BANKS] - 1
        || (P[P_N_BANKS] & P[P_BANK_MASK])) return 0;
    if ((P[P_RING_INV] || P[P_RING_DEM]) && P[P_RING_CAP] < n + 2) return 0;
    if (P[P_FT_RULE] < FT_CCNUMA || P[P_FT_RULE] > FT_SCOMA) return 0;
    if (P[P_FRAMES] < 0 || P[P_CLK_CAP] < 1 || P[P_CLK_CAP] < P[P_FRAMES])
        return 0;
    return 1;
}

/* Bounded event ring: rare coherence transitions the kernel performs
 * itself (chunk invalidations, owner demotions) are recorded here when
 * a kind-filtered EventBus subscriber watches them, and replayed by the
 * Python drive loop at the next kernel exit -- identical events, identical
 * clocks, identical order to what the reference loop publishes. */
static void ring_push(SoaState *s, int64_t kind, int64_t node,
                      int64_t chunk, int64_t clk) {
    int64_t *e = &s->ring[s->ctl[C_RING] * 4];
    e[0] = kind; e[1] = node; e[2] = chunk; e[3] = clk;
    s->ctl[C_RING]++;
}

/* Network.one_way: same-node messages are free and uncounted. */
static int64_t one_way(SoaState *s, int64_t src, int64_t dst, int64_t now) {
    if (src == dst) return 0;
    int64_t base = s->net_base[src * s->P[P_N] + dst];
    int64_t arrival = now + base;
    int64_t busy = s->net_port[dst];
    int64_t queue = busy > arrival ? busy - arrival : 0;
    if (queue > s->P[P_NET_MAXQ]) queue = s->P[P_NET_MAXQ];
    s->net_port[dst] = arrival + queue + s->P[P_NET_OCC];
    s->glob[G_NET_MSGS]++;
    if (queue) { s->glob[G_NET_CONT]++; s->glob[G_NET_Q] += queue; }
    return base + queue;
}

static int64_t round_trip(SoaState *s, int64_t src, int64_t dst, int64_t now) {
    int64_t out = one_way(s, src, dst, now);
    return out + one_way(s, dst, src, now + out);
}

/* BankedMemory.access */
static int64_t mem_access(SoaState *s, int64_t node, int64_t chunk,
                          int64_t now) {
    int64_t *busy = &s->mem_busy[node * s->P[P_N_BANKS]
                                 + (chunk & s->P[P_BANK_MASK])];
    int64_t queue = *busy > now ? *busy - now : 0;
    if (queue > s->P[P_MEM_MAXQ]) queue = s->P[P_MEM_MAXQ];
    *busy = now + queue + s->P[P_MEM_OCC];
    int64_t *aux = &s->aux[node * N_AUX];
    aux[A_MEM_ACC]++;
    if (queue) { aux[A_MEM_CONT]++; aux[A_MEM_Q] += queue; }
    return s->P[P_MEM_SERVICE] + queue;
}

/* SplitTransactionBus.transact */
static int64_t bus_transact(SoaState *s, int64_t node, int64_t now) {
    int64_t busy = s->bus_busy[node];
    int64_t queue = busy > now ? busy - now : 0;
    if (queue > s->P[P_BUS_MAXQ]) queue = s->P[P_BUS_MAXQ];
    s->bus_busy[node] = now + queue + s->P[P_BUS_OCC];
    int64_t *aux = &s->aux[node * N_AUX];
    aux[A_BUS_TX]++;
    if (queue) { aux[A_BUS_CONT]++; aux[A_BUS_Q] += queue; }
    return s->P[P_BUS_FIXED] + queue;
}

static void rac_drop(SoaState *s, int64_t node, int64_t key) {
    int64_t *slot = &s->rac[node * s->P[P_RAC_ENTRIES]
                            + (key & s->P[P_RAC_MASK])];
    if (*slot == key) *slot = -1;
}

static void rac_fill(SoaState *s, int64_t node, int64_t key) {
    s->rac[node * s->P[P_RAC_ENTRIES] + (key & s->P[P_RAC_MASK])] = key;
    s->aux[node * N_AUX + A_RAC_FILLS]++;
}

/* Machine._invalidate_chunk + Node.invalidate_chunk.  The publish is
 * deferred through the event ring when a kind-filtered subscriber
 * watches EV_INVALIDATE; unfiltered observers disqualify the run
 * before the kernel starts. */
static void invalidate_chunk_at(SoaState *s, int64_t node, int64_t chunk,
                                int64_t now) {
    if (node == s->P[P_SKIP_NODE]) return;
    int64_t lpc = s->P[P_LPC];
    int64_t first = chunk * lpc;
    int64_t *tags = &s->l1_tags[node * s->P[P_N_SETS]];
    uint8_t *dirty = &s->l1_dirty[node * s->P[P_N_SETS]];
    int64_t *aux = &s->aux[node * N_AUX];
    for (int64_t line = first; line < first + lpc; line++) {
        int64_t slot = line & s->P[P_SET_MASK];
        if (tags[slot] == line) {
            tags[slot] = -1;
            dirty[slot] = 0;
            aux[A_INVAL]++;
        }
    }
    if (s->P[P_RAC_VICTIM]) {
        for (int64_t line = first; line < first + lpc; line++)
            rac_drop(s, node, line);
    } else {
        rac_drop(s, node, chunk);
    }
    s->owned[node * s->P[P_N_CHUNKS] + chunk] = 0;
    int64_t pidx = node * s->P[P_N_PAGES] + (chunk >> s->P[P_PC_SHIFT]);
    if (s->modes[pidx] == M_SCOMA) {
        int64_t cip = chunk & s->P[P_CPP_MASK];
        s->scoma_valid[pidx * s->P[P_SV_WORDS] + (cip >> 6)]
            &= ~((uint64_t)1 << (cip & 63));
    }
    if (s->P[P_RING_INV]) ring_push(s, 0, node, chunk, now);
}

/* CoherenceProtocol._invalidate_all: invalidate each sharer in
 * ascending id order, all round trips issued at the same `now` (port
 * state still accumulates); one write stall per call.  The sharer set
 * is the multi-word mask fetch_raw left in inv_scratch. */
static int64_t invalidate_all(SoaState *s, int64_t chunk,
                              int64_t origin, int64_t now) {
    int64_t worst = 0;
    for (int64_t w = 0; w < s->P[P_CS_WORDS]; w++) {
        uint64_t m = s->inv_scratch[w];
        while (m) {
            int64_t sh = (w << 6) + __builtin_ctzll(m);
            m &= m - 1;
            invalidate_chunk_at(s, sh, chunk, now);
            int64_t rt = round_trip(s, origin, sh, now);
            if (rt > worst) worst = rt;
        }
    }
    s->glob[G_STALLS]++;
    return s->P[P_STALL_INV] ? worst : 0;
}

typedef struct {
    int64_t refetch, forwarded, has_inv, prev_owner, exclusive;
} DirOut;

/* Directory.fetch_raw.  The relocation-hint branch is unreachable
 * here: shared_ref() pre-checks the hint condition against the
 * pre-mutation copyset/refetch state and exits to Python before
 * calling this, so count+1 < threshold always holds. */
static DirOut fetch_raw(SoaState *s, int64_t node, int64_t chunk,
                        int64_t page, int64_t is_write, int64_t threshold,
                        int64_t count_refetch) {
    DirOut o = {0, 0, 0, -1, 0};
    int64_t W = s->P[P_CS_WORDS];
    uint64_t *cs = &s->copyset[chunk * W];
    int64_t bw = node >> 6;
    uint64_t bit = (uint64_t)1 << (node & 63);
    o.refetch = (cs[bw] & bit) != 0;
    int64_t owner = s->owner[chunk];
    if (owner != -1 && owner != node) {
        o.forwarded = 1;
        s->glob[G_DIR_FWD]++;
        s->owner[chunk] = -1;
    }
    if (is_write) {
        int64_t inv = 0;
        for (int64_t w = 0; w < W; w++) {
            uint64_t others = cs[w];
            if (w == bw) others &= ~bit;
            s->inv_scratch[w] = others;
            inv += __builtin_popcountll(others);
            cs[w] = 0;
        }
        cs[bw] = bit;
        s->owner[chunk] = node;
        if (inv) {
            o.has_inv = 1;
            s->glob[G_DIR_INV] += inv;
        }
    } else {
        uint64_t any = 0;
        for (int64_t w = 0; w < W; w++) any |= cs[w];
        cs[bw] |= bit;
        if (owner == node) {
            /* still the owner */
        } else if (s->P[P_GRANT_EX] && any == 0) {
            s->owner[chunk] = node;
            o.exclusive = 1;
        }
    }
    if (o.refetch && count_refetch) {
        s->glob[G_DIR_REFETCH]++;
        if (threshold > 0)
            s->refetch[page * s->P[P_N] + node]++;
    }
    if (o.exclusive) s->glob[G_DIR_EXCL]++;
    o.prev_owner = (owner != node) ? owner : -1;
    return o;
}

/* CoherenceProtocol.remote_fetch_raw after the directory step. */
static int64_t remote_after_dir(SoaState *s, DirOut *o, int64_t node,
                                int64_t chunk, int64_t home,
                                int64_t is_write, int64_t now) {
    int64_t lat = one_way(s, node, home, now);
    lat += mem_access(s, home, chunk, now + lat);
    if (o->forwarded) {
        s->glob[G_THREE_HOP]++;
        lat += one_way(s, home, node, now + lat);
        if (!is_write && o->prev_owner >= 0) {
            s->owned[o->prev_owner * s->P[P_N_CHUNKS] + chunk] = 0;
            if (s->P[P_RING_DEM])
                ring_push(s, 1, o->prev_owner, chunk, now + lat);
        }
    }
    lat += one_way(s, home, node, now + lat);
    if (o->has_inv)
        lat += invalidate_all(s, chunk, home, now + lat);
    s->glob[G_REMOTE]++;
    return lat;
}

/* CoherenceProtocol.local_fetch_raw after the directory step. */
static int64_t local_after_dir(SoaState *s, DirOut *o, int64_t node,
                               int64_t chunk, int64_t is_write,
                               int64_t now) {
    int64_t lat = mem_access(s, node, chunk, now);
    if (o->forwarded) {
        s->glob[G_THREE_HOP]++;
        int64_t owner = o->prev_owner >= 0 ? o->prev_owner
                                           : (node + 1) % s->P[P_N];
        lat += round_trip(s, node, owner, now + lat);
        if (!is_write && o->prev_owner >= 0) {
            s->owned[o->prev_owner * s->P[P_N_CHUNKS] + chunk] = 0;
            if (s->P[P_RING_DEM])
                ring_push(s, 1, o->prev_owner, chunk, now + lat);
        }
    }
    if (o->has_inv)
        lat += invalidate_all(s, chunk, node, now + lat);
    return lat;
}

/* CoherenceProtocol.upgrade */
static int64_t upgrade(SoaState *s, int64_t node, int64_t chunk,
                       int64_t page, int64_t home, int64_t now) {
    DirOut o = fetch_raw(s, node, chunk, page, 1, 0, 0);
    int64_t lat = (home == node) ? 0 : round_trip(s, node, home, now);
    if (o.has_inv)
        lat += invalidate_all(s, chunk, home, now + lat);
    return lat;
}

/* DirectMappedCache.fill */
static int64_t l1_fill(SoaState *s, int64_t node, int64_t line,
                       int64_t make_dirty) {
    int64_t slot = line & s->P[P_SET_MASK];
    int64_t *tags = &s->l1_tags[node * s->P[P_N_SETS]];
    uint8_t *dirty = &s->l1_dirty[node * s->P[P_N_SETS]];
    int64_t victim = tags[slot];
    if (victim == line) {
        if (make_dirty) dirty[slot] = 1;
        return -1;
    }
    if (victim != -1 && dirty[slot]) s->aux[node * N_AUX + A_WB]++;
    tags[slot] = line;
    dirty[slot] = (uint8_t)make_dirty;
    return victim;
}

/* Engine._l1_fill / plain l1.fill, chosen per rac_fill_policy. */
static void l1_fill_tail(SoaState *s, int64_t node, int64_t line,
                         int64_t is_write) {
    if (s->P[P_RAC_VICTIM]) {
        int64_t victim = l1_fill(s, node, line, is_write);
        if (victim != -1
            && s->modes[node * s->P[P_N_PAGES]
                        + (victim >> s->P[P_LINE_SHIFT])] == M_CCNUMA)
            rac_fill(s, node, victim);
    } else {
        l1_fill(s, node, line, is_write);
    }
}

/* Engine._classify_remote */
static void classify(SoaState *s, int64_t node, int64_t chunk,
                     int64_t refetch, int64_t lat) {
    int64_t *st = &s->st[node * N_STATS];
    uint8_t *ever = &s->ever[node * s->P[P_N_CHUNKS] + chunk];
    if (refetch) {
        st[S_CONF]++;
        st[S_CONF_LAT] += lat;
        *ever = 1;
    } else {
        st[S_COLD]++;
        st[S_COLD_LAT] += lat;
        if (*ever) st[S_INDUCED]++;
        else { st[S_ESSENTIAL]++; *ever = 1; }
    }
}

/* The second-chance clock (PageTable.scoma_clock) is a per-node ring
 * of clk_cap slots: clk_head[node] indexes the front, clk_len[node]
 * counts the pages.  soatrace's _ClockView exposes the same ring as a
 * deque to the Python daemon. */
static int64_t *clk_slot(SoaState *s, int64_t node, int64_t i) {
    int64_t cap = s->P[P_CLK_CAP];
    return &s->clk_buf[node * cap + (s->clk_head[node] + i) % cap];
}

/* Node.choose_victim: rotate past referenced pages (clearing their
 * bits) for up to one revolution, then take the front.  The victim is
 * therefore always the clock's front entry.  The caller has already
 * ruled out an empty clock. */
static int64_t choose_victim(SoaState *s, int64_t node) {
    int64_t cap = s->P[P_CLK_CAP];
    int64_t len = s->clk_len[node];
    uint8_t *bits = &s->ref_bits[node * s->P[P_N_PAGES]];
    for (int64_t k = 0; k < len; k++) {
        int64_t page = *clk_slot(s, node, 0);
        if (!bits[page]) return page;
        bits[page] = 0;                             /* clear, rotate(-1) */
        *clk_slot(s, node, len) = page;
        s->clk_head[node] = (s->clk_head[node] + 1) % cap;
    }
    return *clk_slot(s, node, 0);
}

/* Node.flush_page: L1 lines, RAC entries, ownership and the page's
 * directory copyset membership; returns the L1 lines flushed. */
static int64_t flush_page(SoaState *s, int64_t node, int64_t page) {
    int64_t lpp = (int64_t)1 << s->P[P_LINE_SHIFT];
    int64_t cpp = s->P[P_CPP_MASK] + 1;
    /* DirectMappedCache.flush_page: the page's lines map to
     * min(lpp, n_sets) consecutive sets. */
    int64_t first = page * lpp;
    int64_t span = lpp < s->P[P_N_SETS] ? lpp : s->P[P_N_SETS];
    int64_t *tags = &s->l1_tags[node * s->P[P_N_SETS]];
    uint8_t *dirty = &s->l1_dirty[node * s->P[P_N_SETS]];
    int64_t flushed = 0;
    for (int64_t off = 0; off < span; off++) {
        int64_t slot = (first + off) & s->P[P_SET_MASK];
        int64_t tag = tags[slot];
        if (tag != -1 && (tag >> s->P[P_LINE_SHIFT]) == page) {
            tags[slot] = -1;
            dirty[slot] = 0;
            flushed++;
        }
    }
    s->aux[node * N_AUX + A_L1_FLUSHED] += flushed;
    /* RemoteAccessCache.flush_page over lines (victim RAC) or chunks. */
    int64_t lo = s->P[P_RAC_VICTIM] ? first : page * cpp;
    int64_t hi = lo + (s->P[P_RAC_VICTIM] ? lpp : cpp);
    int64_t *rac = &s->rac[node * s->P[P_RAC_ENTRIES]];
    for (int64_t i = 0; i < s->P[P_RAC_ENTRIES]; i++)
        if (lo <= rac[i] && rac[i] < hi) rac[i] = -1;
    /* owned.discard + Directory.drop_node_from_page */
    int64_t c0 = page * cpp;
    int64_t W = s->P[P_CS_WORDS];
    int64_t bw = node >> 6;
    uint64_t bit = (uint64_t)1 << (node & 63);
    for (int64_t c = c0; c < c0 + cpp; c++) {
        s->owned[node * s->P[P_N_CHUNKS] + c] = 0;
        uint64_t *cs = &s->copyset[c * W + bw];
        if (*cs & bit) {
            *cs &= ~bit;
            if (s->owner[c] == node) s->owner[c] = -1;
        }
    }
    s->st[node * N_STATS + S_LINES_FLUSHED] += flushed;
    return flushed;
}

/* PageTable.map_scoma + Node.map_scoma (frame already allocated). */
static void map_scoma(SoaState *s, int64_t node, int64_t page) {
    int64_t pidx = node * s->P[P_N_PAGES] + page;
    s->modes[pidx] = M_SCOMA;
    for (int64_t w = 0; w < s->P[P_SV_WORDS]; w++)
        s->scoma_valid[pidx * s->P[P_SV_WORDS] + w] = 0;
    *clk_slot(s, node, s->clk_len[node]) = page;
    s->clk_len[node]++;
    s->pc_hits[pidx] = 0;
}

/* Node.evict_scoma_page(victim, forced=True) for pure S-COMA, whose
 * evictions unmap the page entirely; returns the K-OVERHD charge. */
static int64_t evict_front(SoaState *s, int64_t node, int64_t page) {
    int64_t flushed = flush_page(s, node, page);
    int64_t pidx = node * s->P[P_N_PAGES] + page;
    /* PageTable.unmap_scoma: the victim is the clock's front. */
    for (int64_t w = 0; w < s->P[P_SV_WORDS]; w++)
        s->scoma_valid[pidx * s->P[P_SV_WORDS] + w] = 0;
    s->clk_head[node] = (s->clk_head[node] + 1) % s->P[P_CLK_CAP];
    s->clk_len[node]--;
    s->modes[pidx] = M_UNMAPPED;
    s->ref_bits[pidx] = 0;                          /* TLB.shootdown */
    int64_t *aux = &s->aux[node * N_AUX];
    aux[A_SHOOTDOWNS]++;
    s->free_frames[node]++;                         /* FreePagePool.release */
    aux[A_POOL_REL]++;
    s->refetch[page * s->P[P_N] + node] = 0;        /* reset_refetch */
    s->pc_hits[pidx] = -1;
    int64_t *st = &s->st[node * N_STATS];
    st[S_EVICTIONS]++;
    st[S_FORCED]++;
    return s->P[P_PAGE_REMAP] + s->P[P_FLUSH_PER_LINE] * flushed;
}

/* Pre-mutation half of Engine._page_fault for an UNMAPPED page: the
 * mode the fault will map by the policy's first-touch rule, or -1 when
 * no node has touched the page yet (home placement stays with the
 * Python allocators).  Time-independent, so is_residual shares it. */
static int64_t fault_mode(SoaState *s, int64_t nid, int64_t page) {
    int64_t home = s->home[page];
    if (home < 0) return -1;
    if (home == nid) return M_HOME;
    int64_t rule = s->P[P_FT_RULE];
    if (rule == FT_CCNUMA
        || (rule == FT_SCOMA_IF_FREE && s->free_frames[nid] == 0))
        return M_CCNUMA;
    return M_SCOMA;
}

/* Would a CC-NUMA-mode miss raise a relocation hint?  Pure; matches
 * Directory.fetch_raw's hint condition against current state. */
static int hint_due(SoaState *s, int64_t nid, int64_t line, int64_t page,
                    int64_t chunk) {
    int64_t key = s->P[P_RAC_VICTIM] ? line : chunk;
    if (s->rac[nid * s->P[P_RAC_ENTRIES] + (key & s->P[P_RAC_MASK])] == key)
        return 0;                                   /* RAC hit */
    int64_t thr = s->thr[nid];
    return thr > 0
        && ((s->copyset[chunk * s->P[P_CS_WORDS] + (nid >> 6)]
             >> (nid & 63)) & 1)
        && s->refetch[page * s->P[P_N] + nid] + 1 >= thr;
}

/* Engine._shared_ref.  Returns elapsed cycles, or -1 with the reason
 * in ctl[C_REASON] when the event must leave the kernel; -1 is
 * returned strictly before any mutation, so Python can redo the whole
 * event against identical state. */
static int64_t shared_ref(SoaState *s, int64_t nid, int64_t line,
                          int64_t is_write, int64_t now) {
    int64_t *st = &s->st[nid * N_STATS];
    int64_t slot = line & s->P[P_SET_MASK];
    int64_t *tags = &s->l1_tags[nid * s->P[P_N_SETS]];
    int64_t chunk = line >> s->P[P_CHUNK_SHIFT];
    if (tags[slot] == line) {                       /* L1 hit */
        st[S_L1_HITS]++;
        uint8_t *dirty = &s->l1_dirty[nid * s->P[P_N_SETS]];
        if (is_write) {
            uint8_t *ownedp = &s->owned[nid * s->P[P_N_CHUNKS] + chunk];
            if (!*ownedp) {
                int64_t page = line >> s->P[P_LINE_SHIFT];
                int64_t lat = upgrade(s, nid, chunk, page,
                                      s->home[page], now);
                *ownedp = 1;
                st[S_UPGRADES]++;
                st[S_USH] += lat;
                dirty[slot] = 1;
                return s->P[P_HIT_CYCLES] + lat;
            }
            dirty[slot] = 1;
        }
        return s->P[P_HIT_CYCLES];
    }
    /* L1 miss: pure pre-checks before any mutation. */
    int64_t page = line >> s->P[P_LINE_SHIFT];
    int64_t pidx = nid * s->P[P_N_PAGES] + page;
    int64_t mode = s->modes[pidx];
    int64_t fault = mode == M_UNMAPPED;
    int64_t skip_daemon = s->ctl[C_SKIP_DAEMON];
    if (fault) {
        mode = fault_mode(s, nid, page);
        if (mode < 0) {
            s->ctl[C_REASON] = R_HOME_ASSIGN;
            return -1;
        }
        if (mode == M_SCOMA) {
            /* Node.acquire_frame runs a due daemon at fault time first;
             * run_vector runs it, then re-enters with C_SKIP_DAEMON set
             * so this event does not check again. */
            int64_t t = now + s->P[P_PAGE_FAULT];
            if (!skip_daemon && s->free_frames[nid] < s->free_min[nid]
                && t >= s->next_run[nid]) {
                s->ctl[C_REASON] = R_DAEMON;
                s->ctl[C_DAEMON_AT] = t;
                return -1;
            }
            if (s->free_frames[nid] == 0 && s->clk_len[nid] == 0) {
                s->ctl[C_REASON] = R_EMPTY_CLOCK;
                return -1;
            }
        }
    }
    if (mode == M_CCNUMA && hint_due(s, nid, line, page, chunk)) {
        s->ctl[C_REASON] = R_HINT;
        return -1;                                  /* relocation hint */
    }
    s->ctl[C_SKIP_DAEMON] = 0;
    st[S_L1_MISSES]++;
    s->ref_bits[pidx] = 1;
    int64_t kernel = 0;
    if (fault) {
        /* Engine._page_fault, after its pre-checks above. */
        kernel = s->P[P_PAGE_FAULT];
        st[S_KBASE] += kernel;
        st[S_PAGE_FAULTS]++;
        s->aux[nid * N_AUX + A_PT_FAULTS]++;
        if (mode == M_SCOMA) {
            if (s->free_frames[nid] == 0) {
                /* Pure S-COMA with a dry pool: force-evict a victim. */
                s->aux[nid * N_AUX + A_POOL_FAILED]++;
                int64_t overhead = evict_front(s, nid,
                                               choose_victim(s, nid));
                st[S_KOVERHD] += overhead;
                kernel += overhead;
            }
            s->free_frames[nid]--;
            s->aux[nid * N_AUX + A_POOL_ALLOC]++;
            map_scoma(s, nid, page);
        } else {
            s->modes[pidx] = mode;
        }
        now += kernel;
    }
    int64_t lat = bus_transact(s, nid, now);
    uint8_t *ownedp = &s->owned[nid * s->P[P_N_CHUNKS] + chunk];
    int64_t home = s->home[page];
    if (mode == M_HOME) {
        DirOut o = fetch_raw(s, nid, chunk, page, is_write, 0, 0);
        lat += local_after_dir(s, &o, nid, chunk, is_write, now + lat);
        st[S_HOME]++;
        st[S_HOME_LAT] += lat;
        if (is_write || o.exclusive) *ownedp = 1;
    } else if (mode == M_SCOMA) {
        int64_t cip = chunk & s->P[P_CPP_MASK];
        uint64_t *sv = &s->scoma_valid[pidx * s->P[P_SV_WORDS]];
        if ((sv[cip >> 6] >> (cip & 63)) & 1) {
            lat += mem_access(s, nid, chunk, now + lat);
            st[S_SCOMA]++;
            s->pc_hits[pidx]++;
            st[S_SCOMA_LAT] += lat;
            if (is_write && !*ownedp) {
                lat += upgrade(s, nid, chunk, page, home, now + lat);
                *ownedp = 1;
                st[S_UPGRADES]++;
            }
        } else {
            DirOut o = fetch_raw(s, nid, chunk, page, is_write, 0, 0);
            int64_t fl = remote_after_dir(s, &o, nid, chunk, home,
                                          is_write, now + lat);
            lat += s->P[P_DSM2] + fl;
            sv[cip >> 6] |= (uint64_t)1 << (cip & 63);
            classify(s, nid, chunk, o.refetch, lat);
            if (is_write || o.exclusive) *ownedp = 1;
        }
    } else {                                        /* CCNUMA */
        int64_t key = s->P[P_RAC_VICTIM] ? line : chunk;
        int64_t *aux = &s->aux[nid * N_AUX];
        if (s->rac[nid * s->P[P_RAC_ENTRIES]
                   + (key & s->P[P_RAC_MASK])] == key) {
            aux[A_RAC_HITS]++;
            lat += s->P[P_RAC_CYCLES];
            st[S_RAC]++;
            st[S_RAC_LAT] += lat;
            if (is_write && !*ownedp) {
                lat += upgrade(s, nid, chunk, page, home, now + lat);
                *ownedp = 1;
                st[S_UPGRADES]++;
            }
        } else {
            aux[A_RAC_MISSES]++;
            DirOut o = fetch_raw(s, nid, chunk, page, is_write,
                                 s->thr[nid], 1);
            int64_t fl = remote_after_dir(s, &o, nid, chunk, home,
                                          is_write, now + lat);
            lat += s->P[P_DSM2] + fl;
            if (!s->P[P_RAC_VICTIM]) rac_fill(s, nid, chunk);
            classify(s, nid, chunk, o.refetch, lat);
            if (is_write || o.exclusive) *ownedp = 1;
        }
    }
    l1_fill_tail(s, nid, line, is_write);
    st[S_USH] += lat;
    return kernel + lat;
}

/* Pre-mutation mirror of shared_ref's residual decision: would this
 * reference exit to the scalar path *against current state*?  Used to
 * batch runs of consecutive residual events (first touches, relocation
 * bursts) into one kernel exit.  Time-dependent exits (a daemon due at
 * fault time) are left to shared_ref itself.  Predictions that turn
 * false while Python drains the run are harmless: Engine._shared_ref
 * handles every shared reference bit-identically, residual or not. */
static int is_residual(SoaState *s, int64_t nid, int64_t line) {
    if (s->l1_tags[nid * s->P[P_N_SETS] + (line & s->P[P_SET_MASK])] == line)
        return 0;                                   /* L1 hit */
    int64_t page = line >> s->P[P_LINE_SHIFT];
    int64_t mode = s->modes[nid * s->P[P_N_PAGES] + page];
    if (mode == M_UNMAPPED) {
        mode = fault_mode(s, nid, page);
        if (mode < 0) return 1;                     /* first touch */
    }
    return mode == M_CCNUMA
        && hint_due(s, nid, line, page, line >> s->P[P_CHUNK_SHIFT]);
}

/* Save the resume point of an interrupted slice. */
static void suspend(SoaState *s, int64_t best, int64_t limit, int64_t now) {
    s->ctl[C_IN_SLICE] = 1;
    s->ctl[C_BEST] = best;
    s->ctl[C_LIMIT] = limit;
    s->ctl[C_NOW] = now;
}

/* The kernel's scheduler + slice runner.  Exits to Python only for
 * runs of residual references (RC_RESIDUAL: first touches, relocation
 * hints, or faults the policy's first-touch rule leaves to Python; run
 * length in ctl[C_RLEN], reason of the first in ctl[C_REASON]), a due
 * pageout daemon (RC_DAEMON, at slice start or at fault time; run it
 * at ctl[C_DAEMON_AT]), a full barrier (RC_BARRIER), a full event ring
 * (RC_RING), deadlock, completion, or an error (RC_BAD_PARAMS,
 * RC_EMPTY_CLOCK); ctl[] carries the resume point across RC_RESIDUAL /
 * RC_DAEMON / RC_RING. */
int64_t soa_run(SoaState *s) {
    if (!params_ok(s)) return RC_BAD_PARAMS;
    const int64_t n = s->P[P_N];
    /* Worst-case ring entries one shared reference can record: one
     * demotion plus n-1 invalidations; exit to flush below that. */
    const int64_t ring_room = (s->P[P_RING_INV] || s->P[P_RING_DEM])
                              ? n + 2 : 0;
    int64_t best, limit, now;
    if (s->ctl[C_IN_SLICE]) {
        best = s->ctl[C_BEST];
        limit = s->ctl[C_LIMIT];
        now = s->ctl[C_NOW];
        s->ctl[C_IN_SLICE] = 0;
        goto inner;
    }
    for (;;) {
        /* Pick the runnable node with the smallest clock. */
        best = -1;
        {
            int64_t best_clock = 0, runner_up = 0;
            int has_best = 0, has_runner = 0;
            for (int64_t i = 0; i < n; i++) {
                if (s->finished[i] || s->waiting[i]) continue;
                int64_t c = s->clock[i];
                if (!has_best || c < best_clock) {
                    runner_up = best_clock;
                    has_runner = has_best;
                    best_clock = c;
                    best = i;
                    has_best = 1;
                } else if (!has_runner || c < runner_up) {
                    runner_up = c;
                    has_runner = 1;
                }
            }
            if (best == -1) {
                for (int64_t i = 0; i < n; i++)
                    if (!s->finished[i]) return RC_DEADLOCK;
                return RC_DONE;
            }
            limit = has_runner ? runner_up + s->P[P_QUANTUM]
                               : s->P[P_NO_LIMIT];
            now = s->clock[best];
        }
        /* run_daemon_if_due: checked once per fresh slice. */
        if (s->free_frames[best] < s->free_min[best]
            && now >= s->next_run[best]) {
            suspend(s, best, limit, now);
            s->ctl[C_DAEMON_AT] = now;
            return RC_DAEMON;
        }
    inner:
        {
            int64_t off = s->tr_off[best];
            int64_t p = s->pos[best];
            int64_t e = s->tr_len[best];
            const uint8_t *kinds = s->kinds + off;
            const int64_t *args = s->args + off;
            while (p < e && now < limit) {
                uint8_t ev = kinds[p];
                int64_t arg = args[p];
                if (ev <= EV_WRITE) {
                    if (ring_room
                        && s->P[P_RING_CAP] - s->ctl[C_RING] < ring_room) {
                        s->pos[best] = p;
                        suspend(s, best, limit, now);
                        return RC_RING;
                    }
                    int64_t r = shared_ref(s, best, arg,
                                           ev == EV_WRITE, now);
                    if (r < 0) {
                        s->pos[best] = p;
                        suspend(s, best, limit, now);
                        if (s->ctl[C_REASON] == R_EMPTY_CLOCK)
                            return RC_EMPTY_CLOCK;
                        if (s->ctl[C_REASON] == R_DAEMON) {
                            s->ctl[C_SKIP_DAEMON] = 1;
                            return RC_DAEMON;
                        }
                        /* Batch the exit: scan ahead for consecutive
                         * shared refs that are also residual against
                         * current state (bounded look-ahead).  Python
                         * drains the whole run before re-entering. */
                        int64_t scan = p + 1;
                        while (scan < e && scan - p < 64
                               && kinds[scan] <= EV_WRITE
                               && is_residual(s, best, args[scan]))
                            scan++;
                        s->ctl[C_RLEN] = scan - p;
                        return RC_RESIDUAL;
                    }
                    now += r;
                    p++;
                } else if (ev == EV_COMPUTE) {
                    s->st[best * N_STATS + S_UINSTR] += arg;
                    now += arg;
                    p++;
                } else if (ev == EV_LOCAL) {
                    s->st[best * N_STATS + S_ULC] += arg;
                    now += arg;
                    p++;
                } else {                             /* EV_BARRIER */
                    p++;
                    s->waiting[best] = 1;
                    s->barrier_id[best] = arg;
                    s->arrival[best] = now;
                    break;
                }
            }
            s->pos[best] = p;
            s->clock[best] = now;
            if (p >= e && !s->waiting[best]) s->finished[best] = 1;
            if (s->waiting[best]) {
                int64_t all = 1;
                for (int64_t i = 0; i < n; i++)
                    if (!s->finished[i] && !s->waiting[i]) { all = 0; break; }
                if (all) return RC_BARRIER;
            }
        }
    }
}
