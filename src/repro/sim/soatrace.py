"""Structure-of-arrays replay substrate: the compiled replay kernel.

The engine's default substrate re-expresses the reference replay loop
over a dense structure-of-arrays decode of the machine state: every
dict/set the reference loop mutates per event (directory
copyset/owner, page-table modes and S-COMA valid masks, refetch
counters, TLB reference bits, L1 tags, RAC slots, ownership sets,
free-frame counts, the second-chance clock) becomes a flat numpy array, and the per-event scheduler,
classification, protocol arithmetic and page management run as a small
C kernel (``soakernel.c``, shipped next to this module) over those
arrays.  The kernel is a direct transliteration of
``Engine._shared_ref``, ``Engine._page_fault`` and the node's eviction
path; it decides *before mutating anything* whether an event is one of
the shapes it does not model and hands exactly those back to the
scalar machinery, so the residual path sees identical state and
produces identical arithmetic.

What stays in the kernel and what exits to Python:

============================  ==========================================
In the kernel                 hits, misses, upgrades, invalidations and
                              demotions; first-touch page faults on a
                              page that already has a home, mapped by
                              the policy's first-touch rule (always
                              CC-NUMA, S-COMA-if-free, mandatory
                              S-COMA); pure S-COMA's forced eviction
                              (second-chance victim, flush, directory
                              drop, unmap, TLB shootdown, frame release)
Exit ``home-assign``          the first machine-wide touch of a page
                              (home placement stays with the allocators;
                              at most once per page)
Exit ``residual-hint``        a miss that raises a relocation hint
Exit ``daemon``               a due pageout daemon, at slice start or at
                              fault time
Exit ``barrier``/``ring``     barrier release; a full event ring
============================  ==========================================

Per-reason exit counts are recorded on ``engine.kernel_exits`` (runtime
only: never in ``RunResult`` or the store).

Bit-identical output to the reference loop is the contract: same
``RunResult.to_dict()``, same goldens, same store hashes (see
``tests/test_perf_parity.py``'s differential matrix).

Implementation notes
--------------------
* The kernel is plain C compiled on first use with the system C
  compiler (``cc``/``gcc``) into a source-hash-keyed shared library
  under ``$REPRO_VECTOR_CACHE`` (default ``~/.cache/repro/vector``)
  and loaded through :mod:`cffi` in ABI mode -- no ``Python.h``, no
  build-time dependency.  When cffi or a compiler is missing, or a
  run shape is outside the kernel's model (associative L1, a
  time-series sampler, a directory message log, any unfiltered
  event-bus observer, a policy whose fault hooks the kernel does not
  model), :func:`run_vector` returns ``None`` and the
  engine degrades loss-free to ``_run_reference`` (a single
  ``RuntimeWarning`` flags environment problems such as a missing
  compiler or a corrupt kernel cache; see :func:`_load_kernel`).
  Copyset and S-COMA valid bitmaps are multi-word, so there is no
  node-count or chunks-per-page ceiling; kind-filtered EventBus
  subscribers are served by a bounded in-kernel event ring whose
  entries are replayed post-slice with scalar-identical clocks and
  order; and residual events exit in batched *runs* that Python drains
  before re-entering the kernel.
* While the vectorized run is live, the machine's dict/set/list state
  is *replaced* by array-backed views (single source of truth): the
  scalar residual path, the pageout daemon and all post-run consumers
  (invariant audits, ``utilisation_report``) read and write the same
  arrays the kernel does.  The views stay installed after the run,
  except the second-chance clock, which is exported back into a plain
  deque.  They implement the exact observable dict/set semantics of
  what they replace and return Python ints/bools (never numpy scalars,
  which would poison the JSON-serialised ``RunResult``).  Free-frame
  counts are the one per-exit copy, O(nodes) each way.
* Path selection is a runtime mode, like ``REPRO_SLOW_PATH``: it must
  never enter ``RunSpec.spec_hash`` (see ``repro.runtime.spec``).
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import deque

import numpy as np

from ..core.ascoma import ASCOMAPolicy
from ..core.ccnuma import CCNUMAPolicy
from ..core.migration import MigratingCCNUMAPolicy
from ..core.policy import ArchitecturePolicy
from ..core.rnuma import RNUMAPolicy
from ..core.scoma import SCOMAPolicy
from ..core.vcnuma import VCNUMAPolicy
from ..kernel.vm import PageMode
from .events import EV_DEMOTE, EV_INVALIDATE
from .trace import EV_WRITE

__all__ = ["run_vector", "vector_available", "EXIT_REASONS"]

#: The kernel's C source, shipped as package data next to this module.
KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "soakernel.c")

# ---------------------------------------------------------------------------
# Kernel exit codes (keep in sync with soakernel.c).
_DONE = 0        # every node finished; deltas are ready to merge
_RESIDUAL = 1    # run of events at ctl needs scalar Engine._shared_ref
_DAEMON = 2      # pageout daemon due on ctl[BEST] at ctl[DAEMON_AT]
_BARRIER = 3     # every unfinished node is waiting; release in Python
_DEADLOCK = 4    # unfinished nodes exist but none is runnable
_RINGFULL = 5    # event ring lacks headroom; flush and re-enter
_BAD_PARAMS = 6  # entry precondition failed: shape/params are corrupt
_EMPTY_CLOCK = 7  # forced eviction found no S-COMA page to evict

# ctl[] slots (keep in sync with soakernel.c).
(_IN_SLICE, _BEST, _LIMIT, _NOW, _RLEN, _RINGN, _REASON, _DAEMON_AT,
 _SKIP_DAEMON) = range(9)

#: engine.kernel_exits keys, in ctl[REASON] order for RC_RESIDUAL.
EXIT_REASONS = ("residual-hint", "home-assign", "daemon", "barrier", "ring")

# First-touch rules (keep in sync with soakernel.c).
_FT_CCNUMA, _FT_SCOMA_IF_FREE, _FT_SCOMA = range(3)

#: ``initial_mode`` implementations that always map a remote page
#: CC-NUMA.
_CCNUMA_INITIAL_MODES = frozenset({
    CCNUMAPolicy.initial_mode, MigratingCCNUMAPolicy.initial_mode,
    RNUMAPolicy.initial_mode, VCNUMAPolicy.initial_mode})

# params[] slots (keep in sync with the C enum).
(_P_N, _P_QUANTUM, _P_NO_LIMIT, _P_LINE_SHIFT, _P_CHUNK_SHIFT, _P_CPP_MASK,
 _P_SET_MASK, _P_RAC_MASK, _P_RAC_VICTIM, _P_HIT_CYCLES, _P_RAC_CYCLES,
 _P_DSM2, _P_GRANT_EX, _P_STALL_INV, _P_SKIP_NODE, _P_BANK_MASK,
 _P_MEM_SERVICE, _P_MEM_OCC, _P_MEM_MAXQ, _P_BUS_OCC, _P_BUS_FIXED,
 _P_BUS_MAXQ, _P_NET_OCC, _P_NET_MAXQ, _P_LPC, _P_N_PAGES, _P_N_SETS,
 _P_N_BANKS, _P_RAC_ENTRIES, _P_PC_SHIFT, _P_N_CHUNKS, _P_CS_WORDS,
 _P_SV_WORDS, _P_RING_INV, _P_RING_DEM, _P_RING_CAP, _P_FT_RULE,
 _P_PAGE_FAULT, _P_PAGE_REMAP, _P_FLUSH_PER_LINE, _P_FRAMES,
 _P_CLK_CAP) = range(42)
_N_PARAMS = 42

#: Per-node stats delta row: (slot, NodeStats attribute).  Commutative
#: counters only -- nothing reads them mid-run, so the kernel
#: accumulates into a scratch array merged once at the end.
_STAT_ATTRS = (
    "U_SH_MEM", "U_INSTR", "U_LC_MEM", "HOME", "SCOMA", "RAC", "COLD",
    "CONF_CAPC", "HOME_LAT", "SCOMA_LAT", "RAC_LAT", "COLD_LAT",
    "CONF_CAPC_LAT", "upgrades", "induced_cold", "essential_cold",
    "l1_hits", "l1_misses", "K_BASE", "K_OVERHD", "page_faults",
    "evictions", "forced_evictions", "lines_flushed")
_N_STATS = len(_STAT_ATTRS)

# Per-node auxiliary delta row (see _merge_deltas).
(_A_WB, _A_INVAL, _A_RAC_HITS, _A_RAC_MISSES, _A_RAC_FILLS, _A_MEM_ACC,
 _A_MEM_CONT, _A_MEM_Q, _A_BUS_TX, _A_BUS_CONT, _A_BUS_Q, _A_PT_FAULTS,
 _A_L1_FLUSHED, _A_SHOOTDOWNS, _A_POOL_ALLOC, _A_POOL_REL,
 _A_POOL_FAILED) = range(17)
_N_AUX = 17

# Global delta row (see _merge_deltas).
(_G_NET_MSGS, _G_NET_CONT, _G_NET_Q, _G_DIR_REFETCH, _G_DIR_FWD,
 _G_DIR_INV, _G_DIR_EXCL, _G_REMOTE, _G_THREE_HOP, _G_STALLS) = range(10)
_N_GLOB = 10


# ---------------------------------------------------------------------------
# Kernel build & load
# ---------------------------------------------------------------------------

_KERNEL = None  # None = not tried yet; False = unavailable; (ffi, lib) = ok


def _kernel_source() -> str:
    with open(KERNEL_SOURCE, encoding="utf-8") as f:
        return f.read()


def _cdef(source: str) -> str:
    """The cffi declarations: the source's own SoaState typedef plus
    the entry point, so the struct layout has one definition."""
    struct = re.search(r"typedef struct \{.*?\} SoaState;", source, re.S)
    return struct.group(0) + "\nint64_t soa_run(SoaState *s);\n"


def _cache_dir() -> str:
    return (os.environ.get("REPRO_VECTOR_CACHE")
            or os.path.join(os.path.expanduser("~"), ".cache", "repro",
                            "vector"))


def _build_library() -> str | None:
    """Compile the kernel into a source-hash-keyed shared library.

    Returns the ``.so`` path, or ``None`` when no C compiler is
    available or compilation fails.  The build is atomic (compile to a
    temp name, ``os.replace`` into place) so concurrent processes --
    the executor's worker pool warms up in parallel -- race benignly.
    """
    digest = hashlib.sha256(_kernel_source().encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"soakernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp_so, KERNEL_SOURCE],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return None
            os.replace(tmp_so, so_path)
        finally:
            try:
                os.unlink(tmp_so)
            except OSError:
                pass
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


def _fail(reason: str):
    """Memoize unavailability and warn exactly once per process.

    cffi being absent stays *silent* (it is a genuinely optional
    dependency); everything past that point -- no compiler, a failed
    build, an unwritable ``$REPRO_VECTOR_CACHE``, a corrupted cached
    ``.so`` that will not rebuild -- warns, because the user has the
    pieces for the vector kernel and is losing it to an environment
    problem.  Results are unaffected either way: the engine degrades
    loss-free to the reference loop.
    """
    global _KERNEL
    _KERNEL = False
    warnings.warn(
        f"vector kernel unavailable ({reason}); falling back to the"
        " reference loop (results are identical, replay is slower)",
        RuntimeWarning, stacklevel=4)
    return None


def _load_kernel():
    """Lazily compile + dlopen the kernel; memoized process-wide."""
    global _KERNEL
    if _KERNEL is not None:
        return _KERNEL or None
    try:
        import cffi
    except ImportError:
        _KERNEL = False
        return None
    try:
        so_path = _build_library()
    except Exception as exc:  # unexpected build-machinery failure
        return _fail(f"kernel build error: {exc}")
    if so_path is None:
        return _fail("no C compiler found or compilation failed")
    ffi = cffi.FFI()
    ffi.cdef(_cdef(_kernel_source()))
    try:
        lib = ffi.dlopen(so_path)
    except OSError:
        # A corrupted or stale cached .so (truncated write, wrong arch,
        # bit rot): discard it and rebuild once from source.
        try:
            os.unlink(so_path)
        except OSError:
            pass
        try:
            so_path = _build_library()
            if so_path is None:
                return _fail("cached kernel was corrupt and the rebuild"
                             " failed")
            lib = ffi.dlopen(so_path)
        except Exception as exc:
            return _fail(f"cached kernel was corrupt: {exc}")
    _KERNEL = (ffi, lib)
    return _KERNEL


def vector_available() -> bool:
    """True when the compiled kernel can be built and loaded here."""
    return _load_kernel() is not None


# ---------------------------------------------------------------------------
# Array-backed views over the machine's dict/set/list state
# ---------------------------------------------------------------------------
# While a vectorized run is live these replace the real containers, so
# the scalar residual path, the pageout daemon, the fault handler and
# the post-run invariant audits all read/write the same dense arrays
# the kernel does.  Every accessor converts to plain Python int/bool:
# numpy scalars must never leak into NodeStats or RunResult (they
# would change the JSON bytes the store hashes).


_WORD = 0xFFFFFFFFFFFFFFFF


def _join_words(row) -> int:
    """Little-endian uint64 words -> one arbitrary-precision Python int."""
    v = 0
    for w in range(len(row) - 1, -1, -1):
        v = (v << 64) | int(row[w])
    return v


def _split_words(value: int, row) -> None:
    """One Python int -> little-endian uint64 words (row pre-zeroed not
    required; every word is written)."""
    for w in range(len(row)):
        row[w] = value & _WORD
        value >>= 64


class _MaskDict:
    """Directory.copyset: chunk -> sharer bitmask; 0 means absent.

    Backed by a 2-D ``(n_chunks, words)`` uint64 array so >62-node
    machines fit; the view joins/splits the multi-word rows into the
    arbitrary-precision Python ints the scalar directory code uses.

    The real dict can briefly hold an explicit 0 (drop_node_from_page
    stores ``cs & clear``), but every consumer reads through ``.get``
    with a 0/None default and bit-tests the result, so 0-as-absent is
    observationally identical.
    """

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def get(self, key, default=None):
        v = _join_words(self._a[key])
        return v if v else default

    def __getitem__(self, key):
        v = _join_words(self._a[key])
        if not v:
            raise KeyError(key)
        return v

    def __setitem__(self, key, value):
        _split_words(int(value), self._a[key])

    def __contains__(self, key):
        return bool(self._a[key].any())

    def __len__(self):
        return int(np.count_nonzero(self._a.any(axis=1)))

    def __iter__(self):
        return iter(np.flatnonzero(self._a.any(axis=1)).tolist())

    def items(self):
        a = self._a
        return [(k, _join_words(a[k]))
                for k in np.flatnonzero(a.any(axis=1)).tolist()]

    def keys(self):
        return list(self)

    def pop(self, key, default=None):
        v = _join_words(self._a[key])
        self._a[key] = 0
        return v if v else default

    def clear(self):
        self._a[:] = 0

    def update(self, other=()):
        items = other.items() if hasattr(other, "items") else other
        for k, v in items:
            _split_words(int(v), self._a[k])

    def drop_node_bulk(self, owner, node, first, count):
        """Directory.drop_node_from_page over the backing arrays.

        One numpy sweep instead of ``count`` get/set round-trips
        through the arbitrary-precision join/split; observationally
        identical to the scalar loop (0-as-absent, owner entry dropped
        only where the node was actually a sharer and the owner)."""
        bit = np.uint64(1 << (node & 63))
        col = self._a[first:first + count, node >> 6]
        hit = (col & bit) != 0
        dropped = int(np.count_nonzero(hit))
        if dropped:
            col[hit] &= ~bit
            oa = owner._a[first:first + count]
            oa[hit & (oa == node)] = -1
        return dropped


class _OwnerDict:
    """Directory.owner: chunk -> owning node; -1 means absent."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def get(self, key, default=None):
        v = self._a[key]
        return int(v) if v != -1 else default

    def __getitem__(self, key):
        v = self._a[key]
        if v == -1:
            raise KeyError(key)
        return int(v)

    def __setitem__(self, key, value):
        self._a[key] = value

    def __delitem__(self, key):
        if self._a[key] == -1:
            raise KeyError(key)
        self._a[key] = -1

    def __contains__(self, key):
        return self._a[key] != -1

    def __len__(self):
        return int(np.count_nonzero(self._a != -1))

    def __iter__(self):
        return iter(np.flatnonzero(self._a != -1).tolist())

    def items(self):
        a = self._a
        return [(k, int(a[k])) for k in np.flatnonzero(a != -1).tolist()]

    def keys(self):
        return list(self)


class _RefetchDict:
    """Directory.refetch_count: (page, node) -> count over a flat array.

    An explicit 0 (the hint path resets the count) is indistinguishable
    from absence for every consumer (``.get(key, 0)`` / ``.pop``).
    """

    __slots__ = ("_a", "_n")

    def __init__(self, a, n_nodes):
        self._a = a
        self._n = n_nodes

    def _idx(self, key):
        page, node = key
        return page * self._n + node

    def get(self, key, default=None):
        v = self._a[self._idx(key)]
        return int(v) if v else default

    def __getitem__(self, key):
        v = self._a[self._idx(key)]
        if not v:
            raise KeyError(key)
        return int(v)

    def __setitem__(self, key, value):
        self._a[self._idx(key)] = value

    def __contains__(self, key):
        return bool(self._a[self._idx(key)])

    def pop(self, key, default=None):
        i = self._idx(key)
        v = self._a[i]
        self._a[i] = 0
        return int(v) if v else default

    def __len__(self):
        return int(np.count_nonzero(self._a))

    def items(self):
        n = self._n
        return [((k // n, k % n), int(self._a[k]))
                for k in np.flatnonzero(self._a).tolist()]

    def keys(self):
        return [k for k, _ in self.items()]


class _ModeDict:
    """PageTable.mode: page -> PageMode; UNMAPPED (0) means absent."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def get(self, key, default=None):
        v = self._a[key]
        return PageMode(int(v)) if v else default

    def __getitem__(self, key):
        v = self._a[key]
        if not v:
            raise KeyError(key)
        return PageMode(int(v))

    def __setitem__(self, key, value):
        self._a[key] = int(value)

    def __delitem__(self, key):
        if not self._a[key]:
            raise KeyError(key)
        self._a[key] = 0

    def __contains__(self, key):
        return bool(self._a[key])

    def __len__(self):
        return int(np.count_nonzero(self._a))

    def __iter__(self):
        return iter(np.flatnonzero(self._a).tolist())

    def items(self):
        a = self._a
        return [(k, PageMode(int(a[k]))) for k in np.flatnonzero(a).tolist()]

    def values(self):
        return [v for _, v in self.items()]

    def keys(self):
        return list(self)


class _ScomaValidDict:
    """PageTable.scoma_valid: page -> chunk-valid bitmask.

    Presence is *mode-derived* (a page has an entry iff its mode is
    SCOMA), because a freshly mapped page legitimately holds mask 0 and
    must still show up in iteration and the page-table audits.
    ``__delitem__`` only zeroes the mask: unmap_scoma deletes the entry
    while the mode is still SCOMA and flips the mode immediately after,
    which removes the derived presence.

    Writes to a page whose mode is *not* SCOMA land in a plain-dict
    overlay instead: the simulator never does this, but the invariant
    tests inject exactly that corruption (an entry disagreeing with the
    page mode) to prove the checker sees it, and the view must be able
    to hold -- and delete -- the bad entry like the real dict would.
    """

    __slots__ = ("_a", "_m", "_x")

    def __init__(self, a, modes):
        self._a = a
        self._m = modes
        self._x = {}

    def get(self, key, default=None):
        if self._m[key] != 2:
            return self._x.get(key, default)
        return _join_words(self._a[key])

    def __getitem__(self, key):
        if self._m[key] != 2:
            return self._x[key]
        return _join_words(self._a[key])

    def __setitem__(self, key, value):
        if self._m[key] == 2:
            _split_words(int(value), self._a[key])
            self._x.pop(key, None)
        else:
            self._x[key] = value

    def __delitem__(self, key):
        if key in self._x:
            del self._x[key]
        elif self._m[key] == 2:
            self._a[key] = 0
        else:
            raise KeyError(key)

    def __contains__(self, key):
        return self._m[key] == 2 or key in self._x

    def __len__(self):
        return int(np.count_nonzero(self._m == 2)) + len(self._x)

    def __iter__(self):
        yield from np.flatnonzero(self._m == 2).tolist()
        yield from self._x

    def items(self):
        a = self._a
        out = [(k, _join_words(a[k]))
               for k in np.flatnonzero(self._m == 2).tolist()]
        out.extend(self._x.items())
        return out

    def keys(self):
        return list(self)


class _PcHitsDict:
    """Node.pagecache_hits: page -> hit count; -1 means absent.

    Presence is *not* mode-derived: evict_scoma_page pops the entry
    after unmap_scoma has already flipped the mode, so the entry must
    outlive the SCOMA mapping by one step.
    """

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def get(self, key, default=None):
        v = self._a[key]
        return int(v) if v >= 0 else default

    def __getitem__(self, key):
        v = self._a[key]
        if v < 0:
            raise KeyError(key)
        return int(v)

    def __setitem__(self, key, value):
        self._a[key] = value

    def __contains__(self, key):
        return self._a[key] >= 0

    def pop(self, key, default=None):
        v = self._a[key]
        self._a[key] = -1
        return int(v) if v >= 0 else default

    def __len__(self):
        return int(np.count_nonzero(self._a >= 0))

    def items(self):
        a = self._a
        return [(k, int(a[k])) for k in np.flatnonzero(a >= 0).tolist()]

    def keys(self):
        return np.flatnonzero(self._a >= 0).tolist()


class _RefBitsDict:
    """TLB.ref_bits: page -> bool.  A stored False and absence are
    indistinguishable to every consumer (``get(page, False)``), so the
    view needs no separate presence bit."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def get(self, key, default=None):
        v = self._a[key]
        return True if v else default

    def __getitem__(self, key):
        if not self._a[key]:
            raise KeyError(key)
        return True

    def __setitem__(self, key, value):
        self._a[key] = 1 if value else 0

    def __contains__(self, key):
        return bool(self._a[key])

    def pop(self, key, default=None):
        v = self._a[key]
        self._a[key] = 0
        return True if v else default

    def __len__(self):
        return int(np.count_nonzero(self._a))

    def keys(self):
        return np.flatnonzero(self._a).tolist()


class _ChunkSet:
    """Node.owned / Node.ever_fetched over a uint8 membership row."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def add(self, key):
        self._a[key] = 1

    def discard(self, key):
        self._a[key] = 0

    def discard_range(self, start, stop):
        """Bulk discard of a contiguous key range (page flush)."""
        self._a[start:stop] = 0

    def __contains__(self, key):
        return bool(self._a[key])

    def __len__(self):
        return int(np.count_nonzero(self._a))

    def __iter__(self):
        return iter(np.flatnonzero(self._a).tolist())


class _IntList:
    """list[int] facade over an int64 row (L1 tags, RAC chunks)."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def __getitem__(self, i):
        return int(self._a[i])

    def __setitem__(self, i, v):
        self._a[i] = v

    def __len__(self):
        return len(self._a)

    def __iter__(self):
        return iter(self._a.tolist())

    def flush_page_bulk(self, dirty, first, span, mask, line_shift, page):
        """Cache.flush_page over the backing arrays.

        A page's lines land in ``span`` consecutive sets; with the
        power-of-two geometry the span never wraps, so the sweep is a
        contiguous slice compare + masked clear (the wrap fallback
        gathers through an index array).  Bit-identical to the scalar
        per-set loop."""
        a = self._a
        s0 = first & mask
        if s0 + span <= len(a):
            seg = a[s0:s0 + span]
            dseg = dirty._a[s0:s0 + span]
        else:  # pragma: no cover - non-power-of-two geometry only
            idx = (first + np.arange(span)) & mask
            seg = a[idx]
            dseg = None
        hit = (seg != -1) & ((seg >> line_shift) == page)
        flushed = int(np.count_nonzero(hit))
        if flushed:
            if dseg is None:  # pragma: no cover - wrap fallback
                sel = idx[hit]
                a[sel] = -1
                dirty._a[sel] = 0
            else:
                seg[hit] = -1
                dseg[hit] = 0
        return flushed


class _BoolList:
    """list[bool] facade over a uint8 row (L1 dirty bits)."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def __getitem__(self, i):
        return bool(self._a[i])

    def __setitem__(self, i, v):
        self._a[i] = 1 if v else 0

    def __len__(self):
        return len(self._a)

    def __iter__(self):
        return [bool(x) for x in self._a.tolist()].__iter__()


class _HomeDict:
    """HomeAllocator.home: page -> home node; -1 means unassigned."""

    __slots__ = ("_a",)

    def __init__(self, a):
        self._a = a

    def get(self, key, default=None):
        v = self._a[key]
        return int(v) if v != -1 else default

    def __getitem__(self, key):
        v = self._a[key]
        if v == -1:
            raise KeyError(key)
        return int(v)

    def __setitem__(self, key, value):
        self._a[key] = value

    def __contains__(self, key):
        return self._a[key] != -1

    def __len__(self):
        return int(np.count_nonzero(self._a != -1))

    def __iter__(self):
        return iter(np.flatnonzero(self._a != -1).tolist())

    def items(self):
        a = self._a
        return [(k, int(a[k])) for k in np.flatnonzero(a != -1).tolist()]

    def keys(self):
        return list(self)


class _ClockView:
    """PageTable.scoma_clock: the second-chance clock as a ring buffer.

    The node's pages sit in ``buf`` (its row of ``clk_cap`` slots)
    starting at ``head[i]``, ``length[i]`` of them -- the same ring the
    kernel's choose_victim/evict/map walk.  Implements the deque
    operations the page table, the pageout daemon and the audits use.
    The ring never holds more pages than the node has frames, so
    ``append`` past capacity is a frame-accounting bug and raises.
    """

    __slots__ = ("_buf", "_head", "_len", "_i")

    def __init__(self, buf, head, length, i):
        self._buf = buf
        self._head = head
        self._len = length
        self._i = i

    def _slot(self, k):
        return (int(self._head[self._i]) + k) % len(self._buf)

    def __len__(self):
        return int(self._len[self._i])

    def __getitem__(self, k):
        n = len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("deque index out of range")
        return int(self._buf[self._slot(k)])

    def __iter__(self):
        return iter([self[k] for k in range(len(self))])

    def append(self, page):
        n = len(self)
        if n >= len(self._buf):
            raise RuntimeError("S-COMA clock overflow: more pages than"
                               " page-cache frames")
        self._buf[self._slot(n)] = page
        self._len[self._i] = n + 1

    def rotate(self, k=1):
        """deque.rotate; the daemon's second chance is ``rotate(-1)``."""
        n = len(self)
        if not n:
            return
        for _ in range(-k % n):
            self._buf[self._slot(n)] = self._buf[self._slot(0)]
            self._head[self._i] = self._slot(1)

    def remove(self, page):
        pages = list(self)
        pages.remove(page)  # ValueError when absent, like deque
        self._buf[:len(pages)] = pages
        self._head[self._i] = 0
        self._len[self._i] = len(pages)


# ---------------------------------------------------------------------------
# Eligibility + orchestration
# ---------------------------------------------------------------------------

def _eligible(engine) -> bool:
    """Cheap pre-flight: is this run inside the kernel's model?

    Anything that truly needs to observe *every* intermediate state
    transition (any unfiltered event-bus observer -- which is how the
    invariant checker attaches -- a directory message log, a
    time-series sampler) or a shape the dense arrays cannot carry
    (associative L1, out-of-range reference args) falls back to
    ``_run_reference``.  The kernel itself maps, evicts and unmaps
    pages, so an unfiltered observer could not see those transitions, and a
    policy whose fault hooks it does not model (see
    :func:`_first_touch_rule`) falls back too.

    Shapes that used to disqualify a run but no longer do:

    * **>62 nodes / chunks-per-page** -- copyset and S-COMA valid
      bitmaps are multi-word ``uint64`` rows now;
    * **kind-filtered observers** (``repro.obs`` backoff telemetry) --
      run-structure kinds publish at Python exits exactly as before,
      and in-kernel invalidations/demotions are replayed post-slice
      through the bounded event ring.  The page-management kinds the
      kernel now performs itself (fault, map, evict, flush) publish
      only to unfiltered observers, which are excluded above.
    """
    machine = engine.machine
    if not engine._l1_direct:
        return False
    if engine.sampler is not None:
        return False
    if machine.directory.log is not None:
        return False
    if machine.events.observers:
        return False
    if _first_touch_rule(engine) is None:
        return False
    _, _, _, _, ref_lo, ref_hi = engine.workload.soa()
    if ref_hi >= 0:
        n_pages = engine.workload.total_shared_pages
        lines_total = n_pages << engine._line_shift
        if ref_lo < 0 or ref_hi >= lines_total:
            return False
    return True


def _first_touch_rule(engine) -> int | None:
    """The policy's first-touch rule as a kernel rule code, or ``None``
    when the kernel does not model the policy's faults.

    The rule follows the hook implementations the policy actually
    runs, checked by class identity, not its declared attributes:

    * CC-NUMA only -- an ``initial_mode`` that always answers CC-NUMA
      (CC-NUMA, migration, R-NUMA, VC-NUMA, AS-COMA with
      ``scoma_first=False``).  Such a fault never maps S-COMA, so no
      page-cache hook runs.
    * S-COMA-if-free -- ``ASCOMAPolicy``'s hooks, no mandatory page
      cache.
    * Mandatory S-COMA -- ``SCOMAPolicy``'s hooks, evicting by unmap.

    The two S-COMA rules also map and evict in the kernel, so they
    need the default ``on_page_evicted`` and the node state of the
    class whose ``initial_mode`` they model (no VC-NUMA-style
    ``cached_pages`` bookkeeping).
    """
    policy = engine.policy
    cls = type(policy)
    if cls.initial_mode in _CCNUMA_INITIAL_MODES or (
            cls.initial_mode is ASCOMAPolicy.initial_mode
            and not policy.scoma_first):
        return _FT_CCNUMA
    if cls.on_page_evicted is not ArchitecturePolicy.on_page_evicted:
        return None

    def runs(owner):
        return (cls.initial_mode is owner.initial_mode
                and cls.make_node_state is owner.make_node_state)

    if runs(ASCOMAPolicy) and not policy.mandatory_page_cache:
        return _FT_SCOMA_IF_FREE
    if (runs(SCOMAPolicy) and policy.mandatory_page_cache
            and not policy.evict_to_ccnuma):
        return _FT_SCOMA
    return None


def _merge_deltas(engine, st, aux, glob) -> None:
    """Fold the kernel's commutative counter deltas into the live
    objects.  Every value goes through int(): numpy scalars must not
    reach NodeStats / RunResult."""
    machine = engine.machine
    for i, node in enumerate(machine.nodes):
        stats = node.stats
        row = st[i]
        for slot, attr in enumerate(_STAT_ATTRS):
            setattr(stats, attr, getattr(stats, attr) + int(row[slot]))
        arow = aux[i]
        l1s = node.l1.stats
        l1s.writebacks += int(arow[_A_WB])
        l1s.invalidations += int(arow[_A_INVAL])
        l1s.flushed_lines += int(arow[_A_L1_FLUSHED])
        rac = node.rac
        rac.hits += int(arow[_A_RAC_HITS])
        rac.misses += int(arow[_A_RAC_MISSES])
        rac.fills += int(arow[_A_RAC_FILLS])
        mem = node.memory
        mem.accesses += int(arow[_A_MEM_ACC])
        mem.contended += int(arow[_A_MEM_CONT])
        mem.total_queue_cycles += int(arow[_A_MEM_Q])
        bus = machine.buses[i]
        bus.transactions += int(arow[_A_BUS_TX])
        bus.contended += int(arow[_A_BUS_CONT])
        bus.total_queue_cycles += int(arow[_A_BUS_Q])
        node.page_table.faults += int(arow[_A_PT_FAULTS])
        node.tlb.shootdowns += int(arow[_A_SHOOTDOWNS])
        pool = node.pool
        pool.allocations += int(arow[_A_POOL_ALLOC])
        pool.releases += int(arow[_A_POOL_REL])
        pool.failed_allocations += int(arow[_A_POOL_FAILED])
    net = machine.network
    net.messages += int(glob[_G_NET_MSGS])
    net.contended_messages += int(glob[_G_NET_CONT])
    net.total_queue_cycles += int(glob[_G_NET_Q])
    directory = machine.directory
    directory.total_refetches += int(glob[_G_DIR_REFETCH])
    directory.forwards += int(glob[_G_DIR_FWD])
    directory.invalidations_sent += int(glob[_G_DIR_INV])
    directory.exclusive_grants += int(glob[_G_DIR_EXCL])
    protocol = machine.protocol
    protocol.remote_fetches += int(glob[_G_REMOTE])
    protocol.three_hop_fetches += int(glob[_G_THREE_HOP])
    protocol.write_stalls += int(glob[_G_STALLS])


def _kernel_params(engine, n_pages, ring_inv, ring_dem, ring_cap,
                   clk_cap) -> np.ndarray:
    """The kernel's params[] vector (geometry, latencies, costs)."""
    machine = engine.machine
    config = engine.config
    node0 = machine.nodes[0]
    mem0 = node0.memory
    bus0 = machine.buses[0]
    network = machine.network
    costs = node0.costs
    n = config.n_nodes
    cpp = machine.amap.chunks_per_page
    params = np.zeros(_N_PARAMS, dtype=np.int64)
    params[_P_N] = n
    params[_P_QUANTUM] = engine.quantum
    params[_P_NO_LIMIT] = sys.maxsize
    params[_P_LINE_SHIFT] = engine._line_shift
    params[_P_CHUNK_SHIFT] = engine._chunk_shift
    params[_P_CPP_MASK] = engine._cpp_mask
    params[_P_SET_MASK] = node0.l1.set_mask
    params[_P_RAC_MASK] = node0.rac.entry_mask
    params[_P_RAC_VICTIM] = 1 if engine._rac_victim else 0
    params[_P_HIT_CYCLES] = engine._hit_cycles
    params[_P_RAC_CYCLES] = engine._rac_cycles
    params[_P_DSM2] = engine._dsm2
    params[_P_GRANT_EX] = 1 if machine.directory.grant_exclusive else 0
    params[_P_STALL_INV] = 1 if machine.protocol.stall_on_invalidate else 0
    params[_P_SKIP_NODE] = config.debug_skip_invalidate_node
    params[_P_BANK_MASK] = mem0.bank_mask
    params[_P_MEM_SERVICE] = mem0.service_cycles
    params[_P_MEM_OCC] = mem0.occupancy_cycles
    params[_P_MEM_MAXQ] = mem0.max_queue
    params[_P_BUS_OCC] = bus0.occupancy
    params[_P_BUS_FIXED] = bus0.fixed_cost
    params[_P_BUS_MAXQ] = bus0.max_queue
    params[_P_NET_OCC] = network.port_occupancy
    params[_P_NET_MAXQ] = network.max_queue
    params[_P_LPC] = 1 << engine._chunk_shift
    params[_P_N_PAGES] = n_pages
    params[_P_N_SETS] = node0.l1.n_sets
    params[_P_N_BANKS] = len(mem0.busy_until)
    params[_P_RAC_ENTRIES] = node0.rac.n_entries
    params[_P_PC_SHIFT] = engine._line_shift - engine._chunk_shift
    params[_P_N_CHUNKS] = n_pages * cpp
    params[_P_CS_WORDS] = (n + 63) // 64
    params[_P_SV_WORDS] = (cpp + 63) // 64
    params[_P_RING_INV] = 1 if ring_inv else 0
    params[_P_RING_DEM] = 1 if ring_dem else 0
    params[_P_RING_CAP] = ring_cap
    params[_P_FT_RULE] = _first_touch_rule(engine)
    params[_P_PAGE_FAULT] = costs.page_fault
    params[_P_PAGE_REMAP] = costs.page_remap
    params[_P_FLUSH_PER_LINE] = costs.flush_per_line
    params[_P_FRAMES] = node0.pool.capacity
    params[_P_CLK_CAP] = clk_cap
    return params


def run_vector(engine) -> list[int] | None:
    """Run the engine's replay through the compiled SoA kernel.

    Returns the per-node finish clocks (plain ints), or ``None`` when
    the kernel is unavailable or the run is ineligible -- in which
    case nothing has been mutated and the caller falls back to
    ``_run_reference``.  Raises ``RuntimeError`` when the kernel
    rejects its own inputs or a forced eviction finds an empty clock
    (the reference loop's ``Node.choose_victim`` raises there too).
    """
    kernel = _load_kernel()
    if kernel is None or not _eligible(engine):
        return None
    ffi, lib = kernel

    machine = engine.machine
    amap = machine.amap
    nodes = machine.nodes
    directory = machine.directory
    network = machine.network
    allocator = machine.allocator
    n = engine.config.n_nodes
    # Dense arrays need at least one page; params[] promises exactly
    # n_pages * chunks-per-page chunks (checked on kernel entry).
    n_pages = max(engine.workload.total_shared_pages, 1)
    cpp = amap.chunks_per_page
    n_chunks = n_pages * cpp
    n_sets = nodes[0].l1.n_sets
    rac_entries = nodes[0].rac.n_entries
    n_banks = len(nodes[0].memory.busy_until)

    # --- trace SoA ---------------------------------------------------
    kinds_all, args_all, tr_off, tr_len, _, _ = engine.workload.soa()

    # --- dense state arrays, built from the live containers ----------
    # Copyset / S-COMA valid bitmaps are multi-word uint64 rows so the
    # kernel model has no node-count or chunks-per-page ceiling.
    cs_words = (n + 63) // 64
    sv_words = (cpp + 63) // 64
    copyset = np.zeros((n_chunks, cs_words), dtype=np.uint64)
    for k, v in directory.copyset.items():
        _split_words(int(v), copyset[k])
    owner = np.full(n_chunks, -1, dtype=np.int64)
    for k, v in directory.owner.items():
        owner[k] = v
    refetch = np.zeros(n_pages * n, dtype=np.int64)
    for (pg, nd), v in directory.refetch_count.items():
        refetch[pg * n + nd] = v
    home = np.full(n_pages, -1, dtype=np.int64)
    for pg, v in allocator.home.items():
        home[pg] = v
    modes = np.zeros((n, n_pages), dtype=np.int64)
    scoma_valid = np.zeros((n, n_pages, sv_words), dtype=np.uint64)
    pc_hits = np.full((n, n_pages), -1, dtype=np.int64)
    ref_bits = np.zeros((n, n_pages), dtype=np.uint8)
    owned = np.zeros((n, n_chunks), dtype=np.uint8)
    ever = np.zeros((n, n_chunks), dtype=np.uint8)
    l1_tags = np.empty((n, n_sets), dtype=np.int64)
    l1_dirty = np.empty((n, n_sets), dtype=np.uint8)
    rac_arr = np.empty((n, rac_entries), dtype=np.int64)
    # The second-chance clock never outgrows the node's frames.
    clk_cap = max(1, nodes[0].pool.capacity)
    clk_buf = np.zeros((n, clk_cap), dtype=np.int64)
    clk_head = np.zeros(n, dtype=np.int64)
    clk_len = np.zeros(n, dtype=np.int64)
    for i, node in enumerate(nodes):
        pt = node.page_table
        for pg, m in pt.mode.items():
            modes[i, pg] = int(m)
        for pg, mask in pt.scoma_valid.items():
            _split_words(int(mask), scoma_valid[i, pg])
        for pg, hits in node.pagecache_hits.items():
            pc_hits[i, pg] = hits
        for pg, bit in node.tlb.ref_bits.items() if hasattr(
                node.tlb.ref_bits, "items") else ():
            ref_bits[i, pg] = 1 if bit else 0
        for c in node.owned:
            owned[i, c] = 1
        for c in node.ever_fetched:
            ever[i, c] = 1
        l1_tags[i, :] = node.l1.tags
        l1_dirty[i, :] = [1 if d else 0 for d in node.l1.dirty]
        rac_arr[i, :] = node.rac.chunks
        clock_pages = list(pt.scoma_clock)
        clk_buf[i, :len(clock_pages)] = clock_pages
        clk_len[i] = len(clock_pages)

    # --- scheduler state ---------------------------------------------
    pos = np.zeros(n, dtype=np.int64)
    clock = np.zeros(n, dtype=np.int64)
    arrival = np.zeros(n, dtype=np.int64)
    barrier_id = np.full(n, -1, dtype=np.int64)
    finished = np.array([tr_len[i] == 0 for i in range(n)], dtype=np.uint8)
    waiting = np.zeros(n, dtype=np.uint8)
    ctl = np.zeros(_SKIP_DAEMON + 1, dtype=np.int64)

    # --- event ring + invalidation scratch ---------------------------
    # The ring records in-kernel invalidations/demotions only when a
    # kind-filtered subscriber actually watches that kind; unfiltered
    # observers already failed eligibility.
    events = machine.events
    ring_inv = EV_INVALIDATE in events.kind_observers
    ring_dem = EV_DEMOTE in events.kind_observers
    ring_cap = max(1024, 2 * n + 4)
    ring = np.zeros((ring_cap, 4), dtype=np.int64)
    inv_scratch = np.zeros(cs_words, dtype=np.uint64)

    # --- timing state (copied in/out at every kernel boundary) -------
    net_port = np.zeros(n, dtype=np.int64)
    mem_busy = np.zeros((n, n_banks), dtype=np.int64)
    bus_busy = np.zeros(n, dtype=np.int64)
    net_base = np.ascontiguousarray(np.array(network._base, dtype=np.int64))

    # --- per-boundary scalars + counter deltas -----------------------
    free_frames = np.zeros(n, dtype=np.int64)
    free_min = np.array([nd.pool.free_min for nd in nodes], dtype=np.int64)
    next_run = np.zeros(n, dtype=np.int64)
    thr = np.zeros(n, dtype=np.int64)
    st = np.zeros((n, _N_STATS), dtype=np.int64)
    aux = np.zeros((n, _N_AUX), dtype=np.int64)
    glob = np.zeros(_N_GLOB, dtype=np.int64)

    params = _kernel_params(engine, n_pages, ring_inv, ring_dem, ring_cap,
                            clk_cap)

    # --- install the views: arrays become the single source of truth -
    directory.copyset = _MaskDict(copyset)
    directory.owner = _OwnerDict(owner)
    directory.refetch_count = _RefetchDict(refetch, n)
    home_view = _HomeDict(home)
    allocator.home = home_view
    engine._home = home_view
    for i, node in enumerate(nodes):
        pt = node.page_table
        pt.mode = _ModeDict(modes[i])
        pt.scoma_valid = _ScomaValidDict(scoma_valid[i], modes[i])
        pt.scoma_clock = _ClockView(clk_buf[i], clk_head, clk_len, i)
        node.pagecache_hits = _PcHitsDict(pc_hits[i])
        node.tlb.ref_bits = _RefBitsDict(ref_bits[i])
        node.owned = _ChunkSet(owned[i])
        node.ever_fetched = _ChunkSet(ever[i])
        node.l1.tags = _IntList(l1_tags[i])
        node.l1.dirty = _BoolList(l1_dirty[i])
        node.rac.chunks = _IntList(rac_arr[i])

    # --- wire the C struct -------------------------------------------
    state = ffi.new("SoaState *")
    keepalive = []

    def _ptr(arr, ctype):
        keepalive.append(arr)
        return ffi.cast(ctype, arr.ctypes.data)

    state.P = _ptr(params, "int64_t *")
    state.kinds = _ptr(np.ascontiguousarray(kinds_all), "uint8_t *")
    state.args = _ptr(np.ascontiguousarray(args_all), "int64_t *")
    state.tr_off = _ptr(np.ascontiguousarray(tr_off), "int64_t *")
    state.tr_len = _ptr(np.ascontiguousarray(tr_len), "int64_t *")
    state.pos = _ptr(pos, "int64_t *")
    state.clock = _ptr(clock, "int64_t *")
    state.arrival = _ptr(arrival, "int64_t *")
    state.barrier_id = _ptr(barrier_id, "int64_t *")
    state.finished = _ptr(finished, "uint8_t *")
    state.waiting = _ptr(waiting, "uint8_t *")
    state.ctl = _ptr(ctl, "int64_t *")
    state.l1_tags = _ptr(l1_tags, "int64_t *")
    state.l1_dirty = _ptr(l1_dirty, "uint8_t *")
    state.rac = _ptr(rac_arr, "int64_t *")
    state.owned = _ptr(owned, "uint8_t *")
    state.ever = _ptr(ever, "uint8_t *")
    state.copyset = _ptr(copyset, "uint64_t *")
    state.owner = _ptr(owner, "int64_t *")
    state.refetch = _ptr(refetch, "int64_t *")
    state.modes = _ptr(modes, "int64_t *")
    state.scoma_valid = _ptr(scoma_valid, "uint64_t *")
    state.pc_hits = _ptr(pc_hits, "int64_t *")
    state.ref_bits = _ptr(ref_bits, "uint8_t *")
    state.home = _ptr(home, "int64_t *")
    state.net_base = _ptr(net_base, "int64_t *")
    state.net_port = _ptr(net_port, "int64_t *")
    state.mem_busy = _ptr(mem_busy, "int64_t *")
    state.bus_busy = _ptr(bus_busy, "int64_t *")
    state.free_frames = _ptr(free_frames, "int64_t *")
    state.free_min = _ptr(free_min, "int64_t *")
    state.next_run = _ptr(next_run, "int64_t *")
    state.thr = _ptr(thr, "int64_t *")
    state.clk_buf = _ptr(clk_buf, "int64_t *")
    state.clk_head = _ptr(clk_head, "int64_t *")
    state.clk_len = _ptr(clk_len, "int64_t *")
    state.st = _ptr(st, "int64_t *")
    state.aux = _ptr(aux, "int64_t *")
    state.glob = _ptr(glob, "int64_t *")
    state.inv_scratch = _ptr(inv_scratch, "uint64_t *")
    state.ring = _ptr(ring, "int64_t *")

    buses = machine.buses

    def _timing_in():
        """Copy live timing state and free counts into the arrays."""
        for i, node in enumerate(nodes):
            mem_busy[i, :] = node.memory.busy_until
            bus_busy[i] = buses[i].busy_until
            free_frames[i] = node.pool.free
            next_run[i] = node.daemon.next_run_at
            thr[i] = node.policy_state.effective_threshold()
        net_port[:] = network.port_busy_until

    def _timing_out():
        """Copy the arrays back into the live objects (plain ints)."""
        for i, node in enumerate(nodes):
            node.memory.busy_until[:] = mem_busy[i].tolist()
            buses[i].busy_until = int(bus_busy[i])
            node.pool.free = int(free_frames[i])
        network.port_busy_until[:] = net_port.tolist()

    pc_shift = int(params[_P_PC_SHIFT])

    def _flush_ring():
        """Replay ring-deferred invalidate/demote events to the bus.

        Runs before any other Python-side work at every kernel exit, so
        the publish order (and the per-event clock stamp, which mirrors
        the scalar kind-filtered stamping rule) matches the scalar
        loops exactly.
        """
        count = int(ctl[_RINGN])
        if not count:
            return
        for j in range(count):
            kind, nd, ch, clk = ring[j].tolist()
            events.clock = clk
            events.publish(EV_INVALIDATE if kind == 0 else EV_DEMOTE,
                           nd, ch >> pc_shift, chunk=ch)
        ctl[_RINGN] = 0

    # --- drive the kernel --------------------------------------------
    exits = dict.fromkeys(EXIT_REASONS, 0)
    engine.kernel_exits = exits
    try:
        while True:
            _timing_in()
            rc = int(lib.soa_run(state))
            _timing_out()
            _flush_ring()
            if rc == _RESIDUAL:
                exits[EXIT_REASONS[int(ctl[_REASON])]] += 1
                # Drain the whole run of residual events the kernel
                # batched up (first touches, relocation bursts).  The
                # first event was already admitted by the kernel's
                # limit check; each later one re-checks the slice
                # limit, exactly like the scalar loop's
                # `while now < limit` would.
                best = int(ctl[_BEST])
                now = int(ctl[_NOW])
                limit = int(ctl[_LIMIT])
                run = int(ctl[_RLEN])
                p = int(pos[best])
                off = int(tr_off[best])
                node = nodes[best]
                shared_ref = engine._shared_ref
                for j in range(run):
                    if j and now >= limit:
                        break
                    now += shared_ref(node, int(args_all[off + p]),
                                      int(kinds_all[off + p]) == EV_WRITE,
                                      now)
                    p += 1
                pos[best] = p
                ctl[_NOW] = now
            elif rc == _RINGFULL:
                exits["ring"] += 1  # flushed above; re-enter drained
            elif rc == _DAEMON:
                exits["daemon"] += 1
                nodes[int(ctl[_BEST])].run_daemon_if_due(
                    int(ctl[_DAEMON_AT]))
            elif rc == _BARRIER:
                exits["barrier"] += 1
                clock_l = clock.tolist()
                arrival_l = arrival.tolist()
                waiting_l = [bool(x) for x in waiting]
                pos_l = pos.tolist()
                end_l = tr_len.tolist()
                finished_l = [bool(x) for x in finished]
                bid_l = barrier_id.tolist()
                engine._release_barrier(nodes, clock_l, arrival_l,
                                        waiting_l, pos_l, end_l,
                                        finished_l, bid_l)
                clock[:] = clock_l
                waiting[:] = [1 if w else 0 for w in waiting_l]
                finished[:] = [1 if f else 0 for f in finished_l]
            elif rc == _DEADLOCK:
                _merge_deltas(engine, st, aux, glob)
                raise RuntimeError("deadlock: all unfinished nodes are"
                                   " waiting at a barrier that never"
                                   " released")
            elif rc == _BAD_PARAMS:
                raise RuntimeError("vector kernel rejected its shape/params"
                                   " on entry (corrupt SoA state)")
            elif rc == _EMPTY_CLOCK:
                raise RuntimeError(f"node {int(ctl[_BEST])}: no S-COMA page"
                                   " to evict (empty second-chance clock)")
            else:  # _DONE
                _merge_deltas(engine, st, aux, glob)
                return [int(c) for c in clock]
    finally:
        # The clock is the one view exported back into a plain deque:
        # after the run nothing bounds it by the frame count any more.
        for node in nodes:
            node.page_table.scoma_clock = deque(node.page_table.scoma_clock)
