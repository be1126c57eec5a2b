"""Per-node reference traces.

A trace is the sequence of events one node's processor generates:

* ``READ`` / ``WRITE`` of a global shared line,
* ``COMPUTE`` -- a burst of user instructions (cycles),
* ``LOCAL``  -- a burst of private/non-shared memory stall (cycles),
* ``BARRIER`` -- global synchronisation point.

Traces are stored as three parallel numpy arrays (kind, arg) for
compactness; the replay engine converts them to Python lists once per
run because scalar indexing of Python lists is ~3x faster than numpy
scalar indexing in the interpreter loop (see the hpc guides: profile,
then optimise the measured hot path).

The module also provides a tiny binary save/load format so generated
workloads can be cached on disk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EV_READ", "EV_WRITE", "EV_COMPUTE", "EV_LOCAL", "EV_BARRIER",
           "TRACE_FORMAT_VERSION", "Trace", "TraceBuilder", "WorkloadTraces",
           "coalesce_events", "load_trace_header"]

EV_READ = 0
EV_WRITE = 1
EV_COMPUTE = 2
EV_LOCAL = 3
EV_BARRIER = 4

_EVENT_NAMES = {EV_READ: "READ", EV_WRITE: "WRITE", EV_COMPUTE: "COMPUTE",
                EV_LOCAL: "LOCAL", EV_BARRIER: "BARRIER"}

_MAGIC = b"ASCT1\n"

#: Version of the event encoding + on-disk layout.  Bump whenever the
#: meaning of (kind, arg) pairs or the binary layout changes: saved
#: files then stop loading (``load`` raises) and every content hash
#: derived from this constant stops matching, so stale trace-cache
#: entries are regenerated rather than silently misread.
TRACE_FORMAT_VERSION = 1


def coalesce_events(kinds: np.ndarray,
                    args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent same-kind ``COMPUTE``/``LOCAL`` runs.

    A run of k consecutive ``EV_COMPUTE`` (or ``EV_LOCAL``) events
    collapses into one event whose arg is the run's cycle sum.  Shared
    references and barriers are never touched, and the relative order
    of all surviving events is preserved, so per-node cycle totals,
    stats buckets and barrier alignment are unchanged -- the property
    ``tests/test_generator_properties.py`` pins down.  Fewer events
    means fewer interpreter iterations in the replay engine.
    """
    if kinds.shape != args.shape:
        raise ValueError("kinds/args length mismatch")
    n = len(kinds)
    if n == 0:
        return kinds, args
    mergeable = (kinds == EV_COMPUTE) | (kinds == EV_LOCAL)
    # Event i merges into its predecessor iff same kind and mergeable.
    merge = (kinds[1:] == kinds[:-1]) & mergeable[1:]
    if not merge.any():
        return kinds, args
    keep = np.concatenate([[True], ~merge])
    group = np.cumsum(keep) - 1  # output index of each input event
    out_args = np.zeros(int(keep.sum()), dtype=np.int64)
    np.add.at(out_args, group, np.asarray(args, dtype=np.int64))
    # Non-mergeable kinds are always singleton groups, so the group sum
    # is their own arg (barrier ids and line ids survive untouched).
    return kinds[keep], out_args


class Trace:
    """Immutable event sequence for one node.

    The replay engine consumes the plain-list form (:meth:`as_lists`),
    which is computed once and cached: scalar indexing of Python lists
    is ~3x faster than numpy scalar indexing, and the evaluation matrix
    replays the same (cached) workload under many architectures.
    """

    __slots__ = ("kinds", "args", "_kinds_list", "_args_list")

    def __init__(self, kinds: np.ndarray, args: np.ndarray) -> None:
        if kinds.shape != args.shape:
            raise ValueError("kinds/args length mismatch")
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.args = np.ascontiguousarray(args, dtype=np.int64)
        self._kinds_list: list[int] | None = None
        self._args_list: list[int] | None = None

    def as_lists(self) -> tuple[list[int], list[int]]:
        """Cached ``(kinds, args)`` as plain Python lists (read-only)."""
        if self._kinds_list is None:
            self._kinds_list = self.kinds.tolist()
            self._args_list = self.args.tolist()
        return self._kinds_list, self._args_list

    def coalesced(self) -> "Trace":
        """This trace with adjacent COMPUTE/LOCAL runs merged.

        Returns ``self`` when there is nothing to merge (the common
        case for the built-in generators, which interleave compute
        markers between reference bursts).
        """
        kinds, args = coalesce_events(self.kinds, self.args)
        if kinds is self.kinds:
            return self
        return Trace(kinds, args)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        for k, a in zip(self.kinds, self.args):
            yield int(k), int(a)

    # -- introspection ----------------------------------------------------
    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kinds == kind))

    def shared_refs(self) -> int:
        return self.count(EV_READ) + self.count(EV_WRITE)

    def barriers(self) -> int:
        return self.count(EV_BARRIER)

    def pages_touched(self, lines_per_page: int) -> set[int]:
        mask = (self.kinds == EV_READ) | (self.kinds == EV_WRITE)
        return set((self.args[mask] // lines_per_page).tolist())

    def event_name(self, kind: int) -> str:
        return _EVENT_NAMES[kind]

    def content_hash(self) -> str:
        """Stable 16-hex digest of the event arrays.

        Covers dtype, length and raw bytes of both arrays plus the
        trace format version, so two traces hash equal iff replaying
        them is guaranteed to be indistinguishable.
        """
        h = hashlib.sha256()
        h.update(f"v{TRACE_FORMAT_VERSION}:{len(self.kinds)}:".encode())
        h.update(self.kinds.tobytes())
        h.update(self.args.tobytes())
        return h.hexdigest()[:16]


@dataclass
class TraceBuilder:
    """Append-only trace construction."""

    _kinds: list[int] = field(default_factory=list)
    _args: list[int] = field(default_factory=list)

    def read(self, line: int) -> None:
        self._kinds.append(EV_READ)
        self._args.append(line)

    def write(self, line: int) -> None:
        self._kinds.append(EV_WRITE)
        self._args.append(line)

    def compute(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        if cycles:
            self._kinds.append(EV_COMPUTE)
            self._args.append(cycles)

    def local(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("local-memory cycles must be non-negative")
        if cycles:
            self._kinds.append(EV_LOCAL)
            self._args.append(cycles)

    def barrier(self, index: int) -> None:
        self._kinds.append(EV_BARRIER)
        self._args.append(index)

    def extend_refs(self, lines: np.ndarray, writes: np.ndarray) -> None:
        """Bulk-append shared references (vectorised generator path)."""
        if len(lines) != len(writes):
            raise ValueError("lines/writes length mismatch")
        self._kinds.extend(np.where(writes, EV_WRITE, EV_READ).tolist())
        self._args.extend(np.asarray(lines, dtype=np.int64).tolist())

    def extend_events(self, kinds, args) -> None:
        """Bulk-append pre-encoded ``(kind, arg)`` pairs.

        Accepts numpy arrays or plain sequences; multi-dimensional
        arrays are flattened in C order.  This is the public bulk API
        for vectorised emitters that assemble whole event blocks
        (e.g. ``workloads.base.emit_visits``) -- they must not reach
        into the private ``_kinds``/``_args`` lists.
        """
        kinds = np.asarray(kinds, dtype=np.uint8).ravel()
        args = np.asarray(args, dtype=np.int64).ravel()
        if kinds.shape != args.shape:
            raise ValueError("kinds/args length mismatch")
        if len(kinds) and int(kinds.max()) > EV_BARRIER:
            raise ValueError("unknown event kind in bulk append")
        self._kinds.extend(kinds.tolist())
        self._args.extend(args.tolist())

    def build(self, coalesce: bool = False) -> Trace:
        """Freeze into a :class:`Trace`.

        ``coalesce=True`` merges adjacent same-kind COMPUTE/LOCAL runs
        (see :func:`coalesce_events`) -- the generators pass it so
        replay never pays for split cycle bursts.
        """
        kinds = np.array(self._kinds, dtype=np.uint8)
        args = np.array(self._args, dtype=np.int64)
        if coalesce:
            kinds, args = coalesce_events(kinds, args)
        return Trace(kinds, args)

    def __len__(self) -> int:
        return len(self._kinds)


class WorkloadTraces:
    """A complete workload: one trace per node + metadata.

    ``home_pages_per_node`` sizes each node's pinned memory (and thus,
    with the memory pressure, its page cache); ``name`` keys the Table 5
    and Figure 2/3 emitters.
    """

    def __init__(self, name: str, traces: list[Trace],
                 home_pages_per_node: int, total_shared_pages: int,
                 params: dict | None = None) -> None:
        if not traces:
            raise ValueError("need at least one node trace")
        barrier_counts = {t.barriers() for t in traces}
        if len(barrier_counts) != 1:
            raise ValueError("all nodes must reach the same number of barriers")
        self.name = name
        self.traces = traces
        self.home_pages_per_node = home_pages_per_node
        self.total_shared_pages = total_shared_pages
        self.params = params or {}

    @property
    def n_nodes(self) -> int:
        return len(self.traces)

    def total_refs(self) -> int:
        return sum(t.shared_refs() for t in self.traces)

    def max_remote_pages(self, lines_per_page: int,
                         home_of: dict[int, int] | None = None) -> int:
        """Upper bound on remote pages any node touches.

        Without a home map this counts pages touched minus the node's
        proportional home share -- the quantity Table 5 reports.
        """
        worst = 0
        for node, trace in enumerate(self.traces):
            touched = trace.pages_touched(lines_per_page)
            if home_of is not None:
                remote = sum(1 for p in touched if home_of.get(p) != node)
            else:
                remote = max(0, len(touched) - self.home_pages_per_node)
            worst = max(worst, remote)
        return worst

    def ideal_pressure(self, lines_per_page: int) -> float:
        """Memory pressure below which a perfect S-COMA never evicts.

        ideal = H / (H + Rmax): with pressure p, cache frames per node
        are H(1-p)/p, which covers Rmax exactly at p = H/(H+Rmax).
        """
        h = self.home_pages_per_node
        r = self.max_remote_pages(lines_per_page)
        return h / (h + r) if (h + r) else 1.0

    def soa(self) -> tuple:
        """Structure-of-arrays decode of the whole workload, cached.

        Returns ``(kinds, args, offsets, lengths, ref_lo, ref_hi)``:
        every node trace concatenated into one contiguous ``uint8`` kind
        array and one contiguous ``int64`` arg array, with per-node
        ``offsets``/``lengths`` (``int64``) locating node *i*'s events at
        ``[offsets[i], offsets[i] + lengths[i])``.  ``ref_lo``/``ref_hi``
        are the smallest and largest line id any READ/WRITE event
        references (``0``/``-1`` when there are none) -- the vectorized
        replay substrate (:mod:`repro.sim.soatrace`) sizes and bounds-
        checks its dense state arrays with them.

        The decode is computed once and cached on the workload object:
        the evaluation matrix replays one workload under many
        architectures and pressures, and the per-process trace memo
        shares the ``WorkloadTraces`` instance across those runs, so the
        concatenation cost amortises the same way :meth:`Trace.as_lists`
        does for the reference loop.  All arrays are read-only for
        callers.
        """
        cached = getattr(self, "_soa_cache", None)
        if cached is None:
            kinds = np.concatenate([t.kinds for t in self.traces])
            args = np.concatenate([t.args for t in self.traces])
            lengths = np.array([len(t) for t in self.traces], dtype=np.int64)
            offsets = np.zeros(len(lengths), dtype=np.int64)
            np.cumsum(lengths[:-1], out=offsets[1:])
            refs = args[kinds <= EV_WRITE]
            if len(refs):
                ref_lo, ref_hi = int(refs.min()), int(refs.max())
            else:
                ref_lo, ref_hi = 0, -1
            cached = (kinds, args, offsets, lengths, ref_lo, ref_hi)
            self._soa_cache = cached
        return cached

    def content_hash(self) -> str:
        """Stable 16-hex digest of the complete workload.

        Combines every node trace's :meth:`Trace.content_hash` with the
        metadata the replay engine consumes, so equality of hashes means
        "bit-identical replay inputs" — the property the trace cache's
        golden tests pin down.
        """
        h = hashlib.sha256()
        h.update(f"{self.name}:{self.home_pages_per_node}:"
                 f"{self.total_shared_pages}:{self.n_nodes}:".encode())
        for trace in self.traces:
            h.update(trace.content_hash().encode())
        return h.hexdigest()[:16]

    # -- persistence ---------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            header = {
                "name": self.name,
                "home_pages_per_node": self.home_pages_per_node,
                "total_shared_pages": self.total_shared_pages,
                "n_nodes": self.n_nodes,
                "params": self.params,
                "format_version": TRACE_FORMAT_VERSION,
            }
            fh.write((repr(header) + "\n").encode())
            for trace in self.traces:
                np.save(fh, trace.kinds)
                np.save(fh, trace.args)

    @classmethod
    def load(cls, path: str) -> "WorkloadTraces":
        with open(path, "rb") as fh:
            header = _read_header(fh, path)
            traces = []
            for _ in range(header["n_nodes"]):
                kinds = np.load(fh)
                args = np.load(fh)
                traces.append(Trace(kinds, args))
        return cls(header["name"], traces, header["home_pages_per_node"],
                   header["total_shared_pages"], header.get("params"))


def _read_header(fh, path) -> dict:
    import ast

    if fh.read(len(_MAGIC)) != _MAGIC:
        raise ValueError(f"{path} is not a workload trace file")
    header = ast.literal_eval(fh.readline().decode())
    # Files written before format_version existed carry no version key
    # and read as version 0: always stale.
    version = header.get("format_version", 0)
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"{path} has trace format version {version}, "
            f"expected {TRACE_FORMAT_VERSION}")
    return header


def load_trace_header(path: str) -> dict:
    """The metadata header of a saved workload, without the arrays.

    Reads a few hundred bytes however large the trace is — the hook the
    trace cache's streaming sampled path uses to recover
    ``name``/``home_pages_per_node``/``total_shared_pages``/``params``
    while the event arrays stay memory-mapped in the ``.soa`` sidecar.
    Raises exactly like :meth:`WorkloadTraces.load` on a foreign or
    stale file.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path)
