"""Content-addressed on-disk workload trace cache.

The evaluation matrix replays each application's trace under ~15
(architecture, pressure) cells, and every worker process of a matrix
sweep — plus every fresh CLI invocation — used to regenerate those
traces from scratch.  Generation is deterministic, so the traces are
pure functions of their :class:`~repro.workloads.base.WorkloadSpec`;
this module caches them the same way :class:`~repro.runtime.store.RunStore`
caches results:

* **Keying** — :func:`trace_key` hashes the canonical JSON of
  ``(app, n_nodes, scale, WorkloadSpec fields, trace format version,
  cache schema version)``.  Anything that could change the generated
  arrays changes the key; bumping
  :data:`~repro.sim.trace.TRACE_FORMAT_VERSION` orphans every entry.
* **Artifacts** — one file per workload under ``results/traces/``, in
  the existing ``_MAGIC`` binary format
  (:meth:`~repro.sim.trace.WorkloadTraces.save`), written atomically so
  concurrent matrix workers cannot tear an entry.
* **Memo** — a per-process in-memory layer on top
  (:func:`fetch_traces`), so a warm worker touches each workload once
  per run no matter how many cells share it, and cells served from the
  same process share one ``Trace`` object (and therefore one cached
  list-form conversion) instead of one per cell.

A corrupt, stale or foreign file is a *miss*, never an error: the
workload is regenerated and the entry rewritten.  The cache changes
*when* traces are built, never *what* is built — ``tests/test_tracecache.py``
pins cached-vs-regenerated bit-identity.

Replay-loop selection (``REPRO_SLOW_PATH``) never enters
:func:`trace_key` for the same reason it stays out of
``RunSpec.spec_hash()``: the kernel and the reference loop are
bit-identical consumers of the same trace arrays, and the kernel's SoA
decode
(:meth:`~repro.sim.trace.WorkloadTraces.soa`) is a per-process view
built lazily on top of whatever this cache loads.

SoA sidecars
------------
With the vector kernel the default substrate, every fresh process pays
the SoA decode (concatenate all node traces into flat arrays) before
its first replay.  ``put`` therefore also writes a ``.soa`` sidecar
next to each ``.trace`` artifact — flat kind/arg arrays in a
memory-mappable layout — and ``get`` attaches it read-only via
``np.memmap``, so warm processes skip the decode *and* share the
page-cache copy of the arrays across concurrent matrix workers.  The
sidecar is strictly additive: it is keyed by the workload's
``content_hash`` plus :data:`SOA_FORMAT_VERSION`, and any mismatch,
truncation, foreign byte order or missing file is a silent decode miss
(the in-memory decode runs as before), never an error.  Older caches
containing only ``.trace`` files keep working unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..sim.trace import TRACE_FORMAT_VERSION, WorkloadTraces

__all__ = ["TRACE_STORE_VERSION", "SOA_FORMAT_VERSION", "TraceStore",
           "trace_key", "fetch_traces", "clear_trace_memo",
           "get_default_trace_store", "set_default_trace_store",
           "use_trace_store", "write_soa_sidecar", "attach_soa_sidecar",
           "sample_from_sidecar"]

#: Cache schema version (file naming / keying rules).  Bump when the
#: keying scheme itself changes; old artifacts then stop matching.
TRACE_STORE_VERSION = 1

#: Version of the ``.soa`` sidecar layout.  Bump when the byte layout
#: or the tuple shape of ``WorkloadTraces.soa()`` changes; stale
#: sidecars then read as decode misses and are rewritten on the next
#: ``put``.
SOA_FORMAT_VERSION = 1

_SOA_MAGIC = b"ASOA1\n"


def _pad8(offset: int) -> int:
    """Bytes of zero padding needed to 8-align *offset*."""
    return -offset % 8


def write_soa_sidecar(trace_path: Path, traces: WorkloadTraces) -> bool:
    """Write ``<stem>.soa`` next to *trace_path*; best-effort.

    Layout: magic, one JSON header line (format version, workload
    ``content_hash``, per-node lengths, ref bounds, byte order), zero
    padding to 8 bytes, the raw ``uint8`` kind array, padding, the raw
    little-endian ``int64`` arg array.  Returns ``False`` (and leaves
    no partial file behind) on any failure — an unwritable cache
    directory must never break trace generation.
    """
    kinds, args, _offsets, lengths, ref_lo, ref_hi = traces.soa()
    header = {
        "soa_format_version": SOA_FORMAT_VERSION,
        "content_hash": traces.content_hash(),
        "n_nodes": traces.n_nodes,
        "lengths": [int(x) for x in lengths],
        "ref_lo": ref_lo,
        "ref_hi": ref_hi,
        "byteorder": "little",
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"
    path = trace_path.with_suffix(".soa")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=trace_path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(_SOA_MAGIC)
            fh.write(blob)
            fh.write(b"\0" * _pad8(fh.tell()))
            fh.write(np.ascontiguousarray(kinds, dtype=np.uint8).tobytes())
            fh.write(b"\0" * _pad8(fh.tell()))
            fh.write(np.ascontiguousarray(args, dtype="<i8").tobytes())
        os.replace(tmp, path)
        return True
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        return False


def _map_soa(trace_path: Path):
    """Validate and memory-map ``<stem>.soa``.

    Returns ``(header, kinds, args, offsets, lengths)`` with the two
    event arrays as read-only memmaps, or ``None`` on any mismatch
    (wrong magic/version/byte order, truncation, unreadable file).
    """
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        return None
    path = trace_path.with_suffix(".soa")
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_SOA_MAGIC)) != _SOA_MAGIC:
                return None
            header = json.loads(fh.readline().decode())
            if header.get("soa_format_version") != SOA_FORMAT_VERSION:
                return None
            if header.get("byteorder") != "little":
                return None
            lengths_list = header.get("lengths")
            if not isinstance(lengths_list, list):
                return None
            pos = fh.tell()
        lengths = np.array(lengths_list, dtype=np.int64)
        total = int(lengths.sum())
        k_off = pos + _pad8(pos)
        a_off = k_off + total
        a_off += _pad8(a_off)
        if path.stat().st_size != a_off + 8 * total:
            return None
        if total:
            kinds = np.memmap(path, dtype=np.uint8, mode="r",
                              offset=k_off, shape=(total,))
            args = np.memmap(path, dtype=np.dtype("<i8"), mode="r",
                             offset=a_off, shape=(total,))
        else:
            kinds = np.zeros(0, dtype=np.uint8)
            args = np.zeros(0, dtype=np.int64)
        offsets = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        return header, kinds, args, offsets, lengths
    except (OSError, ValueError, KeyError, TypeError):
        return None


def attach_soa_sidecar(trace_path: Path, traces: WorkloadTraces) -> bool:
    """Memory-map ``<stem>.soa`` into ``traces``' SoA cache slot.

    Validates magic, format version, workload content hash, byte order
    and exact file size before trusting the arrays; every mismatch is
    a silent decode miss (returns ``False``), after which
    :meth:`WorkloadTraces.soa` recomputes in memory exactly as it
    would without a sidecar.
    """
    mapped = _map_soa(trace_path)
    if mapped is None:
        return False
    header, kinds, args, offsets, lengths = mapped
    if header.get("content_hash") != traces.content_hash():
        return False
    if len(lengths) != traces.n_nodes:
        return False
    try:
        bounds = (int(header["ref_lo"]), int(header["ref_hi"]))
    except (KeyError, ValueError, TypeError):
        return False
    traces._soa_cache = (kinds, args, offsets, lengths, *bounds)
    return True


def sample_from_sidecar(trace_path: Path, sample) -> WorkloadTraces | None:
    """Build a *sampled* workload straight from a cached full artifact.

    Reads only the ``.trace`` metadata header (a few hundred bytes) and
    memory-maps the ``.soa`` sidecar, so the full event arrays never
    enter the process heap — the property that lets ``--sample-rate``
    runs on a warm trace store peak at roughly the kept fraction of the
    full run's trace memory.  Any missing or invalid file is ``None``
    (the caller falls back to sampling an in-memory full fetch).
    """
    from ..mem.address import AddressMap
    from ..sim.trace import load_trace_header
    from ..workloads.sample import assemble_sampled

    try:
        header = load_trace_header(str(trace_path))
    except (OSError, ValueError, KeyError, EOFError, SyntaxError):
        return None
    mapped = _map_soa(trace_path)
    if mapped is None:
        return None
    soa_header, kinds, args, offsets, lengths = mapped
    if len(lengths) != header.get("n_nodes"):
        return None
    params = dict(header.get("params") or {})
    params["full_content_hash"] = soa_header.get("content_hash")
    try:
        return assemble_sampled(header["name"], kinds, args, offsets,
                                lengths, header["home_pages_per_node"],
                                header["total_shared_pages"], params, sample,
                                AddressMap().lines_per_page)
    except (KeyError, ValueError, TypeError):
        return None


def trace_key(app: str, scale: float, sample=None, **overrides) -> str:
    """Stable 16-hex content key for one cached workload.

    For generated apps it covers the application name (which selects
    the generator class), the paper node count, the scale, every
    :class:`~repro.workloads.base.WorkloadSpec` field the generator
    consumes, and the trace format + cache schema versions.  For
    external (``ext/``) apps the id already *is* the content identity
    (it embeds the ingested workload's hash), so the payload is the id
    plus the ingest + format versions; scale does not apply.

    A non-null *sample* (:class:`~repro.workloads.sample.SampleSpec`,
    dict, or item pairs) is hashed in additionally, so sampled and full
    artifacts of the same workload can never collide; a null sample
    leaves every pre-sampling key byte-identical.
    """
    from ..workloads.sample import SampleSpec

    if app.startswith("ext/"):
        from ..workloads.ingest import INGEST_FORMAT_VERSION, parse_external_app

        parse_external_app(app)  # validates the id shape
        payload = {
            "app": app,
            "ingest_version": INGEST_FORMAT_VERSION,
            "format_version": TRACE_FORMAT_VERSION,
            "store_version": TRACE_STORE_VERSION,
        }
    else:
        from ..workloads import workload_spec

        spec = workload_spec(app, scale=scale, **overrides)
        payload = {
            "app": app,
            "n_nodes": spec.n_nodes,
            "scale": scale,
            "spec": spec.canonical_dict(),
            "format_version": TRACE_FORMAT_VERSION,
            "store_version": TRACE_STORE_VERSION,
        }
    sample_spec = SampleSpec.from_any(sample)
    if sample_spec is not None:
        payload["sample"] = sample_spec.canonical_dict()
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()[:16]


class TraceStore:
    """Content-addressed cache of generated workloads under one directory."""

    def __init__(self, root: str | os.PathLike = "results/traces") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.soa_attaches = 0

    # -- paths ----------------------------------------------------------
    def path_for(self, app: str, scale: float, sample=None,
                 **overrides) -> Path:
        # External app ids contain "/" (ext/<name>@<hash>); flatten for
        # the file name — the key suffix keeps entries unambiguous.
        stem = app.replace("/", "_")
        key = trace_key(app, scale, sample=sample, **overrides)
        return self.root / f"{stem}-{key}.trace"

    @staticmethod
    def _name_matches(traces: WorkloadTraces, app: str, sample) -> bool:
        """Does a loaded artifact plausibly belong to *app*?

        Generated workloads store the app name verbatim.  External
        artifacts store the base ``ext/<name>`` (the full id embeds the
        content hash, which cannot name itself), so the hash is checked
        against the workload's own — except for sampled artifacts,
        whose arrays legitimately hash differently from the full
        workload the id names (the sample-keyed path vouches for them).
        """
        if not app.startswith("ext/"):
            return traces.name == app
        from ..workloads.ingest import parse_external_app

        base, content_hash = parse_external_app(app)
        if traces.name != base:
            return False
        return sample is not None or traces.content_hash() == content_hash

    # -- lookup ---------------------------------------------------------
    def get(self, app: str, scale: float, sample=None,
            **overrides) -> WorkloadTraces | None:
        """Cached workload, or ``None`` (never raises on bad files).

        A wrong magic, a stale format version, a truncated file or a
        header naming a different application all read as a miss; the
        caller regenerates and overwrites.  A non-null *sample*
        resolves the sampled artifact (distinct key, never aliases the
        full trace).
        """
        from ..workloads.sample import SampleSpec

        sample = SampleSpec.from_any(sample)
        path = self.path_for(app, scale, sample=sample, **overrides)
        try:
            traces = WorkloadTraces.load(str(path))
        except (OSError, ValueError, KeyError, EOFError, SyntaxError):
            # SyntaxError: a truncated header fails ast.literal_eval.
            self.misses += 1
            return None
        if not self._name_matches(traces, app, sample):
            self.misses += 1
            return None
        self.hits += 1
        if attach_soa_sidecar(path, traces):
            self.soa_attaches += 1
        return traces

    def __contains__(self, key: tuple) -> bool:
        app, scale = key
        return self.path_for(app, scale).exists()

    # -- update ---------------------------------------------------------
    def put(self, app: str, scale: float, traces: WorkloadTraces,
            sample=None, **overrides) -> Path:
        """Persist *traces* atomically (write temp file, then rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(app, scale, sample=sample, **overrides)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        os.close(fd)
        try:
            traces.save(tmp)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.writes += 1
        write_soa_sidecar(path, traces)
        return path

    # -- maintenance ----------------------------------------------------
    def entries(self) -> list[dict]:
        """Summary of every readable artifact, sorted by file name.

        Robust against concurrent mutation: a ``trace-clear`` racing
        this scan (e.g. from another process sharing the store) makes
        files vanish between ``glob`` and ``stat`` — such entries are
        skipped, never an error.
        """
        out = []
        for path in sorted(self.root.glob("*.trace")):
            try:
                traces = WorkloadTraces.load(str(path))
                nbytes = path.stat().st_size
            except (OSError, ValueError, KeyError, EOFError, SyntaxError):
                continue
            out.append({
                "file": path.name,
                "name": traces.name,
                "n_nodes": traces.n_nodes,
                "events": sum(len(t) for t in traces.traces),
                "content_hash": traces.content_hash(),
                "bytes": nbytes,
                "soa": path.with_suffix(".soa").exists(),
            })
        return out

    def clear(self) -> int:
        """Delete every artifact (and its sidecar); returns .trace count."""
        removed = 0
        for path in self.root.glob("*.trace"):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
            with contextlib.suppress(OSError):
                path.with_suffix(".soa").unlink()
        return removed

    def size_bytes(self) -> int:
        """Total artifact bytes; files vanishing mid-scan count as 0."""
        total = 0
        for pattern in ("*.trace", "*.soa"):
            for path in self.root.glob(pattern):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        return total

    def describe(self) -> dict:
        n = len(list(self.root.glob("*.trace"))) if self.root.is_dir() else 0
        n_soa = len(list(self.root.glob("*.soa"))) if self.root.is_dir() else 0
        return {"root": str(self.root), "entries": n,
                "soa_sidecars": n_soa,
                "bytes": self.size_bytes(),
                "format_version": TRACE_FORMAT_VERSION,
                "store_version": TRACE_STORE_VERSION,
                "soa_format_version": SOA_FORMAT_VERSION,
                "session": {"hits": self.hits, "misses": self.misses,
                            "writes": self.writes,
                            "soa_attaches": self.soa_attaches}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceStore({str(self.root)!r})"


# -- per-process memo ---------------------------------------------------
#: ``(app, scale, sample pairs, store root or None) -> WorkloadTraces``.
#: Keyed by the store identity so tests pointing at different cache
#: directories never alias each other's entries, and by the sampling
#: policy so sampled and full fetches of one cell coexist.
_memo: dict[tuple, WorkloadTraces] = {}


def clear_trace_memo() -> None:
    """Drop the per-process memo (tests and long-lived daemons)."""
    _memo.clear()


def fetch_traces(app: str, scale: float,
                 store: "TraceStore | None" = None,
                 sample=None) -> WorkloadTraces:
    """Memo -> trace store -> sidecar sampling -> generator, in order.

    The one entry point the runtime layer uses for workload traces.
    With *store* ``None`` the ambient store applies (``None`` ambient
    means no disk caching — the library/test default); generation misses
    are written back so the next process starts warm.

    A non-null *sample* resolves the *sampled* workload: a cached
    sampled artifact if one exists, else — on a warm store — a
    streaming reduction straight from the full artifact's ``.soa``
    sidecar (the full arrays never enter the heap), else an in-memory
    sampling of the full fetch.  Sampled results are written back under
    their own sample-suffixed key.

    External (``ext/``) apps resolve only through the store — there is
    no generator to fall back to; a miss raises with a pointer to
    ``repro ingest``.
    """
    from ..workloads.sample import SampleSpec

    sample = SampleSpec.from_any(sample)
    if store is None:
        store = get_default_trace_store()
    key = (app, scale, str(store.root) if store is not None else None, sample)
    traces = _memo.get(key)
    if traces is not None:
        return traces
    if store is not None:
        traces = store.get(app, scale, sample=sample)
    if traces is None and sample is not None and store is not None:
        full_path = store.path_for(app, scale)
        traces = sample_from_sidecar(full_path, sample)
        if traces is not None and not store._name_matches(traces, app, sample):
            traces = None
        if traces is not None and app.startswith("ext/"):
            # The sampled arrays hash differently from the full
            # workload, so identity is pinned through the sidecar's
            # record of the *full* content hash instead.
            from ..workloads.ingest import parse_external_app

            if (traces.params.get("full_content_hash")
                    != parse_external_app(app)[1]):
                traces = None
        if traces is not None:
            store.put(app, scale, traces, sample=sample)
    if traces is None and sample is not None:
        traces = _sample_in_memory(app, scale, store, sample)
        if store is not None:
            store.put(app, scale, traces, sample=sample)
    if traces is None:
        if app.startswith("ext/"):
            raise LookupError(
                f"external workload {app!r} is not in the trace store"
                + (f" at {store.root}" if store is not None else
                   " (and no trace store is installed)")
                + "; register it first with `repro ingest`")
        # get_workload's lru_cache is the generation-side memo, shared
        # with direct harness callers (perf suite, tables, figures).
        from ..harness.experiment import get_workload

        traces = get_workload(app, scale)
        if store is not None:
            store.put(app, scale, traces)
    _memo[key] = traces
    return traces


def _sample_in_memory(app: str, scale: float, store, sample) -> WorkloadTraces:
    """Cold-path sampling: fetch (or generate) the full workload, reduce it."""
    from ..workloads.sample import sample_workload

    full = fetch_traces(app, scale, store)
    return sample_workload(full, sample)


# -- ambient default ----------------------------------------------------
_default_trace_store: TraceStore | None = None


def get_default_trace_store() -> TraceStore | None:
    return _default_trace_store


def set_default_trace_store(store: TraceStore | None) -> None:
    """Install the ambient trace store used when callers don't pass one."""
    global _default_trace_store
    _default_trace_store = store


@contextlib.contextmanager
def use_trace_store(store: TraceStore | None):
    """Scoped ambient trace store: ``with use_trace_store(...): ...``."""
    prev = _default_trace_store
    set_default_trace_store(store)
    try:
        yield store
    finally:
        set_default_trace_store(prev)
