"""Per-cell cost model for matrix scheduling.

A matrix sweep's cells differ in cost by an order of magnitude: apps
differ ~10x in trace event count (ocean vs fft at equal scale), and
architectures differ a few percent in replay speed per event.  Naive
FIFO dispatch therefore ends with one worker grinding a giant ocean
cell while the rest idle.  This module estimates each
:class:`~repro.runtime.spec.RunSpec`'s cost as

    ``trace event count  x  per-architecture weight``

and orders dispatch longest-first (LPT — longest processing time —
the classic 4/3-approximation for makespan on identical machines).
Chunked submission sizing lives here too, so pool IPC overhead and
tail latency are traded off in one place.

The architecture weights are *calibrated from measurement*, not
guessed: ``BENCH_pr3.json``'s ``single:fft/<arch>`` benchmarks give
events/second per architecture on the reference machine; the weight is
each architecture's per-event time relative to ASCOMA.  The scalar
spread is small (~4%), and LPT only needs *ranks* to be right, which
event counts dominate.

The vector kernel reshuffles those ranks: in-kernel events cost near
nothing, so a cell's time is dominated by how often it *exits* the
kernel for residual events — CC-NUMA re-fetches remote lines forever
under pressure and pays ~1.4x ASCOMA per event, where its scalar
weight was within 4%.  :data:`VECTOR_ARCH_WEIGHTS` carries the
separately calibrated vector ranks, and the cost functions pick the
table matching the substrate the workers will actually use (the
compiled kernel's availability in *this* process, probed once).
"""

from __future__ import annotations

from .spec import RunSpec, canonical_arch

__all__ = ["ARCH_WEIGHTS", "DEFAULT_ARCH_WEIGHT", "VECTOR_ARCH_WEIGHTS",
           "DEFAULT_VECTOR_ARCH_WEIGHT", "workload_events",
           "spec_cost", "lpt_order", "submit_chunksize"]

#: Relative per-event replay time off the kernel (scalar replay),
#: ASCOMA = 1.0.  Derived from BENCH_pr3.json ``single:fft/*``
#: events/s (859544 / arch ev/s): CC-NUMA re-fetches remote lines
#: forever under pressure, so it pays the most per event; the
#: page-caching architectures are cheaper.
ARCH_WEIGHTS = {
    "CCNUMA": 1.037,
    "SCOMA": 1.015,
    "RNUMA": 1.027,
    "VCNUMA": 1.003,
    "ASCOMA": 1.000,
}

#: Unknown architectures (tests, experiments) assume mid-pack cost.
DEFAULT_ARCH_WEIGHT = 1.02

#: Relative per-event replay time through the vector kernel,
#: ASCOMA = 1.0 (fft @ 0.25, pressure 0.7, best of 3).  Kernel exits
#: dominate: CC-NUMA's endless remote re-fetches make it the outlier
#: at ~1.4x, while the architectures whose hits stay in-kernel sit
#: within ~10% of each other.
VECTOR_ARCH_WEIGHTS = {
    "CCNUMA": 1.43,
    "SCOMA": 0.96,
    "RNUMA": 1.02,
    "VCNUMA": 1.11,
    "ASCOMA": 1.00,
}

#: Unknown architectures on the vector substrate: mid-pack cost.
DEFAULT_VECTOR_ARCH_WEIGHT = 1.10


def _vector_substrate() -> bool:
    """Will workers replay through the vector kernel by default?

    True iff ``REPRO_SLOW_PATH`` does not select the reference loop
    process-wide *and* the compiled kernel actually loads here
    (workers are forked from — or configured identically to — this
    process).  Probed per call; the kernel load itself is memoized, so
    this is one env read plus one memo lookup after the first call.
    Env parsing is delegated to
    :func:`~repro.sim.engine.default_slow_path`, the predicate the
    engine itself reads.
    """
    from ..sim.engine import default_slow_path

    if default_slow_path():
        return False
    from ..sim.soatrace import vector_available

    return vector_available()


def workload_events(app: str, scale: float, sample=None) -> int:
    """Total trace events of one workload (all nodes).

    Routed through :func:`~repro.runtime.tracecache.fetch_traces`, so
    asking for the count *is* the pre-warm: the parent process pays
    generation (or a cache hit) once, and forked pool workers inherit
    the in-memory traces for free.  With *sample* set, the count (and
    the pre-warm) is of the sampled workload — the one the cell will
    actually replay.
    """
    from .tracecache import fetch_traces

    traces = fetch_traces(app, scale, sample=sample)
    return sum(len(t) for t in traces.traces)


def spec_cost(spec: RunSpec, events: int | None = None,
              vector: bool | None = None) -> float:
    """Estimated replay cost of one cell, in weighted events.

    *events* is the workload's total event count; ``None`` looks it up
    (generating or cache-hitting the trace as a side effect).
    *vector* selects the weight table — ``True`` for the vector kernel,
    ``False`` for the reference loop, ``None`` (default) for
    whichever substrate this process would actually dispatch on.
    """
    if events is None:
        events = workload_events(spec.app, spec.scale,
                                 sample=spec.sample or None)
    if vector is None:
        vector = _vector_substrate()
    arch = canonical_arch(spec.arch)
    if vector:
        weight = VECTOR_ARCH_WEIGHTS.get(arch, DEFAULT_VECTOR_ARCH_WEIGHT)
    else:
        weight = ARCH_WEIGHTS.get(arch, DEFAULT_ARCH_WEIGHT)
    return events * weight


def lpt_order(specs, events_of=None, vector: bool | None = None) -> list:
    """Specs sorted costliest-first (LPT dispatch order).

    *events_of* maps ``(app, scale, sample) -> event count`` (legacy
    ``(app, scale)`` keys still resolve unsampled specs); missing
    entries (e.g. a spec whose workload failed to generate — it will
    fail identically in the worker, where the failure is isolated)
    cost 0 and sort last.  The sort is stable, so equal-cost cells keep
    their submission order and reruns dispatch identically.  *vector*
    picks the weight table as in :func:`spec_cost`; the substrate probe
    runs once for the whole sort, not per cell.
    """
    events_of = events_of or {}
    if vector is None:
        vector = _vector_substrate()

    def cost(spec: RunSpec) -> float:
        events = events_of.get((spec.app, spec.scale, spec.sample))
        if events is None and not spec.sample:
            events = events_of.get((spec.app, spec.scale))
        return spec_cost(spec, events, vector=vector) if events is not None \
            else 0.0

    return sorted(specs, key=cost, reverse=True)


def submit_chunksize(n_tasks: int, workers: int,
                     chunks_per_worker: int = 4) -> int:
    """Chunk size for ``pool.map``: fewer pickles, bounded imbalance.

    ``chunksize=1`` (the default) costs one IPC round-trip per cell; one
    giant chunk per worker forfeits the load balancing LPT set up.
    Giving each worker ~``chunks_per_worker`` chunks keeps per-cell IPC
    amortised while capping the imbalance any single chunk can cause at
    ~1/chunks_per_worker of a worker's share.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    return max(1, n_tasks // (workers * chunks_per_worker))
