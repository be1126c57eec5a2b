"""Benchmark library: workloads, cell replay, spans, digests and metrics.

``run.py`` is the entry point.  It starts this file as a subprocess in
three modes, each in a fresh interpreter:

* ``bench.py build`` compiles (or loads) the replay kernel once, before
  anything is timed;
* ``bench.py probe`` is one set-up measurement: import ``repro``, load
  the compiled kernel, generate the workload's traces from the seed and
  store them in an empty private trace store;
* ``bench.py measure`` runs the timed passes, checks every cell and, with
  ``--trace 1``, adds the executor pass and the layer pass that yield the
  per-layer metrics.

Everything the benchmark calls is public ``repro`` API.  It never
imports ``repro.perf`` or ``benchmarks/``, so a change to the program
cannot change how it is measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Workload scale of every cell, as in ``repro --scale 0.1``.
SCALE = 0.1
#: Pool size of the traced run's executor pass.
WORKERS = min(2, os.cpu_count() or 1)
#: Nominal seconds of one untraced pass.  A run makes as many passes as
#: fill ``--seconds`` at this speed, and at least ``MIN_PASSES``: a
#: count fixed by ``--seconds`` keeps medians and tails comparable.
NOMINAL_PASS_S = {"thrash": 4.4, "checked": 2.25}
#: ``cell_tail_s`` is the highest cell latency with at least
#: ``TAIL_ABOVE`` samples above it.  Every pass runs every cell once, so
#: with more than ``TAIL_ABOVE`` passes the slowest cell's own samples
#: fill the top of the ranking and a slowdown of that cell alone moves
#: the tail.
TAIL_ABOVE = 10
MIN_PASSES = TAIL_ABOVE + 2
#: Seconds the calibration loop takes at the nominal host speed.
CAL_NOMINAL_S = 0.025
CAL_STEPS = 40000
#: How closely replay time follows the calibration loop's time.  Over
#: 60 runs of both workloads on a 2-CPU shared host, the full
#: correction (1.0) overshot when the host sped up, and 0.7 gave the
#: smallest spread of run medians.
SPEED_EXPONENT = 0.7

#: The five thrashing S-COMA cells, which take most of the matrix's
#: host time: page faults, evictions and pageout-daemon runs exit the
#: replay kernel thousands of times per cell.
THRASH_CELLS = (("radix", "SCOMA", 0.3), ("radix", "SCOMA", 0.7),
                ("radix", "SCOMA", 0.9), ("barnes", "SCOMA", 0.7),
                ("em3d", "SCOMA", 0.9))
#: Kernel-friendly cells, replayed under the online invariant checker,
#: which forces the scalar path and sweeps machine state at barriers.
CHECKED_CELLS = (("fft", "ASCOMA", 0.7), ("em3d", "RNUMA", 0.9),
                 ("ocean", "VCNUMA", 0.7), ("lu", "ASCOMA", 0.9),
                 ("radix", "RNUMA", 0.7), ("barnes", "ASCOMA", 0.5))

#: Workload -> replay mode of its cells.
WORKLOADS = {"thrash": "auto", "checked": "checked"}

#: Per-layer metric -> (end-to-end metrics it should move, workloads).
LAYER_MAP = {
    "workloads.generate_s": (("setup_s",), ("thrash", "checked")),
    "tracecache.put_s": (("setup_s",), ("thrash", "checked")),
    "trace.soa_s": (("setup_s",), ("thrash", "checked")),
    "tracecache.fetch_s": (("wall_s", "cell_p50_s"), ("thrash", "checked")),
    "engine.build_s": (("cell_p50_s",), ("thrash", "checked")),
    "engine.run_s": (("wall_s", "events_per_s"), ("thrash", "checked")),
    "engine.events_per_s": (("wall_s", "events_per_s"), ("thrash", "checked")),
    "engine.run_ref_s": (("wall_s", "cell_tail_s"), ("thrash",)),
    "engine.auto_over_ref": (("wall_s", "cell_tail_s"), ("thrash",)),
    "kernel.page_faults": (("wall_s", "cell_tail_s"), ("thrash",)),
    "kernel.evictions": (("wall_s", "cell_tail_s"), ("thrash",)),
    "kernel.relocations": (("wall_s", "cell_tail_s"), ("thrash",)),
    "kernel.daemon_runs": (("wall_s", "cell_tail_s"), ("thrash",)),
    "kernel.lines_flushed": (("wall_s", "cell_tail_s"), ("thrash",)),
    "engine.us_per_page_op": (("wall_s", "cell_tail_s"), ("thrash",)),
    "check.run_s": (("wall_s", "cell_tail_s", "ok_frac"), ("checked",)),
    "check.overhead_x": (("wall_s", "cell_tail_s", "ok_frac"), ("checked",)),
    "check.violations": (("ok_frac",), ("checked",)),
    "stats.to_dict_s": (("wall_s",), ("thrash", "checked")),
    "store.put_s": (("wall_s",), ("thrash",)),
    "store.get_s": (("wall_s",), ("thrash",)),
    "executor.efficiency": (("wall_s",), ("thrash", "checked")),
    "executor.failures": (("ok_frac",), ("thrash", "checked")),
    "bench.tracing_overhead_x": ((), ("thrash", "checked")),
}

#: Span names of one cell replay, per mode.  ``checked`` replays on the
#: default substrate with the invariant checker attached.
SPAN_NAMES = {
    "auto": {"build": "engine.build", "run": "engine.run",
             "to_dict": "stats.to_dict"},
    "reference": {"build": "ref.build", "run": "engine.run_ref",
                  "to_dict": "ref.to_dict"},
    "checked": {"build": "check.build", "run": "check.run",
                "to_dict": "check.to_dict"},
}


# -- host speed -----------------------------------------------------------

def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host, now.

    The loop is a small page-cache simulation: integer arithmetic, dict
    and list operations, the interpreter work the replay layers do.
    Shared hosts change speed by up to 2x over minutes, and this loop's
    time follows those changes; ``speed()`` turns it into the factor
    that scales a measured time to the nominal host speed.
    """
    table: dict[int, int] = {}
    order: list[int] = []
    x = 12345
    start = time.perf_counter()
    for _ in range(CAL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        page = (x >> 8) & 1023
        if page in table:
            table[page] += 1
        else:
            table[page] = 1
            order.append(page)
            if len(order) > 512:
                del table[order.pop(0)]
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor from host seconds to nominal seconds between two calibrations."""
    return (CAL_NOMINAL_S / ((before + after) / 2)) ** SPEED_EXPONENT


# -- spans ----------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent, cell id, round.

    ``parent`` is the index of the enclosing span (-1 at top level).
    Self time is a span's duration minus that of its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.cell: str | None = None
        self.round = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "cell": self.cell, "round": self.round}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[tuple[dict, float]]:
        """``(span, self seconds)`` for every finished span."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] >= 0:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [(rec, rec["end"] - rec["start"] - child[i])
                for i, rec in enumerate(self.spans)]


class _NullTracer:
    """Tracing off: every span is a shared no-op context."""

    cell = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


def layer_totals(tracer: Tracer, factors: dict, rounds=None) -> dict:
    """Nominal self seconds per span name, over spans of *rounds*.

    *factors* maps a span's cell id (``None`` outside cells) to the
    host-speed factor measured around it.
    """
    out: dict[str, float] = {}
    for rec, self_s in tracer.self_times():
        if rounds is None or rec["round"] in rounds:
            out[rec["name"]] = (out.get(rec["name"], 0.0)
                                + self_s * factors[rec["cell"]])
    return out


# -- cells, seeds and digests ---------------------------------------------

def cell_key(spec) -> str:
    return f"{spec.app}/{spec.arch}@{spec.pressure:g}"


def workload_specs(workload: str) -> list:
    """The workload's cells as ``RunSpec`` values, in replay order."""
    from repro.runtime import RunSpec

    cells = THRASH_CELLS if workload == "thrash" else CHECKED_CELLS
    return [RunSpec.make(app, arch, p, SCALE) for app, arch, p in cells]


def workload_apps(workload: str) -> list[str]:
    return sorted({spec.app for spec in workload_specs(workload)})


def parse_seed(text: str):
    """``default`` (the generators' own seeds) or a non-negative int."""
    if text == "default":
        return "default"
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def generate(app: str, seed):
    from repro.workloads import generate_workload

    if seed == "default":
        return generate_workload(app, SCALE)
    return generate_workload(app, SCALE, seed=seed)


def digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of ``RunResult.to_dict()``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def expected_digest(reference: dict, mode: str) -> str:
    """Digest a correct replay in *mode* has, given the reference's payload.

    A checked replay must return the reference's statistics and report
    zero invariant violations; the checker only observes the run.
    """
    if mode != "checked":
        return digest(reference)
    payload = json.loads(json.dumps(reference))
    payload["extra"]["invariant_violations"] = 0
    return digest(payload)


def committed_digests(seed, workload: str) -> dict | None:
    """Reference digests committed for *seed*, or ``None``."""
    with open(DIGESTS) as fh:
        table = json.load(fh)
    if table["scale"] != SCALE:
        raise ValueError(f"{DIGESTS.name} was made at another scale")
    return table["seeds"].get(str(seed), {}).get(workload)


def run_cell(spec, trace_store, tracer, mode: str = "auto"):
    """Replay one cell through the layers; returns ``(result, payload)``.

    The calls ``RunSpec.execute`` makes, each wrapped in a span: fetch
    the traces through the trace cache, build the engine (which builds
    the machine), attach the checker in ``checked`` mode, run, serialise.
    ``reference`` mode selects the reference loop with ``slow_path=True``;
    the other modes leave the engine on its default substrate.
    """
    from repro.check import InvariantChecker
    from repro.harness.experiment import scaled_policy
    from repro.runtime import fetch_traces
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine

    names = SPAN_NAMES[mode]
    with tracer.span("tracecache.fetch"):
        traces = fetch_traces(spec.app, spec.scale, store=trace_store)
    with tracer.span(names["build"]):
        config = SystemConfig(n_nodes=traces.n_nodes,
                              memory_pressure=spec.pressure)
        engine = Engine(traces, scaled_policy(spec.arch), config=config,
                        slow_path=True if mode == "reference" else None)
    checker = None
    if mode == "checked":
        with tracer.span("check.attach"):
            checker = InvariantChecker.attach(engine)
    try:
        with tracer.span(names["run"]):
            result = engine.run()
    finally:
        if checker is not None:
            checker.detach()
    with tracer.span(names["to_dict"]):
        payload = result.to_dict()
    return result, payload


# -- set-up ---------------------------------------------------------------

def import_layers() -> bool:
    """Import every module the benchmark drives; load the kernel."""
    import repro  # noqa: F401
    import repro.check  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.sim.soatrace import vector_available

    return vector_available()


def probe(workload: str, seed, trace_dir: str, traced: bool) -> dict:
    """One set-up: import, load the kernel, generate and store traces.

    Runs first thing in a fresh interpreter, so the import is cold.
    """
    tracer = Tracer() if traced else NULL_TRACER
    before = calibrate()
    start = time.perf_counter()
    with tracer.span("setup.import"):
        if not import_layers():
            raise RuntimeError("the replay kernel did not load")
    from repro.runtime import TraceStore

    store = TraceStore(trace_dir)
    for app in workload_apps(workload):
        with tracer.span("workloads.generate"):
            traces = generate(app, seed)
        with tracer.span("trace.soa"):
            traces.soa()
        with tracer.span("tracecache.put"):
            store.put(app, SCALE, traces)
    host_s = time.perf_counter() - start
    factor = speed(before, calibrate())
    layers = {}
    if traced:
        totals = layer_totals(tracer, {None: factor})
        layers = {f"{name}_s": totals[name] for name in
                  ("workloads.generate", "trace.soa", "tracecache.put")}
    return {"setup_s": host_s * factor, "layers": layers,
            "spans": tracer.spans if traced else []}


# -- passes ---------------------------------------------------------------

def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def timed_pass(specs, trace_store, tracer, mode: str, tmp: str) -> dict:
    """One pass: the cells run one at a time, as ``execute_spec`` runs them.

    A default-substrate cell looks itself up in a fresh result store (a
    miss), replays, and stores its result; a checked cell bypasses the
    store, as checked runs do.  The host speed is calibrated between
    cells, and each cell's time is scaled by the speed on either side.
    """
    from repro.runtime import RunStore, clear_trace_memo

    clear_trace_memo()
    store = (RunStore(tempfile.mkdtemp(dir=tmp, prefix="store"))
             if mode == "auto" else None)
    latencies, cells, host_s = [], {}, 0.0
    cal = calibrate()
    for spec in specs:
        key = tracer.cell = cell_key(spec)
        start = time.perf_counter()
        try:
            if store is not None:
                with tracer.span("store.get"):
                    store.get(spec)
            result, payload = run_cell(spec, trace_store, tracer, mode)
            if store is not None:
                with tracer.span("store.put"):
                    store.put(spec, result)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted
            print(f"cell {key} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            payload = None
        elapsed = time.perf_counter() - start
        after = calibrate()
        latencies.append(elapsed * speed(cal, after))
        host_s += elapsed
        cal = after
        cells[key] = payload
    tracer.cell = None
    if store is not None:
        shutil.rmtree(store.root, ignore_errors=True)
    return {"wall": sum(latencies), "host_s": host_s, "latencies": latencies,
            "cells": cells}


def executor_pass(specs, trace_store, tracer, mode: str, tmp: str) -> dict:
    """The cells through ``repro.runtime.execute`` with a worker pool.

    The private trace store is installed as the ambient one, so the
    parent and its workers resolve the seeded traces under the keys
    ``execute`` looks up.
    """
    from repro.runtime import (RunFailure, RunStore, clear_trace_memo, execute,
                               use_trace_store)

    clear_trace_memo()
    store = RunStore(tempfile.mkdtemp(dir=tmp, prefix="store"))
    start = time.perf_counter()
    with tracer.span("executor.execute"), use_trace_store(trace_store):
        outcomes = execute(specs, store=store, refresh=False, parallel=True,
                           max_workers=WORKERS, check=mode == "checked")
    host_s = time.perf_counter() - start
    shutil.rmtree(store.root, ignore_errors=True)
    cells = {}
    for spec in specs:
        outcome = outcomes.get(spec)
        ok = outcome is not None and not isinstance(outcome, RunFailure)
        cells[cell_key(spec)] = outcome.to_dict() if ok else None
    return {"host_s": host_s, "cells": cells}


def layer_pass(specs, trace_store, tracer, mode: str, tmp: str) -> dict:
    """Every cell once, inline, through every layer, with spans.

    Each cell replays on the default substrate (and goes through the
    result store), on the reference substrate, and under the checker.
    A cell fails when its stored result reads back differently, the two
    substrates disagree, or the checker reports a violation.  Returns
    the reference payloads, the failed cells, per-cell speed factors,
    the host time of each cell's replay in the workload's *mode*, and
    the simulated page-management counts.
    """
    from repro.runtime import RunStore, clear_trace_memo

    clear_trace_memo()
    store = RunStore(tempfile.mkdtemp(dir=tmp, prefix="layers"))
    out = {"reference": {}, "failed": [], "factors": {None: 1.0},
           "cell_host_s": {}, "violations": 0, "store_mismatches": 0,
           "counts": dict.fromkeys(("page_faults", "evictions", "relocations",
                                    "daemon_runs", "lines_flushed"), 0)}
    cal = calibrate()
    for spec in specs:
        key = tracer.cell = cell_key(spec)
        start = time.perf_counter()
        result, payload = run_cell(spec, trace_store, tracer, "auto")
        with tracer.span("store.put"):
            store.put(spec, result)
        auto_s = time.perf_counter() - start
        with tracer.span("store.get"):
            stored = store.get(spec)
        store_bad = stored is None or stored.to_dict() != payload
        out["store_mismatches"] += store_bad
        agg = result.aggregate()
        for name in out["counts"]:
            out["counts"][name] += getattr(agg, name)
        _ref, reference = run_cell(spec, trace_store, tracer, "reference")
        out["reference"][key] = reference
        start = time.perf_counter()
        checked, _payload = run_cell(spec, trace_store, tracer, "checked")
        checked_s = time.perf_counter() - start
        violations = checked.invariant_violations or 0
        out["violations"] += violations
        out["cell_host_s"][key] = checked_s if mode == "checked" else auto_s
        if store_bad or violations or digest(payload) != digest(reference):
            out["failed"].append(key)
            print(f"cell {key}: store read-back {'differs' if store_bad else 'ok'},"
                  f" substrates {'agree' if payload == reference else 'differ'},"
                  f" {violations} invariant violation(s)", file=sys.stderr)
        after = calibrate()
        out["factors"][key] = speed(cal, after)
        cal = after
    tracer.cell = None
    shutil.rmtree(store.root, ignore_errors=True)
    return out


# -- measurement ----------------------------------------------------------

def tail(samples: list[float]) -> float:
    """Highest value with ``TAIL_ABOVE`` samples above it (max if fewer)."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_ABOVE - 1
    return ordered[rank] if rank >= 0 else ordered[-1]


def peak_rss_mib() -> float:
    """Peak RSS of this process or of any of its (pool worker) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def count_failures(records: list[dict], expected: dict) -> dict:
    """Cells that raised, mismatched their digest or reported violations."""
    attempted = failed = raised = 0
    for cells in records:
        for key, payload in cells.items():
            attempted += 1
            if payload is None:
                raised += 1
                failed += 1
                continue
            bad = digest(payload) != expected.get(key)
            found = payload["extra"].get("invariant_violations") or 0
            if bad or found:
                failed += 1
                print(f"cell {key}: digest {'mismatch' if bad else 'ok'},"
                      f" {found} invariant violation(s)", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "raised": raised}


def measure(workload: str, seed, seconds: float, traced: bool,
            trace_dir: str, tmp: str) -> dict:
    """Timed passes, correctness check and (traced) the layer metrics."""
    from repro.runtime import TraceStore, fetch_traces

    if not import_layers():
        raise RuntimeError("the replay kernel did not load")
    specs = workload_specs(workload)
    mode = WORKLOADS[workload]
    trace_store = TraceStore(trace_dir)
    tracer = Tracer() if traced else NULL_TRACER
    events = {app: sum(len(t) for t in
                       fetch_traces(app, SCALE, store=trace_store).traces)
              for app in workload_apps(workload)}
    pass_events = sum(events[spec.app] for spec in specs)

    count = pass_count(workload, seconds)
    passes: dict[bool, list] = {False: [], True: []}
    for _ in range(math.ceil(count / 2) if traced else count):
        passes[False].append(timed_pass(specs, trace_store, NULL_TRACER,
                                        mode, tmp))
        if traced:
            tracer.round += 1
            passes[True].append(timed_pass(specs, trace_store, tracer,
                                           mode, tmp))
    rss = peak_rss_mib()

    records = [p["cells"] for p in passes[False] + passes[True]]
    layers = executed = None
    if traced:
        tracer.round = -1
        executed = executor_pass(specs, trace_store, tracer, mode, tmp)
        layers = layer_pass(specs, trace_store, tracer, mode, tmp)
        records.append(executed["cells"])

    expected = committed_digests(seed, workload)
    source = "committed"
    if expected is None:
        source = "reference substrate, this run"
        reference = (layers["reference"] if layers is not None else
                     {cell_key(spec): run_cell(spec, trace_store, NULL_TRACER,
                                               "reference")[1]
                      for spec in specs})
        expected = {key: expected_digest(payload, mode)
                    for key, payload in reference.items()}
    counted = count_failures(records, expected)
    if layers is not None:
        counted["attempted"] += len(specs)
        counted["failed"] += len(layers["failed"])

    walls = [p["wall"] for p in passes[False]]
    latencies = [x for p in passes[False] for x in p["latencies"]]
    wall = statistics.median(walls)
    failed_frac = counted["failed"] / counted["attempted"]
    metrics = {
        "wall_s": (wall, "s"),
        "events_per_s": (statistics.median(pass_events / w for w in walls),
                         "1/s"),
        "cell_p50_s": (statistics.median(latencies), "s"),
        "cell_tail_s": (tail(latencies), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "ok_frac": (1.0 - failed_frac, "ratio"),
    }
    info = {"passes": len(walls),
            "host_wall_s": statistics.median(p["host_s"] for p in passes[False]),
            "cell_samples": len(latencies),
            "tail_rank": max(len(latencies) - TAIL_ABOVE - 1, 0),
            "failed_frac": failed_frac, "digests": source}
    out = {"correct": counted["failed"] == 0,
           "attempted": counted["attempted"], "failed": counted["failed"],
           "metrics": metrics, "info": info}
    if traced:
        traced_wall = statistics.median(p["wall"] for p in passes[True])
        out["layers"] = layer_metrics(
            tracer, layers, executed, pass_events, wall, traced_wall,
            counted["raised"])
        out["spans"] = tracer.spans
    return out


def layer_metrics(tracer, layers, executed, pass_events, wall, traced_wall,
                  raised) -> dict:
    """Per-layer metrics from the layer pass, executor pass and passes."""
    totals = layer_totals(tracer, layers["factors"], rounds={-1})
    per_cell: dict[tuple, float] = {}
    for rec, self_s in tracer.self_times():
        if rec["round"] == -1:
            key = (rec["cell"], rec["name"])
            per_cell[key] = per_cell.get(key, 0.0) + self_s
    ratios = [per_cell[(cell, "engine.run")] / per_cell[(cell, "engine.run_ref")]
              for cell in layers["cell_host_s"]]
    # Longest-processing-time bound on the pool's makespan, from the
    # cells' inline host times, over the pool's measured makespan.
    cells = list(layers["cell_host_s"].values())
    lpt_bound = max(sum(cells) / WORKERS, max(cells))
    run_s = totals["engine.run"]
    counts = layers["counts"]
    page_ops = (counts["page_faults"] + counts["evictions"]
                + counts["relocations"] + counts["daemon_runs"])
    failures = sum(1 for payload in executed["cells"].values() if payload is None)
    return {
        "tracecache.fetch_s": (totals["tracecache.fetch"], "s"),
        "engine.build_s": (totals["engine.build"], "s"),
        "engine.run_s": (run_s, "s"),
        "engine.events_per_s": (pass_events / run_s, "1/s"),
        "engine.run_ref_s": (totals["engine.run_ref"], "s"),
        "engine.auto_over_ref": (max(ratios), "x"),
        **{f"kernel.{name}": (value, "count") for name, value in counts.items()},
        "engine.us_per_page_op": (1e6 * run_s / max(page_ops, 1), "us"),
        "check.run_s": (totals["check.run"], "s"),
        "check.overhead_x": (totals["check.run"] / run_s, "x"),
        "check.violations": (layers["violations"], "count"),
        "stats.to_dict_s": (totals["stats.to_dict"], "s"),
        "store.put_s": (totals["store.put"], "s"),
        "store.get_s": (totals["store.get"], "s"),
        "executor.efficiency": (lpt_bound / executed["host_s"], "ratio"),
        "executor.failures": (failures + raised + layers["store_mismatches"],
                              "count"),
        "bench.tracing_overhead_x": (traced_wall / wall, "x"),
    }


# -- subprocess entry -----------------------------------------------------

def _main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="bench.py")
    parser.add_argument("mode", choices=("build", "probe", "measure"))
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=parse_seed, default="default")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traces", help="private trace store directory")
    parser.add_argument("--tmp", help="private scratch directory")
    args = parser.parse_args(argv)
    if args.mode == "build":
        return 0 if import_layers() else 1
    if args.mode == "probe":
        out = probe(args.workload, args.seed, args.traces, bool(args.trace))
    else:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.traces, args.tmp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
