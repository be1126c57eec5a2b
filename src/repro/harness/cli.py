"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table N``            regenerate paper Table N (1-6)
``figure APP``         regenerate the Figure 2/3 charts for one app
``run APP ARCH``       one simulation, summary printed
``sweep APP``          pressure sweep for one app across architectures
``matrix``             the whole evaluation matrix, parallel + resumable
``claims``             run the paper-claim scorecard
``bench``              run the repro.perf microbenchmark suite
``check APP ARCH``     one run under the online invariant checker
``hotpages APP ARCH``  hot-page report after one run
``analyze APP``        workload characterisation (tracestats)
``store ACTION``       inspect/clear the result and trace stores
                       (info|list|clear|trace-info|trace-list|trace-clear)
``obs ACTION``         inspect recorded run telemetry
                       (summary|timeline|export)
``ingest PATH``        register an external trace file as a workload
``sample-report``      sampled-vs-full error analysis (committed configs)

Every command accepts ``--scale`` (workload scale, default 0.5).

Sampling & external traces
--------------------------
``run``/``matrix`` accept ``--sample-rate K`` (keep every K-th barrier
epoch; ``--sample-unit visit|ref`` for barrier-poor traces),
``--sample-pages F`` (keep a hash-selected page fraction) and
``--sample-seed``.  Sampling parameters are part of the spec hash, so
sampled and full runs never share store entries; summaries report the
raw sampled metrics plus scale-up estimates (see ``docs/sampling.md``).
``repro ingest FILE`` converts an external trace (CSV
``time,node,addr,op`` or a Cydonia-style block trace) into a
store-backed workload and prints the ``ext/<name>@<hash>`` app id that
``run`` then accepts in place of a generated app name.

Caching
-------
Simulation-backed commands go through the runtime layer
(:mod:`repro.runtime`): results are cached content-addressed under
``--store-dir`` (default ``results/store``, or ``$REPRO_STORE_DIR``),
so re-rendering a table or figure is a disk read, not a re-simulation.
``--no-cache`` disables the store for one invocation; ``--refresh``
re-simulates and overwrites cached cells.  ``repro store clear`` wipes
the cache; see ``docs/runtime.md`` for the invalidation rules.

Generated workload traces are cached the same way under
``--trace-dir`` (default ``results/traces``, or ``$REPRO_TRACE_DIR``),
so a fresh invocation loads each workload from disk instead of
regenerating it and warm pool workers share one copy per process.
``--no-trace-cache`` disables the trace store for one invocation;
``repro store trace-clear`` wipes it.  Trace entries invalidate
automatically on :data:`~repro.sim.trace.TRACE_FORMAT_VERSION` bumps.

Telemetry
---------
``--obs`` on ``run``/``matrix`` (or ``REPRO_OBS=1``; ``--no-obs``
overrides the env var) records one JSONL telemetry run — executor
spans plus the adaptive-backoff time series — under ``--obs-dir``
(default ``results/obs``, or ``$REPRO_OBS_DIR``).  ``repro obs
summary|timeline|export`` inspect the recorded runs; see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AS-COMA reproduction: tables, figures and simulations")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (default 0.5)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result store")
    parser.add_argument("--refresh", action="store_true",
                        help="re-simulate cached cells (and re-store them)")
    parser.add_argument("--store-dir",
                        default=os.environ.get("REPRO_STORE_DIR",
                                               "results/store"),
                        help="result store directory"
                             " (default results/store or $REPRO_STORE_DIR)")
    parser.add_argument("--no-trace-cache", action="store_true",
                        help="disable the on-disk workload trace cache")
    parser.add_argument("--trace-dir",
                        default=os.environ.get("REPRO_TRACE_DIR",
                                               "results/traces"),
                        help="workload trace cache directory"
                             " (default results/traces or $REPRO_TRACE_DIR)")
    parser.add_argument("--obs-dir", default=None,
                        help="run-telemetry directory"
                             " (default results/obs or $REPRO_OBS_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p) -> None:
        p.add_argument("--obs", action="store_true",
                       help="record run telemetry (executor spans + backoff"
                            " time series) under --obs-dir")
        p.add_argument("--no-obs", action="store_true",
                       help="disable telemetry even if REPRO_OBS=1")

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=range(1, 7))

    p = sub.add_parser("figure", help="regenerate one app's Figure 2/3 charts")
    p.add_argument("app")

    def add_sample_flags(p) -> None:
        p.add_argument("--sample-rate", type=int, default=1, metavar="K",
                       help="keep every K-th sampling unit of the trace"
                            " (default 1 = full trace; part of the spec"
                            " hash)")
        p.add_argument("--sample-pages", type=float, default=1.0,
                       metavar="F",
                       help="keep references to a hash-selected fraction"
                            " F of the shared pages, rescaling page pools"
                            " to match (default 1.0)")
        p.add_argument("--sample-seed", type=int, default=0,
                       help="seed for the sampling phase/page hashes"
                            " (default 0)")
        p.add_argument("--sample-unit", choices=("sweep", "visit", "ref"),
                       default="sweep",
                       help="rate-sampling granularity: barrier epochs"
                            " (default; regime-preserving), page visits,"
                            " or raw references (see docs/sampling.md)")

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("app")
    p.add_argument("arch")
    p.add_argument("--pressure", type=float, default=0.7)
    p.add_argument("--quantum", type=int, default=None,
                   help="scheduling quantum in cycles (default: engine"
                        " default; part of the result-store key)")
    p.add_argument("--check", action="store_true",
                   help="attach the online invariant checker"
                        " (bypasses the result store)")
    add_sample_flags(p)
    add_obs_flags(p)

    p = sub.add_parser("sweep", help="pressure sweep for one app")
    p.add_argument("app")

    p = sub.add_parser("matrix",
                       help="run the full evaluation matrix (resumable)")
    p.add_argument("--apps", help="comma-separated app subset (default: all)")
    p.add_argument("--serial", action="store_true",
                   help="run inline instead of over a process pool")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: one per cell, capped"
                        " at the CPU count)")
    p.add_argument("--retries", type=int, default=0,
                   help="per-cell retry attempts on failure")
    p.add_argument("--quantum", type=int, default=None,
                   help="scheduling quantum for every cell (default:"
                        " engine default; part of the result-store key)")
    p.add_argument("--check", action="store_true",
                   help="attach the online invariant checker to every"
                        " cell (bypasses the result store)")
    add_sample_flags(p)
    add_obs_flags(p)

    p = sub.add_parser("ingest",
                       help="register an external trace file as a"
                            " store-backed workload")
    p.add_argument("path", help="trace file to ingest")
    p.add_argument("--format", choices=("csv", "cydonia"), default="csv",
                   help="input layout: 'csv' is time,node,addr,op[,size];"
                        " 'cydonia' is a Cydonia-style block trace"
                        " (ts,lba,op,size) sharded over --nodes by page"
                        " hash (default csv)")
    p.add_argument("--name", default=None,
                   help="workload name (default: the file stem);"
                        " registered as ext/<name>@<content-hash>")
    p.add_argument("--nodes", type=int, default=None,
                   help="node count for formats without a node column"
                        " (cydonia; default 8)")
    p.add_argument("--barriers", type=int, default=1,
                   help="global barriers to insert at time quantiles"
                        " (default 1, i.e. one epoch)")
    p.add_argument("--cycles-per-time", type=float, default=0.0,
                   help="convert inter-reference time gaps into COMPUTE"
                        " cycles at this rate (default 0 = no compute)")
    p.add_argument("--block-bytes", type=int, default=512,
                   help="LBA block size for cydonia traces (default 512)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the cydonia node-sharding hash")

    p = sub.add_parser("sample-report",
                       help="measure sampled-vs-full estimator error on"
                            " the committed analysis configs")
    p.add_argument("--app", default=None,
                   help="measure one ad-hoc cell instead of the"
                        " committed configs (requires --arch)")
    p.add_argument("--arch", default=None)
    p.add_argument("--pressure", type=float, default=0.9)
    p.add_argument("--rate", type=int, default=4)
    p.add_argument("--pages", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit", choices=("sweep", "visit", "ref"),
                   default="sweep")

    sub.add_parser("claims", help="paper-claim scorecard")

    p = sub.add_parser("bench",
                       help="run the repro.perf microbenchmark suite")
    p.add_argument("--repeats", type=int, default=3,
                   help="repeats per benchmark, best-of reported"
                        " (default 3)")
    p.add_argument("--only", default=None,
                   help="run only benchmarks whose name contains this"
                        " substring")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write the results as JSON (e.g. BENCH_pr3.json)")
    p.add_argument("--baseline", default=None, metavar="JSON",
                   help="previous BENCH_*.json: embed it and report"
                        " speedups against it")

    p = sub.add_parser("check",
                       help="run one simulation under the online invariant"
                            " checker; nonzero exit on violations")
    p.add_argument("app")
    p.add_argument("arch")
    p.add_argument("--pressure", type=float, default=0.7)
    p.add_argument("--granularity", choices=("event", "barrier"),
                   default="event",
                   help="structural-sweep cadence (default: event, the"
                        " precise-but-slow mode)")
    p.add_argument("--bundle-dir", default=None,
                   help="write a failure-replay bundle here on violation")
    p.add_argument("--minimise", action="store_true",
                   help="delta-debug the failing trace to a minimal one"
                        " (requires --bundle-dir)")
    p.add_argument("--inject-skip-invalidate", type=int, default=-1,
                   metavar="NODE",
                   help="deliberately drop invalidations to NODE (checker"
                        " self-test; see SystemConfig.debug_skip_invalidate_node)")

    p = sub.add_parser("hotpages", help="hot-page report after one run")
    p.add_argument("app")
    p.add_argument("arch")
    p.add_argument("--pressure", type=float, default=0.7)

    p = sub.add_parser("analyze", help="characterise a workload")
    p.add_argument("app")

    p = sub.add_parser("store",
                       help="inspect or clear the result / trace stores")
    p.add_argument("action", choices=("info", "list", "clear", "trace-info",
                                      "trace-list", "trace-clear"))

    p = sub.add_parser("obs", help="inspect recorded run telemetry")
    p.add_argument("action", choices=("summary", "timeline", "export"))
    p.add_argument("--run", default=None, metavar="ID",
                   help="telemetry run id or JSONL path (default: latest"
                        " run under --obs-dir)")
    p.add_argument("--cell", default=None, metavar="LABEL",
                   help="timeline: restrict to one cell (spec label"
                        " substring; default: busiest cell)")
    p.add_argument("--node", type=int, default=None,
                   help="timeline: restrict to one node's daemon rows")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="export format (default json)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="export: write here instead of stdout")

    return parser


def _cmd_table(args) -> str:
    from . import (render_table1, render_table2, render_table3,
                   render_table4, render_table5, render_table6)
    renderers = {1: render_table1, 2: render_table2, 3: render_table3,
                 4: render_table4}
    if args.number in renderers:
        return renderers[args.number]()
    if args.number == 5:
        return render_table5(args.scale)
    return render_table6(args.scale)


def _cmd_figure(args) -> str:
    from .figures import render_figure
    return render_figure(args.app, scale=args.scale)


def _run_summary(app: str, pressure: float, result) -> str:
    agg = result.aggregate()
    lines = [f"{app} / {result.architecture} at "
             f"{pressure:.0%} memory pressure:",
             f"  execution time : {result.execution_time():,} cycles",
             "  time breakdown : " + "  ".join(
                 f"{k}={v:,}" for k, v in agg.time_breakdown().items()),
             "  misses         : " + "  ".join(
                 f"{k}={v:,}" for k, v in agg.miss_breakdown().items()),
             f"  page mgmt      : {agg.relocations} relocations,"
             f" {agg.evictions} evictions, {agg.migrations} migrations,"
             f" {agg.daemon_runs} daemon runs"]
    if result.invariant_violations is not None:
        lines.append(f"  invariants     : {result.invariant_violations}"
                     " violation(s)")
    return "\n".join(lines)


def _sample_from_args(args):
    """The :class:`SampleSpec` described by ``--sample-*``, or ``None``."""
    from ..workloads.sample import SampleSpec
    return SampleSpec.from_any(SampleSpec(
        rate=args.sample_rate, pages=args.sample_pages,
        seed=args.sample_seed, unit=args.sample_unit))


def _sampled_summary(args, sample, result) -> str:
    """Run summary plus the scale-up estimates for a sampled cell."""
    from ..runtime.tracecache import fetch_traces
    from ..workloads.sample import estimated_metrics, sample_scale_factor
    text = _run_summary(args.app, args.pressure, result)
    factor = sample_scale_factor(
        fetch_traces(args.app, args.scale, sample=sample))
    est = estimated_metrics(result, sample, factor=factor)
    return text + (f"\n  sampled        : {sample.label() or 'full'}"
                   f" (scale-up x{factor:.2f}) -> estimated full trace:"
                   f" {est['cycles']:,.0f} cycles,"
                   f" Toverhead {est['toverhead']:,.0f},"
                   f" {est['remaps']:,.0f} remap(s)")


def _cmd_run(args) -> str:
    from .experiment import run_app
    sample = _sample_from_args(args)
    result = run_app(args.app, args.arch, args.pressure, scale=args.scale,
                     check=args.check, quantum=args.quantum, sample=sample)
    if sample is not None:
        return _sampled_summary(args, sample, result)
    return _run_summary(args.app, args.pressure, result)


def _cmd_sweep(args) -> str:
    from .experiment import APP_PRESSURES, ARCHITECTURES, run_pressure_sweep
    from .report import format_table
    pressures = APP_PRESSURES.get(args.app, (0.1, 0.5, 0.9))
    # One sweep call: CC-NUMA (pressure-insensitive) is simulated once
    # for the baseline, not re-run at every pressure point.
    results = run_pressure_sweep(args.app, pressures=pressures,
                                 scale=args.scale)
    baseline = results[("CCNUMA", None)].aggregate().total_cycles()
    rows = []
    for arch in ARCHITECTURES:
        row = [arch]
        for pressure in pressures:
            result = (results[("CCNUMA", None)] if arch == "CCNUMA"
                      else results[(arch, pressure)])
            row.append(f"{result.aggregate().total_cycles() / baseline:.2f}")
        rows.append(row)
    headers = ["Architecture"] + [f"{p:.0%}" for p in pressures]
    return format_table(headers, rows,
                        title=f"{args.app}: execution time relative to"
                              " CC-NUMA at the lowest pressure")


def _cmd_matrix(args):
    from ..runtime import RunFailure, execute, log_progress
    from .experiment import APP_PRESSURES
    from .parallel import matrix_specs
    from .report import format_table
    apps = tuple(a for a in args.apps.split(",") if a) if args.apps else None
    for app in apps or ():
        if app not in APP_PRESSURES:
            raise ValueError(f"unknown app {app!r};"
                             f" choose from {sorted(APP_PRESSURES)}")
    specs = matrix_specs(apps, args.scale, quantum=args.quantum,
                         sample=_sample_from_args(args))
    outcomes = execute(specs, parallel=not args.serial,
                       max_workers=args.workers, retries=args.retries,
                       progress=log_progress, check=args.check)
    failures = [o for o in outcomes.values() if isinstance(o, RunFailure)]
    violations = 0
    per_app: dict = {}
    for spec, outcome in outcomes.items():
        ok, bad = per_app.setdefault(spec.app, [0, 0])
        per_app[spec.app] = ([ok, bad + 1] if isinstance(outcome, RunFailure)
                             else [ok + 1, bad])
        if not isinstance(outcome, RunFailure):
            violations += outcome.invariant_violations or 0
    rows = [[app, ok, bad] for app, (ok, bad) in sorted(per_app.items())]
    text = format_table(["App", "Completed", "Failed"], rows,
                        title=f"Evaluation matrix at scale {args.scale:g}:"
                              f" {len(specs) - len(failures)}/{len(specs)}"
                              " cells completed")
    if args.check:
        text += (f"\n\ninvariant checking: {violations} violation(s) across"
                 f" {len(specs) - len(failures)} checked cell(s)")
    if failures:
        text += "\n\nfailed cells (re-run to resume just these):"
        for failure in failures:
            text += f"\n  {failure.label()}"
    return text, (1 if failures or violations else 0)


def _cmd_ingest(args) -> str:
    from ..runtime import get_default_trace_store
    from ..workloads.ingest import ingest_file, register_external
    store = get_default_trace_store()
    if store is None:
        raise ValueError("ingest needs the trace store;"
                         " drop --no-trace-cache")
    traces = ingest_file(args.path, fmt=args.format, name=args.name,
                         nodes=args.nodes, barriers=args.barriers,
                         cycles_per_time=args.cycles_per_time,
                         block_bytes=args.block_bytes, seed=args.seed)
    app_id = register_external(traces, store=store)
    events = sum(len(t) for t in traces.traces)
    refs = sum(t.shared_refs() for t in traces.traces)
    return (f"ingested {args.path} ({args.format}):"
            f" {traces.n_nodes} nodes, {events:,} events,"
            f" {refs:,} shared refs,"
            f" {traces.total_shared_pages} pages\n"
            f"registered as: {app_id}\n"
            f"run it with:   repro run '{app_id}' ASCOMA")


def _cmd_sample_report(args) -> str:
    from ..workloads.sample import (ERROR_BOUNDS, sampling_error,
                                    sampling_error_report)
    from .report import format_table
    if args.app:
        if not args.arch:
            raise ValueError("--app needs --arch")
        reports = [sampling_error(args.app, args.arch, args.pressure,
                                  args.scale, rate=args.rate,
                                  pages=args.pages, seed=args.seed,
                                  unit=args.unit)]
        title = "ad-hoc sampling error analysis"
    else:
        reports = sampling_error_report()
        title = ("committed sampling error analysis"
                 " (bounds: " + ", ".join(f"{k} {v:.0%}"
                                          for k, v in ERROR_BOUNDS.items())
                 + ")")
    rows = []
    exceeded = 0
    for r in reports:
        s = r["sample"]
        label = f"1/{s['rate']}{'' if s['unit'] == 'sweep' else s['unit'][0]}"
        if s["pages"] < 1:
            label += f" p{s['pages']:g}"
        ok = all(r["errors"][k] <= ERROR_BOUNDS[k] for k in ERROR_BOUNDS)
        exceeded += 0 if ok else 1
        rows.append([f"{r['app']}/{r['arch']}@{r['pressure']:.0%}"
                     f"(x{r['scale']:g})", label,
                     f"{r['scale_factor']:.2f}",
                     f"{r['errors']['cycles']:.1%}",
                     f"{r['errors']['toverhead']:.1%}",
                     f"{r['errors']['remaps']:.1%}",
                     "ok" if ok else "EXCEEDED"])
    text = format_table(
        ["Cell", "Sample", "Factor", "Cycles err", "Toverhead err",
         "Remaps err", "Bounds"], rows, title=title)
    return text, (1 if exceeded else 0)


def _cmd_check(args):
    from ..check import InvariantChecker, ReproBundle, shrink_bundle
    from ..sim.config import SystemConfig
    from ..sim.engine import Engine
    from ..workloads import generate_workload
    from .experiment import SCALED_POLICY_KWARGS, scaled_policy
    from ..runtime import canonical_arch
    wl = generate_workload(args.app, scale=args.scale)
    cfg = SystemConfig(
        n_nodes=wl.n_nodes, memory_pressure=args.pressure,
        debug_skip_invalidate_node=args.inject_skip_invalidate)
    engine = Engine(wl, scaled_policy(args.arch), cfg)
    checker = InvariantChecker.attach(engine, granularity=args.granularity)
    engine.run()
    lines = [f"{args.app} / {engine.policy.name} at"
             f" {args.pressure:.0%} memory pressure"
             f" ({args.granularity} granularity,"
             f" {checker.events_seen:,} events,"
             f" {checker.sweeps_run:,} sweeps):",
             checker.report()]
    if checker.violations and args.bundle_dir:
        arch_key = canonical_arch(args.arch)
        bundle = ReproBundle.capture(
            engine, checker, architecture=arch_key,
            policy_kwargs=SCALED_POLICY_KWARGS.get(arch_key, {}))
        bundle.save(args.bundle_dir)
        lines.append(f"replay bundle written to {args.bundle_dir}")
        if args.minimise:
            shrunk_wl = shrink_bundle(bundle)
            n_events = sum(len(t.kinds) for t in shrunk_wl.traces)
            shrunk_dir = os.path.join(args.bundle_dir, "minimised")
            ReproBundle(shrunk_wl, bundle.config, bundle.architecture,
                        bundle.policy_kwargs, violations=bundle.violations,
                        quantum=bundle.quantum,
                        granularity="event").save(shrunk_dir)
            lines.append(f"minimised to {n_events} event(s): {shrunk_dir}")
    elif args.minimise:
        lines.append("nothing to minimise"
                     + ("" if args.bundle_dir
                        else " (--minimise requires --bundle-dir)"))
    return "\n".join(lines), (1 if checker.violations else 0)


def _cmd_claims(args):
    from .claims import render_scorecard, validate_all
    claims = validate_all(scale=args.scale)
    failed = sum(not c.passed for c in claims)
    return render_scorecard(claims), (1 if failed else 0)


def _cmd_bench(args) -> str:
    import json as _json
    from ..perf import bench_payload, load_bench_json, run_suite
    results = run_suite(repeats=args.repeats, only=args.only)
    if not results:
        raise ValueError(f"no benchmark matches {args.only!r}")
    baseline = load_bench_json(args.baseline) if args.baseline else None
    payload = bench_payload(results, baseline=baseline)
    lines = [r.summary() for r in results]
    for name, speedup in payload.get("speedup_vs_baseline", {}).items():
        lines.append(f"{name}: {speedup:.2f}x vs baseline")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(f"wrote {args.out}")
    return "\n".join(lines)


def _cmd_hotpages(args) -> str:
    from ..sim.config import SystemConfig
    from ..sim.engine import Engine
    from ..workloads import generate_workload
    from .experiment import scaled_policy
    from .pagereport import render_hot_pages
    wl = generate_workload(args.app, scale=args.scale)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=args.pressure)
    engine = Engine(wl, scaled_policy(args.arch), cfg)
    engine.run()
    return render_hot_pages(engine)


def _cmd_analyze(args) -> str:
    from ..sim.config import SystemConfig
    from ..sim.tracestats import analyze
    from ..workloads import generate_workload
    wl = generate_workload(args.app, scale=args.scale)
    lpp = SystemConfig(n_nodes=wl.n_nodes).address_map().lines_per_page
    report = analyze(wl, lpp)
    lines = [f"{report['name']}: {report['n_nodes']} nodes,"
             f" H={report['home_pages_per_node']},"
             f" Rmax={report['max_remote_pages']},"
             f" ideal pressure {report['ideal_pressure']:.0%}",
             "sharing profile: " + ", ".join(
                 f"{k} nodes: {v} pages" for k, v in report["sharing"].items())]
    for s in report["nodes"]:
        lines.append(f"  node {s['node']}: {s['shared_refs']:,} refs,"
                     f" {s['remote_pages']} remote pages,"
                     f" median reuse {s['median_reuse_distance']:.0f}")
    return "\n".join(lines)


def _cmd_store(args) -> str:
    from ..runtime import RunStore, get_default_store
    if args.action.startswith("trace-"):
        return _cmd_trace_store(args)
    store = get_default_store() or RunStore(args.store_dir)
    if args.action == "clear":
        removed = store.clear()
        return f"removed {removed} artifact(s) from {store.root}"
    if args.action == "list":
        entries = store.entries()
        if not entries:
            return f"store at {store.root} is empty"
        lines = [f"store at {store.root}: {len(entries)} artifact(s)"]
        for entry in entries:
            spec = entry["spec"]
            lines.append(f"  {entry['spec_hash']}  {spec.get('app')}"
                         f"/{spec.get('arch')}@{spec.get('pressure')}"
                         f" x{spec.get('scale')}")
        return "\n".join(lines)
    info = store.describe()
    session = info.pop("session")
    lines = [f"{key}: {value}" for key, value in info.items()]
    lines.append("session: " + ", ".join(f"{k}={v}"
                                         for k, v in session.items()))
    return "\n".join(lines)


def _cmd_trace_store(args) -> str:
    from ..runtime import TraceStore, get_default_trace_store
    store = get_default_trace_store() or TraceStore(args.trace_dir)
    if args.action == "trace-clear":
        removed = store.clear()
        return f"removed {removed} trace artifact(s) from {store.root}"
    if args.action == "trace-list":
        entries = store.entries()
        if not entries:
            return f"trace store at {store.root} is empty"
        lines = [f"trace store at {store.root}: {len(entries)} artifact(s)"]
        for entry in entries:
            lines.append(f"  {entry['file']}  {entry['name']}"
                         f" ({entry['n_nodes']} nodes,"
                         f" {entry['events']:,} events,"
                         f" {entry['bytes']:,} bytes,"
                         f" hash {entry['content_hash']})")
        return "\n".join(lines)
    info = store.describe()
    session = info.pop("session")
    lines = [f"{key}: {value}" for key, value in info.items()]
    lines.append("session: " + ", ".join(f"{k}={v}"
                                         for k, v in session.items()))
    return "\n".join(lines)


def _cmd_obs(args) -> str:
    from ..obs import (backoff_specs, export_records, read_records,
                       render_summary, render_timeline, resolve_run_path)
    path = resolve_run_path(args.run, args.obs_dir)
    records = read_records(path)
    if args.action == "summary":
        return render_summary(records, run_name=path.stem)
    if args.action == "timeline":
        spec = None
        if args.cell:
            matches = [s for s in backoff_specs(records) if args.cell in s]
            if not matches:
                raise ValueError(
                    f"no backoff telemetry for a cell matching"
                    f" {args.cell!r} in {path.name}")
            spec = matches[0]
        return render_timeline(records, spec=spec, node=args.node)
    text = export_records(records, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        return f"exported {len(records)} record(s) to {args.out}"
    return text


_COMMANDS = {
    "table": _cmd_table,
    "figure": _cmd_figure,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "matrix": _cmd_matrix,
    "ingest": _cmd_ingest,
    "sample-report": _cmd_sample_report,
    "claims": _cmd_claims,
    "bench": _cmd_bench,
    "check": _cmd_check,
    "hotpages": _cmd_hotpages,
    "analyze": _cmd_analyze,
    "store": _cmd_store,
    "obs": _cmd_obs,
}


def _make_recorder(args):
    """The per-invocation telemetry recorder, or ``None`` when off.

    ``--obs`` turns telemetry on for commands that grew the flag
    (``run``/``matrix``); ``REPRO_OBS=1`` does the same without editing
    scripts, and ``--no-obs`` wins over the environment.
    """
    if not hasattr(args, "obs"):  # command has no telemetry surface
        return None
    obs_on = args.obs or os.environ.get("REPRO_OBS") == "1"
    if args.no_obs or not obs_on:
        return None
    from ..obs import ObsSink, SpanRecorder
    recorder = SpanRecorder(ObsSink(args.obs_dir))
    recorder.emit("meta", command=args.command, scale=args.scale)
    return recorder


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from ..obs import use_obs
    from ..runtime import RunStore, TraceStore, use_store, use_trace_store
    store = None if args.no_cache else RunStore(args.store_dir)
    trace_store = (None if args.no_trace_cache
                   else TraceStore(args.trace_dir))
    recorder = _make_recorder(args)
    try:
        with use_store(store, refresh=args.refresh), \
                use_trace_store(trace_store), use_obs(recorder):
            output = _COMMANDS[args.command](args)
    except (ValueError, OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            sink = recorder.sink
            sink.close()
            print(f"telemetry: {sink.path}"
                  f" ({sink.records_written} records)", file=sys.stderr)
    code = 0
    if isinstance(output, tuple):
        output, code = output
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
