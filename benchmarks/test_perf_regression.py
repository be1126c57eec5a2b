"""Continuous-benchmark regression gate against the committed baseline.

Compares fresh runs of the headline benchmarks -- ``matrix_micro``
(default-dispatch replay throughput, through the compiled kernel) and
``matrix_e2e`` (the full 90-cell parallel matrix) -- against the
numbers committed in ``BENCH_pr9.json`` at the repo root, and fails on
a >20% events/sec drop.  Hardware differences between the committing
machine and the test machine are real, so the gate is deliberately
loose -- it exists to catch order-of-magnitude regressions (a run
silently falling back to the reference loop, a per-event allocation
creeping back in, the trace cache silently missing), not single-digit
noise.

Hardware-independent self-checks back it up, all measured as
same-process ratios: a default-constructed engine must actually
dispatch into the kernel (the PR-9 vector-auto claim -- a silent
eligibility regression would otherwise keep every gate green while the
matrix quietly runs scalar), the default dispatch must replay each of
``DISPATCH_CELLS`` no slower than the reference loop, a trace-cache
hit must beat regeneration, and ``--obs`` telemetry must stay within
its budget.  Two artifact
checks pin the committed payload itself: the embedded baseline must be
the PR-8 payload and its recorded ``matrix_e2e`` speedup must hold the
>=2x acceptance claim, and a fresh ``matrix_e2e`` must clear an
absolute throughput floor chosen to sit between scalar-default PR-8
throughput and the vector-default number on the same hardware class.

Opt-in: wall-clock assertions are inherently flaky on loaded CI
runners, so these tests skip unless ``REPRO_PERF=1`` is set::

    REPRO_PERF=1 PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -v

They are additionally marked ``perf`` for selection via ``-m perf``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.perf import bench_matrix_micro, load_bench_json

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr9.json"

#: Fail below this fraction of the committed throughput.
FLOOR = 0.8

#: Minimum committed matrix_e2e speedup over the embedded PR-8
#: baseline -- the PR-9 acceptance claim, checked against the artifact
#: (both payloads were measured on the same machine and session, so
#: the ratio is hardware-comparable in a way fresh-vs-committed never
#: is).
E2E_CLAIM = 2.0

#: Absolute matrix_e2e throughput floor (events/sec) on a fresh run.
#: Calibrated to split the substrates on commodity hardware: the PR-8
#: scalar-default matrix ran at ~0.78M ev/s on a 1-core host and the
#: PR-9 vector-default matrix at ~2.2M ev/s on the same host, so 1.0M
#: passes vector-auto with >2x margin while an accidental whole-matrix
#: fallback to the scalar path lands below it.
E2E_ABS_FLOOR = 1_000_000

#: ``--obs`` overhead budget on the matrix micro slice.  The absolute
#: telemetry cost (spans + kind-filtered backoff rows + JSONL sink,
#: ~10ms on the slice) has not moved since the 1.02x era, but the
#: vector-default replay base under it is ~4x faster, so the same
#: work is a larger *fraction*; 1.10x keeps gating the failure mode
#: that matters (an unfiltered observer disabling kernel eligibility
#: costs 3-4x, not 10%).
OBS_BUDGET = 1.10

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(os.environ.get("REPRO_PERF", "") != "1",
                       reason="perf regression gate runs only with REPRO_PERF=1"),
]


@pytest.fixture(scope="module")
def payload() -> dict:
    if not BENCH_JSON.exists():
        pytest.skip(f"no committed benchmark file at {BENCH_JSON}")
    return load_bench_json(BENCH_JSON)


@pytest.fixture(scope="module")
def committed(payload) -> dict:
    return {r["name"]: r for r in payload["results"]}


def test_matrix_micro_throughput(committed):
    base = committed.get("matrix_micro")
    assert base, f"{BENCH_JSON.name} has no matrix_micro entry"
    fresh = bench_matrix_micro(repeats=3)
    # Same benchmark definition, or the comparison is meaningless.
    assert fresh.events == base["events"], (
        f"matrix_micro workload changed; regenerate {BENCH_JSON.name}")
    floor = FLOOR * base["events_per_sec"]
    assert fresh.events_per_sec >= floor, (
        f"matrix_micro regressed: {fresh.events_per_sec:,.0f} ev/s is below "
        f"{FLOOR:.0%} of the committed {base['events_per_sec']:,.0f} ev/s")


def test_matrix_e2e_throughput(committed):
    """End-to-end gate: trace cache + dispatch + engine, all at once,
    plus the absolute floor backing the PR-9 vector-default claim on
    this hardware class (see ``E2E_ABS_FLOOR``)."""
    from repro.perf import bench_matrix_e2e

    base = committed.get("matrix_e2e")
    assert base, f"{BENCH_JSON.name} has no matrix_e2e entry"
    fresh = bench_matrix_e2e(repeats=2)
    assert fresh.events == base["events"], (
        f"matrix_e2e cell set changed; regenerate {BENCH_JSON.name}")
    floor = FLOOR * base["events_per_sec"]
    assert fresh.events_per_sec >= floor, (
        f"matrix_e2e regressed: {fresh.events_per_sec:,.0f} ev/s is below "
        f"{FLOOR:.0%} of the committed {base['events_per_sec']:,.0f} ev/s")
    assert fresh.events_per_sec >= E2E_ABS_FLOOR, (
        f"matrix_e2e at {fresh.events_per_sec:,.0f} ev/s is below the "
        f"absolute {E2E_ABS_FLOOR:,} ev/s floor -- throughput in the "
        f"scalar-default range suggests the matrix is no longer replaying "
        f"through the vector kernel")


def test_committed_e2e_speedup_claim(payload):
    """Artifact check on the committed payload itself: the embedded
    baseline is the PR-8 payload and the recorded ``matrix_e2e``
    speedup holds the >=2x acceptance claim.  Both sides of that ratio
    were measured on the committing machine in one session, so unlike
    every fresh-vs-committed comparison above it does not loosen for
    hardware differences."""
    baseline = payload.get("baseline")
    assert baseline, f"{BENCH_JSON.name} embeds no baseline payload"
    base_e2e = {r["name"]: r for r in baseline["results"]}.get("matrix_e2e")
    assert base_e2e, f"{BENCH_JSON.name}'s embedded baseline has no matrix_e2e"
    speedup = payload["speedup_vs_baseline"].get("matrix_e2e")
    assert speedup is not None, (
        f"{BENCH_JSON.name} records no matrix_e2e speedup_vs_baseline")
    assert speedup >= E2E_CLAIM, (
        f"committed matrix_e2e speedup {speedup:.2f}x over the embedded "
        f"baseline ({base_e2e['wall_s']:.1f}s) is below the {E2E_CLAIM:.0f}x "
        f"claim; regenerate {BENCH_JSON.name} on a quiet machine or fix the "
        f"regression")


def test_vector_default_engages_kernel(monkeypatch):
    """Same-process self-check of the vector-auto default: a
    default-constructed :class:`Engine` (no flags, no environment
    overrides) must dispatch into the compiled kernel and complete
    without falling back.  The parity suites prove the kernel is
    *correct* when selected; only this test proves it is *selected* --
    an eligibility regression (or a dispatch typo) would otherwise
    degrade every default run to the scalar path silently, and the
    relative gates above would only notice after a committed-baseline
    refresh."""
    from repro.harness.experiment import get_workload, scaled_policy
    from repro.sim import soatrace
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine, default_slow_path

    monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
    assert not default_slow_path(), (
        "a clean environment must dispatch kernel-first")
    if not soatrace.vector_available():
        pytest.skip("compiled SoA kernel unavailable on this host")

    outcomes = []
    real_run_vector = soatrace.run_vector

    def probe(engine):
        result = real_run_vector(engine)
        outcomes.append(result)
        return result

    # Engine.run imports run_vector lazily from the module, so
    # patching the module attribute intercepts the dispatch.
    monkeypatch.setattr(soatrace, "run_vector", probe)
    wl = get_workload("fft", 0.05)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
    Engine(wl, scaled_policy("ASCOMA"), config=cfg).run()
    assert outcomes, "default-constructed Engine never reached run_vector"
    assert outcomes[0] is not None, (
        "run_vector fell back to the scalar path on a plain matrix cell; "
        "kernel eligibility has regressed")


def test_trace_cache_beats_regeneration():
    """Hardware-independent self-check of the tracegen_cached claim: a
    cache hit must be cheaper than regenerating the workload, measured
    in the same process (the cold wall is recorded in the bench's own
    meta)."""
    from repro.perf import bench_trace_generation_cached

    result = bench_trace_generation_cached("em3d", repeats=3)
    assert result.meta["speedup_x"] > 1.0, (
        f"trace-cache hit ({result.wall_s:.4f}s) is not faster than cold "
        f"generation ({result.meta['cold_wall_s']:.4f}s)")


def test_obs_overhead_within_budget():
    """The ``--obs`` budget from docs/observability.md: full telemetry
    (cell/simulate spans, kind-filtered backoff time series, JSONL
    sink) must stay within ``OBS_BUDGET`` wall-clock on the matrix
    micro slice.  Measured as a same-process ratio, so the gate is
    hardware independent; a failure means an instrumentation site
    leaked onto the hot path (most likely by subscribing an unfiltered
    observer, which disqualifies the run from the vector kernel)."""
    from repro.perf import bench_obs_overhead

    result = bench_obs_overhead(repeats=3)
    assert result.meta["overhead_x"] <= OBS_BUDGET, (
        f"--obs overhead {result.meta['overhead_x']:.3f}x exceeds the "
        f"{OBS_BUDGET:.2f}x budget (observed {result.wall_s:.4f}s vs plain "
        f"{result.meta['plain_wall_s']:.4f}s)")


#: Cells on which the default ``auto`` dispatch must not lose to the
#: reference loop (ROADMAP item 1: picking a slower substrate is a bug).
#: The five thrashing S-COMA cells -- where page faults and forced
#: evictions once made the kernel slower than both scalar loops -- plus
#: two kernel-friendly AS-COMA cells, all at scale 0.1.
DISPATCH_CELLS = (("radix", "SCOMA", 0.3), ("radix", "SCOMA", 0.7),
                  ("radix", "SCOMA", 0.9), ("barnes", "SCOMA", 0.7),
                  ("em3d", "SCOMA", 0.9), ("fft", "ASCOMA", 0.7),
                  ("ocean", "ASCOMA", 0.5))

#: Absolute slack on the auto-vs-reference comparison (timer noise on
#: cells the kernel replays in a few milliseconds).
DISPATCH_SLACK_S = 0.010


@pytest.mark.parametrize("app,arch,pressure", DISPATCH_CELLS)
def test_auto_dispatch_not_slower_than_reference(monkeypatch, app, arch,
                                                 pressure):
    """Same-process replay-time comparison, best of a few runs each:
    a default-constructed engine must replay the cell no slower than
    the reference loop, within ``DISPATCH_SLACK_S``."""
    import time

    from repro.harness.experiment import get_workload, scaled_policy
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine

    monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
    wl = get_workload(app, 0.1)
    wl.soa()  # decode once, outside both timings

    def replay_s(**kwargs):
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure)
        engine = Engine(wl, scaled_policy(arch), config=cfg, **kwargs)
        t0 = time.perf_counter()
        engine.run()
        return time.perf_counter() - t0

    auto = min(replay_s() for _ in range(3))
    reference = min(replay_s(slow_path=True) for _ in range(2))
    assert auto <= reference + DISPATCH_SLACK_S, (
        f"{app}/{arch}@{pressure:.0%}: auto dispatch replays in "
        f"{auto:.3f}s, slower than the reference loop's {reference:.3f}s")
