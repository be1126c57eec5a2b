"""Continuous performance measurement for the replay engine.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; this package is how we know whether that is still
true.  It provides:

* :mod:`repro.perf.timing` -- ``Timer`` / ``BenchResult`` primitives
  (wall time, events/sec, peak RSS);
* :mod:`repro.perf.suite` -- the curated microbenchmark suite behind
  ``python -m repro bench`` and the committed ``BENCH_*.json``
  baselines at the repo root (``benchmarks/test_perf_regression.py``
  gates against them).

Methodology notes live in ``docs/performance.md``.  Every engine
optimisation the suite measures is pinned bit-identical to the
reference replay path by ``tests/test_perf_parity.py``.
"""

from .suite import (ALL_APPS, E2E_SCALE, MATRIX_CELLS, MICRO_SCALE,
                    bench_checker_overhead, bench_matrix_e2e,
                    bench_matrix_micro, bench_obs_overhead,
                    bench_single_cell,
                    bench_trace_generation, bench_trace_generation_cached,
                    bench_payload, load_bench_json, run_suite)
from .timing import BenchResult, Timer, peak_rss_kib, run_bench

__all__ = [
    "Timer",
    "BenchResult",
    "peak_rss_kib",
    "run_bench",
    "ALL_APPS",
    "E2E_SCALE",
    "MICRO_SCALE",
    "MATRIX_CELLS",
    "bench_single_cell",
    "bench_matrix_micro",
    "bench_matrix_e2e",
    "bench_trace_generation",
    "bench_trace_generation_cached",
    "bench_checker_overhead",
    "bench_obs_overhead",
    "run_suite",
    "bench_payload",
    "load_bench_json",
]
