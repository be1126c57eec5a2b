"""Regenerate ``digests.json``, the benchmark's reference result digests.

    python3 perfbench/make_digests.py [--seeds default,0-31] [--jobs 2]

For each seed and each cell of each workload, the cell is replayed on
the reference substrate; the digest of its ``RunResult.to_dict()`` (with
``invariant_violations: 0`` added for checked cells) is the reference.
The cell is then replayed the way the workload replays it, on the
default substrate and under the checker for ``checked``, and the script
stops with an error unless both digests agree.  Run it only when
simulated results are meant to change, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_digests(seed) -> dict:
    """``{workload: {cell: digest}}`` for one seed; raises on disagreement."""
    import bench
    from repro.runtime import TraceStore

    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        for workload, mode in bench.WORKLOADS.items():
            store = TraceStore(tmp)
            for app in bench.workload_apps(workload):
                store.put(app, bench.SCALE, bench.generate(app, seed))
            digests = out[workload] = {}
            for spec in bench.workload_specs(workload):
                key = bench.cell_key(spec)
                _ref, reference = bench.run_cell(spec, store, bench.NULL_TRACER,
                                                 "reference")
                expected = bench.expected_digest(reference, mode)
                _res, payload = bench.run_cell(spec, store, bench.NULL_TRACER,
                                               mode)
                if bench.digest(payload) != expected:
                    raise SystemExit(f"seed {seed}, {workload} {key}: the"
                                     f" {mode} replay differs from the"
                                     " reference substrate")
                digests[key] = expected
    return out


def _parse_seeds(text: str) -> list:
    seeds: list = []
    for part in text.split(","):
        if part == "default":
            seeds.append("default")
        elif "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="default,0-31")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    os.environ["REPRO_VECTOR_CACHE"] = str(ROOT / ".bench_build" / "perfbench"
                                           / "kernel")
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    import bench

    seeds = _parse_seeds(args.seeds)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        results = pool.map(_seed_digests, seeds, chunksize=1)
    table = {"scale": bench.SCALE,
             "seeds": {str(seed): result for seed, result in zip(seeds, results)}}
    bench.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(seeds)} seeds to {bench.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
