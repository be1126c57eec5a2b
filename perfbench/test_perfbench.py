"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ.setdefault("REPRO_VECTOR_CACHE",
                      str(ROOT / ".bench_build" / "perfbench" / "kernel"))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_layer_map():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layers + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(layers) == set(bench.LAYER_MAP)
    for name, (moves, workloads) in bench.LAYER_MAP.items():
        assert set(moves) <= set(e2e), name
        assert workloads and set(workloads) <= set(bench.WORKLOADS), name
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_does_not_import_the_program_perf_suite():
    banned = re.compile(r"^\s*(?:from|import)\s+(?:repro\.perf|benchmarks)\b",
                        re.M)
    for path in HERE.glob("*.py"):
        assert not banned.search(path.read_text()), path.name


def _store_with(tmp_path, apps, seed):
    from repro.runtime import TraceStore

    store = TraceStore(tmp_path / f"traces-{seed}")
    for app in apps:
        store.put(app, bench.SCALE, bench.generate(app, seed))
    return store


def test_perturbed_result_fails_the_digest_check(tmp_path):
    store = _store_with(tmp_path, ["fft"], "default")
    spec = bench.workload_specs("checked")[0]
    key = bench.cell_key(spec)
    expected = bench.committed_digests("default", "checked")
    _result, payload = bench.run_cell(spec, store, bench.NULL_TRACER, "checked")
    assert bench.count_failures([{key: payload}], expected)["failed"] == 0

    changed = json.loads(json.dumps(payload))
    changed["nodes"][0]["page_faults"] += 1
    assert bench.count_failures([{key: changed}], expected)["failed"] == 1

    violating = json.loads(json.dumps(payload))
    violating["extra"]["invariant_violations"] = 1
    assert bench.count_failures([{key: violating}], expected)["failed"] == 1
    assert bench.count_failures([{key: None}], expected)["raised"] == 1


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_slowing_only_the_slowest_cell_moves_the_tail(workload):
    passes = bench.pass_count(workload, SPEC["run_seconds"])
    cells = len(bench.workload_specs(workload))
    # Cell c takes 0.5 + 0.05 c s, with a 1% step of noise per pass; the
    # slowest cell is clear of the others.
    base = [0.5 + 0.05 * c + (0.3 if c == cells - 1 else 0.0)
            for c in range(cells)]

    def latencies(slowest_factor):
        return [base[c] * (1 + 0.01 * k)
                * (slowest_factor if c == cells - 1 else 1.0)
                for k in range(passes) for c in range(cells)]

    assert bench.tail(latencies(1.2)) > bench.tail(latencies(1.0)) * 1.1


def test_seed_decides_the_traces(tmp_path):
    def saved(seed, name):
        path = tmp_path / name
        bench.generate("radix", seed).save(str(path))
        return path.read_bytes()

    assert saved(5, "a") == saved(5, "b")
    assert saved(5, "a") != saved(6, "c")
    assert saved("default", "d") != saved(6, "c")


def test_committed_digests_cover_every_cell():
    table = json.loads(bench.DIGESTS.read_text())
    assert table["scale"] == bench.SCALE
    for seed, workloads in table["seeds"].items():
        for workload in bench.WORKLOADS:
            cells = {bench.cell_key(s) for s in bench.workload_specs(workload)}
            assert set(workloads[workload]) == cells, (seed, workload)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_pass(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "MIN_PASSES", 1)
    seed = 0
    probe = bench.probe(workload, seed, str(tmp_path / "traces"), traced=True)
    assert probe["setup_s"] > 0
    traced = workload == "checked"  # one traced smoke run is enough
    out = bench.measure(workload, seed, 0, traced, str(tmp_path / "traces"),
                        str(tmp_path))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) | {"setup_s"} == {
        m["name"] for m in SPEC["end_to_end"]}
    if traced:
        assert set(out["layers"]) | set(probe["layers"]) == {
            m["name"] for m in SPEC["per_layer"]}
        assert out["layers"]["check.violations"][0] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "thrash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
