"""Trace cache: bit-exactness, invalidation, scheduling, determinism.

The cache's contract is that it changes *when* traces are built, never
*what* is built: every test here either proves a cached workload is
bit-identical to a regenerated one, or proves that anything less
(corruption, stale format, foreign file) reads as a miss and falls
back to regeneration.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.trace as trace_mod
from repro.harness.experiment import get_workload
from repro.harness.parallel import run_cells
from repro.runtime import (RunSpec, TraceStore, clear_trace_memo,
                           fetch_traces, lpt_order, spec_cost,
                           submit_chunksize, trace_key, use_trace_store)

APP = "em3d"
SCALE = 0.2


def _store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces")


class TestTraceKey:
    def test_stable_across_calls(self):
        assert trace_key(APP, SCALE) == trace_key(APP, SCALE)

    def test_sensitive_to_inputs(self):
        baseline = trace_key(APP, SCALE)
        assert trace_key("fft", SCALE) != baseline
        assert trace_key(APP, 0.3) != baseline
        assert trace_key(APP, SCALE, seed=123) != baseline

    def test_sensitive_to_format_version(self, monkeypatch):
        baseline = trace_key(APP, SCALE)
        import repro.runtime.tracecache as tc
        monkeypatch.setattr(tc, "TRACE_FORMAT_VERSION",
                            trace_mod.TRACE_FORMAT_VERSION + 1)
        assert trace_key(APP, SCALE) != baseline


class TestBitExactness:
    def test_cached_equals_regenerated(self, tmp_path):
        """The acceptance-criterion test: disk round-trip is identical."""
        store = _store(tmp_path)
        generated = get_workload(APP, SCALE)
        store.put(APP, SCALE, generated)
        cached = store.get(APP, SCALE)
        assert cached is not None
        assert cached.name == generated.name
        assert cached.n_nodes == generated.n_nodes
        assert cached.home_pages_per_node == generated.home_pages_per_node
        assert cached.total_shared_pages == generated.total_shared_pages
        for cold, warm in zip(generated.traces, cached.traces):
            assert cold.kinds.dtype == warm.kinds.dtype
            assert cold.args.dtype == warm.args.dtype
            assert np.array_equal(cold.kinds, warm.kinds)
            assert np.array_equal(cold.args, warm.args)
        assert cached.content_hash() == generated.content_hash()

    def test_fetch_miss_generates_and_writes_back(self, tmp_path):
        store = _store(tmp_path)
        with use_trace_store(store):
            fetched = fetch_traces(APP, SCALE)
        assert store.writes == 1
        assert fetched.content_hash() == get_workload(APP, SCALE).content_hash()
        assert store.path_for(APP, SCALE).exists()

    def test_fetch_hits_disk_after_memo_drop(self, tmp_path):
        store = _store(tmp_path)
        with use_trace_store(store):
            first = fetch_traces(APP, SCALE)
            clear_trace_memo()
            second = fetch_traces(APP, SCALE)
        assert store.hits == 1
        assert second is not first  # reloaded, not memoised
        assert second.content_hash() == first.content_hash()

    def test_memo_returns_same_object(self, tmp_path):
        store = _store(tmp_path)
        with use_trace_store(store):
            assert fetch_traces(APP, SCALE) is fetch_traces(APP, SCALE)


class TestInvalidation:
    def test_bad_magic_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        store.root.mkdir(parents=True)
        store.path_for(APP, SCALE).write_bytes(b"JUNK" * 64)
        assert store.get(APP, SCALE) is None
        assert store.misses == 1

    def test_truncated_file_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        path = store.path_for(APP, SCALE)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(APP, SCALE) is None

    def test_stale_format_version_falls_back_to_regeneration(
            self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        store.root.mkdir(parents=True)
        wl = get_workload(APP, SCALE)
        # Craft an entry written by a "future" (or past) trace format at
        # the path the current key resolves to.
        with monkeypatch.context() as m:
            m.setattr(trace_mod, "TRACE_FORMAT_VERSION",
                      trace_mod.TRACE_FORMAT_VERSION + 1)
            wl.save(str(store.path_for(APP, SCALE)))
        assert store.get(APP, SCALE) is None
        with use_trace_store(store):
            fetched = fetch_traces(APP, SCALE)
        # Regenerated, bit-identical, and the stale entry was rewritten.
        assert fetched.content_hash() == wl.content_hash()
        assert store.writes == 1
        assert store.get(APP, SCALE) is not None

    def test_load_rejects_versionless_header(self, tmp_path):
        """Files from before format versioning read as version 0."""
        wl = get_workload(APP, SCALE)
        path = tmp_path / "old.trace"
        wl.save(str(path))
        raw = path.read_bytes()
        stale = raw.replace(b"'format_version': 1", b"'format_version': 0", 1)
        assert stale != raw
        path.write_bytes(stale)
        with pytest.raises(ValueError, match="format version 0"):
            trace_mod.WorkloadTraces.load(str(path))

    def test_wrong_app_under_right_name_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        store.root.mkdir(parents=True)
        get_workload("fft", SCALE).save(str(store.path_for(APP, SCALE)))
        assert store.get(APP, SCALE) is None


class TestMaintenance:
    def test_entries_and_clear(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        (entry,) = store.entries()
        assert entry["name"] == APP
        assert entry["events"] > 0
        info = store.describe()
        assert info["entries"] == 1 and info["bytes"] > 0
        assert store.clear() == 1
        assert store.entries() == []

    def test_describe_empty(self, tmp_path):
        info = _store(tmp_path).describe()
        assert info["entries"] == 0 and info["bytes"] == 0


class TestSoaSidecar:
    """The ``.soa`` sidecar is strictly additive: attaching one must
    be observationally identical to the in-memory decode it replaces,
    and *anything* wrong with it — missing, corrupt, truncated, stale
    version, foreign workload — is a silent decode miss, never an
    error."""

    def _warm(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        return store

    def test_put_writes_sidecar_and_get_attaches(self, tmp_path):
        store = self._warm(tmp_path)
        assert store.path_for(APP, SCALE).with_suffix(".soa").exists()
        warm = store.get(APP, SCALE)
        assert store.soa_attaches == 1
        kinds, args, offsets, lengths, lo, hi = warm._soa_cache
        assert isinstance(kinds, np.memmap) and isinstance(args, np.memmap)
        # Bit-identical to the decode a sidecar-less load would run.
        ck, ca, co, cl, clo, chi = get_workload(APP, SCALE).soa()
        assert np.array_equal(kinds, ck) and np.array_equal(args, ca)
        assert np.array_equal(offsets, co) and np.array_equal(lengths, cl)
        assert (lo, hi) == (clo, chi)

    def test_missing_sidecar_is_a_decode_miss(self, tmp_path):
        store = self._warm(tmp_path)
        store.path_for(APP, SCALE).with_suffix(".soa").unlink()
        warm = store.get(APP, SCALE)
        assert warm is not None and store.soa_attaches == 0
        # The in-memory decode still runs, unchanged.
        ck, ca, *_ = get_workload(APP, SCALE).soa()
        kinds, args, *_ = warm.soa()
        assert np.array_equal(kinds, ck) and np.array_equal(args, ca)

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_damaged_sidecar_is_a_decode_miss(self, tmp_path, damage):
        store = self._warm(tmp_path)
        soa_path = store.path_for(APP, SCALE).with_suffix(".soa")
        if damage == "garbage":
            soa_path.write_bytes(b"JUNK" * 32)
        else:
            soa_path.write_bytes(soa_path.read_bytes()[:64])
        warm = store.get(APP, SCALE)
        assert warm is not None and store.soa_attaches == 0
        assert getattr(warm, "_soa_cache", None) is None

    def test_stale_soa_version_is_a_decode_miss(self, tmp_path, monkeypatch):
        import repro.runtime.tracecache as tc
        store = self._warm(tmp_path)
        monkeypatch.setattr(tc, "SOA_FORMAT_VERSION",
                            tc.SOA_FORMAT_VERSION + 1)
        warm = store.get(APP, SCALE)
        assert warm is not None and store.soa_attaches == 0

    def test_foreign_workload_sidecar_is_a_decode_miss(self, tmp_path):
        """A sidecar whose content hash does not match the trace it
        sits next to (e.g. a half-synced cache dir) must not attach."""
        import repro.runtime.tracecache as tc
        store = self._warm(tmp_path)
        assert tc.write_soa_sidecar(store.path_for(APP, SCALE),
                                    get_workload("fft", SCALE))
        warm = store.get(APP, SCALE)
        assert warm is not None and store.soa_attaches == 0

    def test_sidecar_write_failure_is_non_fatal(self, tmp_path):
        import repro.runtime.tracecache as tc
        missing = tmp_path / "nowhere" / "x.trace"
        assert tc.write_soa_sidecar(missing, get_workload(APP, SCALE)) \
            is False

    def test_clear_and_describe_cover_sidecars(self, tmp_path):
        store = self._warm(tmp_path)
        (entry,) = store.entries()
        assert entry["soa"] is True
        info = store.describe()
        assert info["soa_sidecars"] == 1
        assert info["soa_format_version"] >= 1
        assert store.clear() == 1
        assert not list(store.root.glob("*.soa"))

    def test_vector_replay_reads_memmapped_sidecar(self, tmp_path):
        """End-to-end: a read-only memory-mapped sidecar must feed the
        compiled kernel and produce the reference bytes."""
        from repro.harness.experiment import scaled_policy
        from repro.sim.config import SystemConfig
        from repro.sim.engine import Engine
        store = self._warm(tmp_path)
        warm = store.get(APP, SCALE)
        assert isinstance(warm._soa_cache[0], np.memmap)

        def run(wl, **kwargs):
            cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
            return Engine(wl, scaled_policy("ASCOMA"), config=cfg,
                          **kwargs).run().to_dict()

        vector = run(warm, slow_path=False)
        reference = run(get_workload(APP, SCALE), slow_path=True)
        assert vector == reference


class TestCostModel:
    def test_lpt_orders_costliest_first(self):
        specs = [RunSpec("fft", "ASCOMA", 0.7),
                 RunSpec("ocean", "ASCOMA", 0.7),
                 RunSpec("fft", "CCNUMA", 0.7)]
        events_of = {("fft", 0.5): 100, ("ocean", 0.5): 1000}
        ordered = lpt_order(specs, events_of)
        assert [s.app for s in ordered] == ["ocean", "fft", "fft"]
        # Among equal event counts the heavier architecture goes first.
        assert ordered[1].arch == "CCNUMA"

    def test_lpt_unknown_workload_sorts_last(self):
        good = RunSpec("fft", "ASCOMA", 0.7)
        bad = RunSpec("nope", "ASCOMA", 0.7)
        ordered = lpt_order([bad, good], {("fft", 0.5): 10})
        assert ordered == [good, bad]

    def test_spec_cost_uses_arch_weight(self):
        base = spec_cost(RunSpec("fft", "ASCOMA", 0.7), events=1000)
        heavy = spec_cost(RunSpec("fft", "CCNUMA", 0.7), events=1000)
        assert heavy > base == 1000

    def test_vector_weight_table_selected_explicitly(self):
        from repro.runtime.costs import VECTOR_ARCH_WEIGHTS
        base = spec_cost(RunSpec("fft", "ASCOMA", 0.7), events=1000,
                         vector=True)
        heavy = spec_cost(RunSpec("fft", "CCNUMA", 0.7), events=1000,
                          vector=True)
        assert base == 1000
        assert heavy == 1000 * VECTOR_ARCH_WEIGHTS["CCNUMA"]
        # The vector table reshuffles ranks, it does not just rescale:
        # CC-NUMA's relative cost is far higher through the kernel.
        assert heavy / base > spec_cost(
            RunSpec("fft", "CCNUMA", 0.7), events=1000, vector=False) / 1000

    def test_substrate_probe_respects_pinned_off(self, monkeypatch):
        from repro.runtime import costs
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        assert costs._vector_substrate() is False

    @pytest.mark.parametrize("value,slow", [("", False), ("false", False),
                                            ("on", True)])
    def test_substrate_probe_reads_the_engine_predicate(self, monkeypatch,
                                                        value, slow):
        """Workers replaying the reference loop must be ordered with the
        scalar weights: the probe applies the engine's own strict parse
        of ``REPRO_SLOW_PATH``."""
        from repro.runtime import costs
        from repro.sim.soatrace import vector_available
        monkeypatch.setenv("REPRO_SLOW_PATH", value)
        assert costs._vector_substrate() is (not slow and vector_available())

    def test_lpt_vector_flag_changes_ranks_not_membership(self):
        specs = [RunSpec("fft", arch, 0.7)
                 for arch in ("ASCOMA", "CCNUMA", "SCOMA")]
        events_of = {("fft", 0.5): 1000}
        scalar = lpt_order(specs, events_of, vector=False)
        vector = lpt_order(specs, events_of, vector=True)
        assert sorted(s.arch for s in scalar) == \
            sorted(s.arch for s in vector)
        assert vector[0].arch == "CCNUMA"  # the vector outlier leads

    def test_submit_chunksize(self):
        assert submit_chunksize(90, 1) == 22
        assert submit_chunksize(90, 8) == 2
        assert submit_chunksize(3, 8) == 1  # never zero
        with pytest.raises(ValueError):
            submit_chunksize(10, 0)


class TestCrossProcessDeterminism:
    """Satellite: parallel and serial payloads must be identical."""

    CELLS = [(app, arch, 0.5, SCALE)
             for app in ("fft", "em3d") for arch in ("ASCOMA", "SCOMA")]

    @pytest.mark.parametrize("cache", ["without-cache", "with-cache"])
    def test_parallel_matches_serial_to_dict(self, tmp_path, cache):
        store = _store(tmp_path) if cache == "with-cache" else None
        with use_trace_store(store):
            serial = run_cells(self.CELLS, parallel=False, store=None)
            parallel = run_cells(self.CELLS, max_workers=2, store=None)
        for cell in self.CELLS:
            assert serial[cell].to_dict() == parallel[cell].to_dict(), cell



class TestConcurrentMutation:
    """Satellite: store scans racing ``trace-clear`` must skip vanished
    files, never crash.  The deterministic tests force the exact
    interleaving (file deleted between a successful load/glob and the
    following ``stat``); the threaded test hammers the real one."""

    def test_entries_skips_file_deleted_after_load(self, tmp_path,
                                                   monkeypatch):
        import repro.runtime.tracecache as tc
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        store.put("fft", SCALE, get_workload("fft", SCALE))
        real_load = trace_mod.WorkloadTraces.load
        deleted = []

        def racing_load(path):
            wl = real_load(path)
            if not deleted:  # first artifact vanishes right after load
                import pathlib
                p = pathlib.Path(path)
                p.unlink()
                p.with_suffix(".soa").unlink(missing_ok=True)
                deleted.append(path)
            return wl

        monkeypatch.setattr(tc.WorkloadTraces, "load",
                            staticmethod(racing_load))
        entries = store.entries()
        assert len(entries) == 1  # vanished file skipped, not an error
        assert deleted

    def _racing_root(self, store):
        real_root = store.root

        class RacingRoot:
            """Every glob result is deleted before the caller sees it —
            the worst-case clear() interleaving."""

            def glob(self, pattern):
                for p in list(real_root.glob(pattern)):
                    p.unlink(missing_ok=True)
                    yield p

            def is_dir(self):
                return True

            def __str__(self):
                return str(real_root)

        return RacingRoot()

    def test_size_bytes_counts_vanished_files_as_zero(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        assert store.size_bytes() > 0
        store.root = self._racing_root(store)
        assert store.size_bytes() == 0

    def test_describe_survives_concurrent_clear(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        store.root = self._racing_root(store)
        info = store.describe()
        assert info["bytes"] == 0  # everything vanished mid-scan

    def test_entries_during_clear_threaded(self, tmp_path):
        """The reported crash: `repro store trace-list` concurrent with
        `repro store trace-clear` raised FileNotFoundError from the
        unguarded stat()."""
        import threading
        store = _store(tmp_path)
        wl = get_workload(APP, SCALE)
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                store.put(APP, SCALE, wl)
                store.clear()

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(50):
                try:
                    store.entries()
                    store.size_bytes()
                    store.describe()
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    break
        finally:
            stop.set()
            worker.join()
        assert not errors, f"store scan crashed during clear: {errors[0]!r}"
