"""Tests for repro.obs: sink, spans, kind-filtered backoff telemetry.

The acceptance tests at the bottom pin the two ISSUE-level claims: an
observed serial sweep's per-cell spans account for the measured
wall-clock (within 10%), and the em3d high-pressure cell reproduces
the paper's Section 3 backoff narrative (threshold raises + interval
stretches) in the exported time series.
"""

import time

import pytest

from repro.obs import (BackoffTelemetry, ObsSink, SpanRecorder,
                       backoff_specs, export_records, read_records,
                       render_summary, render_timeline, resolve_run_path,
                       summarize, use_obs, worker_recorder)
from repro.runtime import RunSpec, execute
from repro.sim.events import EV_BARRIER, EV_DAEMON, EV_EVICT, EventBus

SCALE = 0.1


# ----------------------------------------------------------------------
class TestEventBusKinds:
    def test_filtered_observer_sees_only_its_kinds(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(EV_DAEMON,))
        bus.publish(EV_DAEMON, 0, -1, thrashing=True)
        bus.publish(EV_EVICT, 1, 7)
        assert [e.kind for e in seen] == [EV_DAEMON]

    def test_filtered_subscription_keeps_fast_paths_on(self):
        """The whole point: a kind-filtered observer must not appear in
        ``observers`` — the replay kernel's eligibility and the hot
        publish-site guards key off that list."""
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds=(EV_DAEMON, EV_BARRIER))
        assert bus.observers == []
        assert bus.watching(EV_DAEMON)
        assert bus.watching(EV_BARRIER)
        assert not bus.watching(EV_EVICT)

    def test_full_observer_watches_everything(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        assert bus.watching(EV_EVICT) and bus.watching(EV_DAEMON)

    def test_unsubscribe_clears_emptied_kinds(self):
        bus = EventBus()
        obs = lambda e: None  # noqa: E731
        bus.subscribe(obs, kinds=(EV_DAEMON, EV_BARRIER))
        bus.unsubscribe(obs)
        assert bus.kind_observers == {}
        assert not bus.watching(EV_DAEMON)

    def test_both_observer_classes_receive_one_event(self):
        bus = EventBus()
        full, filtered = [], []
        bus.subscribe(full.append)
        bus.subscribe(filtered.append, kinds=(EV_DAEMON,))
        bus.clock = 42
        bus.publish(EV_DAEMON, 3, -1, thrashing=False)
        assert len(full) == len(filtered) == 1
        assert full[0] is filtered[0]
        assert filtered[0].clock == 42 and filtered[0].node == 3


# ----------------------------------------------------------------------
class TestSink:
    def test_roundtrip_and_corrupt_tail(self, tmp_path):
        sink = ObsSink(tmp_path, run_id="r1")
        sink.write({"rec": "span", "name": "x", "wall_s": 0.5})
        sink.write({"rec": "event", "name": "hit"})
        sink.close()
        with open(sink.path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "span", "trunc')  # killed-run tail
        records = read_records(sink.path)
        assert [r["rec"] for r in records] == ["span", "event"]
        assert sink.records_written == 2

    def test_resolve_latest_and_by_id(self, tmp_path):
        ObsSink(tmp_path, run_id="20260101-000000-1").write({"rec": "a"})
        ObsSink(tmp_path, run_id="20260102-000000-1").write({"rec": "b"})
        latest = resolve_run_path(None, tmp_path)
        assert latest.name == "20260102-000000-1.jsonl"
        by_id = resolve_run_path("20260101-000000-1", tmp_path)
        assert read_records(by_id) == [{"rec": "a"}]

    def test_resolve_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="--obs"):
            resolve_run_path(None, tmp_path / "nothing")


# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_span_records_wall_even_on_raise(self):
        obs = worker_recorder()
        with pytest.raises(RuntimeError):
            with obs.span("cell", attempt=0):
                raise RuntimeError("boom")
        (record,) = obs.sink
        assert record["name"] == "cell" and record["wall_s"] >= 0
        assert record["src"] == "worker"

    def test_worker_drain_and_parent_merge(self, tmp_path):
        worker = worker_recorder()
        worker.emit("event", name="hit")
        shipped = worker.drain()
        assert worker.sink == []  # drained
        parent = SpanRecorder(ObsSink(tmp_path, run_id="m"))
        parent.merge(shipped)
        parent.sink.close()
        (record,) = read_records(parent.sink.path)
        assert record["src"] == "worker"  # merge does not re-stamp

    def test_spec_stamped_onto_spans_and_events(self):
        spec = RunSpec("fft", "ASCOMA", 0.5, SCALE)
        obs = worker_recorder()
        with obs.span("simulate", spec=spec):
            pass
        obs.event("hit", spec=spec)
        for record in obs.sink:
            assert record["spec"] == spec.label()
            assert record["spec_hash"] == spec.spec_hash()

    def test_ambient_recorder_scoping(self):
        from repro.obs import get_default_obs
        assert get_default_obs() is None
        obs = worker_recorder()
        with use_obs(obs):
            assert get_default_obs() is obs
        assert get_default_obs() is None


# ----------------------------------------------------------------------
class TestReport:
    def _records(self):
        return [
            {"rec": "span", "name": "cell", "wall_s": 1.0, "spec": "a"},
            {"rec": "span", "name": "cell", "wall_s": 3.0, "spec": "b"},
            {"rec": "event", "name": "hit", "spec": "c"},
            {"rec": "backoff", "spec": "b", "node": 0, "clock": 10,
             "thrashing": True, "threshold": 8, "interval": 100,
             "enabled": True, "threshold_delta": "raise",
             "interval_delta": "stretch", "relocation": None},
            {"rec": "phase", "spec": "b", "clock": 5, "barrier": 0},
        ]

    def test_summarize_aggregates(self):
        agg = summarize(self._records())
        assert agg["spans"]["cell"] == {"count": 2, "total_s": 4.0,
                                        "max_s": 3.0}
        assert agg["events"] == {"hit": 1}
        assert agg["cells"] == ["a", "b", "c"]
        assert agg["backoff"]["threshold_raises"] == 1
        assert agg["backoff"]["interval_stretches"] == 1

    def test_render_summary_and_timeline(self):
        text = render_summary(self._records(), run_name="t")
        assert "cell" in text and "1 raise" in text
        assert backoff_specs(self._records()) == ["b"]
        timeline = render_timeline(self._records())
        assert "barrier 0" in timeline
        assert "thr-raise" in timeline and "int-stretch" in timeline

    def test_export_csv_backoff_rows_only(self):
        csv_text = export_records(self._records(), fmt="csv")
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("spec,node,clock")
        assert len(lines) == 2  # header + the one backoff row
        assert "raise" in lines[1] and "stretch" in lines[1]

    def test_export_json_roundtrip(self):
        import json
        assert json.loads(export_records(self._records())) == self._records()


# ----------------------------------------------------------------------
class TestAcceptance:
    def test_observed_sweep_spans_account_for_wallclock(self, tmp_path):
        """ISSUE acceptance: a serial 2-app slice under --obs produces
        JSONL whose per-cell spans sum to within 10% of the measured
        wall-clock, and ``repro obs summary`` renders it."""
        specs = [RunSpec("fft", "ASCOMA", 0.7, SCALE),
                 RunSpec("em3d", "ASCOMA", 0.9, SCALE)]
        sink = ObsSink(tmp_path, run_id="acc")
        t0 = time.perf_counter()
        with use_obs(SpanRecorder(sink)):
            results = execute(specs, store=None, parallel=False)
        wall = time.perf_counter() - t0
        sink.close()
        assert all(hasattr(r, "execution_time") for r in results.values())

        records = read_records(sink.path)
        cell_spans = [r for r in records
                      if r["rec"] == "span" and r["name"] == "cell"]
        assert len(cell_spans) == len(specs)
        accounted = sum(r["wall_s"] for r in cell_spans)
        assert accounted <= wall
        assert accounted >= 0.9 * wall, (
            f"cell spans account for {accounted:.3f}s of {wall:.3f}s "
            f"({accounted / wall:.0%}; >=90% required)")

        text = render_summary(records, run_name="acc")
        assert "cell" in text and "simulate" in text
        assert f"{len(specs)} cell(s)" in text

    def test_em3d_high_pressure_reproduces_backoff_narrative(self):
        """ISSUE acceptance: the em3d@90% ASCOMA cell's exported time
        series shows the Section 3 trajectory — the daemon thrashes,
        raises the relocation threshold and stretches its interval."""
        spec = RunSpec("em3d", "ASCOMA", 0.9, SCALE)
        telemetry = BackoffTelemetry()
        spec.execute(telemetry=telemetry)
        counters = telemetry.counters()
        assert counters["thrash_events"] > 0
        assert counters["threshold_raises"] > 0
        assert counters["interval_stretches"] > 0
        raises = [r for r in telemetry.rows
                  if r.get("threshold_delta") == "raise"]
        stretches = [r for r in telemetry.rows
                     if r.get("interval_delta") == "stretch"]
        assert raises and stretches
        # Raised thresholds are monotonically increasing per node, and
        # the series carries cycle context for plotting.
        node = raises[0]["node"]
        series = telemetry.series(node, "threshold")
        assert series == sorted(series)
        assert all(r["clock"] > 0 for r in raises)
        # The same narrative survives the CSV export path.
        obs = worker_recorder()
        obs.backoff_rows(spec, telemetry.rows)
        csv_text = export_records(obs.sink, fmt="csv")
        assert "raise" in csv_text and "stretch" in csv_text
        assert spec.label() in csv_text

    def test_cached_results_identical_with_and_without_obs(self, tmp_path):
        """Telemetry is a runtime mode: the stored artifact must be
        byte-identical whether or not --obs was on when it was made."""
        from repro.runtime import RunStore
        spec = RunSpec("fft", "ASCOMA", 0.5, SCALE)
        plain_store = RunStore(tmp_path / "plain")
        obs_store = RunStore(tmp_path / "obs")
        execute([spec], store=plain_store, parallel=False)
        with use_obs(worker_recorder()):
            execute([spec], store=obs_store, parallel=False)
        plain = plain_store.path_for(spec).read_text()
        observed = obs_store.path_for(spec).read_text()
        assert plain == observed

    def test_telemetry_attach_detach_leaves_bus_clean(self):
        from repro.sim.config import SystemConfig
        from repro.sim.engine import Engine
        from repro.harness.experiment import get_workload, scaled_policy
        wl = get_workload("fft", SCALE)
        engine = Engine(wl, scaled_policy("ASCOMA"),
                        config=SystemConfig(n_nodes=wl.n_nodes,
                                            memory_pressure=0.7))
        telemetry = BackoffTelemetry().attach(engine)
        bus = engine.machine.events
        assert bus.observers == []  # the kernel stays eligible
        telemetry.detach(engine)
        assert bus.kind_observers == {}

    def test_execute_always_detaches_engine_observers(self, monkeypatch):
        """RunSpec.execute unsubscribes telemetry *and* checker itself.

        Long-lived callers (a warm pool worker, or a library caller
        reusing one telemetry object across runs) must not rely on the
        engine being garbage: the run must leave the bus it subscribed
        to clean, success or not.
        """
        from repro.sim.engine import Engine
        captured = {}
        orig_run = Engine.run

        def run(self):
            captured["bus"] = self.machine.events
            return orig_run(self)

        monkeypatch.setattr(Engine, "run", run)
        telemetry = BackoffTelemetry()
        RunSpec("fft", "ASCOMA", 0.7, SCALE).execute(check=True,
                                                     telemetry=telemetry)
        assert captured["bus"].observers == []
        assert captured["bus"].kind_observers == {}
