"""Replay parity: the kernel and the reference loop must be bit-identical.

The engine carries two replay substrates (see the module docstring of
``repro.sim.engine``): the compiled SoA kernel that ships by default
(see ``repro.sim.soatrace``) and the straightforward reference loop
(``Engine(slow_path=True)`` / ``REPRO_SLOW_PATH=1``), which is also the
kernel's loss-free fallback.  Every kernel change is required to be a
*bit-identical* transformation, so these tests compare complete
``RunResult.to_dict()`` payloads -- every node's every stats bucket,
miss-class counter and clock -- across every architecture, two
workloads with different locality profiles, and two memory-pressure
regimes, and additionally pin the serialized store bytes (what
``RunStore.put`` persists and hashes by spec) to be identical
regardless of which substrate produced the result.

If one of these fails after an engine change, the kernel has diverged
from the model: fix the kernel (or fold the change into
``_shared_ref``, which both substrates share), never the reference
loop.
"""

import hashlib
import json
import warnings

import pytest

from repro.harness.experiment import ARCHITECTURES, get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.soatrace import vector_available

SCALE = 0.1
#: fft is RAC/home-friendly, radix is eviction- and relocation-heavy;
#: 0.3 vs 0.9 pressure flips the page cache between roomy and thrashing.
APPS = ("fft", "radix")
PRESSURES = (0.3, 0.9)

CELLS = [(app, arch, pressure)
         for app in APPS for arch in ARCHITECTURES for pressure in PRESSURES]

#: Thrashing pure S-COMA cells beyond radix: every refault takes an
#: in-kernel page fault plus a forced eviction, on two more sharing
#: patterns (barnes' tree walk, em3d's bipartite graph).
THRASH_CELLS = [("barnes", "SCOMA", 0.7), ("em3d", "SCOMA", 0.9)]


def replay(app, arch, pressure, *, config_kwargs=None, **engine_kwargs):
    """``(engine, result payload)`` of one cell."""
    wl = get_workload(app, SCALE)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure,
                       **(config_kwargs or {}))
    engine = Engine(wl, scaled_policy(arch), config=cfg, **engine_kwargs)
    return engine, engine.run().to_dict()


def run_cell(app, arch, pressure, **kwargs):
    return replay(app, arch, pressure, **kwargs)[1]


def _content_hash(payload: dict) -> str:
    """Hash of the canonical store serialization of a result payload."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestKernelParity:
    """The differential matrix: reference x kernel, every arch.

    When the compiled kernel is unavailable the default engine degrades
    to the reference loop, which keeps the assertions valid but
    vacuous -- so the availability probe is asserted separately (and
    CI sets ``REPRO_EXPECT_VECTOR=1`` where a compiler is guaranteed).
    """

    @pytest.mark.parametrize("app,arch,pressure", CELLS + THRASH_CELLS)
    def test_kernel_matches_reference(self, app, arch, pressure):
        reference = run_cell(app, arch, pressure, slow_path=True)
        engine, kernel = replay(app, arch, pressure, slow_path=False)
        # Every cell here is inside the kernel's model: when a kernel
        # loads, the default run must have replayed through it
        # (kernel_exits is only filled by a kernel run).
        assert bool(engine.kernel_exits) is vector_available()
        assert kernel == reference
        # Byte-level, not just structural: the store persists JSON, so
        # the hash of the canonical serialization is what a spec-keyed
        # store entry would carry.  One hash means either substrate's
        # result can service the other's cache hit.
        assert _content_hash(kernel) == _content_hash(reference)

    def test_store_bytes_identical_across_paths(self, tmp_path, monkeypatch):
        """End-to-end store check: the exact bytes RunStore writes must
        not depend on the loop that produced the result."""
        from repro.runtime.spec import RunSpec
        from repro.runtime.store import RunStore

        spec = RunSpec(app="fft", arch="ASCOMA", pressure=0.9, scale=SCALE)
        blobs = []
        # The default and the reference loop: two process-wide
        # selections, one byte stream.
        for i, value in enumerate(("", "1")):
            monkeypatch.setenv("REPRO_SLOW_PATH", value)
            store = RunStore(tmp_path / f"store-{i}")
            path = store.put(spec, spec.execute())
            blobs.append(path.read_bytes())
        assert len(set(blobs)) == 1

    def test_kernel_availability_probe(self):
        """vector_available() must answer without raising; on CI a
        compiler is present, so the probe must succeed there (asserted
        via the env contract below)."""
        import os
        available = vector_available()
        assert isinstance(available, bool)
        if os.environ.get("REPRO_EXPECT_VECTOR", "") == "1":
            assert available


class TestWidenedEligibility:
    """Shapes the kernel used to refuse and now replays natively:
    >62 nodes (multi-word copysets), >62 chunks per page (multi-word
    S-COMA valid bitmaps) and kind-filtered event-bus observers
    (served by the in-kernel event ring).  Each gets the same
    bit-identity check as the core matrix."""

    def _wide_workload(self):
        from repro.workloads import synthetic
        return synthetic.generate(
            n_nodes=96, home_pages_per_node=3, remote_pages_per_node=5,
            sweeps=3, lines_per_visit=6, hot_fraction=0.7,
            write_fraction=0.3, home_lines_per_sweep=16, seed=11)

    def _wide_cell(self, arch, **engine_kwargs):
        from repro.core import make_policy
        kwargs = {"ascoma": dict(threshold=8, increment=4)}.get(arch, {})
        wl = self._wide_workload()
        cfg = SystemConfig(n_nodes=96, memory_pressure=0.6)
        engine = Engine(wl, make_policy(arch, **kwargs), cfg,
                        **engine_kwargs)
        return engine.run().to_dict()

    @pytest.mark.parametrize("arch", ("ascoma", "ccnuma", "scoma"))
    def test_96_node_parity(self, arch):
        reference = self._wide_cell(arch, slow_path=True)
        kernel = self._wide_cell(arch, slow_path=False)
        assert kernel == reference
        assert _content_hash(kernel) == _content_hash(reference)

    @pytest.mark.parametrize("arch", ("ASCOMA", "SCOMA"))
    def test_wide_pages_parity(self, arch):
        """page_bytes=16384 -> 128 chunks per page: the S-COMA valid
        bitmap no longer fits one word."""
        cfg = {"page_bytes": 16384}
        reference = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                             slow_path=True)
        kernel = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                          slow_path=False)
        assert kernel == reference

    def test_widened_shapes_pass_preflight(self):
        """_eligible itself (no kernel needed): 96 nodes and a
        kind-filtered observer must both pass."""
        from repro.obs.backoff import BackoffTelemetry
        from repro.sim.soatrace import _eligible
        wl = self._wide_workload()
        cfg = SystemConfig(n_nodes=96, memory_pressure=0.6)
        from repro.core import make_policy
        engine = Engine(wl, make_policy("ascoma", threshold=8, increment=4),
                        cfg)
        BackoffTelemetry().attach(engine)
        assert _eligible(engine)

    def test_sampler_still_falls_back(self):
        """A time-series sampler needs every intermediate transition;
        it must keep disqualifying the kernel."""
        from repro.sim.soatrace import _eligible
        wl = get_workload("fft", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        engine = Engine(wl, scaled_policy("ASCOMA"), config=cfg)
        engine.sampler = object()
        assert not _eligible(engine)


class TestObsTimelineParity:
    """--obs must observe the *same simulation* whichever loop runs it:
    the BackoffTelemetry row stream (every daemon decision with its
    clock, every phase row) and its counters must be byte-equal across
    kernel and reference replays."""

    def _run_with_obs(self, **engine_kwargs):
        from repro.obs.backoff import BackoffTelemetry
        wl = get_workload("radix", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.9)
        engine = Engine(wl, scaled_policy("ASCOMA"), config=cfg,
                        **engine_kwargs)
        telemetry = BackoffTelemetry().attach(engine)
        result = engine.run().to_dict()
        return result, telemetry

    def test_backoff_timeline_identical_across_loops(self):
        r_ref, t_ref = self._run_with_obs(slow_path=True)
        r_vec, t_vec = self._run_with_obs(slow_path=False)
        assert r_vec == r_ref
        assert t_ref.rows, "radix@0.9 must produce daemon activity"
        assert t_vec.rows == t_ref.rows
        assert t_vec.counters() == t_ref.counters()


class TestSlowPathSelection:
    """``slow_path`` / ``REPRO_SLOW_PATH``: the only replay switch."""

    def _engine(self, **kwargs):
        wl = get_workload("fft", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        return Engine(wl, scaled_policy("ASCOMA"), config=cfg, **kwargs)

    def test_default_is_fast_path(self, monkeypatch):
        """With no switch set, run() tries the kernel first."""
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
        assert self._engine().slow_path is False

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("0", False), ("", False),
        ("false", False), ("off", False), (" On ", True), ("fasle", False),
    ])
    def test_env_var_selects_reference(self, monkeypatch, value, expected):
        """Only the documented spellings count; anything else warns and
        reads as off (``false`` used to select the reference loop)."""
        monkeypatch.setenv("REPRO_SLOW_PATH", value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = self._engine()
        assert engine.slow_path is expected
        warned = [w for w in caught if "REPRO_SLOW_PATH" in str(w.message)]
        assert len(warned) == (value == "fasle")

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        assert self._engine(slow_path=False).slow_path is False

    @pytest.mark.parametrize("kwargs,env,expect_kernel", [
        ({}, "", True),                     # default
        ({"slow_path": True}, "", False),   # explicit reference loop
        ({}, "1", False),                   # env reference loop
        ({"slow_path": False}, "1", True),  # ctor beats env
    ])
    def test_run_dispatches_kernel_unless_slow_path(self, monkeypatch,
                                                    kwargs, env,
                                                    expect_kernel):
        """run() must try run_vector exactly when slow_path is off, and
        finish on the reference loop, losslessly, when it declines."""
        import repro.sim.soatrace as soatrace
        monkeypatch.setenv("REPRO_SLOW_PATH", env)
        calls = []

        def probe(engine):
            calls.append(engine)
            return None  # decline: the reference loop must finish the run

        monkeypatch.setattr(soatrace, "run_vector", probe)
        result = self._engine(**kwargs).run().to_dict()
        assert bool(calls) is expect_kernel
        assert result == self._engine(slow_path=True).run().to_dict()
