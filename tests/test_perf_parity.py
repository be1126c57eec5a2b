"""Replay parity: all three loops must be bit-identical to each other.

The engine carries three replay loops (see the module docstring of
``repro.sim.engine``): the optimized scalar fast path that ships by
default, the straightforward reference loop it was derived from
(``Engine(slow_path=True)`` / ``REPRO_SLOW_PATH=1``), and the
vectorized SoA loop (``Engine(vector_path=True)`` /
``REPRO_VECTOR_PATH=1``, see ``repro.sim.soatrace``).  Every
optimization is required to be a *bit-identical* transformation, so
these tests compare complete ``RunResult.to_dict()`` payloads -- every
node's every stats bucket, miss-class counter and clock -- across
every architecture, two workloads with different locality profiles,
and two memory-pressure regimes, and additionally pin the serialized
store bytes (what ``RunStore.put`` persists and hashes by spec) to be
identical regardless of which loop produced the result.

If one of these fails after an engine change, an optimized path has
diverged from the model: fix the fast/vector path (or fold the change
into ``_shared_ref``, which all loops share), never the reference
loop.
"""

import hashlib
import json

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


def run_cell(app, arch, pressure, *, config_kwargs=None, **engine_kwargs):
    wl = get_workload(app, SCALE)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure,
                       **(config_kwargs or {}))
    engine = Engine(wl, scaled_policy(arch), config=cfg, **engine_kwargs)
    return engine.run().to_dict()


class TestFastPathParity:
    """Scalar fast path vs reference.  ``vector_path=False`` pins the
    scalar loop explicitly: with vector dispatch defaulting to
    ``auto``, a bare Engine would otherwise replay through the kernel
    and these cells would stop covering the scalar fast path."""

    @pytest.mark.parametrize("app,arch,pressure", CELLS)
    def test_fast_matches_reference(self, app, arch, pressure):
        fast = run_cell(app, arch, pressure, vector_path=False)
        reference = run_cell(app, arch, pressure, slow_path=True)
        assert fast == reference

    @pytest.mark.parametrize("arch", ("CCNUMA", "ASCOMA"))
    def test_associative_l1_parity(self, arch):
        """l1_ways=2 disables the inlined direct-mapped tag compare, so
        this covers the lookup()-based branch of both loops."""
        cfg = {"l1_ways": 2}
        fast = run_cell("fft", arch, 0.7, config_kwargs=cfg,
                        vector_path=False)
        reference = run_cell("fft", arch, 0.7, config_kwargs=cfg,
                             slow_path=True)
        assert fast == reference


def _content_hash(payload: dict) -> str:
    """Hash of the canonical store serialization of a result payload."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestThreeWayParity:
    """The differential matrix: reference x fast x vector, every arch.

    When the compiled kernel is unavailable the vector engine degrades
    to the fast path, which keeps the assertions valid but vacuous for
    the third loop -- so the availability probe is asserted separately
    (and the CI vector leg runs where a compiler is guaranteed).
    """

    @pytest.mark.parametrize("app,arch,pressure", CELLS + THRASH_CELLS)
    def test_three_way_matrix(self, app, arch, pressure):
        reference = run_cell(app, arch, pressure, slow_path=True)
        fast = run_cell(app, arch, pressure, vector_path=False)
        vector = run_cell(app, arch, pressure, vector_path=True)
        assert fast == reference
        assert vector == reference
        # Byte-level, not just structural: the store persists JSON, so
        # the hash of the canonical serialization is what a spec-keyed
        # store entry would carry.  One hash means any loop's result
        # can service any other loop's cache hit.
        hashes = {_content_hash(r) for r in (reference, fast, vector)}
        assert len(hashes) == 1

    def test_vector_env_selection_matches(self, monkeypatch):
        """REPRO_VECTOR_PATH=1 must take the same code path as the
        ctor argument and produce the same bytes."""
        explicit = run_cell("fft", "ASCOMA", 0.9, vector_path=True)
        monkeypatch.setenv("REPRO_VECTOR_PATH", "1")
        via_env = run_cell("fft", "ASCOMA", 0.9)
        assert _content_hash(explicit) == _content_hash(via_env)

    def test_store_bytes_identical_across_paths(self, tmp_path, monkeypatch):
        """End-to-end store check: the exact bytes RunStore writes must
        not depend on the loop that produced the result."""
        from repro.runtime.spec import RunSpec
        from repro.runtime.store import RunStore

        spec = RunSpec(app="fft", arch="ASCOMA", pressure=0.9, scale=SCALE)
        blobs = []
        # auto (the default), reference, vector-on, vector-off: four
        # process-wide selections, one byte stream.
        for i, env in enumerate(({}, {"REPRO_SLOW_PATH": "1"},
                                 {"REPRO_VECTOR_PATH": "1"},
                                 {"REPRO_VECTOR_PATH": "0"})):
            for var in ("REPRO_SLOW_PATH", "REPRO_VECTOR_PATH"):
                monkeypatch.delenv(var, raising=False)
            for var, value in env.items():
                monkeypatch.setenv(var, value)
            store = RunStore(tmp_path / f"store-{i}")
            path = store.put(spec, spec.execute())
            blobs.append(path.read_bytes())
        assert len(set(blobs)) == 1

    def test_kernel_availability_probe(self):
        """vector_available() must answer without raising; on CI's
        vector leg a compiler is present, so the probe must succeed
        there (asserted via the env contract below)."""
        import os
        available = vector_available()
        assert isinstance(available, bool)
        if os.environ.get("REPRO_EXPECT_VECTOR", "") == "1":
            assert available


class TestWidenedEligibility:
    """Shapes the kernel used to refuse and now replays natively:
    >62 nodes (multi-word copysets), >62 chunks per page (multi-word
    S-COMA valid bitmaps) and kind-filtered event-bus observers
    (served by the in-kernel event ring).  Each gets the same three-way
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
    def test_96_node_three_way(self, arch):
        reference = self._wide_cell(arch, slow_path=True)
        fast = self._wide_cell(arch, vector_path=False)
        vector = self._wide_cell(arch, vector_path=True)
        assert fast == reference
        assert vector == reference
        assert len({_content_hash(r)
                    for r in (reference, fast, vector)}) == 1

    @pytest.mark.parametrize("arch", ("ASCOMA", "SCOMA"))
    def test_wide_pages_three_way(self, arch):
        """page_bytes=16384 -> 128 chunks per page: the S-COMA valid
        bitmap no longer fits one word."""
        cfg = {"page_bytes": 16384}
        reference = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                             slow_path=True)
        fast = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                        vector_path=False)
        vector = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                          vector_path=True)
        assert fast == reference
        assert vector == reference

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
    scalar, vector and reference replays."""

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
        r_fast, t_fast = self._run_with_obs(vector_path=False)
        r_vec, t_vec = self._run_with_obs(vector_path=True)
        assert r_fast == r_ref and r_vec == r_ref
        assert t_ref.rows, "radix@0.9 must produce daemon activity"
        assert t_fast.rows == t_ref.rows
        assert t_vec.rows == t_ref.rows
        assert t_fast.counters() == t_ref.counters()
        assert t_vec.counters() == t_ref.counters()


class TestSlowPathSelection:
    def _engine(self, **kwargs):
        wl = get_workload("fft", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        return Engine(wl, scaled_policy("ASCOMA"), config=cfg, **kwargs)

    def test_default_is_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
        assert self._engine().slow_path is False

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("0", False), ("", False),
    ])
    def test_env_var_selects_reference(self, monkeypatch, value, expected):
        monkeypatch.delenv("REPRO_VECTOR_PATH", raising=False)
        monkeypatch.setenv("REPRO_SLOW_PATH", value)
        assert self._engine().slow_path is expected

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        assert self._engine(slow_path=False).slow_path is False


class TestVectorPathSelection:
    """REPRO_VECTOR_PATH / vector_path selection + conflict handling,
    mirroring TestSlowPathSelection for the third loop."""

    def _engine(self, **kwargs):
        wl = get_workload("fft", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        return Engine(wl, scaled_policy("ASCOMA"), config=cfg, **kwargs)

    def test_default_is_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTOR_PATH", raising=False)
        assert self._engine().vector_path is False

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("0", False), ("", False),
    ])
    def test_env_var_selects_vector(self, monkeypatch, value, expected):
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
        monkeypatch.setenv("REPRO_VECTOR_PATH", value)
        assert self._engine().vector_path is expected

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_PATH", "1")
        assert self._engine(vector_path=False).vector_path is False

    def test_explicit_ctor_conflict_raises(self):
        with pytest.raises(ValueError, match="conflicting path selections"):
            self._engine(slow_path=True, vector_path=True)

    def test_env_conflict_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        monkeypatch.setenv("REPRO_VECTOR_PATH", "1")
        with pytest.raises(ValueError, match="conflicting path selections"):
            self._engine()

    def test_explicit_vector_beats_slow_env(self, monkeypatch):
        """ctor > env: an explicit vector_path=True silences an
        environment-selected reference loop instead of raising."""
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        engine = self._engine(vector_path=True)
        assert engine.vector_path is True
        assert engine.slow_path is False

    def test_explicit_slow_beats_vector_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_PATH", "1")
        engine = self._engine(slow_path=True)
        assert engine.slow_path is True
        assert engine.vector_path is False


class TestVectorModeSelection:
    """The three-state dispatch behind the booleans: ``auto`` (default)
    replays through the kernel whenever eligible, ``on`` is the
    explicit opt-in, ``off`` pins the scalar loops.  ``vector_path``
    stays the explicit-opt-in boolean for backwards compatibility."""

    def _engine(self, **kwargs):
        wl = get_workload("fft", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        return Engine(wl, scaled_policy("ASCOMA"), config=cfg, **kwargs)

    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTOR_PATH", raising=False)
        engine = self._engine()
        assert engine.vector_mode == "auto"
        assert engine.vector_path is False  # auto is not the opt-in

    @pytest.mark.parametrize("value,expected", [
        ("", "auto"), ("auto", "auto"), ("AUTO", "auto"),
        ("0", "off"), ("off", "off"), ("no", "off"), ("false", "off"),
        ("1", "on"), ("yes", "on"), ("on", "on"),
    ])
    def test_env_mode_table(self, monkeypatch, value, expected):
        monkeypatch.delenv("REPRO_SLOW_PATH", raising=False)
        monkeypatch.setenv("REPRO_VECTOR_PATH", value)
        from repro.sim.engine import default_vector_mode
        assert default_vector_mode() == expected
        assert self._engine().vector_mode == expected

    def test_ctor_booleans_map_to_modes(self):
        assert self._engine(vector_path=True).vector_mode == "on"
        assert self._engine(vector_path=False).vector_mode == "off"

    @pytest.mark.parametrize("value", [" 1 ", "ON", " yes", "True",
                                       "\toff\t", " FALSE "])
    def test_env_values_are_stripped_and_case_folded(self, monkeypatch,
                                                     value):
        monkeypatch.setenv("REPRO_VECTOR_PATH", value)
        from repro.sim.engine import default_vector_mode
        expected = "on" if value.strip().lower() in ("1", "on", "yes",
                                                     "true") else "off"
        assert default_vector_mode() == expected

    @pytest.mark.parametrize("garbage", ["2", "of", "fasle", "vector",
                                         "-1", "y", "enable", "onoff"])
    def test_garbage_env_warns_and_falls_back_to_auto(self, monkeypatch,
                                                      garbage):
        """An unrecognized value must neither force the kernel on (the
        old behaviour resolved anything != off to 'on') nor pin it off:
        it warns and defers to auto dispatch."""
        monkeypatch.setenv("REPRO_VECTOR_PATH", garbage)
        from repro.sim.engine import default_vector_mode
        with pytest.warns(RuntimeWarning, match="REPRO_VECTOR_PATH"):
            assert default_vector_mode() == "auto"
        with pytest.warns(RuntimeWarning):
            assert self._engine().vector_mode == "auto"

    def test_whitespace_only_env_is_auto_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_PATH", "   ")
        from repro.sim.engine import default_vector_mode
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_vector_mode() == "auto"

    def test_ctor_beats_garbage_env(self, monkeypatch):
        """An explicit ctor choice wins over whatever the environment
        says, garbage included (the env is not even consulted, so no
        warning fires)."""
        import warnings
        monkeypatch.setenv("REPRO_VECTOR_PATH", "fasle")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._engine(vector_path=True).vector_mode == "on"
            assert self._engine(vector_path=False).vector_mode == "off"

    def test_cost_model_substrate_honours_strict_parsing(self, monkeypatch):
        """The LPT cost model reads the env through the same parser: a
        typo'd 'off' must not silently flip its weight table."""
        from repro.runtime.costs import _vector_substrate
        from repro.sim.soatrace import vector_available
        monkeypatch.setenv("REPRO_VECTOR_PATH", "off")
        assert _vector_substrate() is False
        monkeypatch.setenv("REPRO_VECTOR_PATH", "of")  # typo != off
        with pytest.warns(RuntimeWarning):
            assert _vector_substrate() is vector_available()

    def test_auto_never_conflicts_with_slow(self, monkeypatch):
        """auto + slow_path must not raise: the reference loop simply
        wins (only an *explicit* 'on' can conflict)."""
        monkeypatch.delenv("REPRO_VECTOR_PATH", raising=False)
        engine = self._engine(slow_path=True)
        assert engine.slow_path is True
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        monkeypatch.setenv("REPRO_VECTOR_PATH", "auto")
        assert self._engine().slow_path is True

    @pytest.mark.parametrize("kwargs,env,expect_kernel", [
        ({}, {}, True),                                # auto
        ({"vector_path": True}, {}, True),             # explicit on
        ({"vector_path": False}, {}, False),           # explicit off
        ({}, {"REPRO_VECTOR_PATH": "off"}, False),     # env off
        ({"slow_path": True}, {}, False),              # reference loop
    ])
    def test_dispatch_reaches_kernel(self, monkeypatch, kwargs, env,
                                     expect_kernel):
        """run() must actually route through run_vector exactly when
        the mode says so (auto included), falling back losslessly."""
        import repro.sim.soatrace as soatrace
        for var in ("REPRO_SLOW_PATH", "REPRO_VECTOR_PATH"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        calls = []

        def probe(engine):
            calls.append(engine)
            return None  # degrade: the engine must finish on the fast path

        monkeypatch.setattr(soatrace, "run_vector", probe)
        result = self._engine(**kwargs).run().to_dict()
        assert bool(calls) is expect_kernel
        assert result == self._engine(slow_path=True).run().to_dict()
