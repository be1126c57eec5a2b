"""The compiled replay kernel itself: source file, hardening, exits.

* ``soakernel.c`` ships as package data; it must compile warning-free
  under ``-std=c11 -Wall -Wextra -Werror`` and the compiled library's
  cache key is a hash of exactly that file;
* ``soa_run`` checks its shape/params on entry and refuses corrupt
  ones with an error code, and a forced eviction on an empty
  second-chance clock returns an error code instead of reading garbage
  -- ``run_vector`` raises on both, like ``Node.choose_victim`` does;
* page faults and pure S-COMA forced evictions stay inside the kernel:
  a thrashing S-COMA cell leaves it only for first machine-wide
  touches, daemon runs and barriers (``engine.kernel_exits``,
  runtime-only accounting);
* the fault rule the kernel applies follows the policy hooks actually
  run; a policy whose hooks it does not model replays on the scalar
  path instead;
* ``_ClockView`` (the array-backed second-chance clock the Python
  pageout daemon walks) behaves like the deque it replaces.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.soatrace as soatrace
from repro.core import ASCOMAPolicy, SCOMAPolicy, make_policy
from repro.kernel.vm import PageMode
from repro.harness.experiment import get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.trace import EV_BARRIER
from repro.workloads import synthetic

needs_kernel = pytest.mark.skipif(not soatrace.vector_available(),
                                  reason="compiled SoA kernel unavailable")


def _small_engine(arch="scoma", pressure=0.9, **engine_kwargs):
    wl = synthetic.generate(
        n_nodes=4, home_pages_per_node=6, remote_pages_per_node=10,
        sweeps=4, lines_per_visit=8, hot_fraction=0.8, write_fraction=0.3,
        home_lines_per_sweep=32, seed=5)
    cfg = SystemConfig(n_nodes=4, memory_pressure=pressure)
    return Engine(wl, make_policy(arch), cfg, **engine_kwargs)


class TestKernelSource:
    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
    def test_compiles_warning_free(self):
        proc = subprocess.run(
            ["gcc", "-std=c11", "-Wall", "-Wextra", "-Werror",
             "-fsyntax-only", soatrace.KERNEL_SOURCE],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @needs_kernel
    def test_cache_key_is_the_source_hash(self):
        with open(soatrace.KERNEL_SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:16]
        assert soatrace._build_library().endswith(f"soakernel-{digest}.so")


@needs_kernel
class TestKernelHardening:
    @pytest.mark.parametrize("slot,delta", [
        (soatrace._P_CS_WORDS, 1),          # copyset words vs node count
        (soatrace._P_LINE_SHIFT, 1),        # page geometry
        (soatrace._P_N_SETS, 1),            # L1 sets not a power of two
        (soatrace._P_CLK_CAP, -10**6),      # clock capacity below frames
    ])
    def test_corrupt_param_is_rejected(self, monkeypatch, slot, delta):
        real = soatrace._kernel_params

        def corrupt(*args, **kwargs):
            params = real(*args, **kwargs)
            params[slot] += delta
            return params

        monkeypatch.setattr(soatrace, "_kernel_params", corrupt)
        with pytest.raises(RuntimeError, match="rejected its shape/params"):
            _small_engine(slow_path=False).run()

    def test_corrupt_ring_capacity_is_rejected(self, monkeypatch):
        """A ring too small for one reference's worst case would make
        the kernel exit RC_RING forever; it is refused on entry."""
        from repro.sim.events import EV_INVALIDATE

        real = soatrace._kernel_params

        def corrupt(*args, **kwargs):
            params = real(*args, **kwargs)
            params[soatrace._P_RING_CAP] = 1
            return params

        monkeypatch.setattr(soatrace, "_kernel_params", corrupt)
        engine = _small_engine(slow_path=False)
        engine.machine.events.subscribe(lambda ev: None,
                                        kinds=(EV_INVALIDATE,))
        with pytest.raises(RuntimeError, match="rejected its shape/params"):
            engine.run()

    def _dry_engine(self, **engine_kwargs):
        """Pure S-COMA with every home pre-assigned (so first touches
        stay in the kernel) and every pool emptied behind the clock's
        back: the first remote fault finds no frame and no victim."""
        engine = _small_engine(**engine_kwargs)
        machine = engine.machine
        for page in range(engine.workload.total_shared_pages):
            machine.allocator.home_of(page, page % len(machine.nodes))
        for node in machine.nodes:
            node.pool.free = 0
        return engine

    def test_empty_clock_is_an_error_code(self):
        with pytest.raises(RuntimeError, match="empty second-chance clock"):
            self._dry_engine(slow_path=False).run()

    def test_empty_clock_mirrors_the_scalar_error(self):
        with pytest.raises(RuntimeError, match="no S-COMA page to evict"):
            self._dry_engine(slow_path=True).run()


@needs_kernel
class TestExitAccounting:
    def _engine(self, app, arch, pressure, **kwargs):
        wl = get_workload(app, 0.1)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure)
        return Engine(wl, scaled_policy(arch), config=cfg, **kwargs)

    def test_thrashing_scoma_makes_no_fault_exits(self):
        engine = self._engine("radix", "SCOMA", 0.9)
        result = engine.run()
        exits = engine.kernel_exits
        assert set(exits) == set(soatrace.EXIT_REASONS)
        # The only fault exits are first machine-wide touches (home
        # placement), at most one per page; S-COMA raises no hints.
        assert exits["home-assign"] <= engine.workload.total_shared_pages
        assert exits["residual-hint"] == 0
        agg = result.aggregate()
        assert agg.page_faults > 1000 and agg.forced_evictions > 1000
        barriers = int(np.count_nonzero(
            engine.workload.traces[0].kinds == EV_BARRIER))
        assert sum(exits.values()) <= (agg.daemon_runs + barriers
                                       + exits["home-assign"] + 1)

    def test_exit_counts_are_runtime_only(self):
        """Exit accounting never reaches the result or the store."""
        engine = self._engine("fft", "ASCOMA", 0.7)
        payload = engine.run().to_dict()
        assert engine.kernel_exits
        assert "kernel_exits" not in repr(payload)
        reference = self._engine("fft", "ASCOMA", 0.7, slow_path=True)
        assert reference.run().to_dict() == payload
        assert reference.kernel_exits == {}


class _PickyASCOMA(ASCOMAPolicy):
    """Declares AS-COMA's modes but keeps one frame in reserve: a
    first-touch rule the kernel does not model."""

    def initial_mode(self, state, free_frames):
        return PageMode.SCOMA if free_frames > 1 else PageMode.CCNUMA


class _HookedSCOMA(SCOMAPolicy):
    """Pure S-COMA with eviction bookkeeping the kernel skips."""

    def on_page_evicted(self, state, page, pagecache_hits):
        state.skipped_relocations += 1


class TestFirstTouchRule:
    @pytest.mark.parametrize("arch,kwargs,rule", [
        ("CCNUMA", {}, soatrace._FT_CCNUMA),
        ("CCNUMAMIG", {}, soatrace._FT_CCNUMA),
        ("RNUMA", {}, soatrace._FT_CCNUMA),
        ("VCNUMA", {}, soatrace._FT_CCNUMA),
        ("ASCOMA", {"scoma_first": False}, soatrace._FT_CCNUMA),
        ("ASCOMA", {}, soatrace._FT_SCOMA_IF_FREE),
        ("SCOMA", {}, soatrace._FT_SCOMA),
    ])
    def test_registered_policies_are_modelled(self, arch, kwargs, rule):
        engine = _small_engine()
        engine.policy = make_policy(arch, **kwargs)
        assert soatrace._first_touch_rule(engine) == rule

    @pytest.mark.parametrize("policy_cls", [_PickyASCOMA, _HookedSCOMA])
    def test_unmodelled_hooks_fall_back(self, policy_cls):
        def run(**kwargs):
            wl = synthetic.generate(
                n_nodes=4, home_pages_per_node=6, remote_pages_per_node=10,
                sweeps=4, lines_per_visit=8, hot_fraction=0.8,
                write_fraction=0.3, home_lines_per_sweep=32, seed=5)
            cfg = SystemConfig(n_nodes=4, memory_pressure=0.9)
            engine = Engine(wl, policy_cls(), cfg, **kwargs)
            return engine, engine.run().to_dict()

        engine, vector = run(slow_path=False)
        assert soatrace._first_touch_rule(engine) is None
        assert not soatrace._eligible(engine)
        assert engine.kernel_exits == {}
        assert vector == run(slow_path=True)[1]


class TestClockView:
    """Random deque operations against the ring-buffer view."""

    ops = st.lists(st.tuples(st.sampled_from(["append", "rotate", "remove"]),
                             st.integers(0, 30)), max_size=60)

    @given(ops, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_deque(self, ops, cap):
        buf = np.zeros((2, cap), dtype=np.int64)
        head = np.zeros(2, dtype=np.int64)
        length = np.zeros(2, dtype=np.int64)
        view = soatrace._ClockView(buf[1], head, length, 1)
        model = deque()
        for op, arg in ops:
            if op == "append":
                if arg in model:
                    continue
                if len(model) == cap:
                    with pytest.raises(RuntimeError):
                        view.append(arg)
                    continue
                view.append(arg)
                model.append(arg)
            elif op == "rotate":
                view.rotate(arg % 5 - 2)
                model.rotate(arg % 5 - 2)
            elif model:
                page = model[arg % len(model)]
                view.remove(page)
                model.remove(page)
            assert list(view) == list(model)
            assert len(view) == len(model)
            if model:
                assert view[0] == model[0] and view[-1] == model[-1]
        assert head[0] == 0 and length[0] == 0  # other node untouched
