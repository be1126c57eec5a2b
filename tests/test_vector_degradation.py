"""Vector-kernel degradation corners.

The kernel's environment contract: whatever is wrong with the host --
cffi present but no C compiler, a corrupted cached ``.so``, an
unwritable ``$REPRO_VECTOR_CACHE`` -- a default run must degrade
*loss-free* to the reference loop (bit-identical result), flag the problem with exactly one ``RuntimeWarning`` per
process, and never raise.  A pre-built ``.so`` must keep loading with
no compiler at all: that is the contract CI's kernel-cache step leans
on.
"""

from __future__ import annotations

import warnings

import pytest

import repro.sim.soatrace as soatrace
from repro.harness.experiment import get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine

SCALE = 0.1


def _run(**engine_kwargs):
    wl = get_workload("fft", SCALE)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
    engine = Engine(wl, scaled_policy("ASCOMA"), config=cfg,
                    **engine_kwargs)
    return engine.run().to_dict()


@pytest.fixture
def kernel_sandbox(tmp_path, monkeypatch):
    """Fresh kernel state: un-memoize the loader and point the ``.so``
    cache at a per-test directory, restoring the real kernel after."""
    saved = soatrace._KERNEL
    soatrace._KERNEL = None
    monkeypatch.setenv("REPRO_VECTOR_CACHE", str(tmp_path / "vcache"))
    yield tmp_path / "vcache"
    soatrace._KERNEL = saved


def _vector_warnings(caught):
    return [w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "vector kernel unavailable" in str(w.message)]


class TestMissingCompiler:
    def test_falls_back_with_one_warning(self, kernel_sandbox, monkeypatch):
        """cffi importable, no cc/gcc anywhere: reference results, one
        warning for the first run, silence (and no crash) after."""
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        reference = _run(slow_path=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _run(slow_path=False)
            second = _run(slow_path=False)
        assert first == reference
        assert second == reference
        assert len(_vector_warnings(caught)) == 1
        assert soatrace.vector_available() is False

    def test_auto_mode_degrades_identically(self, kernel_sandbox,
                                            monkeypatch):
        """The same fallback and single warning for an engine that
        leaves the substrate to the environment (``slow_path=None``,
        the default)."""
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            auto = _run()
        assert auto == _run(slow_path=True)
        assert len(_vector_warnings(caught)) == 1


class TestCorruptCachedKernel:
    """Both corners seed the cache with ``_build_library()`` alone
    (compile, no dlopen): a genuinely corrupt cache artifact is one a
    fresh process finds *before* ever mapping it.  Overwriting a
    library this process already dlopened would instead poison the
    loader's existing mapping -- a different failure (and one the
    source-hash keying prevents: a changed kernel gets a new name)."""

    def _corrupt_fresh_so(self):
        so = soatrace._build_library()
        assert so is not None
        with open(so, "wb") as fh:
            fh.write(b"\x7fNOT-AN-ELF garbage")
        return so

    def test_corrupt_so_rebuilds_silently(self, kernel_sandbox):
        """A truncated/garbage cached ``.so`` with a compiler present:
        discarded and rebuilt from source, no warning, kernel stays
        available."""
        self._corrupt_fresh_so()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert soatrace.vector_available() is True
            vector = _run(slow_path=False)
        assert not _vector_warnings(caught)
        assert vector == _run(slow_path=True)

    def test_corrupt_so_without_compiler_warns_once(self, kernel_sandbox,
                                                    monkeypatch):
        """Corrupt ``.so`` *and* no compiler to rebuild with: one
        warning, loss-free fallback to the reference loop."""
        self._corrupt_fresh_so()
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vector = _run(slow_path=False)
            _run(slow_path=False)
        assert len(_vector_warnings(caught)) == 1
        assert "corrupt" in str(_vector_warnings(caught)[0].message)
        assert vector == _run(slow_path=True)
        assert soatrace.vector_available() is False


class TestUnwritableCache:
    def test_unwritable_cache_dir_falls_back(self, tmp_path, monkeypatch):
        """$REPRO_VECTOR_CACHE that cannot be created (a path *under a
        regular file* -- robust even when the suite runs as root, for
        whom chmod 0o500 is not a barrier): one warning, reference
        results, no partial files, no crash."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        saved = soatrace._KERNEL
        soatrace._KERNEL = None
        monkeypatch.setenv("REPRO_VECTOR_CACHE",
                           str(blocker / "vcache"))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                vector = _run(slow_path=False)
            assert len(_vector_warnings(caught)) == 1
            assert vector == _run(slow_path=True)
            assert soatrace.vector_available() is False
        finally:
            soatrace._KERNEL = saved


class TestPrebuiltKernelCache:
    def test_prebuilt_so_loads_without_compiler(self, kernel_sandbox,
                                                monkeypatch):
        """A cached ``.so`` must keep working when the compiler
        disappears -- the contract CI's cross-run kernel cache (keyed
        by the embedded source hash) relies on."""
        assert soatrace._build_library() is not None  # populate sandbox
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert soatrace.vector_available() is True
        assert not _vector_warnings(caught)
        assert _run(slow_path=False) == _run(slow_path=True)
