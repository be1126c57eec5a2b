"""Regression corpus replay.

Every subdirectory of ``tests/corpus/`` is a deterministic replay
bundle (see ``tests/corpus/regenerate.py``).  Replaying one must
reproduce *exactly* the violations recorded at capture time -- a
mismatch means either a regression (a clean case now violates) or a
silent behaviour change (a captured failure shifted or vanished), and
both deserve a deliberate corpus regeneration, not a green build.
"""

import os

import pytest

from repro.check import ReproBundle

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
# Only directories that actually hold a bundle: tooling byproducts like
# __pycache__ (regenerate.py gets imported/compiled) are not entries.
ENTRIES = sorted(
    name for name in os.listdir(CORPUS)
    if os.path.isfile(os.path.join(CORPUS, name, "bundle.json")))


# Replay every bundle under each replay-loop selection.  The checker
# that replay() attaches subscribes an unfiltered observer, which makes
# the default (kernel-first) engine decline the kernel and fall back to
# the reference loop -- so the vector leg proves that fallback is
# loss-free, exactly like the REPRO_SLOW_PATH leg proves the reference
# loop reproduces the recorded violations.
_SLOW_PATH_ENVS = [
    pytest.param("1", id="reference"),
    pytest.param("", id="vector"),
]


@pytest.mark.parametrize("slow_path_env", _SLOW_PATH_ENVS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_replay_reproduces_recorded_violations(entry, slow_path_env,
                                               monkeypatch):
    monkeypatch.setenv("REPRO_SLOW_PATH", slow_path_env)
    bundle = ReproBundle.load(os.path.join(CORPUS, entry))
    result, checker = bundle.replay()
    assert ([v.as_dict() for v in checker.violations]
            == [v.as_dict() for v in bundle.violations])
    assert result.invariant_violations == len(bundle.violations)


def test_corpus_has_entries():
    # Guard against the parametrised test silently collecting nothing.
    assert len(ENTRIES) >= 3
    assert "ascoma-skip-invalidate" in ENTRIES


def test_seeded_entry_is_minimal_and_contextualised():
    bundle = ReproBundle.load(os.path.join(CORPUS, "ascoma-skip-invalidate"))
    assert sum(len(t.kinds) for t in bundle.workload.traces) < 50
    assert bundle.violations
    first = bundle.violations[0]
    assert first.invariant == "cache-reachability"
    assert first.node >= 0 and first.page >= 0 and first.clock >= 0
