"""Property-based fuzzing of the replay engine.

Hypothesis generates small random workloads (random pages, read/write
mixes, compute bursts, barrier placements) and replays them through
every architecture, asserting the accounting invariants that must hold
for *any* input:

* time buckets sum to the total; clocks never go backwards;
* every L1 miss is classified into exactly one miss class;
* miss classes are architecture-consistent (CC-NUMA never hits a page
  cache, pure S-COMA never sends a conflict miss remote);
* frame accounting balances (allocations - releases == frames in use);
* the coherence reachability audit holds at end of run;
* the online invariant checker (``repro.check``), attached at event
  granularity, stays silent for every architecture.

``REPRO_FUZZ_EXAMPLES`` scales the per-test example count (default 25)
so CI's dispatch-gated fuzz job can run a deeper sweep than the tier-1
suite without editing the file.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import InvariantChecker
from repro.core import make_policy
from repro.kernel.vm import PageMode
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.trace import TraceBuilder, WorkloadTraces
from tests.test_coherence_model import audit_machine

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

N_NODES = 3
HOME_PAGES = 2
TOTAL_PAGES = N_NODES * HOME_PAGES
LPP = 128

# One event: (kind, a, b) -- kind 0 read, 1 write, 2 compute, 3 barrier-ish
event = st.tuples(st.integers(0, 2),
                  st.integers(0, TOTAL_PAGES - 1),
                  st.integers(0, LPP - 1))
node_events = st.lists(event, max_size=60)
workload_events = st.tuples(*[node_events] * N_NODES)

#: Roomy, one-frame and thrashing page caches.  At 0.65 every policy
#: gets exactly one frame per node (round(2 * 0.35 / 0.65) == 1), so
#: pure S-COMA force-evicts on nearly every remote fault and the hybrids
#: run with a permanently near-dry pool.
PRESSURES = [0.3, 0.65, 0.9]

ARCH_KWARGS = {
    "CCNUMA": {},
    "SCOMA": {},
    "RNUMA": dict(threshold=4),
    "VCNUMA": dict(threshold=4, break_even=2, increment=2),
    "ASCOMA": dict(threshold=4, increment=2),
    "CCNUMAMIG": dict(threshold=4),
}


def build_workload(per_node) -> WorkloadTraces:
    builders = []
    for node, events in enumerate(per_node):
        b = TraceBuilder()
        for page in range(node * HOME_PAGES, (node + 1) * HOME_PAGES):
            b.read(page * LPP)
        b.barrier(0)
        for kind, page, line in events:
            if kind == 0:
                b.read(page * LPP + line)
            elif kind == 1:
                b.write(page * LPP + line)
            else:
                b.compute(1 + line)
        b.barrier(1)
        builders.append(b)
    return WorkloadTraces("fuzz", [b.build() for b in builders],
                          home_pages_per_node=HOME_PAGES,
                          total_shared_pages=TOTAL_PAGES)


@pytest.mark.parametrize("arch", sorted(ARCH_KWARGS))
class TestEngineFuzz:
    @given(workload_events, st.sampled_from([0.3, 0.9]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_invariants(self, arch, per_node, pressure):
        """Every accounting invariant, with the checker online.

        Attaching the checker subscribes an unfiltered observer, so the
        kernel declines the run and the reference loop replays it --
        this proves that fallback stays loss-free and violation-silent.
        (True kernel runs are audited in
        ``test_vector_run_passes_structural_audit`` below.)
        """
        wl = build_workload(per_node)
        cfg = SystemConfig(n_nodes=N_NODES, memory_pressure=pressure)
        engine = Engine(wl, make_policy(arch, **ARCH_KWARGS[arch]), cfg)
        checker = InvariantChecker.attach(engine, granularity="event")
        result = engine.run()

        # The online checker saw every transition and stayed silent.
        assert not checker.violations, checker.report()
        assert result.invariant_violations == 0

        for node, stats in zip(engine.machine.nodes, result.node_stats):
            # Accounting closure.
            assert stats.total_cycles() == sum(stats.time_breakdown().values())
            assert stats.total_cycles() >= 0
            # Every L1 miss classified exactly once.
            assert stats.shared_misses() == stats.l1_misses
            # Hits + misses == shared references of the trace.
            # (computed below at workload level)
            # Frame accounting balances.
            pool = node.pool
            assert 0 <= pool.free <= pool.capacity
            assert pool.in_use == node.page_table.scoma_page_count()
            # Latency accumulators never negative and only nonzero with
            # their count.
            for cls in ("HOME", "SCOMA", "RAC", "COLD", "CONF_CAPC"):
                lat = getattr(stats, cls + "_LAT")
                assert lat >= 0
                if getattr(stats, cls) == 0:
                    assert lat == 0

        agg = result.aggregate()
        total_refs = wl.total_refs()
        assert agg.l1_hits + agg.l1_misses == total_refs

        # Architecture-specific classification constraints.
        if arch == "CCNUMA":
            assert agg.SCOMA == 0 and agg.relocations == 0
            assert agg.K_OVERHD == 0
        if arch == "SCOMA":
            assert agg.RAC == 0
            assert agg.CONF_CAPC == 0
        if arch == "CCNUMAMIG":
            assert agg.relocations == 0  # migrates, never remaps

        audit_machine(engine)

    @given(workload_events)
    @settings(max_examples=max(5, MAX_EXAMPLES // 2), deadline=None)
    def test_determinism(self, arch, per_node):
        wl = build_workload(per_node)
        cfg = SystemConfig(n_nodes=N_NODES, memory_pressure=0.5)
        a = Engine(wl, make_policy(arch, **ARCH_KWARGS[arch]), cfg).run()
        b = Engine(wl, make_policy(arch, **ARCH_KWARGS[arch]), cfg).run()
        assert a.aggregate().as_dict() == b.aggregate().as_dict()

    @given(workload_events, st.sampled_from(PRESSURES),
           st.sampled_from([60, 500, 2000]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_two_path_invariance(self, arch, per_node, pressure, quantum):
        """Path invariance: identical cycles/stats/events from the
        kernel and the reference loop for random workloads.

        The quantum samples cover trace-spanning slices (2000 swallows
        these tiny traces whole, no mid-trace rescheduling) and tight
        interleavings (60 forces many slices per trace, exercising the
        scheduler handoff and the vector kernel's resume protocol); the
        random read/write bursts hit the coalescing cases of the
        reference loop, which the SoA decode must reproduce event for
        event.
        """
        wl = build_workload(per_node)

        def run(**kwargs):
            cfg = SystemConfig(n_nodes=N_NODES, memory_pressure=pressure)
            policy = make_policy(arch, **ARCH_KWARGS[arch])
            return Engine(wl, policy, cfg, quantum=quantum,
                          **kwargs).run().to_dict()

        assert run(slow_path=False) == run(slow_path=True)

    @given(workload_events, st.sampled_from(PRESSURES))
    @settings(max_examples=max(5, MAX_EXAMPLES // 2), deadline=None)
    def test_vector_run_passes_structural_audit(self, arch, per_node,
                                                pressure):
        """A genuinely vectorized run (no checker attached, so no
        fallback) must leave machine state that passes the structural
        coherence audit -- which traverses the array-backed dict/set
        views the vector substrate installs, validating the views'
        iteration/containment semantics against the real model -- and
        frame accounting the kernel now shares with Python: the free
        count it allocates and releases, the ledger, and the
        second-chance clock it maps into and evicts from."""
        wl = build_workload(per_node)
        cfg = SystemConfig(n_nodes=N_NODES, memory_pressure=pressure)
        engine = Engine(wl, make_policy(arch, **ARCH_KWARGS[arch]), cfg,
                        slow_path=False)
        engine.run()
        audit_machine(engine)
        for node in engine.machine.nodes:
            pool = node.pool
            pt = node.page_table
            assert pool.ledger_consistent()
            assert pool.in_use == pt.scoma_page_count()
            scoma_pages = sorted(p for p, m in pt.mode.items()
                                 if m == PageMode.SCOMA)
            assert sorted(pt.scoma_clock) == scoma_pages
