"""Trace replay engine.

Replays one :class:`~repro.sim.trace.WorkloadTraces` through a
:class:`~repro.sim.machine.Machine` under one architecture policy,
producing a :class:`~repro.sim.stats.RunResult`.

Scheduling
----------
Nodes are interleaved by *lazy quantum scheduling*: the engine always
advances the node with the smallest local clock, processing its events
until its clock passes the runner-up clock by a small quantum.  This
keeps cross-node event ordering approximately global (so coherence
invalidations and directory state interleave realistically) while
amortising scheduling overhead over many events -- the standard
conservative-window technique from parallel architectural simulation
(and the approach of the Paint/Mint family the paper builds on).

Barriers synchronise all nodes: each arriving node stalls, and when the
last one arrives every waiter's clock jumps to the maximum arrival time
with the difference charged to SYNC.

Accounting
----------
Every event advances its node's clock and exactly one stats bucket:
compute -> U_INSTR, private stalls -> U_LC_MEM, shared-reference stall
time -> U_SH_MEM, kernel work -> K_BASE or K_OVERHD, barrier waits ->
SYNC.  Misses are simultaneously classified into HOME / SCOMA / RAC /
COLD / CONF_CAPC, matching the right-hand charts of Figures 2-3.

The two replay substrates
-------------------------
The engine replays through one of two substrates producing
**bit-identical** :class:`RunResult`s (``tests/test_perf_parity.py``
enforces this for every architecture):

* the **kernel** decodes the trace to structure-of-arrays form and
  replays it through the compiled SoA kernel in
  :mod:`repro.sim.soatrace` -- page faults and pure S-COMA's forced
  evictions included -- exiting to the scalar machinery for residual
  events (first touches, relocation hints, daemon runs, barriers).
  It is the default whenever the run is inside its model and a
  kernel can be built;
* the **reference loop** is the straightforward one-call-per-event
  loop (:meth:`Engine._run_reference`).  It is the parity oracle for
  every kernel change, the escape hatch for debugging
  (``REPRO_SLOW_PATH=1`` or ``slow_path=True``) and the loss-free
  fallback whenever the kernel is unavailable or the run is outside
  its model (associative L1, a time-series sampler, a message log,
  the invariant checker).

``slow_path`` is the only switch.  An explicit constructor argument
beats the environment.  Loop selection is a runtime concern only: it
never enters spec hashes or trace cache keys.  See
``docs/performance.md`` for the measured costs of each substrate.
"""

from __future__ import annotations

import os

from ..core.policy import ArchitecturePolicy, RelocationDecision
from ..kernel.vm import PageMode
from .config import SystemConfig
from .events import EV_BARRIER, EV_END, EV_FAULT, EV_MIGRATE
from .machine import Machine
from .stats import RunResult
from .trace import EV_COMPUTE, EV_LOCAL, EV_WRITE, WorkloadTraces

__all__ = ["Engine", "simulate", "default_slow_path"]

#: How far (cycles) one node may run ahead of the runner-up clock.
DEFAULT_QUANTUM = 2000


def default_slow_path() -> bool:
    """Whether ``REPRO_SLOW_PATH`` selects the reference loop for an
    Engine built without an explicit ``slow_path`` argument.

    Only the documented spellings are honoured: ``1/on/yes/true``
    select the reference loop, ``0/off/no/false`` and empty do not.
    Anything else (a typo like ``of`` or ``fasle``) warns and reads as
    off, so a typo cannot silently move a run off the kernel."""
    raw = os.environ.get("REPRO_SLOW_PATH", "").strip().lower()
    if raw in ("", "0", "off", "no", "false"):
        return False
    if raw in ("1", "on", "yes", "true"):
        return True
    import warnings

    warnings.warn(
        f"unrecognized REPRO_SLOW_PATH={raw!r}; expected one of"
        " 1/on/yes/true or 0/off/no/false -- reading it as off",
        RuntimeWarning, stacklevel=2)
    return False


class Engine:
    """One simulation run."""

    def __init__(self, workload: WorkloadTraces, policy: ArchitecturePolicy,
                 config: SystemConfig | None = None,
                 quantum: int = DEFAULT_QUANTUM,
                 log_messages: bool = False,
                 sampler=None,
                 slow_path: bool | None = None) -> None:
        self.workload = workload
        #: Optional TimeSeriesSampler snapshotting policy state at every
        #: barrier release (see repro.sim.timeseries).
        self.sampler = sampler
        self.policy = policy
        self.config = config or SystemConfig(n_nodes=workload.n_nodes)
        if self.config.n_nodes != workload.n_nodes:
            raise ValueError(
                f"config has {self.config.n_nodes} nodes but workload has"
                f" {workload.n_nodes}")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self.machine = Machine(self.config, policy,
                               workload.home_pages_per_node,
                               workload.total_shared_pages,
                               log_messages=log_messages)
        #: Machine-shared rare-event bus (identity is stable for the
        #: engine's lifetime, so it can be cached in locals).
        self._events = self.machine.events
        #: Optional online invariant checker (repro.check attaches one);
        #: when set, the run result carries its violation count.
        self.checker = None
        #: pure S-COMA must map every remote page locally, even if a
        #: victim has to be force-evicted at fault time.
        self._mandatory_scoma = policy.mandatory_page_cache
        #: Direct-mapped L1s take an inlined tag-compare fast path in
        #: the reference loop; associative ones go through lookup().
        self._l1_direct = self.config.l1_ways == 1
        #: Victim-mode RAC: fills from L1 evictions of remote lines,
        #: never from fetches (see SystemConfig.rac_fill_policy).
        self._rac_victim = self.config.rac_fill_policy == "victim"
        #: Replay-loop selection: the reference loop when set, else
        #: the kernel with the reference loop as its loss-free
        #: fallback.  An explicit ctor argument beats REPRO_SLOW_PATH.
        self.slow_path = (default_slow_path() if slow_path is None
                          else slow_path)
        #: Kernel exits by reason (``soatrace.EXIT_REASONS``), filled by
        #: a vector run; runtime-only, never part of the RunResult.
        self.kernel_exits: dict[str, int] = {}
        # Hot-path constants and stable sub-object aliases, hoisted once
        # so `_shared_ref` never re-walks attribute chains per event.
        # All aliased objects are created by Machine.__init__ and only
        # ever mutated in place (never rebound) during a run.
        amap = self.machine.amap
        self._line_shift = amap.line_shift
        self._chunk_shift = amap.chunk_shift
        self._cpp_mask = amap.chunks_per_page - 1
        self._hit_cycles = self.config.l1_hit_cycles
        self._rac_cycles = self.config.rac_hit_cycles
        self._dsm2 = 2 * self.config.dsm_processing_cycles
        self._protocol = self.machine.protocol
        self._buses = self.machine.buses
        self._home = self.machine.allocator.home

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        clock = None
        if not self.slow_path:
            from .soatrace import run_vector
            clock = run_vector(self)
        if clock is None:
            clock = self._run_reference()

        events = self._events
        if events.watching(EV_END):
            events.clock = max(clock) if clock else 0
            events.publish(EV_END, -1, -1)

        machine = self.machine
        extra = {
            "utilisation": machine.utilisation_report(),
            "page_cache_frames": machine.page_cache_frames(),
            "protocol": {
                "remote_fetches": machine.protocol.remote_fetches,
                "three_hop": machine.protocol.three_hop_fetches,
                "write_stalls": machine.protocol.write_stalls,
            },
        }
        if self.checker is not None:
            extra["invariant_violations"] = self.checker.violation_count()
        return RunResult(
            architecture=self.policy.name,
            workload=self.workload.name,
            pressure=self.config.memory_pressure,
            node_stats=[nd.stats for nd in machine.nodes],
            extra=extra,
        )

    # ------------------------------------------------------------------
    def _release_barrier(self, nodes, clock, arrival, waiting, pos, end,
                         finished, barrier_id) -> None:
        """Release a full barrier: charge SYNC, align clocks, publish."""
        n = len(nodes)
        ids = {barrier_id[i] for i in range(n) if waiting[i]}
        if len(ids) != 1:
            raise RuntimeError(
                f"barrier mismatch: nodes waiting at {sorted(ids)}")
        release = max(arrival[i] for i in range(n) if waiting[i])
        for i in range(n):
            if waiting[i]:
                nodes[i].stats.SYNC += release - arrival[i]
                clock[i] = release
                waiting[i] = False
                if pos[i] >= end[i]:
                    finished[i] = True
        if self.sampler is not None:
            self.sampler.sample(release, nodes)
        events = self._events
        if events.watching(EV_BARRIER):
            events.clock = release
            events.publish(EV_BARRIER, -1, -1, barrier=ids.pop())

    # ------------------------------------------------------------------
    def _run_reference(self) -> list[int]:
        """Reference replay loop: one `_shared_ref` call per event.

        The parity oracle for the kernel (`tests/test_perf_parity.py`),
        the REPRO_SLOW_PATH=1 escape hatch, and the loss-free fallback
        when :func:`~repro.sim.soatrace.run_vector` declines a run.
        """
        machine = self.machine
        nodes = machine.nodes
        n = len(nodes)
        # Cached list-form traces: Python lists index ~3x faster than
        # numpy scalars in this loop, and the cache amortises the
        # conversion across the many runs of one workload.
        kinds = []
        args = []
        for t in self.workload.traces:
            k, a = t.as_lists()
            kinds.append(k)
            args.append(a)
        pos = [0] * n
        end = [len(k) for k in kinds]
        clock = [0] * n
        finished = [p >= e for p, e in zip(pos, end)]
        waiting = [False] * n
        barrier_id = [-1] * n
        arrival = [0] * n
        quantum = self.quantum
        shared_ref = self._shared_ref

        while True:
            # Pick the runnable node with the smallest clock.
            best = -1
            best_clock = None
            runner_up = None
            for i in range(n):
                if finished[i] or waiting[i]:
                    continue
                c = clock[i]
                if best_clock is None or c < best_clock:
                    runner_up = best_clock
                    best_clock = c
                    best = i
                elif runner_up is None or c < runner_up:
                    runner_up = c
            if best == -1:
                if all(finished):
                    break
                raise RuntimeError("deadlock: all unfinished nodes are waiting"
                                   " at a barrier that never released")
            limit = (runner_up + quantum) if runner_up is not None else None

            node = nodes[best]
            k = kinds[best]
            a = args[best]
            p = pos[best]
            e = end[best]
            now = clock[best]
            stats = node.stats
            # Let the pageout daemon run on its own schedule, not only
            # when a frame is needed (it is how AS-COMA notices recovery).
            node.run_daemon_if_due(now)

            while p < e and (limit is None or now < limit):
                ev = k[p]
                arg = a[p]
                p += 1
                if ev <= EV_WRITE:  # READ or WRITE
                    now += shared_ref(node, arg, ev == EV_WRITE, now)
                elif ev == EV_COMPUTE:
                    stats.U_INSTR += arg
                    now += arg
                elif ev == EV_LOCAL:
                    stats.U_LC_MEM += arg
                    now += arg
                else:  # EV_BARRIER
                    waiting[best] = True
                    barrier_id[best] = arg
                    arrival[best] = now
                    break

            pos[best] = p
            clock[best] = now
            if p >= e and not waiting[best]:
                finished[best] = True

            if waiting[best]:
                # Release when every unfinished node is at the barrier.
                if all(finished[i] or waiting[i] for i in range(n)):
                    self._release_barrier(nodes, clock, arrival, waiting,
                                          pos, end, finished, barrier_id)
        return clock

    # ------------------------------------------------------------------
    def _shared_ref(self, node, line: int, is_write: bool, now: int) -> int:
        """Process one shared-memory reference; returns elapsed cycles.

        Updates the node's stats buckets in place (U_SH_MEM for stall
        time, K_BASE/K_OVERHD for kernel work triggered by the access).

        Attribute chains are hoisted into locals / precomputed engine
        attributes (`_hit_cycles`, `_home`, ...): this function *is* the
        profile's hot spot, and both replay loops share it, so every
        saved lookup is bit-identical by construction.
        """
        stats = node.stats
        l1 = node.l1

        # -- L1 probe (the overwhelmingly common case) -------------------
        if self._l1_direct:
            hit = l1.tags[line & l1.set_mask] == line
        else:
            hit = l1.lookup(line)
        if hit:
            stats.l1_hits += 1
            if is_write:
                chunk = line >> self._chunk_shift
                owned = node.owned
                if chunk not in owned:
                    page = line >> self._line_shift
                    home = self._home[page]
                    events = self._events
                    if events.observers:
                        events.clock = now
                    lat = self._protocol.upgrade(node.id, chunk, page,
                                                 home, now)
                    owned.add(chunk)
                    stats.upgrades += 1
                    stats.U_SH_MEM += lat
                    l1.mark_dirty(line)
                    return self._hit_cycles + lat
                l1.mark_dirty(line)
            return self._hit_cycles

        # -- L1 miss ------------------------------------------------------
        stats.l1_misses += 1
        events = self._events
        if events.observers:
            events.clock = now
        page = line >> self._line_shift
        chunk = line >> self._chunk_shift
        node.tlb.ref_bits[page] = True
        nid = node.id

        kernel = 0
        mode = node.page_table.mode.get(page, 0)
        if mode == 0:  # UNMAPPED: first touch on this node
            mode, kernel = self._page_fault(node, page, now)
        home = self._home[page]
        now += kernel

        lat = self._buses[nid].transact(now)
        protocol = self._protocol
        owned = node.owned

        # Outcome tuples are in Directory.fetch_raw order:
        # (refetch, forwarded, invalidations, relocation_hint,
        #  prev_owner, exclusive).
        if mode == PageMode.HOME:
            fetch_lat, out = protocol.local_fetch_raw(nid, chunk, page,
                                                      is_write, now + lat)
            lat += fetch_lat
            stats.HOME += 1
            stats.HOME_LAT += lat
            if is_write or out[5]:
                owned.add(chunk)
        elif mode == PageMode.SCOMA:
            cip = chunk & self._cpp_mask
            if node.page_table.scoma_valid[page] >> cip & 1:
                lat += node.memory.access(chunk, now + lat)
                stats.SCOMA += 1
                node.pagecache_hits[page] += 1
                stats.SCOMA_LAT += lat
                if is_write and chunk not in owned:
                    lat += protocol.upgrade(nid, chunk, page, home, now + lat)
                    owned.add(chunk)
                    stats.upgrades += 1
            else:
                fetch_lat, out = protocol.remote_fetch_raw(
                    nid, chunk, page, home, is_write, 0, now + lat,
                    count_refetch=False)
                lat += self._dsm2 + fetch_lat
                node.page_table.set_chunk_valid(page, cip)
                self._classify_remote(node, chunk, out[0], lat)
                if is_write or out[5]:
                    owned.add(chunk)
        else:  # PageMode.CCNUMA
            if node.rac.lookup(line if self._rac_victim else chunk):
                lat += self._rac_cycles
                stats.RAC += 1
                stats.RAC_LAT += lat
                if is_write and chunk not in owned:
                    lat += protocol.upgrade(nid, chunk, page, home, now + lat)
                    owned.add(chunk)
                    stats.upgrades += 1
            else:
                threshold = node.policy_state.effective_threshold()
                fetch_lat, out = protocol.remote_fetch_raw(
                    nid, chunk, page, home, is_write, threshold, now + lat)
                lat += self._dsm2 + fetch_lat
                if not self._rac_victim:
                    node.rac.fill(chunk)
                self._classify_remote(node, chunk, out[0], lat)
                if is_write or out[5]:
                    owned.add(chunk)
                if out[3]:  # relocation hint
                    # Fill the L1 *before* the relocation interrupt: the
                    # access completed first, and the remap's page flush
                    # must also purge this line, or a stale copy would
                    # linger in the cache without copyset membership.
                    self._l1_fill(node, line, is_write)
                    kernel += self._handle_relocation_hint(node, page,
                                                           now + lat)
                    stats.U_SH_MEM += lat
                    return kernel + lat

        if self._rac_victim:
            self._l1_fill(node, line, is_write)
        else:
            l1.fill(line, is_write)
        stats.U_SH_MEM += lat
        return kernel + lat

    def _l1_fill(self, node, line: int, is_write: bool) -> None:
        """Install a line in the L1; in victim-RAC mode, evicted remote
        lines drop into the RAC (VC-NUMA's actual hardware)."""
        victim = node.l1.fill(line, dirty=is_write)
        if self._rac_victim and victim != -1:
            vpage = victim >> self._line_shift
            if node.page_table.mode.get(vpage, 0) == PageMode.CCNUMA:
                node.rac.fill(victim)

    # ------------------------------------------------------------------
    def _classify_remote(self, node, chunk: int, refetch: bool,
                         lat: int = 0) -> None:
        """COLD vs CONF/CAPC classification of a remote fetch."""
        stats = node.stats
        if refetch:
            stats.CONF_CAPC += 1
            stats.CONF_CAPC_LAT += lat
        else:
            stats.COLD += 1
            stats.COLD_LAT += lat
            if chunk in node.ever_fetched:
                stats.induced_cold += 1
            else:
                stats.essential_cold += 1
                node.ever_fetched.add(chunk)
            return
        node.ever_fetched.add(chunk)

    def _page_fault(self, node, page: int, now: int) -> tuple[int, int]:
        """First touch to *page* on *node*: returns (mode, kernel_cycles)."""
        stats = node.stats
        costs = node.costs
        kernel = costs.page_fault
        stats.K_BASE += kernel
        stats.page_faults += 1
        node.page_table.faults += 1

        home = self.machine.allocator.home_of(page, node.id)
        if home == node.id:
            node.page_table.map_home(page)
            return self._faulted(node, page, PageMode.HOME, home, kernel)

        mode = self.policy.initial_mode(node.policy_state, node.pool.free)
        if mode == PageMode.SCOMA:
            if node.acquire_frame(now + kernel):
                node.map_scoma(page)
                return self._faulted(node, page, PageMode.SCOMA, home, kernel)
            if self._mandatory_scoma:
                # Pure S-COMA: evict someone (hot or not) right now.
                victim = node.choose_victim()
                overhead = node.evict_scoma_page(victim, forced=True)
                stats.K_OVERHD += overhead
                kernel += overhead
                if not node.pool.try_allocate():  # pragma: no cover - invariant
                    raise RuntimeError("frame lost after forced eviction")
                node.map_scoma(page)
                return self._faulted(node, page, PageMode.SCOMA, home, kernel)
            # Hybrid with a dry pool: fall back to CC-NUMA mode.
        node.page_table.map_ccnuma(page)
        return self._faulted(node, page, PageMode.CCNUMA, home, kernel)

    def _faulted(self, node, page: int, mode: int, home: int,
                 kernel: int) -> tuple[int, int]:
        """Publish the fault event and return the (mode, kernel) pair."""
        events = self._events
        if events.observers:
            events.publish(EV_FAULT, node.id, page, mode=int(mode), home=home)
        return mode, kernel

    def _handle_relocation_hint(self, node, page: int, now: int) -> int:
        """Directory flagged *page* hot for *node*: maybe remap it."""
        stats = node.stats
        decision = self.policy.on_relocation_hint(node.policy_state,
                                                  node.pool.free)
        if decision == RelocationDecision.SKIP:
            node.policy_state.skipped_relocations += 1
            stats.skipped_relocations += 1
            return 0

        if decision == RelocationDecision.MIGRATE:
            return self._migrate_page(node, page, now)

        if not node.acquire_frame(now):
            if decision == RelocationDecision.RELOCATE_IF_FREE:
                # AS-COMA: never evict a hot page for another hot page.
                node.policy_state.skipped_relocations += 1
                stats.skipped_relocations += 1
                return 0
            # R-NUMA / VC-NUMA: force-evict a victim (possibly hot).
            victim = node.choose_victim()
            overhead = node.evict_scoma_page(victim, forced=True)
            if not node.pool.try_allocate():  # pragma: no cover - invariant
                raise RuntimeError("frame lost after forced eviction")
            overhead += node.relocate_to_scoma(page)
            stats.K_OVERHD += overhead
            return overhead

        overhead = node.relocate_to_scoma(page)
        stats.K_OVERHD += overhead
        return overhead

    def _migrate_page(self, node, page: int, now: int) -> int:
        """Move *page*'s home to *node* (CCNUMA-MIG extension).

        Only non-shared pages migrate: if any third node (neither the
        requester nor the current home) caches a chunk of the page, the
        migration is vetoed -- the gate the paper describes for why
        migration only works on read-only or non-shared data.
        """
        machine = self.machine
        amap = machine.amap
        directory = machine.directory
        old_home = machine.allocator.home[page]
        stats = node.stats

        allowed = ~((1 << node.id) | (1 << old_home))
        home_bit = 1 << old_home
        home_chunks = 0
        first = amap.first_chunk_of_page(page)
        for chunk in range(first, first + amap.chunks_per_page):
            cs = directory.copyset.get(chunk, 0)
            if cs & allowed:
                stats.skipped_migrations += 1
                return 0
            if cs & home_bit:
                home_chunks += 1
        # The old home still actively uses the page (it caches a
        # non-trivial share of its chunks): moving the home would just
        # swap whose accesses go remote.  Real migration policies weigh
        # both sides' usage; a small occupancy bound captures that.
        if home_chunks > amap.chunks_per_page // 4:
            stats.skipped_migrations += 1
            return 0

        # Old home flushes its cached copies and demotes to CC-NUMA mode
        # (its own next access will go remote).
        old = machine.nodes[old_home]
        flushed = old.flush_page(page)
        if old.page_table.mode_of(page) == PageMode.HOME:
            old.page_table.convert_home_to_ccnuma(page)

        machine.allocator.migrate(page, node.id)
        node.page_table.convert_ccnuma_to_home(page)
        # The requester's RAC may hold chunks fetched while the page was
        # remote; now that it is home-mapped they would linger unused.
        node.rac.flush_page(page, amap.lines_per_page if self._rac_victim
                            else amap.chunks_per_page)
        directory.reset_refetch(page, node.id)

        overhead = node.costs.migration_cost(amap.chunks_per_page, flushed)
        stats.K_OVERHD += overhead
        stats.migrations += 1
        events = self._events
        if events.observers:
            events.clock = now
            events.publish(EV_MIGRATE, node.id, page, old_home=old_home)
        return overhead


def simulate(workload: WorkloadTraces, policy: ArchitecturePolicy,
             config: SystemConfig | None = None,
             quantum: int = DEFAULT_QUANTUM,
             log_messages: bool = False) -> RunResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    return Engine(workload, policy, config=config, quantum=quantum,
                  log_messages=log_messages).run()
