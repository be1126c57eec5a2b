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

The three replay loops
----------------------
The engine carries three replay loops producing **bit-identical**
:class:`RunResult`s (``tests/test_perf_parity.py`` enforces this for
every architecture):

* the **fast path** inlines the direct-mapped L1 hit case into the
  event loop, hoists per-event attribute lookups into locals and
  replays cached list-form traces;
* the **reference path** (``REPRO_SLOW_PATH=1`` or ``slow_path=True``)
  is the straightforward one-call-per-event loop the fast path was
  derived from.  It is the escape hatch for debugging and the parity
  oracle for every future hot-path change;
* the **vector path** decodes the trace to structure-of-arrays form
  and replays it through the compiled SoA kernel in
  :mod:`repro.sim.soatrace` -- page faults and pure S-COMA's forced
  evictions included -- exiting to the scalar machinery for residual
  events (first touches, relocation hints, daemon runs, barriers) and
  degrading (loss-free) to the fast path when the engine is
  ineligible or no kernel can be built.

Vector dispatch is three-state (``Engine.vector_mode``): ``auto`` --
the default -- tries the kernel and silently falls back; ``on``
(``REPRO_VECTOR_PATH=1``, ``vector_path=True`` or ``repro --vector``)
is the explicit opt-in; ``off`` (``REPRO_VECTOR_PATH=0``,
``vector_path=False`` or ``repro --no-vector``) pins the scalar
loops.  Selection precedence is constructor over environment; asking
for the reference loop and ``on`` *at the same level* raises
``ValueError`` (``auto`` never conflicts -- slow_path simply wins).
Loop selection is a runtime concern only: it never enters spec hashes
or trace cache keys.  See ``docs/performance.md`` for the measured
speedups.
"""

from __future__ import annotations

import os
import sys

from ..core.policy import ArchitecturePolicy, RelocationDecision
from ..kernel.vm import PageMode
from .config import SystemConfig
from .events import EV_BARRIER, EV_END, EV_FAULT, EV_MIGRATE
from .machine import Machine
from .stats import RunResult
from .trace import EV_COMPUTE, EV_LOCAL, EV_WRITE, WorkloadTraces

__all__ = ["Engine", "simulate", "default_vector_mode"]

#: How far (cycles) one node may run ahead of the runner-up clock.
DEFAULT_QUANTUM = 2000


def default_vector_mode() -> str:
    """Vector mode (``auto``/``on``/``off``) an Engine gets from the
    environment alone — what ``REPRO_VECTOR_PATH`` currently resolves
    to, before any ctor override.  Used by the CLI and the job server
    to report the process-wide dispatch default.

    Only the documented spellings are honoured: ``1/on/yes/true`` pin
    the kernel on, ``0/off/no/false`` pin it off, empty or ``auto``
    defer to dispatch.  Anything else (a typo like ``of`` or ``fasle``)
    used to silently force the kernel *on*; it now warns once and falls
    back to ``auto``, so a typo can neither force nor forbid a
    substrate behind the user's back."""
    raw = os.environ.get("REPRO_VECTOR_PATH", "").strip().lower()
    if raw in ("", "auto"):
        return "auto"
    if raw in ("0", "off", "no", "false"):
        return "off"
    if raw in ("1", "on", "yes", "true"):
        return "on"
    import warnings

    warnings.warn(
        f"unrecognized REPRO_VECTOR_PATH={raw!r}; expected one of"
        " 1/on/yes/true, 0/off/no/false, or auto — falling back to 'auto'",
        RuntimeWarning, stacklevel=2)
    return "auto"


class Engine:
    """One simulation run."""

    def __init__(self, workload: WorkloadTraces, policy: ArchitecturePolicy,
                 config: SystemConfig | None = None,
                 quantum: int = DEFAULT_QUANTUM,
                 log_messages: bool = False,
                 sampler=None,
                 slow_path: bool | None = None,
                 vector_path: bool | None = None) -> None:
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
        #: Replay-loop selection.  Three mutually-checking loops:
        #: the reference loop (slow_path), the optimised scalar loop
        #: (the default), and the vectorized SoA loop (vector_path,
        #: see repro.sim.soatrace).  Each is selected per engine via
        #: the ctor or process-wide via REPRO_SLOW_PATH=1 /
        #: REPRO_VECTOR_PATH=1; an explicit ctor argument beats the
        #: environment, and selecting both loops at once is a
        #: contradiction that raises instead of silently picking one
        #: (precedence documented in docs/performance.md).
        env_slow = os.environ.get("REPRO_SLOW_PATH", "") not in ("", "0")
        if vector_path is None:
            mode = default_vector_mode()
        else:
            mode = "on" if vector_path else "off"
        slow = env_slow if slow_path is None else slow_path
        if slow and mode == "on":
            if slow_path is not None and vector_path is not None:
                raise ValueError(
                    "conflicting path selections: slow_path=True and"
                    " vector_path=True cannot both be honoured")
            if slow_path is None and vector_path is None:
                raise ValueError(
                    "conflicting path selections: REPRO_SLOW_PATH and"
                    " REPRO_VECTOR_PATH are both set")
            # Exactly one side was explicit: ctor beats env.
            if slow_path is not None:
                mode = "off"
            else:
                slow = False
        self.slow_path = slow
        #: Three-state vector dispatch.  ``"auto"`` (the default) runs
        #: the SoA kernel whenever this engine is eligible and a kernel
        #: can be loaded, degrading loss-free to the scalar fast path
        #: otherwise; ``"on"`` is the explicit opt-in (ctor
        #: vector_path=True / REPRO_VECTOR_PATH=1); ``"off"`` pins the
        #: scalar loops (vector_path=False / REPRO_VECTOR_PATH=0).
        #: ``"auto"`` never conflicts with the reference loop: an
        #: explicit or env slow_path simply wins.
        self.vector_mode = mode
        #: True only when the kernel was *explicitly* selected -- the
        #: historical boolean the selection tests and callers key on;
        #: ``auto`` reports False here while still dispatching through
        #: the kernel at run() time.
        self.vector_path = mode == "on"
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
        if self.slow_path:
            clock = self._run_reference()
        elif self.vector_mode != "off":
            clock = self._run_vector()
        else:
            clock = self._run_fast()

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
    def _run_fast(self) -> list[int]:
        """Optimised replay loop (the default).

        Bit-identical to :meth:`_run_reference` -- every divergence is
        a pure re-expression of the same arithmetic: the direct-mapped
        L1 hit case is inlined (the tag probe is a pure compare, so the
        fallback `_shared_ref` call re-probing on the remaining cases
        sees identical state), per-event attribute chains are hoisted
        to locals that alias the same mutable objects, and the
        ``limit is None`` check is folded into a sentinel clock no run
        can reach.

        When nothing observes intermediate state (no event-bus
        observers, no message log), the common L1-*miss*
        cases are inlined too: the HOME-mode local fetch, the S-COMA
        page-cache hit, the RAC hit, the plain 2-hop remote fetch and
        the sharer-free ownership upgrade each replicate
        `_shared_ref`'s exact mutation sequence without its call chain
        (protocol -> directory -> memory -> network).  Every inlined
        case decides *before mutating anything* whether it is one of
        the rare shapes it does not model (dirty-owner forward, write
        invalidations, page fault, relocation hint) and falls back to
        the untouched `_shared_ref`, which is what keeps the parity
        suite a real oracle for this block.
        """
        machine = self.machine
        nodes = machine.nodes
        n = len(nodes)
        # -- inlined-miss machinery (see docstring) ---------------------
        protocol = self._protocol
        directory = protocol.directory
        inline_miss = (self._l1_direct and directory.log is None
                       and not self._events.observers)
        dir_copyset = directory.copyset
        dir_owner = directory.owner
        dir_refetch = directory.refetch_count
        grant_ex = directory.grant_exclusive
        mems = protocol.memories
        network = protocol.network
        net_base = network._base
        net_port_busy = network.port_busy_until
        net_maxq = network.max_queue
        net_occ = network.port_occupancy
        home_arr = self._home
        line_shift = self._line_shift
        cpp_mask = self._cpp_mask
        dsm2 = self._dsm2
        rac_cycles = self._rac_cycles
        rac_victim = self._rac_victim
        l1_fill_victim = self._l1_fill
        buses = self._buses
        # Cached list-form traces: scalar list indexing beats numpy
        # scalar indexing ~3x, and the cache amortises the conversion
        # across the many runs of one workload in a matrix sweep.
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
        l1_direct = self._l1_direct
        hit_cycles = self._hit_cycles
        chunk_shift = self._chunk_shift
        ev_write = EV_WRITE
        ev_compute = EV_COMPUTE
        ev_local = EV_LOCAL
        no_limit = sys.maxsize  # clocks stay far below 2**63

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
            limit = (runner_up + quantum) if runner_up is not None else no_limit

            node = nodes[best]
            k = kinds[best]
            a = args[best]
            p = pos[best]
            e = end[best]
            now = clock[best]
            stats = node.stats
            node.run_daemon_if_due(now)

            if l1_direct:
                # Hot loop with the L1 hit case inlined.  `tags`/`dirty`
                # alias the cache's own lists (mutated in place by fills
                # and flushes, never rebound during a run).  Hits and
                # misses are tallied in locals and flushed once per
                # slice: nothing reads `stats.l1_hits`/`l1_misses`/
                # `U_SH_MEM`/`HOME*` mid-slice, and integer addition
                # commutes with the `_shared_ref` increments.
                l1 = node.l1
                tags = l1.tags
                dirty = l1.dirty
                set_mask = l1.set_mask
                owned = node.owned
                hits = 0
                misses = 0
                ush = 0
                home_n = 0
                home_lat = 0
                bus_tx = 0
                mem_acc = 0
                if inline_miss:
                    nid = node.id
                    nbit = 1 << nid
                    bus = buses[nid]
                    bus_occ = bus.occupancy
                    bus_fixed = bus.fixed_cost
                    bus_maxq = bus.max_queue
                    mode_get = node.page_table.mode.get
                    sv = node.page_table.scoma_valid
                    tlb_ref = node.tlb.ref_bits
                    mem = node.memory
                    mem_busy = mem.busy_until
                    mem_mask = mem.bank_mask
                    mem_service = mem.service_cycles
                    mem_occ = mem.occupancy_cycles
                    mem_maxq = mem.max_queue
                    rac = node.rac
                    rac_chunks = rac.chunks
                    rac_mask = rac.entry_mask
                    ps = node.policy_state
                    pagecache_hits = node.pagecache_hits
                    ever = node.ever_fetched
                    l1stats = l1.stats
                    net_base_nid = net_base[nid]
                while p < e and now < limit:
                    ev = k[p]
                    arg = a[p]
                    p += 1
                    if ev <= ev_write:  # READ or WRITE
                        s = arg & set_mask
                        if tags[s] == arg:
                            if ev != ev_write:
                                hits += 1
                                now += hit_cycles
                                continue
                            chunk = arg >> chunk_shift
                            if chunk in owned:
                                hits += 1
                                dirty[s] = True
                                now += hit_cycles
                                continue
                            if not inline_miss:
                                # Write hit needing an ownership
                                # upgrade: the full path re-probes
                                # (pure compare) and takes the branch
                                # the reference path does.
                                now += shared_ref(node, arg, True, now)
                                continue
                            # ---- inlined upgrade (write hit, chunk
                            # not owned).  Pure pre-checks: a dirty
                            # remote owner or sharers to invalidate
                            # fall back to the full transaction.
                            owner = dir_owner.get(chunk, -1)
                            if owner != -1 and owner != nid:
                                now += shared_ref(node, arg, True, now)
                                continue
                            cs = dir_copyset.get(chunk, 0)
                            if cs & ~nbit:
                                now += shared_ref(node, arg, True, now)
                                continue
                            hits += 1
                            dir_copyset[chunk] = nbit
                            dir_owner[chunk] = nid
                            page = arg >> line_shift
                            home = home_arr[page]
                            if home != nid:
                                # round trip: request leg, then ack leg
                                base = net_base_nid[home]
                                t = now + base
                                busy = net_port_busy[home]
                                q = busy - t if busy > t else 0
                                if q > net_maxq:
                                    q = net_maxq
                                net_port_busy[home] = t + q + net_occ
                                network.messages += 1
                                if q:
                                    network.contended_messages += 1
                                    network.total_queue_cycles += q
                                lat = base + q
                                base = net_base[home][nid]
                                t = now + lat + base
                                busy = net_port_busy[nid]
                                q = busy - t if busy > t else 0
                                if q > net_maxq:
                                    q = net_maxq
                                net_port_busy[nid] = t + q + net_occ
                                network.messages += 1
                                if q:
                                    network.contended_messages += 1
                                    network.total_queue_cycles += q
                                lat += base + q
                            else:
                                lat = 0
                            owned.add(chunk)
                            stats.upgrades += 1
                            ush += lat
                            dirty[s] = True
                            now += hit_cycles + lat
                            continue
                        if not inline_miss:
                            now += shared_ref(node, arg, ev == ev_write, now)
                            continue
                        # ---- inlined L1 miss (see docstring) --------
                        # Pure probes first; nothing is mutated until
                        # the case is known to be one this block models
                        # exactly, so a fallback `_shared_ref` call
                        # always sees pristine state.
                        page = arg >> line_shift
                        mode = mode_get(page, 0)
                        chunk = arg >> chunk_shift
                        is_write = ev == ev_write
                        if mode == 1:  # HOME: local fetch
                            owner = dir_owner.get(chunk, -1)
                            if owner != -1 and owner != nid:
                                now += shared_ref(node, arg, is_write, now)
                                continue
                            cs = dir_copyset.get(chunk, 0)
                            exclusive = False
                            if is_write:
                                if cs & ~nbit:  # sharers to invalidate
                                    now += shared_ref(node, arg, is_write,
                                                      now)
                                    continue
                                dir_copyset[chunk] = nbit
                                dir_owner[chunk] = nid
                            else:
                                dir_copyset[chunk] = cs | nbit
                                if grant_ex and cs == 0 and owner != nid:
                                    dir_owner[chunk] = nid
                                    exclusive = True
                                    directory.exclusive_grants += 1
                            misses += 1
                            tlb_ref[page] = True
                            # bus transaction (inlined)
                            busy = bus.busy_until
                            q = busy - now if busy > now else 0
                            if q > bus_maxq:
                                q = bus_maxq
                            bus.busy_until = now + q + bus_occ
                            bus_tx += 1
                            if q:
                                bus.contended += 1
                                bus.total_queue_cycles += q
                            lat = bus_fixed + q
                            # local DRAM access (inlined)
                            bank = chunk & mem_mask
                            t = now + lat
                            busy = mem_busy[bank]
                            q = busy - t if busy > t else 0
                            if q > mem_maxq:
                                q = mem_maxq
                            mem_busy[bank] = t + q + mem_occ
                            mem_acc += 1
                            if q:
                                mem.contended += 1
                                mem.total_queue_cycles += q
                            lat += mem_service + q
                            home_n += 1
                            home_lat += lat
                            if is_write or exclusive:
                                owned.add(chunk)
                            # L1 fill (inlined; `s` probed above missed)
                            if rac_victim:
                                l1_fill_victim(node, arg, is_write)
                            else:
                                victim = tags[s]
                                if victim != -1 and dirty[s]:
                                    l1stats.writebacks += 1
                                tags[s] = arg
                                dirty[s] = is_write
                            ush += lat
                            now += lat
                            continue
                        if mode == 2:  # S-COMA
                            cip = chunk & cpp_mask
                            if sv[page] >> cip & 1:  # page-cache hit
                                upgrading = is_write and chunk not in owned
                                if upgrading:
                                    # Pure pre-checks for the clean
                                    # inlined upgrade; anything else
                                    # takes the full transaction.
                                    owner = dir_owner.get(chunk, -1)
                                    cs = dir_copyset.get(chunk, 0)
                                    if ((owner != -1 and owner != nid)
                                            or cs & ~nbit):
                                        now += shared_ref(node, arg, True,
                                                          now)
                                        continue
                                misses += 1
                                tlb_ref[page] = True
                                busy = bus.busy_until
                                q = busy - now if busy > now else 0
                                if q > bus_maxq:
                                    q = bus_maxq
                                bus.busy_until = now + q + bus_occ
                                bus_tx += 1
                                if q:
                                    bus.contended += 1
                                    bus.total_queue_cycles += q
                                lat = bus_fixed + q
                                bank = chunk & mem_mask
                                t = now + lat
                                busy = mem_busy[bank]
                                q = busy - t if busy > t else 0
                                if q > mem_maxq:
                                    q = mem_maxq
                                mem_busy[bank] = t + q + mem_occ
                                mem_acc += 1
                                if q:
                                    mem.contended += 1
                                    mem.total_queue_cycles += q
                                lat += mem_service + q
                                stats.SCOMA += 1
                                pagecache_hits[page] += 1
                                stats.SCOMA_LAT += lat
                                if upgrading:
                                    # round trip at now + lat, then the
                                    # directory takes the write.
                                    dir_copyset[chunk] = nbit
                                    dir_owner[chunk] = nid
                                    if home_arr[page] != nid:
                                        home = home_arr[page]
                                        base = net_base_nid[home]
                                        t = now + lat + base
                                        busy = net_port_busy[home]
                                        q = busy - t if busy > t else 0
                                        if q > net_maxq:
                                            q = net_maxq
                                        net_port_busy[home] = t + q + net_occ
                                        network.messages += 1
                                        if q:
                                            network.contended_messages += 1
                                            network.total_queue_cycles += q
                                        ulat = base + q
                                        base = net_base[home][nid]
                                        t = now + lat + ulat + base
                                        busy = net_port_busy[nid]
                                        q = busy - t if busy > t else 0
                                        if q > net_maxq:
                                            q = net_maxq
                                        net_port_busy[nid] = t + q + net_occ
                                        network.messages += 1
                                        if q:
                                            network.contended_messages += 1
                                            network.total_queue_cycles += q
                                        lat += ulat + base + q
                                    owned.add(chunk)
                                    stats.upgrades += 1
                                if rac_victim:
                                    l1_fill_victim(node, arg, is_write)
                                else:
                                    victim = tags[s]
                                    if victim != -1 and dirty[s]:
                                        l1stats.writebacks += 1
                                    tags[s] = arg
                                    dirty[s] = is_write
                                ush += lat
                                now += lat
                                continue
                            remote_kind = 0  # S-COMA chunk fill
                        elif mode == 3:  # CC-NUMA
                            key = arg if rac_victim else chunk
                            if rac_chunks[key & rac_mask] == key:  # RAC hit
                                upgrading = is_write and chunk not in owned
                                if upgrading:
                                    owner = dir_owner.get(chunk, -1)
                                    cs = dir_copyset.get(chunk, 0)
                                    if ((owner != -1 and owner != nid)
                                            or cs & ~nbit):
                                        now += shared_ref(node, arg, True,
                                                          now)
                                        continue
                                rac.hits += 1
                                misses += 1
                                tlb_ref[page] = True
                                busy = bus.busy_until
                                q = busy - now if busy > now else 0
                                if q > bus_maxq:
                                    q = bus_maxq
                                bus.busy_until = now + q + bus_occ
                                bus_tx += 1
                                if q:
                                    bus.contended += 1
                                    bus.total_queue_cycles += q
                                lat = bus_fixed + q + rac_cycles
                                stats.RAC += 1
                                stats.RAC_LAT += lat
                                if upgrading:
                                    dir_copyset[chunk] = nbit
                                    dir_owner[chunk] = nid
                                    if home_arr[page] != nid:
                                        home = home_arr[page]
                                        base = net_base_nid[home]
                                        t = now + lat + base
                                        busy = net_port_busy[home]
                                        q = busy - t if busy > t else 0
                                        if q > net_maxq:
                                            q = net_maxq
                                        net_port_busy[home] = t + q + net_occ
                                        network.messages += 1
                                        if q:
                                            network.contended_messages += 1
                                            network.total_queue_cycles += q
                                        ulat = base + q
                                        base = net_base[home][nid]
                                        t = now + lat + ulat + base
                                        busy = net_port_busy[nid]
                                        q = busy - t if busy > t else 0
                                        if q > net_maxq:
                                            q = net_maxq
                                        net_port_busy[nid] = t + q + net_occ
                                        network.messages += 1
                                        if q:
                                            network.contended_messages += 1
                                            network.total_queue_cycles += q
                                        lat += ulat + base + q
                                    owned.add(chunk)
                                    stats.upgrades += 1
                                if rac_victim:
                                    l1_fill_victim(node, arg, is_write)
                                else:
                                    victim = tags[s]
                                    if victim != -1 and dirty[s]:
                                        l1stats.writebacks += 1
                                    tags[s] = arg
                                    dirty[s] = is_write
                                ush += lat
                                now += lat
                                continue
                            remote_kind = 1  # CC-NUMA remote fetch
                        else:  # UNMAPPED: page fault machinery
                            now += shared_ref(node, arg, is_write, now)
                            continue
                        # ---- plain 2-hop remote fetch (both kinds) --
                        home = home_arr[page]
                        owner = dir_owner.get(chunk, -1)
                        if owner != -1 and owner != nid:  # forwarded
                            now += shared_ref(node, arg, is_write, now)
                            continue
                        cs = dir_copyset.get(chunk, 0)
                        if is_write and cs & ~nbit:  # invalidations
                            now += shared_ref(node, arg, is_write, now)
                            continue
                        refetch = cs & nbit
                        if remote_kind:  # CC-NUMA counts refetches
                            threshold = (ps.threshold
                                         if ps.relocation_enabled else 0)
                            if refetch and threshold > 0:
                                count = dir_refetch.get((page, nid), 0) + 1
                                if count >= threshold:  # relocation hint
                                    now += shared_ref(node, arg, is_write,
                                                      now)
                                    continue
                        # Commit: replicate `_shared_ref`'s sequence.
                        misses += 1
                        if remote_kind:  # the CC-NUMA path probed the RAC
                            rac.misses += 1
                        tlb_ref[page] = True
                        busy = bus.busy_until
                        q = busy - now if busy > now else 0
                        if q > bus_maxq:
                            q = bus_maxq
                        bus.busy_until = now + q + bus_occ
                        bus_tx += 1
                        if q:
                            bus.contended += 1
                            bus.total_queue_cycles += q
                        lat = bus_fixed + q
                        # directory fetch_raw effects
                        exclusive = False
                        if is_write:
                            dir_copyset[chunk] = nbit
                            dir_owner[chunk] = nid
                        else:
                            dir_copyset[chunk] = cs | nbit
                            if grant_ex and cs == 0 and owner != nid:
                                dir_owner[chunk] = nid
                                exclusive = True
                                directory.exclusive_grants += 1
                        if remote_kind and refetch:
                            directory.total_refetches += 1
                            if threshold > 0:
                                dir_refetch[(page, nid)] = count
                        # request leg (network one_way, inlined)
                        t = now + lat
                        if nid != home:
                            base = net_base_nid[home]
                            t += base
                            busy = net_port_busy[home]
                            q = busy - t if busy > t else 0
                            if q > net_maxq:
                                q = net_maxq
                            net_port_busy[home] = t + q + net_occ
                            network.messages += 1
                            if q:
                                network.contended_messages += 1
                                network.total_queue_cycles += q
                            rlat = base + q
                        else:
                            rlat = 0
                        # home DRAM access
                        mem_h = mems[home]
                        t = now + lat + rlat
                        bank = chunk & mem_h.bank_mask
                        busy = mem_h.busy_until[bank]
                        q = busy - t if busy > t else 0
                        if q > mem_h.max_queue:
                            q = mem_h.max_queue
                        mem_h.busy_until[bank] = t + q + mem_h.occupancy_cycles
                        mem_h.accesses += 1
                        if q:
                            mem_h.contended += 1
                            mem_h.total_queue_cycles += q
                        rlat += mem_h.service_cycles + q
                        # data response leg
                        if home != nid:
                            base = net_base[home][nid]
                            t = now + lat + rlat + base
                            busy = net_port_busy[nid]
                            q = busy - t if busy > t else 0
                            if q > net_maxq:
                                q = net_maxq
                            net_port_busy[nid] = t + q + net_occ
                            network.messages += 1
                            if q:
                                network.contended_messages += 1
                                network.total_queue_cycles += q
                            rlat += base + q
                        protocol.remote_fetches += 1
                        lat += dsm2 + rlat
                        if remote_kind:
                            if not rac_victim:
                                rac_chunks[chunk & rac_mask] = chunk
                                rac.fills += 1
                        else:
                            sv[page] |= 1 << cip
                        # miss classification (_classify_remote, inlined)
                        if refetch:
                            stats.CONF_CAPC += 1
                            stats.CONF_CAPC_LAT += lat
                            ever.add(chunk)
                        else:
                            stats.COLD += 1
                            stats.COLD_LAT += lat
                            if chunk in ever:
                                stats.induced_cold += 1
                            else:
                                stats.essential_cold += 1
                                ever.add(chunk)
                        if is_write or exclusive:
                            owned.add(chunk)
                        if rac_victim:
                            l1_fill_victim(node, arg, is_write)
                        else:
                            victim = tags[s]
                            if victim != -1 and dirty[s]:
                                l1stats.writebacks += 1
                            tags[s] = arg
                            dirty[s] = is_write
                        ush += lat
                        now += lat
                    elif ev == ev_compute:
                        stats.U_INSTR += arg
                        now += arg
                    elif ev == ev_local:
                        stats.U_LC_MEM += arg
                        now += arg
                    else:  # EV_BARRIER
                        waiting[best] = True
                        barrier_id[best] = arg
                        arrival[best] = now
                        break
                if hits:
                    stats.l1_hits += hits
                if misses:
                    stats.l1_misses += misses
                if ush:
                    stats.U_SH_MEM += ush
                if home_n:
                    stats.HOME += home_n
                    stats.HOME_LAT += home_lat
                if bus_tx:
                    bus.transactions += bus_tx
                if mem_acc:
                    mem.accesses += mem_acc
            else:
                while p < e and now < limit:
                    ev = k[p]
                    arg = a[p]
                    p += 1
                    if ev <= ev_write:
                        now += shared_ref(node, arg, ev == ev_write, now)
                    elif ev == ev_compute:
                        stats.U_INSTR += arg
                        now += arg
                    elif ev == ev_local:
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
    def _run_vector(self) -> list[int]:
        """Vectorized SoA replay loop (see repro.sim.soatrace).

        Bit-identical to both scalar loops.  The decoded trace and the
        machine's per-event mutable state move into dense numpy
        arrays, and a small compiled kernel replays the scheduler, the
        reference cases and the page faults and forced evictions of
        the modelled first-touch rules over them, handing only the
        residual events (first machine-wide touches, relocation hints,
        daemon runs, barrier releases) back to the scalar machinery --
        which then operates on the same arrays through dict/set views,
        so the two substrates never diverge.

        Degrades silently to :meth:`_run_fast` when the kernel is
        unavailable (no C compiler / cffi) or the run shape is outside
        its model -- the same rule by which the fast path's inlined
        cases fall back to `_shared_ref`.  Notably, attaching the
        invariant checker subscribes an unfiltered observer, so
        checked runs take the scalar path.
        """
        from .soatrace import run_vector

        clock = run_vector(self)
        if clock is None:
            return self._run_fast()
        return clock

    # ------------------------------------------------------------------
    def _run_reference(self) -> list[int]:
        """Reference replay loop: one `_shared_ref` call per event.

        This is the pre-optimisation engine, kept verbatim as the
        parity oracle (`tests/test_perf_parity.py`) and as the
        REPRO_SLOW_PATH=1 escape hatch.
        """
        machine = self.machine
        nodes = machine.nodes
        n = len(nodes)
        # Python lists index ~3x faster than numpy scalars in this loop.
        kinds = [t.kinds.tolist() for t in self.workload.traces]
        args = [t.args.tolist() for t in self.workload.traces]
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
