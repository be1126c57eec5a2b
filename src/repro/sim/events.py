"""Simulation event bus: rare page-management and coherence events.

The replay engine's per-reference hot path must stay fast, so the bus
publishes only the *rare* transitions the protocol and VM state
machines make -- page faults, S-COMA mappings, evictions, relocations,
flushes, migrations, invalidations, daemon runs, barrier releases --
to registered observers.  With no observer attached, every publish
site reduces to one attribute load and a falsy-list check, so an
unobserved run pays (near-)zero cost.

One :class:`EventBus` is shared by a :class:`~repro.sim.machine.Machine`
and all of its nodes.  The engine stamps ``bus.clock`` with the acting
node's local clock at every rare-event entry point, so observers see
events with cycle context without the hot path threading ``now``
through every call.

Observers include :class:`~repro.sim.debug.EventTrace` (bounded
diagnostic recording) and :class:`~repro.check.InvariantChecker`
(online invariant checking with deterministic failure replay).
"""

from __future__ import annotations

__all__ = [
    "EventBus", "SimEvent",
    "EV_FAULT", "EV_MAP_SCOMA", "EV_EVICT", "EV_RELOCATE", "EV_FLUSH",
    "EV_INVALIDATE", "EV_DEMOTE", "EV_DAEMON", "EV_BARRIER", "EV_MIGRATE",
    "EV_END",
]

# -- event kinds ---------------------------------------------------------
EV_FAULT = "fault"            #: first touch of a shared page on a node
EV_MAP_SCOMA = "map_scoma"    #: page installed into the local page cache
EV_EVICT = "evict"            #: S-COMA page evicted (detail: forced)
EV_RELOCATE = "relocate"      #: CC-NUMA page upgraded to S-COMA mode
EV_FLUSH = "flush"            #: page flushed from all local caches
EV_INVALIDATE = "invalidate"  #: chunk invalidated by a remote write
EV_DEMOTE = "demote"          #: write permission lost to a remote read
EV_DAEMON = "daemon"          #: pageout daemon run (detail: thrashing)
EV_BARRIER = "barrier"        #: global barrier released
EV_MIGRATE = "migrate"        #: page home migrated (detail: old_home)
EV_END = "end"                #: simulation finished


class SimEvent:
    """One published event.  ``detail`` carries kind-specific context."""

    __slots__ = ("kind", "node", "page", "clock", "detail")

    def __init__(self, kind: str, node: int, page: int, clock: int,
                 detail: dict) -> None:
        self.kind = kind
        self.node = node
        self.page = page
        self.clock = clock
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tail = f" {self.detail}" if self.detail else ""
        return (f"<{self.kind} node={self.node} page={self.page}"
                f" clock={self.clock}{tail}>")


class EventBus:
    """Synchronous observer list with a clock hint.

    ``publish`` returns immediately when no observer is subscribed;
    publish *sites* may additionally guard on ``bus.observers`` to skip
    building event details entirely.

    Kind-filtered subscriptions (``subscribe(obs, kinds=...)``) exist
    for telemetry that must not slow the replay hot path: a filtered
    observer never appears in ``observers``, so the replay kernel
    (which declines a run while ``observers`` is non-empty) and the
    per-event publish guards stay on.  The trade-off is that a
    filtered observer only sees kinds whose publish sites guard on
    :meth:`watching` rather than on ``observers`` — today the rare
    run-structure kinds (``EV_DAEMON``, ``EV_BARRIER``, ``EV_END``),
    which is exactly the set :class:`repro.obs.BackoffTelemetry` needs.
    """

    __slots__ = ("observers", "clock", "kind_observers")

    def __init__(self) -> None:
        self.observers: list = []
        #: kind -> observers that only want that kind (see class docs).
        self.kind_observers: dict = {}
        self.clock = 0

    def subscribe(self, observer, kinds=None) -> None:
        """Register ``observer(event: SimEvent)``.

        With *kinds* (an iterable of event-kind strings) the observer
        is kind-filtered: it sees only those kinds, and it does not
        disturb the ``observers``-guarded kernel eligibility.
        """
        if kinds is None:
            self.observers.append(observer)
        else:
            for kind in kinds:
                self.kind_observers.setdefault(kind, []).append(observer)

    def unsubscribe(self, observer) -> None:
        if observer in self.observers:
            self.observers.remove(observer)
            return
        for kind in list(self.kind_observers):
            subscribers = self.kind_observers[kind]
            while observer in subscribers:
                subscribers.remove(observer)
            if not subscribers:
                del self.kind_observers[kind]

    def watching(self, kind: str) -> bool:
        """Would a publish of *kind* reach any observer right now?"""
        return bool(self.observers) or kind in self.kind_observers

    def publish(self, kind: str, node: int, page: int, **detail) -> None:
        filtered = self.kind_observers.get(kind)
        if not self.observers and not filtered:
            return
        event = SimEvent(kind, node, page, self.clock, detail)
        for observer in self.observers:
            observer(event)
        if filtered:
            for observer in filtered:
                observer(event)
