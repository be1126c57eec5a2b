"""Persistent asyncio job server: simulation as a service.

Every CLI invocation pays interpreter startup, imports, trace
generation/load and pool spin-up before the first ASCOMA cell
simulates.  :class:`JobServer` pays those costs once and then stays
resident: the :class:`~repro.runtime.store.RunStore`, the
:class:`~repro.runtime.tracecache.TraceStore` (plus the per-process
trace memo) and — with the process backend — a warm worker pool all
survive across jobs, so a submit whose cells are cached answers in
about a millisecond where a fresh ``repro run`` pays ~1s of process
startup (``bench_serve_warm`` pins the factor).

Guarantees, mirroring (and built on) :mod:`repro.runtime.executor`:

* **In-flight dedupe across clients** — each unique
  :meth:`~repro.runtime.spec.RunSpec.spec_hash` simulates at most once
  at a time server-wide: the second submitter's job attaches to the
  first's cell task (``attach`` progress event) and both receive the
  one result.  Store hits are served without simulating at all.
* **Fault isolation** — a failing cell becomes a
  :class:`~repro.runtime.spec.RunFailure` in the job's outcomes (job
  state ``failed``), never a dead server.  A killed pool worker breaks
  only the cells in flight on that pool; the pool is rebuilt lazily
  and subsequent submits succeed.
* **Store parity** — results are written through the same
  :meth:`RunStore.put` as in-process runs, in the parent, producing
  byte-identical artifacts; a raising ``put`` keeps the result and
  surfaces the executor's ``store-fail`` tag as a protocol event.
* **Backpressure** — at most ``max_queued`` jobs may be live at once;
  beyond that, submits are rejected with the ``backpressure`` error
  code instead of queueing unboundedly.
* **Streaming** — per-cell progress, job state changes and (with an
  obs recorder attached) ``repro.obs`` telemetry records are published
  on a server-wide :class:`~repro.sim.events.EventBus` under the
  :data:`EV_JOB`/:data:`EV_CELL`/:data:`EV_OBS` kinds; streaming
  clients get a *kind-filtered* subscription that is always
  unsubscribed on completion, cancellation or disconnect, so observer
  lists cannot grow across jobs (``tests/test_serve_stress.py`` pins
  this over 1000 jobs).

Concurrency model: all bookkeeping (job table, in-flight map, store
reads/writes, event publishing) happens on the event-loop thread;
simulations run off-loop — ``backend="process"`` dispatches to a warm
:class:`~concurrent.futures.ProcessPoolExecutor` via the executor's
``_pool_worker`` (same payloads, same telemetry buffering),
``backend="inline"`` runs the same worker function on a thread, which
shares the parent's warm trace memo and is the lowest-latency path for
store-hit-heavy traffic.  Cancelling a job cancels cells no other live
job references; a cell another job attached to keeps running.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from ..runtime import RunFailure, RunSpec
from ..runtime.executor import _pool_init, _pool_worker
from ..runtime.tracecache import set_default_trace_store
from ..sim.events import EventBus
from ..sim.stats import RunResult
from .jobs import Job, JobTable
from .protocol import (MAX_FRAME_BYTES, ProtocolError, decode_frame,
                       encode_frame, error_frame, parse_request, parse_specs)

__all__ = ["DEFAULT_SOCKET", "EV_JOB", "EV_CELL", "EV_OBS",
           "BackpressureError", "JobServer", "ServerThread",
           "default_socket_path"]

#: Default Unix socket, next to the result/trace/obs stores.
DEFAULT_SOCKET = "results/serve.sock"

#: Server-bus event kinds (all kind-filtered; see module docstring).
EV_JOB = "job"    #: job state change (queued/running/terminal)
EV_CELL = "cell"  #: per-cell progress (hit/attach/run/fail/store-fail)
EV_OBS = "obs"    #: one repro.obs telemetry record


def default_socket_path() -> str:
    """``$REPRO_SERVE_SOCKET`` or ``results/serve.sock``."""
    return os.environ.get("REPRO_SERVE_SOCKET", DEFAULT_SOCKET)


class BackpressureError(RuntimeError):
    """Submit rejected: the bounded job queue is full."""


class JobServer:
    """The resident simulation service (one instance per event loop)."""

    def __init__(self, socket_path: str | None = None, *,
                 host: str | None = None, port: int | None = None,
                 store=None, trace_store=None, obs=None,
                 backend: str = "process", workers: int | None = None,
                 max_queued: int = 32, keep_jobs: int = 256,
                 worker_fn=None) -> None:
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        self.socket_path = (None if host is not None
                            else (socket_path or default_socket_path()))
        self.host, self.port = host, port
        self.store = store
        self.trace_store = trace_store
        self.obs = obs
        self.backend = backend
        self.workers = workers or (os.cpu_count() or 2)
        self.max_queued = max_queued
        self.bus = EventBus()
        self.jobs = JobTable(keep_jobs)
        #: spec_hash -> asyncio.Task simulating that cell right now.
        self._inflight: dict[str, asyncio.Task] = {}
        #: spec_hash -> set of live job ids referencing the cell task.
        self._refs: dict[str, set] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._sem: asyncio.Semaphore | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing = False
        #: test seam: the blocking per-cell function (defaults to the
        #: executor's _pool_worker, so serve and batch runs share one
        #: simulation body).
        self._worker_fn = worker_fn or _pool_worker
        self._client_tasks: set = set()
        self.stats = {"submitted": 0, "simulated": 0, "hits": 0,
                      "attached": 0, "rejected": 0, "store_failures": 0}

    # ------------------------------------------------------------------
    # core API (socket-independent; the protocol layer and the tests
    # both drive the server through these)
    # ------------------------------------------------------------------
    def submit_job(self, specs: list[RunSpec], *, retries: int = 0) -> Job:
        """Register and start one job; raises on backpressure/shutdown."""
        if self._closing:
            raise BackpressureError("server is shutting down")
        if len(self.jobs.live()) >= self.max_queued:
            self.stats["rejected"] += 1
            raise BackpressureError(
                f"job queue full ({self.max_queued} live jobs);"
                " retry after one completes")
        job = Job(self.jobs.new_id(), list(specs), retries=retries)
        job.done_event = asyncio.Event()
        self.jobs.add(job)
        self.stats["submitted"] += 1
        self._publish_job(job)
        job.task = asyncio.get_running_loop().create_task(
            self._run_job(job), name=f"serve-{job.id}")
        return job

    def get_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ProtocolError("unknown-job", f"no such job {job_id!r}"
                                " (terminal jobs are retained for a"
                                " bounded time)")
        return job

    async def cancel_job(self, job_id: str) -> Job:
        """Cancel a live job; cells shared with other jobs keep running."""
        job = self.get_job(job_id)
        if job.terminal:
            return job
        for spec in job.specs:
            self._drop_ref(spec.spec_hash(), job.id)
        if job.task is not None and not job.task.done():
            job.task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await job.task
        if not job.terminal:
            # Cancelled before the job task's first step ever ran:
            # _run_job's finally never executed, so finalise here or
            # the job would sit in "queued" forever with watchers hung.
            job.state = "cancelled"
            job.finished = time.time()
            self._publish_job(job)
            job.done_event.set()
            self.jobs.prune()
        return job

    async def drain(self) -> None:
        """Wait until every job task and cell task has finished."""
        while True:
            tasks = [j.task for j in self.jobs.all()
                     if j.task is not None and not j.task.done()]
            tasks += [t for t in self._inflight.values() if not t.done()]
            if not tasks:
                return
            await asyncio.gather(*tasks, return_exceptions=True)

    def describe(self) -> dict:
        """Server info embedded in ``ping`` responses.

        The ``vector`` block reports the replay substrate cells will
        actually dispatch on: whether ``REPRO_SLOW_PATH`` pins the
        reference loop process-wide
        (:func:`~repro.sim.engine.default_slow_path`) and whether the
        compiled kernel loads here (workers fork from, or are
        configured identically to, this process).
        """
        from ..sim.engine import default_slow_path
        from ..sim.soatrace import vector_available
        from .protocol import PROTOCOL_VERSION
        return {
            "protocol": PROTOCOL_VERSION,
            "backend": self.backend,
            "workers": self.workers,
            "vector": {"slow_path": default_slow_path(),
                       "available": vector_available()},
            "max_queued": self.max_queued,
            "live_jobs": len(self.jobs.live()),
            "jobs": len(self.jobs),
            "inflight": len(self._inflight),
            "store": str(self.store.root) if self.store else None,
            "stats": dict(self.stats),
            "pid": os.getpid(),
        }

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        self._publish_job(job)
        try:
            pending: list[tuple[RunSpec, asyncio.Task]] = []
            for spec in job.specs:
                cached = (self.store.get(spec)
                          if self.store is not None else None)
                if cached is not None:
                    job.outcomes[spec.spec_hash()] = cached
                    self.stats["hits"] += 1
                    self._progress(job, "hit", spec)
                else:
                    pending.append((spec, self._cell_task(spec, job)))
            for spec, task in pending:
                outcome = await asyncio.shield(task)
                job.outcomes[spec.spec_hash()] = outcome
                self._progress(
                    job, "fail" if isinstance(outcome, RunFailure)
                    else "run", spec,
                    error=(outcome.error
                           if isinstance(outcome, RunFailure) else None))
            job.state = "failed" if job.failures() else "done"
        except asyncio.CancelledError:
            job.state = "cancelled"
        except Exception as exc:  # noqa: BLE001 - server must survive
            # A bug in the job runner itself: fail the job, keep serving.
            job.state = "failed"
            job.outcomes.setdefault(
                "__job__", RunFailure(job.specs[0],
                                      f"{type(exc).__name__}: {exc}",
                                      traceback.format_exc()))
        finally:
            job.finished = time.time()
            for spec in job.specs:
                self._drop_ref(spec.spec_hash(), job.id)
            self._publish_job(job)
            job.done_event.set()
            self.jobs.prune()

    def _cell_task(self, spec: RunSpec, job: Job) -> asyncio.Task:
        """The (possibly shared) task simulating one unique spec."""
        key = spec.spec_hash()
        task = self._inflight.get(key)
        if task is not None and not task.done():
            self.stats["attached"] += 1
            self._progress(job, "attach", spec)
            self._refs.setdefault(key, set()).add(job.id)
            return task
        task = asyncio.get_running_loop().create_task(
            self._simulate_cell(spec, job), name=f"cell-{key}")
        self._inflight[key] = task
        self._refs[key] = {job.id}

        def _done(t: asyncio.Task, key: str = key) -> None:
            if self._inflight.get(key) is t:
                del self._inflight[key]
            self._refs.pop(key, None)
            if t.cancelled():
                return
            t.exception()  # mark retrieved; outcome flows via shield

        task.add_done_callback(_done)
        return task

    def _drop_ref(self, key: str, job_id: str) -> None:
        """Release one job's claim on a cell; cancel orphaned cells."""
        refs = self._refs.get(key)
        if refs is None:
            return
        refs.discard(job_id)
        if not refs:
            task = self._inflight.get(key)
            if task is not None and not task.done():
                task.cancel()

    async def _simulate_cell(self, spec: RunSpec, job: Job):
        """Run one unique cell off-loop; store the result in the parent.

        Returns ``RunResult | RunFailure`` — the worker function
        already isolates simulation exceptions into RunFailure, so only
        infrastructure faults (a broken pool) surface here, and they
        too are converted so one dead worker cannot poison a job with
        an unhandled exception.
        """
        payload = (spec, job.retries, False, self.obs is not None)
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.workers)
        loop = asyncio.get_running_loop()
        async with self._sem:
            try:
                if self.backend == "process":
                    outcome, records = await loop.run_in_executor(
                        self._ensure_pool(), self._worker_fn, payload)
                else:
                    outcome, records = await asyncio.to_thread(
                        self._worker_fn, payload)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - broken pool et al.
                self._discard_pool()
                outcome, records = RunFailure(
                    spec, f"{type(exc).__name__}: {exc}",
                    traceback.format_exc()), None
        if records and self.obs is not None:
            self.obs.merge(records)
            for record in records:
                self.bus.publish(EV_OBS, -1, -1, job=job.id, record=record)
        if self.obs is not None:
            if isinstance(outcome, RunFailure):
                self.obs.event("fail", spec=spec, error=outcome.error)
            else:
                self.obs.event("run", spec=spec)
        if isinstance(outcome, RunResult):
            self.stats["simulated"] += 1
            if self.store is not None:
                try:
                    self.store.put(spec, outcome)
                except Exception as exc:  # noqa: BLE001 - keep the result
                    # Same contract as the executor: a failing
                    # write-back must not lose a simulated result.
                    detail = f"{type(exc).__name__}: {exc}"
                    self.stats["store_failures"] += 1
                    job.bump("store-fail")
                    if self.obs is not None:
                        self.obs.event("store-fail", spec=spec, error=detail)
                    self.bus.publish(EV_CELL, -1, -1, job=job.id,
                                     name="store-fail", spec=spec.label(),
                                     spec_hash=spec.spec_hash(), error=detail)
        return outcome

    # ------------------------------------------------------------------
    # worker pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            trace_root = (str(self.trace_store.root)
                          if self.trace_store is not None else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_pool_init,
                initargs=(trace_root,))
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool; the next cell rebuilds it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # event publishing
    # ------------------------------------------------------------------
    def _publish_job(self, job: Job) -> None:
        self.bus.publish(EV_JOB, -1, -1, **job.to_dict(), job=job.id)

    def _progress(self, job: Job, name: str, spec: RunSpec,
                  error: str | None = None) -> None:
        job.bump(name)
        if not self.bus.watching(EV_CELL):
            return
        detail = {"job": job.id, "name": name, "spec": spec.label(),
                  "spec_hash": spec.spec_hash()}
        if error:
            detail["error"] = error
        self.bus.publish(EV_CELL, -1, -1, **detail)

    # ------------------------------------------------------------------
    # protocol layer
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One client connection: read frames, answer, stream, clean up.

        Any exit path — clean EOF, protocol garbage, a client vanishing
        mid-stream — unsubscribes every observer this connection
        registered and closes the transport; a broken client can never
        leak bus subscriptions or kill the accept loop.
        """
        write_lock = asyncio.Lock()
        subscriptions: list = []
        self._client_tasks.add(asyncio.current_task())

        async def send(frame: dict) -> None:
            async with write_lock:
                writer.write(encode_frame(frame))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await send(error_frame(
                        "bad-frame",
                        f"frame exceeds {MAX_FRAME_BYTES} bytes"))
                    break
                if not line:
                    break  # clean EOF
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    # Undecodable bytes: answer, then drop the
                    # connection — the stream can no longer be trusted.
                    await send(error_frame(exc.code, str(exc)))
                    break
                keep_open = await self._handle_frame(frame, send,
                                                     subscriptions)
                if not keep_open:
                    break
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection.  Finish the
            # task *cleanly*: asyncio's client_connected_cb done-callback
            # (3.11) calls task.exception() unguarded, so a handler that
            # ends cancelled would log a spurious traceback per client.
            pass
        finally:
            self._client_tasks.discard(asyncio.current_task())
            for observer in subscriptions:
                self.bus.unsubscribe(observer)
            subscriptions.clear()
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _handle_frame(self, frame: dict, send, subscriptions) -> bool:
        """Dispatch one request frame; returns False to close."""
        echo = {"id": frame["id"]} if "id" in frame else {}
        try:
            op = parse_request(frame)
        except ProtocolError as exc:
            await send(error_frame(exc.code, str(exc), **echo))
            return True
        try:
            if op == "ping":
                await send({"ok": True, "pong": True,
                            "server": self.describe(), **echo})
            elif op == "submit":
                await self._op_submit(frame, send, echo, subscriptions)
            elif op == "status":
                job = self.get_job(frame["job"])
                await send({"ok": True, "job": job.to_dict(), **echo})
            elif op == "result":
                job = self.get_job(frame["job"])
                if not job.terminal:
                    raise ProtocolError(
                        "not-done", f"job {job.id} is {job.state};"
                        " wait or watch for completion")
                await send({"ok": True, "job": job.to_dict(),
                            "results": job.results_payload(), **echo})
            elif op == "cancel":
                job = await self.cancel_job(frame["job"])
                await send({"ok": True, "job": job.to_dict(), **echo})
            elif op == "jobs":
                await send({"ok": True,
                            "jobs": [j.to_dict()
                                     for j in self.jobs.all()], **echo})
            elif op == "watch":
                await self._op_watch(frame, send, echo, subscriptions)
            elif op == "shutdown":
                await send({"ok": True, "bye": True, **echo})
                self.request_stop()
                return False
        except ProtocolError as exc:
            await send(error_frame(exc.code, str(exc), **echo))
        except BackpressureError as exc:
            await send(error_frame("backpressure", str(exc), **echo))
        return True

    async def _op_submit(self, frame, send, echo, subscriptions) -> None:
        specs = parse_specs(frame["specs"])
        stream = frame.get("stream", False)
        wait = frame.get("wait", False) or stream
        if stream:
            # Subscribe *before* the job task first runs so the client
            # sees every cell event from the beginning.
            queue, observer = self._subscribe_stream(subscriptions)
            try:
                job = self.submit_job(specs, retries=frame.get("retries", 0))
                await self._pump_stream(job, queue, send)
            finally:
                self._unsubscribe_stream(observer, subscriptions)
            await send({"ok": True, "job": job.to_dict(), **echo})
            return
        job = self.submit_job(specs, retries=frame.get("retries", 0))
        if wait:
            await job.done_event.wait()
        await send({"ok": True, "job": job.to_dict(), **echo})

    async def _op_watch(self, frame, send, echo, subscriptions) -> None:
        job = self.get_job(frame["job"])
        if job.terminal:
            await send({"ok": True, "job": job.to_dict(), **echo})
            return
        queue, observer = self._subscribe_stream(subscriptions)
        try:
            await self._pump_stream(job, queue, send)
        finally:
            self._unsubscribe_stream(observer, subscriptions)
        await send({"ok": True, "job": job.to_dict(), **echo})

    def _subscribe_stream(self, subscriptions):
        """Kind-filtered bus subscription feeding an asyncio queue.

        The observer is synchronous (bus publishes are synchronous) and
        only enqueues; delivery happens on the connection's writer via
        :meth:`_pump_stream`.  Kind filtering keeps these per-client
        observers out of ``bus.observers`` entirely.
        """
        queue: asyncio.Queue = asyncio.Queue()

        def observer(event) -> None:
            queue.put_nowait({"ev": event.kind, **event.detail})

        self.bus.subscribe(observer, kinds=(EV_JOB, EV_CELL, EV_OBS))
        subscriptions.append(observer)
        return queue, observer

    def _unsubscribe_stream(self, observer, subscriptions) -> None:
        self.bus.unsubscribe(observer)
        if observer in subscriptions:
            subscriptions.remove(observer)

    async def _pump_stream(self, job: Job, queue: asyncio.Queue,
                           send) -> None:
        """Forward one job's events until it goes terminal."""
        while True:
            event = await queue.get()
            if event.get("job") != job.id:
                continue
            await send(event)
            if (event.get("ev") == EV_JOB
                    and event.get("state") in ("done", "failed",
                                               "cancelled")):
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Begin a graceful stop (idempotent, thread-safe via the loop)."""
        self._closing = True
        if self._stop is not None:
            self._stop.set()

    async def serve(self, ready: threading.Event | None = None) -> None:
        """Listen and serve until :meth:`request_stop` (or cancellation).

        Installs the server's trace store as the process ambient for
        the duration (the inline backend's worker threads and
        ``_prewarm``-style helpers resolve traces through it), restores
        the previous ambient on exit, cancels outstanding jobs and
        tears the pool down.
        """
        from ..runtime.tracecache import get_default_trace_store
        from ..sim.soatrace import vector_available
        # Build/dlopen the vector kernel once before any worker exists:
        # forked workers inherit the loaded memo, spawned ones dlopen
        # the .so this call just cached.
        vector_available()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._closing = False
        prev_trace_store = get_default_trace_store()
        if self.trace_store is not None:
            set_default_trace_store(self.trace_store)
        if self.socket_path is not None:
            sock_path = str(self.socket_path)
            sock_dir = os.path.dirname(sock_path)
            if sock_dir:
                os.makedirs(sock_dir, exist_ok=True)
            if os.path.exists(sock_path):
                os.unlink(sock_path)  # stale socket from a dead server
            server = await asyncio.start_unix_server(
                self._handle_client, path=sock_path, limit=MAX_FRAME_BYTES)
        else:
            server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port or 0,
                limit=MAX_FRAME_BYTES)
            self.port = server.sockets[0].getsockname()[1]
        try:
            async with server:
                if ready is not None:
                    ready.set()
                await self._stop.wait()
        finally:
            self._closing = True
            # Tear down client connections first (so a streaming client
            # sees EOF, not a hang), then outstanding work.
            for task in list(self._client_tasks):
                task.cancel()
            if self._client_tasks:
                await asyncio.gather(*self._client_tasks,
                                     return_exceptions=True)
            for job in self.jobs.live():
                if job.task is not None and not job.task.done():
                    job.task.cancel()
            for task in list(self._inflight.values()):
                if not task.done():
                    task.cancel()
            await self.drain()
            self._discard_pool()
            if self.trace_store is not None:
                set_default_trace_store(prev_trace_store)
            if self.socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(str(self.socket_path))

    @property
    def address(self) -> str:
        """Human-readable listen address (for logs and ping output)."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host or ''}:{self.port}"


class ServerThread:
    """Run a :class:`JobServer` on a background thread (tests, embedding).

    ::

        with ServerThread(JobServer(sock, store=store)) as server:
            client = ServeClient(sock)
            ...

    The context manager waits for the listening socket before yielding
    and requests a graceful stop (thread-safe) on exit.
    """

    def __init__(self, server: JobServer, start_timeout: float = 10.0) -> None:
        self.server = server
        self.start_timeout = start_timeout
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def start(self) -> JobServer:
        ready = threading.Event()

        def _run() -> None:
            try:
                asyncio.run(self.server.serve(ready=ready))
            except BaseException as exc:  # pragma: no cover - surfaced below
                self._error = exc
                ready.set()

        self._thread = threading.Thread(target=_run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(self.start_timeout):
            raise RuntimeError("server did not start listening in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self.server

    def stop(self, join_timeout: float = 10.0) -> None:
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_stop)
        if self._thread is not None:
            self._thread.join(join_timeout)

    def __enter__(self) -> JobServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
