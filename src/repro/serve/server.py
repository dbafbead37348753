"""The asyncio FMA serving core and its TCP/JSON-lines frontend.

``FmaServer`` turns the batched kernels of :mod:`repro.batch` into a
request-serving path: requests are admitted (bounded queue + slow-start
window, :mod:`repro.serve.admission`), coalesced per ``(op, fmt)`` by
the adaptive micro-batcher (:mod:`repro.serve.batcher`), executed on a
bounded worker pool through the shared resilient machinery
(:mod:`repro.serve.executor`), and resolved back onto per-request
futures -- every admitted request receives **exactly one** response.

Bit-identity guarantee: for any batch split and any arrival order, an
``ok`` response carries exactly the word the faithful scalar models
produce for that request (see ``tests/test_serve_differential.py``).
The serving layer only ever *groups* requests; it never reassociates
work across them.

The server counts its own events once: every ``serve.*`` counter and
gauge below goes into an always-on store (:attr:`FmaServer.stats`
reads it) and, while ``repro.telemetry.collecting()`` is armed, into
the collector under the same tag.  Spans are collector-only.  All
serve-layer instruments fire on the event-loop thread:

=============================== ====== ==============================
``serve.requests.admitted``     count  requests past admission
``serve.requests.rejected.<r>`` count  per rejection reason
``serve.responses.ok``          count
``serve.responses.error``       count  attempted but failed
``serve.shed.deadline``         count  queued past their budget
``serve.batches`` / ``.<key>``  count  formed batches (per class)
``serve.batch.size_le.<n>``     count  batch-size histogram (pow-2)
``serve.exec.retries``          count  resilient retry attempts
``serve.exec.failures``         count  payloads failed after retry
``serve.guard.<status>``        count  verified batches per guard
                                       classification (``clean`` /
                                       ``corrected``/``uncorrectable``)
``serve.batch.max_size``        gauge  largest batch formed
``serve.pending``               gauge  high-water queued+in-flight
``serve.queue.depth.<key>``     gauge  high-water per-class depth
``serve.admission.window``      gauge  high-water slow-start window
``serve.stage.queue``           span   admission -> execution slot
``serve.stage.exec``            span   worker-pool execution
``serve.request.total``         span   admission -> response
=============================== ====== ==============================
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..faults.resilient import RetryPolicy
from ..telemetry import Telemetry
from ..telemetry import core as _tm
from .admission import AdmissionController
from .batcher import Entry, MicroBatcher
from .executor import BatchExecutor, payload_from_requests
from .protocol import (ProtocolError, Request, Response, decode_request,
                       encode_response)

__all__ = ["ServeConfig", "FmaServer"]

#: :attr:`FmaServer.stats` keys and the tag each one reads (a counter,
#: except the ``serve.batch.max_size`` gauge)
_STAT_TAGS = {
    "admitted": "serve.requests.admitted",
    "ok": "serve.responses.ok",
    "error": "serve.responses.error",
    "batches": "serve.batches",
    "shed_deadline": "serve.shed.deadline",
    "exec_failures": "serve.exec.failures",
    "retries": "serve.exec.retries",
    "max_batch_size": "serve.batch.max_size",
    **{f"rejected.{r}": f"serve.requests.rejected.{r}"
       for r in ("queue-full", "slow-start", "deadline", "draining")},
    **{f"guard.{g}": f"serve.guard.{g}"
       for g in ("clean", "corrected", "uncorrectable")},
}


@dataclass
class ServeConfig:
    """Tuning knobs for one server (documented in docs/SERVING.md)."""

    max_batch: int = 64              # micro-batch size cap
    max_wait_s: float = 0.002        # micro-batch wait deadline
    workers: int = 4                 # concurrent batch executions
    max_pending: int = 1024          # hard bound, queued + in-flight
    slow_start: bool = True          # admission window ramp on/off
    initial_window: int = 64
    min_window: int = 8
    default_timeout_s: float | None = None   # per-request budget
    use_batch: bool = True           # fast kernels vs faithful loop
    backend: str | None = None       # default batch backend (None=auto)
    isolation: str = "inline"        # "inline" | "process"
    exec_timeout_s: float | None = None      # per-attempt (process mode)
    tcp_line_limit: int = 1 << 20    # max request line on the wire
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=2, backoff_base_s=0.001, backoff_cap_s=0.01))
    rng_seed: int = 0
    work_fn: object = None           # test hook: picklable payload fn

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.backend is not None:
            from ..batch.engines import BACKENDS
            if self.backend not in BACKENDS:
                raise ValueError(
                    f"backend must be one of {BACKENDS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.tcp_line_limit < 1024:
            raise ValueError("tcp_line_limit must be >= 1024")


class FmaServer:
    """In-process serving API; also hosts the TCP frontend.

    Use as an async context manager::

        async with FmaServer(ServeConfig(max_batch=32)) as srv:
            resp = await srv.submit(req)

    ``submit`` resolves when the request's micro-batch completes (or
    immediately with a structured rejection).  ``drain`` stops
    admission, flushes the queues, and waits for in-flight batches.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self._started = False
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._sem: asyncio.Semaphore | None = None
        self._batcher: MicroBatcher | None = None
        self._tasks: set[asyncio.Task] = set()
        self._tcp_server: asyncio.Server | None = None
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            initial_window=self.config.initial_window,
            min_window=self.config.min_window,
            slow_start=self.config.slow_start)
        self.executor = BatchExecutor(
            isolation=self.config.isolation,
            timeout_s=self.config.exec_timeout_s,
            retry=self.config.retry, rng_seed=self.config.rng_seed,
            work_fn=self.config.work_fn)
        # always-on serve.* counters and gauges; ``stats`` reads them
        self._counts = Telemetry()

    @property
    def stats(self) -> dict[str, int]:
        """The server's event counts as a plain dict, read from its
        always-on ``serve.*`` store."""
        seen = {**self._counts.counters, **self._counts.gauges}
        return {key: seen.get(tag, 0) for key, tag in _STAT_TAGS.items()}

    def _count(self, tag: str, n: int = 1) -> None:
        self._counts.count(tag, n)
        tm = _tm.ACTIVE
        if tm is not None:
            tm.count(tag, n)

    def _gauge(self, tag: str, value: int) -> None:
        self._counts.gauge(tag, value)
        tm = _tm.ACTIVE
        if tm is not None:
            tm.gauge(tag, value)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "FmaServer":
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self._sem = asyncio.Semaphore(self.config.workers)
        self._batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            clock=loop.time,
            schedule=lambda delay, cb: loop.call_later(delay, cb),
            on_batch=self._launch_batch)
        self._started = True
        self._draining = False
        return self

    async def __aenter__(self) -> "FmaServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish admitted work."""
        if not self._started:
            return
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        self._batcher.flush_all()
        self._batcher.cancel_timers()
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self._pool.shutdown(wait=True)
        self._started = False

    # -- the in-process API --------------------------------------------

    async def submit(self, req: Request) -> Response:
        """Serve one request; always returns exactly one response."""
        if not self._started:
            raise RuntimeError("server not started")
        try:
            req.validate()
        except ProtocolError as exc:
            return Response(req.req_id, "error", kind="bad-request",
                            message=str(exc))
        rejection = self._admit(req)
        if rejection is not None:
            return rejection
        loop = self._loop
        now = loop.time()
        timeout = (req.timeout_s if req.timeout_s is not None
                   else self.config.default_timeout_s)
        entry = Entry(req=req, fut=loop.create_future(), t_enqueue=now,
                      deadline=None if timeout is None else now + timeout)
        key = self._batcher.put(entry)
        self._gauge(f"serve.queue.depth.{key}", self._batcher.depth(key))
        return await entry.fut

    def _admit(self, req: Request) -> Response | None:
        if self._draining:
            reason = "draining"
        elif (req.timeout_s is not None and req.timeout_s <= 0):
            reason = "deadline"
        else:
            reason = self.admission.try_admit()
        if reason is not None:
            self._count(f"serve.requests.rejected.{reason}")
            return Response(req.req_id, "rejected", reason=reason)
        self._count("serve.requests.admitted")
        self._gauge("serve.pending", self.admission.pending)
        self._gauge("serve.admission.window", int(self.admission.window))
        return None

    # -- batch execution -----------------------------------------------

    def _launch_batch(self, key: str, entries: list[Entry]) -> None:
        task = self._loop.create_task(self._run_batch(key, entries))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, key: str, entries: list[Entry]) -> None:
        async with self._sem:
            loop = self._loop
            now = loop.time()
            live = self._shed_expired(entries, now)
            if not live:
                return
            n = len(live)
            self._count("serve.batches")
            self._count(f"serve.batches.{key}")
            self._count(f"serve.batch.size_le.{1 << (n - 1).bit_length()}")
            self._gauge("serve.batch.max_size", n)
            tm = _tm.ACTIVE
            if tm is not None:
                for e in live:
                    tm.observe("serve.stage.queue",
                               int((now - e.t_enqueue) * 1e9))
            op, fmt = key.split(".")[:2]  # key may carry a verify level
            payload = payload_from_requests(
                op, fmt, [e.req for e in live],
                use_batch=self.config.use_batch,
                verify=live[0].req.verify,
                backend=live[0].req.backend or self.config.backend)
            t0 = time.perf_counter_ns()
            records, error, attempts, guard = await loop.run_in_executor(
                self._pool, self.executor.run, payload)
            if tm is not None:
                tm.observe("serve.stage.exec",
                           time.perf_counter_ns() - t0)
            if guard is not None:
                self._count(f"serve.guard.{guard}")
            meta = {} if guard is None else {"guard": guard}
            if guard is None and attempts > 1:
                self._count("serve.exec.retries", attempts - 1)
            if error is not None:
                self._count("serve.exec.failures")
                self.admission.on_failure()
                for e in live:
                    self._resolve(e, Response(
                        e.req.req_id, "error",
                        kind=error.get("kind", "exception"),
                        message=error.get("message", ""),
                        attempts=attempts, meta=meta))
                return
            self.admission.on_batch_ok(n)
            for e, rec in zip(live, records):
                if rec[0] == "ok":
                    self._resolve(e, Response(e.req.req_id, "ok",
                                              result=rec[1],
                                              attempts=attempts,
                                              meta=meta))
                else:
                    self._resolve(e, Response(e.req.req_id, "error",
                                              kind=rec[1],
                                              message=rec[2],
                                              attempts=attempts,
                                              meta=meta))

    def _shed_expired(self, entries: list[Entry], now: float,
                      ) -> list[Entry]:
        live: list[Entry] = []
        shed = 0
        for e in entries:
            if e.deadline is not None and now >= e.deadline:
                shed += 1
                self._resolve(e, Response(e.req.req_id, "rejected",
                                          reason="deadline"))
            else:
                live.append(e)
        if shed:
            self._count("serve.shed.deadline", shed)
            self.admission.on_failure()
        return live

    def _resolve(self, entry: Entry, resp: Response) -> None:
        self.admission.release()
        if resp.status in ("ok", "error"):
            self._count(f"serve.responses.{resp.status}")
        tm = _tm.ACTIVE
        if tm is not None:
            tm.observe("serve.request.total",
                       int((self._loop.time() - entry.t_enqueue) * 1e9))
        if not entry.fut.done():
            entry.fut.set_result(resp)

    # -- TCP/JSON-lines frontend ---------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> asyncio.Server:
        """Start the JSON-lines frontend; returns the asyncio server
        (``.sockets[0].getsockname()`` for the bound port)."""
        if not self._started:
            await self.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=self.config.tcp_line_limit)
        return self._tcp_server

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()

        async def write_obj(obj: dict) -> None:
            async with write_lock:
                writer.write(json.dumps(obj, sort_keys=True).encode()
                             + b"\n")
                await writer.drain()

        async def handle_line(line: bytes) -> None:
            req_id = None
            try:
                obj = json.loads(line)
                if isinstance(obj, dict):
                    req_id = obj.get("id")
                req = decode_request(obj)
            except (json.JSONDecodeError, ProtocolError) as exc:
                await write_obj({"id": req_id, "status": "error",
                                 "kind": "bad-request",
                                 "message": str(exc)})
                return
            resp = await self.submit(req)
            await write_obj(encode_response(resp))

        async def discard_oversized() -> bool:
            """Drop the rest of an oversized request line, exactly up
            to its terminating newline (bytes after the newline are the
            next request and stay buffered); ``False`` means EOF (the
            line never ended and the client is gone)."""
            while True:
                try:
                    await reader.readuntil(b"\n")
                    return True
                except asyncio.LimitOverrunError as exc:
                    try:
                        await reader.readexactly(max(exc.consumed, 1))
                    except asyncio.IncompleteReadError:
                        return False
                except asyncio.IncompleteReadError:
                    return False

        try:
            while True:
                at_eof = False
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial   # unterminated final line
                    at_eof = True
                except asyncio.LimitOverrunError:
                    # a request line beyond the stream limit must not
                    # kill the connection without a response: answer
                    # with a structured error, discard the rest of the
                    # line, and keep serving
                    try:
                        await write_obj({
                            "id": None, "status": "error",
                            "kind": "bad-request",
                            "message": "request line exceeds the "
                                       "stream limit"})
                    except (ConnectionError, OSError):
                        break
                    if not await discard_oversized():
                        break
                    continue
                if line.strip():
                    task = asyncio.ensure_future(handle_line(line))
                    conn_tasks.add(task)
                    task.add_done_callback(conn_tasks.discard)
                if at_eof:
                    break
            while conn_tasks:
                await asyncio.gather(*list(conn_tasks),
                                     return_exceptions=True)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
