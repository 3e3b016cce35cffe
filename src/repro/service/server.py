"""The asyncio session server: ``repro-wire/1`` over TCP.

One :class:`AssertionService` hosts many concurrent tenant sessions.
The event loop owns framing, admission, and streaming; tenant workloads
(CPU-bound GC work) run on a thread-pool executor so a long collection
in one tenant never stalls another tenant's frame delivery.  Each
connection gets a writer task that drains its sessions' bounded
:class:`~repro.service.session.FrameQueue`\\ s to the socket — the only
place bytes are written, so frame boundaries are never interleaved.

The server runs its event loop on a background thread, which gives the
CLI, the load generator, and the tests one lifecycle: ``start()`` blocks
until the port is bound, ``stop()`` drains and joins.  An optional HTTP
sidecar (the shared :class:`~repro.httpd.EndpointServer`) serves
``/metrics``, ``/health`` and ``/slo`` for scrapers.

Frame vocabulary (client -> server): ``hello``, ``open``, ``assert``,
``submit``, ``gc``, ``stats``, ``close``, ``ping``.  Server -> client:
``welcome``, ``opened``, ``rejected``, ``ok``, ``violation``,
``gc-event``, ``result``, ``closed``, ``stats``, ``pong``, ``error``.
Unknown keys in any frame are ignored (forward compatibility); unknown
frame *types* get an ``error`` reply rather than a dropped connection.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError, WireProtocolError
from repro.httpd import JSON_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE, EndpointServer
from repro.monitor.server import render_monitor_metrics
from repro.runtime.vm import COLLECTORS
from repro.service.admission import AdmissionController
from repro.service.metrics import ServiceMetrics
from repro.service.session import HARDENED_GROWTH_CEILING, TenantSession, resolve_workload
from repro.service.wire import (
    MAX_FRAME_BYTES,
    WIRE_SCHEMA,
    FrameDecoder,
    ViolationFrameEncoder,
    encode_frame,
    encode_frame_trimmed,
)
from repro.tracing.distributed import (
    DistributedTracer,
    TraceContext,
    merge_service_trace,
    request_rows,
    write_merged_trace,
)

SERVER_VERSION = "repro-service/1"

#: Cap on how long a queued (``"wait": true``) open is held.
WAIT_TIMEOUT_S = 2.0
#: Cap on retained traced-session records (oldest beyond the cap are
#: dropped from the merged export, never from serving).
MAX_TRACED_SESSIONS = 512


@dataclass
class ServiceConfig:
    """Everything an operator tunes on the service."""

    host: str = "127.0.0.1"
    port: int = 0                      #: 0 = ephemeral (tests, CI)
    http_port: Optional[int] = 0       #: None disables the HTTP sidecar
    heap_budget_bytes: int = 8 << 20   #: aggregate committed-heap budget
    max_sessions: Optional[int] = None
    outbound_queue_frames: int = 256
    executor_workers: int = 8
    hardened: bool = True              #: tenant VMs get the PR-5 OOM ladder
    paranoid: bool = False             #: tenant VMs walk the heap around every GC
    delivery_lag_slo_s: float = 0.200
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Distributed request tracing: server-side lifecycle spans plus a
    #: SpanTracer per tenant VM, merged into one Perfetto export.  Off by
    #: default — the zero-overhead-when-off discipline is a None-test on
    #: ``AssertionService.tracer``, same as the VM's ``span_tracer``.
    tracing: bool = False


class _Connection:
    """Per-connection state owned by the event loop."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.sessions: dict[str, TenantSession] = {}
        self.wake = asyncio.Event()
        #: Loop thread only.
        self.violation_encoder = ViolationFrameEncoder()
        self.writer_task: Optional[asyncio.Task] = None
        self.protocol_errors = 0


class AssertionService:
    """Multi-tenant assertion service over a background event loop."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(
            self.config.heap_budget_bytes, self.config.max_sessions
        )
        self.metrics = ServiceMetrics(delivery_lag_slo_s=self.config.delivery_lag_slo_s)
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="repro-session",
        )
        self.http: Optional[EndpointServer] = None
        #: None when tracing is off — every tracing hook is behind this
        #: None-test, so the traced-off request path is byte-identical.
        self.tracer: Optional[DistributedTracer] = (
            DistributedTracer() if self.config.tracing else None
        )
        #: Evicted sessions whose VM SpanTracers feed the merged export:
        #: ``{tenant, session, tracer, trace_id, request_span_id}``.
        self.traced_sessions: list[dict] = []
        self.traced_sessions_dropped = 0
        self.sessions_opened = 0
        self._session_seq = 0
        self._seq_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._bound_port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._bound_port if self._bound_port is not None else self.config.port

    def start(self) -> "AssertionService":
        """Bind, spin up the loop thread, and (optionally) the HTTP sidecar."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("assertion service failed to start within 10s")
        if self._startup_error is not None:
            raise self._startup_error
        if self.config.http_port is not None:
            self.http = EndpointServer(
                {
                    "/metrics": self._serve_metrics,
                    "/health": self._serve_health,
                    "/slo": self._serve_slo,
                },
                port=self.config.http_port,
                host=self.config.host,
                name="repro-service",
                server_version=SERVER_VERSION,
            ).start()
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.executor.shutdown(wait=False)
        if self.http is not None:
            self.http.stop()
            self.http = None

    def __enter__(self) -> "AssertionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve_forever())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()

    async def _serve_forever(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port, backlog=256
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        async with self._server:
            await self._stop_event.wait()

    # -- HTTP sidecar routes ------------------------------------------------------------

    def _serve_metrics(self):
        body = render_monitor_metrics(self.metrics.hub)
        body += self.metrics.render(self.admission)
        return 200, PROMETHEUS_CONTENT_TYPE, body

    def _serve_health(self):
        status = self.metrics.slo_status()
        snap = self.admission.snapshot()
        code = 200 if status["healthy"] else 503
        return code, JSON_CONTENT_TYPE, {
            "healthy": status["healthy"],
            "firing": status["firing"],
            "exhausted": status["exhausted"],
            "active_sessions": snap["active_sessions"],
            "committed_bytes": snap["committed_bytes"],
            "budget_bytes": snap["budget_bytes"],
        }

    def _serve_slo(self):
        return 200, JSON_CONTENT_TYPE, self.metrics.slo_status()

    # -- wire handling (event loop) -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        conn.writer_task = asyncio.ensure_future(self._drain_frames(conn))
        decoder = FrameDecoder(self.config.max_frame_bytes)
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    decoder.finish()
                    break
                for frame in decoder.feed(data):
                    await self._dispatch(conn, frame)
        except WireProtocolError as exc:
            conn.protocol_errors += 1
            await self._reply(conn, {"type": "error", "error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Evict whatever the peer abandoned: budget must never leak.
            for session in list(conn.sessions.values()):
                self._evict(conn, session)
            conn.writer_task.cancel()
            # No await here: the handler may itself be mid-cancellation
            # (service shutdown), and awaiting wait_closed() in a
            # cancelled task re-raises into the event loop's logger.
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _reply(self, conn: _Connection, frame: dict) -> None:
        try:
            async with conn.write_lock:
                conn.writer.write(encode_frame(frame, self.config.max_frame_bytes))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _drain_frames(self, conn: _Connection) -> None:
        """Writer task: pump every session queue of this connection."""
        while True:
            await conn.wake.wait()
            conn.wake.clear()
            for session in list(conn.sessions.values()):
                await self._flush(conn, session)

    async def _flush(self, conn: _Connection, session: TenantSession) -> None:
        """Write everything queued on ``session`` as one batch: one
        encode-join, one lock, one socket write, one drain.  Delivery is
        then scored for the batch, each frame from its own enqueue stamp."""
        batch = session.queue.drain()
        if not batch:
            return
        limit = self.config.max_frame_bytes
        encode_violation = conn.violation_encoder.encode
        chunks = []
        for frame, _enqueued_at in batch:
            chunk = encode_violation(frame, limit)
            if chunk is None:  # not the plain violation layout: the general encoder
                try:
                    chunk = encode_frame(frame, limit)
                except WireProtocolError as exc:
                    chunk = self._encode_stand_in(session, frame, exc)
            chunks.append(chunk)
        delivered = True
        try:
            async with conn.write_lock:
                conn.writer.write(b"".join(chunks))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            delivered = False
        self._observe_delivery(session, batch, delivered)

    def _encode_stand_in(
        self, session: TenantSession, frame: dict, exc: WireProtocolError
    ) -> bytes:
        """Bytes sent in place of a frame ``encode_frame`` refused, under
        the same ``seq``: a result keeps the violation lines that fit and
        counts the rest; anything else becomes a typed error."""
        limit = self.config.max_frame_bytes
        if frame.get("type") == "result":
            try:
                return encode_frame_trimmed(
                    frame, "violations", "violations_omitted", limit
                )
            except WireProtocolError:
                pass
        return encode_frame({
            "type": "error",
            "session": session.session_id,
            "seq": frame.get("seq"),
            "error": f"{frame.get('type')} frame not sent: {exc}",
        }, limit)

    def _observe_delivery(self, session: TenantSession, batch: list, delivered: bool) -> None:
        """Score (and trace) a batch's violation frames' queue residency under
        one metrics lock; a batch whose write raised reached nobody."""
        violations = [pair for pair in batch if pair[0].get("type") == "violation"]
        if not violations:
            return
        written = time.perf_counter()
        trace = session.trace
        self.metrics.observe_delivery_lags(
            (enqueued_at for _frame, enqueued_at in violations), written, time.time(),
            trace_id=trace.trace_id if trace is not None else None,
            delivered=delivered,
        )
        if delivered and self.tracer is not None and trace is not None:
            for frame, enqueued_at in violations:
                self.tracer.record(
                    "violation_delivery", enqueued_at, written,
                    lane=session.request_lane,
                    trace_id=trace.trace_id,
                    parent_span_id=session.request_span_id,
                    cat="delivery",
                    args={"seq": frame.get("seq"), "gc_number": frame.get("gc_number")},
                )

    async def _dispatch(self, conn: _Connection, frame: dict) -> None:
        ftype = frame.get("type")
        if ftype == "hello":
            await self._reply(conn, {
                "type": "welcome", "schema": WIRE_SCHEMA, "server": SERVER_VERSION,
            })
        elif ftype == "open":
            await self._open_session(conn, frame)
        elif ftype == "assert":
            await self._register_assertion(conn, frame)
        elif ftype == "submit":
            await self._submit(conn, frame)
        elif ftype == "gc":
            await self._explicit_gc(conn, frame)
        elif ftype == "stats":
            await self._reply(conn, {
                "type": "stats",
                "admission": self.admission.snapshot(),
                "slo": self.metrics.slo_status(),
            })
        elif ftype == "close":
            await self._close_session(conn, frame)
        elif ftype == "ping":
            await self._reply(conn, {"type": "pong"})
        else:
            conn.protocol_errors += 1
            await self._reply(conn, {
                "type": "error", "error": f"unknown frame type {ftype!r}",
            })

    def _session_for(self, conn: _Connection, frame: dict) -> Optional[TenantSession]:
        return conn.sessions.get(frame.get("session"))

    async def _open_session(self, conn: _Connection, frame: dict) -> None:
        received = time.perf_counter()
        tenant = str(frame.get("tenant", "anonymous"))
        workload = str(frame.get("workload", "swapleak"))
        collector = str(frame.get("collector", "marksweep"))
        tracer = self.tracer
        ctx: Optional[TraceContext] = None
        if tracer is not None:
            # A stamped open joins the client's trace; an unstamped one
            # (old client) gets a fresh server-rooted trace — tracing
            # never depends on the peer's protocol vintage.
            ctx = TraceContext.from_frame(frame) or TraceContext.new()
        try:
            heap_bytes, runner = resolve_workload(
                workload,
                asserted=bool(frame.get("asserted", True)),
                overrides=frame.get("overrides") or {},
            )
            # A malformed open is an error whatever the budget says.
            if collector not in COLLECTORS:
                raise WireProtocolError(
                    f"unknown collector {collector!r}; pick from {sorted(COLLECTORS)}"
                )
        except WireProtocolError as exc:
            conn.protocol_errors += 1
            await self._reply(conn, {"type": "error", "error": str(exc)})
            return
        # What the session's VM will be built with (session.committed_bytes).
        committed = heap_bytes * (HARDENED_GROWTH_CEILING if self.config.hardened else 1)

        retries = 0
        decision = self.admission.try_admit(committed)
        if not decision.admitted and frame.get("wait"):
            # Queued admission: hold the open (bounded by WAIT_TIMEOUT_S)
            # and retry on the Retry-After cadence.
            deadline = self._loop.time() + WAIT_TIMEOUT_S
            while not decision.admitted and self._loop.time() < deadline:
                await asyncio.sleep(decision.retry_after_s or 0.05)
                retries += 1
                decision = self.admission.try_admit(committed)
        decided = time.perf_counter()
        latency = decided - received
        self.metrics.observe_admission_latency(
            received, decided, time.time(),
            trace_id=ctx.trace_id if ctx is not None else None,
        )

        if not decision.admitted:
            if tracer is not None:
                self._trace_open(
                    tracer, ctx, received, decided, decision, retries,
                    tenant, workload, label=f"request rejected ({tenant})",
                    outcome="rejected",
                )
            await self._reply(conn, {
                "type": "rejected",
                "tenant": tenant,
                "reason": decision.reason,
                "retry_after_s": decision.retry_after_s,
                **({"trace_id": ctx.trace_id} if ctx is not None else {}),
            })
            return

        with self._seq_lock:
            self._session_seq += 1
            session_id = f"s{self._session_seq}"
        request_span_id = None
        lane = None
        if tracer is not None:
            request_span_id, lane = self._trace_open(
                tracer, ctx, received, decided, decision, retries,
                tenant, workload, label=f"request {session_id} ({tenant})",
                outcome=None, session_id=session_id,
            )
        loop = self._loop
        try:
            session = TenantSession(
                session_id=session_id,
                tenant=tenant,
                heap_bytes=heap_bytes,
                collector=collector,
                hardened=self.config.hardened,
                paranoid=self.config.paranoid,
                queue_frames=self.config.outbound_queue_frames,
                notify=lambda: loop.call_soon_threadsafe(conn.wake.set),
                metrics=self.metrics,
                tracing=tracer is not None,
                trace=ctx,
                request_span_id=request_span_id,
            )
        except BaseException as exc:
            # Admitted but in no ``conn.sessions``: nothing would evict it.
            self.admission.release(committed)
            if not isinstance(exc, ReproError):
                raise
            # The VM refused its options: a client mistake.
            if request_span_id is not None:
                tracer.end(request_span_id, time.perf_counter(), args={"outcome": "error"})
            conn.protocol_errors += 1
            await self._reply(conn, {"type": "error", "error": str(exc)})
            return
        session.request_lane = lane
        session.runner = runner
        conn.sessions[session_id] = session
        self.sessions_opened += 1
        self.metrics.session_opened(tenant)
        await self._reply(conn, {
            "type": "opened",
            "session": session_id,
            "tenant": tenant,
            "heap_bytes": heap_bytes,
            "committed_bytes": committed,
            "admission_latency_s": latency,
            **({"trace_id": ctx.trace_id} if ctx is not None else {}),
        })

    def _trace_open(
        self, tracer, ctx, received, decided, decision, retries,
        tenant, workload, label, outcome, session_id=None,
    ):
        """Record the admission-side spans of one open (event loop only)."""
        request_span_id = tracer.new_span_id()
        lane = tracer.lane(request_span_id, label)
        args = {"tenant": tenant, "workload": workload}
        if session_id is not None:
            args["session"] = session_id
        tracer.begin(
            "request", start=received, lane=lane,
            trace_id=ctx.trace_id, parent_span_id=ctx.span_id,
            span_id=request_span_id, args=args,
        )
        tracer.record(
            "admission_wait", received, decided, lane=lane,
            trace_id=ctx.trace_id, parent_span_id=request_span_id,
            cat="admission",
            args={"decision": decision.reason, "retries": retries},
        )
        tracer.record(
            "admission_commit",
            decided - decision.commit_seconds, decided, lane=lane,
            trace_id=ctx.trace_id, parent_span_id=request_span_id,
            cat="admission",
        )
        if outcome is not None:
            tracer.end(
                request_span_id, time.perf_counter(),
                args={"outcome": outcome, "reason": decision.reason},
            )
        return request_span_id, lane

    async def _register_assertion(self, conn: _Connection, frame: dict) -> None:
        session = self._session_for(conn, frame)
        if session is None:
            await self._reply(conn, {"type": "error", "error": "no such session"})
            return
        try:
            session.register_assertion(frame.get("assertion") or {})
        except (WireProtocolError, ReproError) as exc:
            conn.protocol_errors += 1
            await self._reply(conn, {
                "type": "error", "session": session.session_id, "error": str(exc),
            })
            return
        await self._reply(conn, {
            "type": "ok", "session": session.session_id, "re": "assert",
        })

    async def _submit(self, conn: _Connection, frame: dict) -> None:
        session = self._session_for(conn, frame)
        if session is None:
            await self._reply(conn, {"type": "error", "error": "no such session"})
            return
        if session.state != "admitted":
            await self._reply(conn, {
                "type": "error", "session": session.session_id,
                "error": f"cannot submit in state {session.state!r}",
            })
            return
        runner = session.runner
        if "program" in frame:
            source = str(frame["program"])
            entry = str(frame.get("entry", "main"))

            def runner(vm, _source=source, _entry=entry):
                from repro.interp.interpreter import Interpreter
                interp = Interpreter(vm)
                interp.load(_source)
                return interp.run(_entry)

        # The GC work runs off-loop; violation/gc-event frames stream from
        # the worker thread through the queue while this await is pending.
        tracer = self.tracer
        if tracer is not None and session.trace is not None:
            dispatched = time.perf_counter()

            def traced_run(session=session, runner=runner, dispatched=dispatched):
                started = time.perf_counter()
                trace = session.trace
                tracer.record(
                    "executor_wait", dispatched, started,
                    lane=session.request_lane, trace_id=trace.trace_id,
                    parent_span_id=session.request_span_id, cat="executor",
                )
                try:
                    return session.run(runner)
                finally:
                    tracer.record(
                        "workload_execution", started, time.perf_counter(),
                        lane=session.request_lane, trace_id=trace.trace_id,
                        parent_span_id=session.request_span_id, cat="executor",
                        args={"outcome": session.outcome},
                    )

            await self._loop.run_in_executor(self.executor, traced_run)
        else:
            await self._loop.run_in_executor(self.executor, session.run, runner)

    async def _explicit_gc(self, conn: _Connection, frame: dict) -> None:
        session = self._session_for(conn, frame)
        if session is None:
            await self._reply(conn, {"type": "error", "error": "no such session"})
            return
        reason = str(frame.get("reason", "wire-explicit"))
        await self._loop.run_in_executor(self.executor, session.vm.gc, reason)
        await self._reply(conn, {
            "type": "ok", "session": session.session_id, "re": "gc",
        })

    async def _close_session(self, conn: _Connection, frame: dict) -> None:
        session = self._session_for(conn, frame)
        if session is None:
            await self._reply(conn, {"type": "error", "error": "no such session"})
            return
        # Anything still queued goes out before the terminal frame.
        await self._flush(conn, session)
        self._evict(conn, session)
        await self._reply(conn, {
            "type": "closed",
            "session": session.session_id,
            "outcome": session.outcome,
            "dropped_frames": session.queue.dropped_frames,
            "discarded_frames": session.discarded_frames,
        })

    def _evict(self, conn: _Connection, session: TenantSession) -> None:
        if session.state == "evicted":
            return
        session.evict()
        conn.sessions.pop(session.session_id, None)
        self.admission.release(session.committed_bytes)
        self.metrics.session_evicted(session.tenant, session)
        if self.tracer is not None and session.request_span_id is not None:
            self.tracer.end(
                session.request_span_id, time.perf_counter(),
                args={"outcome": session.outcome},
            )
            if session.vm.span_tracer is not None and session.trace is not None:
                if len(self.traced_sessions) < MAX_TRACED_SESSIONS:
                    self.traced_sessions.append({
                        "tenant": session.tenant,
                        "session": session.session_id,
                        "tracer": session.vm.span_tracer,
                        "trace_id": session.trace.trace_id,
                        "request_span_id": session.request_span_id,
                    })
                else:
                    self.traced_sessions_dropped += 1

    # -- merged-trace export ------------------------------------------------------------

    def _tracer(self) -> DistributedTracer:
        if self.tracer is None:
            raise RuntimeError("service was not started with tracing enabled")
        return self.tracer

    def merged_trace_payload(self, meta: Optional[dict] = None) -> dict:
        """The multi-track Chrome/Perfetto payload (requires tracing on)."""
        return merge_service_trace(self._tracer(), self.traced_sessions, meta)

    def write_merged_trace(self, path: str, meta: Optional[dict] = None) -> dict:
        return write_merged_trace(self._tracer(), self.traced_sessions, path, meta)

    def request_rows(self) -> list[dict]:
        """Per-request lifecycle breakdown (requires tracing on)."""
        return request_rows(self._tracer())
