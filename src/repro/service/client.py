"""Blocking ``repro-wire/1`` client (load generator, tests, scripting).

A thin socket wrapper: :meth:`send` frames out, :meth:`recv` frames in
(via the shared :class:`~repro.service.wire.FrameDecoder`), plus the
:meth:`recv_until` helper that collects streamed violation / GC-event
frames while waiting for a terminal frame type.  Deliberately
synchronous — each load-generator session is one thread driving one
connection, the same shape as a real client library.

The client is also the origin of distributed traces: construct it with
``trace=TraceContext.new()`` (or ``trace=True`` for a random root) and
every ``open``/``submit`` frame is stamped with ``trace_id`` /
``parent_span_id``, which the server parents its request span under.
Inbound session frames run through a
:class:`~repro.service.wire.SequenceTracker`, so frames the server shed
under backpressure show up in :attr:`seq_gaps` rather than vanishing.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Optional, Union

from repro.errors import WireProtocolError
from repro.service.wire import FrameDecoder, SequenceTracker, encode_frame
from repro.tracing.distributed import TraceContext


class ServiceClient:
    """One connection to an assertion service."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        trace: Union[None, bool, TraceContext] = None,
    ):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.decoder = FrameDecoder()
        if trace is True:
            trace = TraceContext.new()
        self.trace: Optional[TraceContext] = trace or None
        self.seq = SequenceTracker()
        self._pending: deque = deque()

    def send(self, frame: dict) -> None:
        self.sock.sendall(encode_frame(frame))

    def recv(self) -> dict:
        """Next frame, blocking; raises WireProtocolError on server EOF."""
        while not self._pending:
            data = self.sock.recv(1 << 16)
            if not data:
                self.decoder.finish()
                raise WireProtocolError("server closed the connection")
            frames = self.decoder.feed(data)
            self.seq.observe_all(frames)
            self._pending.extend(frames)
        return self._pending.popleft()

    @property
    def seq_gaps(self) -> dict:
        """Per-session count of frames the server numbered but never delivered."""
        return dict(self.seq.gaps)

    @property
    def frames_missed(self) -> int:
        return self.seq.total_gaps

    def recv_until(
        self, *types: str, collect: Optional[list] = None
    ) -> dict:
        """Read frames until one of ``types``; others go to ``collect``."""
        while True:
            frame = self.recv()
            if frame.get("type") in types:
                return frame
            if collect is not None:
                collect.append(frame)

    # -- protocol helpers ---------------------------------------------------------------

    def hello(self) -> dict:
        self.send({"type": "hello", "schema": "repro-wire/1"})
        return self.recv_until("welcome")

    def open(
        self,
        tenant: str,
        workload: str,
        asserted: bool = True,
        overrides: Optional[dict] = None,
        collector: str = "marksweep",
        wait: bool = False,
    ) -> dict:
        """Open a session; returns the ``opened`` or ``rejected`` frame."""
        frame = {
            "type": "open", "tenant": tenant, "workload": workload,
            "asserted": asserted, "overrides": overrides or {},
            "collector": collector, "wait": wait,
        }
        if self.trace is not None:
            self.trace.stamp(frame)
        self.send(frame)
        return self.recv_until("opened", "rejected", "error")

    def submit(self, session: str, collect: Optional[list] = None, **extra) -> dict:
        """Submit the session's workload; returns the ``result`` frame."""
        frame = {"type": "submit", "session": session, **extra}
        if self.trace is not None:
            self.trace.stamp(frame)
        self.send(frame)
        return self.recv_until("result", "error", collect=collect)

    def close_session(self, session: str, collect: Optional[list] = None) -> dict:
        self.send({"type": "close", "session": session})
        return self.recv_until("closed", "error", collect=collect)

    def stats(self) -> dict:
        self.send({"type": "stats"})
        return self.recv_until("stats")

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
