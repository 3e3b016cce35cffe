"""Open-loop load generator for the assertion service.

Two modes:

* **flow** (default) — open-loop Poisson arrivals: session start times
  are drawn from a seeded exponential inter-arrival distribution and
  *not* gated on completions, so a slow server accumulates concurrency
  exactly the way real traffic does.  Each arrival runs the full session
  life: connect, hello, open (queued admission), submit, stream, close.
* **ramp** — every session opens first (a barrier), then all submit and
  close.  This drives concurrency to the admission limit
  deterministically: with more sessions than the budget admits, the
  report shows ``peak_concurrent`` at capacity and the overflow as
  explicit rejections — the acceptance-criteria shape.

The session mix is drawn (seeded) from the workload suite plus the
``swapleak`` leak generator, which guarantees streamed violation frames.
The report carries client-observed latency percentiles — open latency,
session duration, and the server-measured violation delivery lag
(``loadgen --json-out`` writes it; CI's ``serve-smoke`` job reads it).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, ReproError, WireProtocolError
from repro.monitor.slo import AlertEvent
from repro.service.client import ServiceClient
from repro.service.server import AssertionService, ServiceConfig
from repro.telemetry.histogram import LogHistogram
from repro.tracing.distributed import TraceContext, request_rows

#: Default session mix: weighted toward small synthetics so a quick run
#: stays fast, with swapleak guaranteeing assertion-violation traffic.
DEFAULT_MIX: tuple[tuple[str, int], ...] = (
    ("swapleak", 4),
    ("xalan", 3),
    ("mtrt", 2),
    ("mpegaudio", 1),
)


@dataclass
class LoadgenConfig:
    sessions: int = 50
    rate: float = 200.0            #: arrivals per second (flow mode)
    seed: int = 0
    mode: str = "flow"             #: "flow" | "ramp"
    mix: tuple = DEFAULT_MIX
    quick: bool = False
    host: str = "127.0.0.1"
    port: Optional[int] = None     #: None = self-host an in-process service
    heap_budget_bytes: int = 8 << 20
    #: Distributed tracing: each session carries a seeded TraceContext,
    #: the self-hosted service records request spans and the merged
    #: export is written here.  Requires self-hosting (the merge layer
    #: reads the server's tracer in-process).
    trace_out: Optional[str] = None
    #: Override the self-hosted service's delivery-lag SLO.  A very
    #: tight value (microseconds) makes the burn-rate alert fire
    #: deterministically — the CI path for exemplar-bearing alerts.
    delivery_lag_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.quick:
            self.sessions = min(self.sessions, 12)
            self.rate = min(self.rate, 400.0)

    @property
    def tracing(self) -> bool:
        return self.trace_out is not None


@dataclass
class LoadgenReport:
    sessions: int
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    violation_frames: int = 0
    gc_event_frames: int = 0
    dropped_frames: int = 0
    peak_concurrent: int = 0
    admitted_total: int = 0
    rejected_total: int = 0
    wall_s: float = 0.0
    #: Client-observed seq gaps: frames the server numbered but shed.
    frames_missed: int = 0
    #: AlertEvent dicts from the self-hosted service's SLO rules
    #: (exemplar trace ids included), in firing order.
    alerts: list = field(default_factory=list)
    #: Per-request lifecycle rows from the server's DistributedTracer
    #: (tracing runs only; the ``loadgen --trace-out`` table).
    requests: list = field(default_factory=list)
    #: Merged-export summary from ``write_merged_trace`` (trace_out runs).
    trace: Optional[dict] = None
    open_latency: LogHistogram = field(
        default_factory=lambda: LogHistogram(1e-6, 30.0)
    )
    session_duration: LogHistogram = field(
        default_factory=lambda: LogHistogram(1e-6, 30.0)
    )

    @property
    def ok(self) -> bool:
        return self.completed >= 1 and self.errors == 0

    def as_dict(self) -> dict:
        return {
            "sessions": self.sessions,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "violation_frames": self.violation_frames,
            "gc_event_frames": self.gc_event_frames,
            "dropped_frames": self.dropped_frames,
            "frames_missed": self.frames_missed,
            "peak_concurrent": self.peak_concurrent,
            "alerts": list(self.alerts),
            "requests": list(self.requests),
            "trace": self.trace,
            "wall_s": self.wall_s,
            "open_latency_s": _percentiles(self.open_latency),
            "session_duration_s": _percentiles(self.session_duration),
        }

    def render(self) -> str:
        d = self.as_dict()
        lines = [
            f"loadgen: {self.completed}/{self.sessions} sessions completed, "
            f"{self.rejected} rejected, {self.errors} errors "
            f"in {self.wall_s:.2f}s",
            f"  peak concurrent sessions : {self.peak_concurrent}",
            f"  violation frames streamed: {self.violation_frames}",
            f"  gc-event frames streamed : {self.gc_event_frames}"
            f" ({self.dropped_frames} shed)",
            f"  open latency p50/p90/p99 : "
            f"{d['open_latency_s']['p50'] * 1e3:.2f} / "
            f"{d['open_latency_s']['p90'] * 1e3:.2f} / "
            f"{d['open_latency_s']['p99'] * 1e3:.2f} ms",
            f"  session time p50/p90/p99 : "
            f"{d['session_duration_s']['p50'] * 1e3:.2f} / "
            f"{d['session_duration_s']['p90'] * 1e3:.2f} / "
            f"{d['session_duration_s']['p99'] * 1e3:.2f} ms",
        ]
        if self.frames_missed:
            lines.append(
                f"  seq gaps observed        : {self.frames_missed} "
                f"(shed frames counted client-side)"
            )
        if self.trace is not None:
            lines.append(
                f"  merged trace             : {self.trace['path']} "
                f"({self.trace['events']} events, "
                f"{self.trace['tenant_tracks']} tenant tracks)"
            )
        lines.extend(f"  {AlertEvent(**alert).render()}" for alert in self.alerts)
        return "\n".join(lines)


def _percentiles(hist: LogHistogram) -> dict:
    return {f"p{q}": hist.percentile(q) for q in (50, 90, 99)}


def _draw_mix(rng: random.Random, mix) -> str:
    names = [name for name, weight in mix for _ in range(weight)]
    return rng.choice(names)


class _Wave:
    """Countdown latch: ramp mode holds admitted sessions open until the
    whole wave has an admission *decision* (admitted or rejected), which
    pins peak concurrency at exactly what the budget allows."""

    def __init__(self, n: int):
        self._n = n
        self._lock = threading.Lock()
        self._event = threading.Event()

    def arrive(self) -> None:
        with self._lock:
            self._n -= 1
            if self._n <= 0:
                self._event.set()

    def wait(self, timeout: float) -> None:
        self._event.wait(timeout)


def _run_session(
    config: LoadgenConfig,
    port: int,
    index: int,
    workload: str,
    report: LoadgenReport,
    lock: threading.Lock,
    wave: Optional[_Wave],
    trace_ctx: Optional[TraceContext],
) -> None:
    started = time.perf_counter()
    try:
        client = ServiceClient(config.host, port, timeout=60.0, trace=trace_ctx)
    except OSError:
        with lock:
            report.errors += 1
        if wave is not None:
            wave.arrive()
        return
    try:
        client.hello()
        overrides = {"swaps": 32} if workload == "swapleak" else None
        # Distinct tenant per session, so multi-tenant artifacts (the
        # merged trace's tenant tracks, the tenant-labelled metrics)
        # genuinely fan out rather than collapsing onto one label.
        opened = client.open(
            f"tenant-{workload}-{index}", workload,
            wait=(config.mode == "flow"),
            overrides=overrides,
        )
        open_latency = time.perf_counter() - started
        with lock:
            report.open_latency.record(open_latency)
        if wave is not None:
            wave.arrive()
        if opened["type"] == "rejected":
            with lock:
                report.rejected += 1
            return
        if opened["type"] == "error":
            with lock:
                report.errors += 1
            return
        if wave is not None:
            wave.wait(timeout=60.0)
        session_id = opened["session"]
        streamed: list[dict] = []
        result = client.submit(session_id, collect=streamed)
        closed = client.close_session(session_id, collect=streamed)
        with lock:
            if result.get("type") == "result" and result.get("outcome") == "completed":
                report.completed += 1
            else:
                report.errors += 1
            if closed.get("type") != "closed":
                report.errors += 1
            report.violation_frames += sum(
                1 for f in streamed if f.get("type") == "violation"
            )
            report.gc_event_frames += sum(
                1 for f in streamed if f.get("type") == "gc-event"
            )
            report.dropped_frames += int(closed.get("dropped_frames", 0) or 0)
            report.frames_missed += client.frames_missed
            report.session_duration.record(time.perf_counter() - started)
    except (WireProtocolError, ReproError, OSError):
        with lock:
            report.errors += 1
    finally:
        client.close()


def run_loadgen(
    config: LoadgenConfig, service: Optional[AssertionService] = None
) -> LoadgenReport:
    """Drive the configured load; self-hosts a service when no port given."""
    if config.tracing and config.port is not None and service is None:
        raise ConfigurationError(
            "loadgen tracing requires a self-hosted service (drop --port): "
            "the merged trace is read from the server's tracer in-process"
        )
    own_service = None
    if config.port is None and service is None:
        server_config = ServiceConfig(
            host=config.host,
            heap_budget_bytes=config.heap_budget_bytes,
            http_port=None,
            tracing=config.tracing,
        )
        if config.delivery_lag_slo_s is not None:
            server_config.delivery_lag_slo_s = config.delivery_lag_slo_s
        own_service = AssertionService(server_config).start()
        service = own_service
    port = service.port if service is not None else config.port

    rng = random.Random(config.seed)
    workloads = [_draw_mix(rng, config.mix) for _ in range(config.sessions)]
    # Pre-draw the trace roots on the arrival loop's rng so session
    # threads never race on it: one deterministic trace id per session.
    contexts: list = [
        TraceContext.new(rng) if config.tracing else None
        for _ in range(config.sessions)
    ]
    report = LoadgenReport(sessions=config.sessions)
    lock = threading.Lock()
    wave = _Wave(config.sessions) if config.mode == "ramp" else None

    started = time.perf_counter()
    threads: list[threading.Thread] = []
    try:
        for i, workload in enumerate(workloads):
            thread = threading.Thread(
                target=_run_session,
                args=(config, port, i, workload, report, lock, wave, contexts[i]),
                name=f"loadgen-{i}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()
            if config.mode == "flow" and i + 1 < len(workloads):
                # Open-loop: the next arrival is scheduled independently
                # of whether earlier sessions have finished.
                time.sleep(rng.expovariate(config.rate))
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        report.wall_s = time.perf_counter() - started
        if service is not None:
            snap = service.admission.snapshot()
            report.peak_concurrent = snap["peak_sessions"]
            report.admitted_total = snap["admitted_total"]
            report.rejected_total = snap["rejected_total"]
            report.alerts = [alert.as_dict() for alert in service.metrics.alerts]
            if service.tracer is not None:
                report.requests = request_rows(service.tracer)
                if config.trace_out is not None:
                    report.trace = service.write_merged_trace(
                        config.trace_out,
                        meta={"generator": "repro-loadgen", "seed": config.seed},
                    )
        if own_service is not None:
            own_service.stop()
    return report
