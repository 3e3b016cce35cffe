"""Service-level telemetry: per-tenant aggregation and serving SLOs.

Every tenant session fans its GC events and violations into one
:class:`ServiceMetrics` aggregator, which

* keeps per-tenant counters (sessions, collections, violations, drops)
  rendered as ``tenant``-labelled Prometheus families,
* forwards GC events into a shared :class:`~repro.monitor.timeseries.MonitorHub`
  so the PR-6 MMU/utilization timelines see cross-tenant load, and
* tracks two *service-level* objectives through the burn-rate machinery:
  **admission latency** (open-frame receipt to admission decision) and
  **violation-delivery lag** (violation enqueued to bytes written).

The serving SLOs are two probe-less :class:`~repro.monitor.slo.BurnRateRule`
s in a :class:`~repro.monitor.slo.SloSet` of their own: the service scores
good/bad itself and feeds ``rule.observe(good, seq, wall_time)`` directly
(no GC event is an observation of either), and the set writes the status
document and decides ``healthy`` exactly as it does for the monitor.

Both SLO observers take *monotonic span stamps* — a pair of
``time.perf_counter()`` readings bracketing the measured interval — and
compute the latency themselves.  Wall-clock time never enters the
measurement (an NTP step or DST jump cannot burn the error budget); the
``wall_time`` argument is carried on alerts for display only.  Each
observation may also carry the request's distributed ``trace_id``,
which the burn-rate rule attaches to firing alerts as the exemplar.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.monitor.slo import BurnRateRule, SloObjective, SloSet
from repro.monitor.timeseries import MonitorHub
from repro.telemetry.events import GcEvent
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.sinks import ExpositionWriter

#: An admission decided within this long of the open frame is on time.
ADMISSION_LATENCY_SLO_S = 0.050


class TenantStats:
    """Deterministic per-tenant counters (everything the label fans over)."""

    __slots__ = (
        "sessions_opened", "sessions_completed", "sessions_evicted",
        "sessions_killed", "collections", "violations",
        "frames_dropped", "frames_discarded",
    )

    def __init__(self) -> None:
        for field in self.__slots__:
            setattr(self, field, 0)


def _service_slos(delivery_lag_slo_s: float) -> SloSet:
    """The two serving objectives, budgeted at 1-in-100 (p99-shaped)."""
    admission = SloObjective(
        name="admission-latency",
        description=(
            f"Session admission decided within "
            f"{ADMISSION_LATENCY_SLO_S * 1e3:.0f}ms of the open frame."
        ),
        budget=0.01,
        severity="page",
    )
    delivery = SloObjective(
        name="violation-delivery-lag",
        description=(
            f"Violation frames written to the client within "
            f"{delivery_lag_slo_s * 1e3:.0f}ms of detection."
        ),
        budget=0.01,
        severity="ticket",
    )
    return SloSet([
        BurnRateRule(objective, long_window=200, short_window=40)
        for objective in (admission, delivery)
    ])


class ServiceMetrics:
    """One lock, every cross-tenant aggregate."""

    def __init__(self, delivery_lag_slo_s: float = 0.200):
        self.delivery_lag_slo_s = delivery_lag_slo_s
        #: Shared monitor hub (``hub.vm`` stays None: it aggregates every
        #: tenant's events rather than attaching to one VM).
        self.hub = MonitorHub(slos=None)
        self.tenants: dict[str, TenantStats] = {}
        self.admission_latency = LogHistogram(1e-6, 10.0)
        self.delivery_lag = LogHistogram(1e-6, 10.0)
        self.slos = _service_slos(delivery_lag_slo_s)
        self.slo_admission, self.slo_delivery = self.slos.rules
        self.alerts: list = []
        self._slo_seq = 0
        self._lock = threading.Lock()

    def _tenant(self, tenant: str) -> TenantStats:
        # Caller holds the lock.
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = TenantStats()
        return stats

    # -- ingestion ----------------------------------------------------------------------

    def observe_event(self, tenant: str, event) -> None:
        """Fan one tenant VM's telemetry event into the shared hub."""
        with self._lock:
            if isinstance(event, GcEvent):
                self._tenant(tenant).collections += 1
            self.hub.emit(event)

    def observe_violations(self, tenant: str, count: int) -> None:
        with self._lock:
            self._tenant(tenant).violations += count

    def session_opened(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).sessions_opened += 1

    def session_evicted(self, tenant: str, session) -> None:
        with self._lock:
            stats = self._tenant(tenant)
            stats.sessions_evicted += 1
            if session.outcome == "completed":
                stats.sessions_completed += 1
            elif session.outcome == "killed":
                stats.sessions_killed += 1
            stats.frames_dropped += session.queue.dropped_frames
            stats.frames_discarded += session.discarded_frames

    def _score(
        self, histogram, rule, slo_s, begin_monos, end_mono, wall_time, trace_id, completed=True
    ) -> None:
        # Intervals between perf_counter stamps, under one lock: each a sample
        # and a good/bad observation — or, never completed, bad and no sample.
        with self._lock:
            for begin_mono in begin_monos:
                seconds = max(0.0, end_mono - begin_mono)
                if completed:
                    histogram.record(seconds)
                self._slo_seq += 1
                alert = rule.observe(
                    completed and seconds <= slo_s, self._slo_seq, wall_time, exemplar=trace_id
                )
                if alert is not None:
                    self.alerts.append(alert)

    def observe_admission_latency(
        self,
        received_mono: float,
        decided_mono: float,
        wall_time: float,
        trace_id: Optional[str] = None,
    ) -> None:
        """Score one open→decision interval from perf_counter stamps."""
        self._score(
            self.admission_latency, self.slo_admission, ADMISSION_LATENCY_SLO_S,
            (received_mono,), decided_mono, wall_time, trace_id,
        )

    def observe_delivery_lags(
        self, enqueued_monos, written_mono: float, wall_time: float,
        trace_id: Optional[str] = None, delivered: bool = True,
    ) -> None:
        """Score one batch's violation frames, each from its own enqueue stamp;
        undelivered (the write raised), they are bad and leave no lag sample."""
        self._score(
            self.delivery_lag, self.slo_delivery, self.delivery_lag_slo_s,
            enqueued_monos, written_mono, wall_time, trace_id, completed=delivered,
        )

    # -- reporting ----------------------------------------------------------------------

    def slo_status(self) -> dict:
        with self._lock:
            return self.slos.status()

    def render(self, admission) -> str:
        """The service's Prometheus families (``admission`` = the controller)."""
        snap = admission.snapshot()
        with self._lock:
            writer = ExpositionWriter()
            metric, sample = writer.metric, writer.sample

            full = metric("service_sessions_active", "gauge",
                          "Tenant sessions currently admitted or running.")
            sample(full, snap["active_sessions"])
            full = metric("service_sessions_peak", "gauge",
                          "High-water mark of concurrent tenant sessions.")
            sample(full, snap["peak_sessions"])
            full = metric("service_heap_committed_bytes", "gauge",
                          "Heap bytes committed against the admission budget.")
            sample(full, snap["committed_bytes"])
            full = metric("service_heap_budget_bytes", "gauge",
                          "Configured aggregate heap budget.")
            sample(full, snap["budget_bytes"])

            full = metric("service_admission_total", "counter",
                          "Admission decisions, by outcome.")
            sample(full, snap["admitted_total"], {"decision": "admitted"})
            for reason, count in sorted(snap["rejected_by_reason"].items()):
                sample(full, count, {"decision": f"rejected-{reason}"})

            full = metric("service_tenant_sessions_total", "counter",
                          "Sessions per tenant, by lifecycle outcome.")
            for tenant, stats in sorted(self.tenants.items()):
                sample(full, stats.sessions_opened,
                       {"tenant": tenant, "outcome": "opened"})
                sample(full, stats.sessions_completed,
                       {"tenant": tenant, "outcome": "completed"})
                sample(full, stats.sessions_killed,
                       {"tenant": tenant, "outcome": "killed"})
                sample(full, stats.sessions_evicted,
                       {"tenant": tenant, "outcome": "evicted"})
            full = metric("service_tenant_gc_collections_total", "counter",
                          "GC collections observed per tenant.")
            for tenant, stats in sorted(self.tenants.items()):
                sample(full, stats.collections, {"tenant": tenant})
            full = metric("service_tenant_violations_total", "counter",
                          "Assertion violations streamed per tenant.")
            for tenant, stats in sorted(self.tenants.items()):
                sample(full, stats.violations, {"tenant": tenant})
            full = metric("service_tenant_frames_dropped_total", "counter",
                          "Outbound frames shed per tenant (slow consumer + "
                          "severed connections).")
            for tenant, stats in sorted(self.tenants.items()):
                sample(full, stats.frames_dropped + stats.frames_discarded,
                       {"tenant": tenant})

            full = metric("service_admission_latency_seconds", "histogram",
                          "Open-frame receipt to admission decision.")
            writer.histogram(full, self.admission_latency)
            full = metric("service_delivery_lag_seconds", "histogram",
                          "Violation detection to client write.")
            writer.histogram(full, self.delivery_lag)

            full = metric("service_slo_firing", "gauge",
                          "1 while the serving objective's burn-rate alert fires.")
            for rule in self.slos.rules:
                sample(full, 1 if rule.firing else 0,
                       {"objective": rule.objective.name})

            return writer.render()
