"""The live serving layer: ``/metrics``, ``/health`` and ``/slo`` over HTTP.

A :class:`MonitorServer` is the shared :class:`repro.httpd.EndpointServer`
— a stdlib ``ThreadingHTTPServer`` on a daemon thread, no framework, no new
dependency — serving the pull side of the monitor:

* ``/metrics`` — Prometheus text exposition: the PR-1 telemetry exporter
  verbatim, with the monitor's own families (MMU curve, utilization,
  health score, alert/budget state) appended in the same format.
* ``/health`` — the machine-readable health report as JSON; HTTP 200
  while within SLO, 503 while any alert fires or a budget is exhausted.
* ``/slo`` — the full SLO status document as JSON (always 200; the
  *content* says what is burning).

Handlers only read hub state that is appended from the GC's emit path,
so a scrape races at worst against one in-flight append — both the
deques and the handler snapshots tolerate that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.httpd import JSON_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE, EndpointServer
from repro.monitor.health import health_report, health_score
from repro.monitor.mmu import DEFAULT_MMU_WINDOWS
from repro.monitor.slo import SloSet
from repro.telemetry.sinks import ExpositionWriter, render_prometheus

if TYPE_CHECKING:
    from repro.monitor.timeseries import MonitorHub

__all__ = ["MonitorServer", "PROMETHEUS_CONTENT_TYPE", "render_monitor_metrics"]


def render_monitor_metrics(hub: "MonitorHub") -> str:
    """The monitor's own metric families, exposition-format text.

    Appended after the telemetry exporter's output on ``/metrics``; no
    family is declared by two renderers (``tests/test_cli.py`` checks the
    three of them against each other and against the docs), so the combined
    document has no duplicate TYPE declarations.
    """
    writer = ExpositionWriter()
    metric, sample = writer.metric, writer.sample

    full = metric("mutator_utilization_ratio", "gauge",
                  "Mutator utilization over the trailing 1s window.")
    sample(full, hub.utilization_now())

    full = metric("mmu_ratio", "gauge",
                  "Minimum mutator utilization per window width.")
    for window_s, value in hub.mmu_points(DEFAULT_MMU_WINDOWS):
        sample(full, value, {"window": f"{window_s:g}s"})

    full = metric("monitor_gc_events_total", "counter",
                  "GC events the monitor hub has ingested.")
    sample(full, hub.gc_events_seen)

    full = metric("monitor_degradations_total", "counter",
                  "Recovery-path activations observed, by kind.")
    for kind, count in sorted(hub.degradations_by_kind.items()):
        sample(full, count, {"kind": kind})

    full = metric("monitor_alerts_total", "counter",
                  "Burn-rate alert transitions observed, by state.")
    firing = sum(1 for a in hub.alerts if a.state == "firing")
    resolved = sum(1 for a in hub.alerts if a.state == "resolved")
    sample(full, firing, {"state": "firing"})
    sample(full, resolved, {"state": "resolved"})

    if hub.slos is not None:
        full = metric("slo_budget_remaining_ratio", "gauge",
                      "Error budget remaining per objective (1 = untouched).")
        for rule in hub.slos.rules:
            sample(full, rule.budget_remaining(),
                   {"objective": rule.objective.name})
        full = metric("slo_firing", "gauge",
                      "1 while the objective's burn-rate alert is firing.")
        for rule in hub.slos.rules:
            sample(full, 1 if rule.firing else 0,
                   {"objective": rule.objective.name})

    full = metric("heap_health_score", "gauge",
                  "Composite heap health (0-100; 100 is perfectly healthy).")
    sample(full, health_score(hub))

    return writer.render()


class MonitorServer(EndpointServer):
    """The shared :class:`~repro.httpd.EndpointServer` (daemon thread,
    ``port=0`` for an ephemeral port, context manager) over a monitor
    hub's three routes."""

    def __init__(self, hub: "MonitorHub", port: int = 0, host: str = "127.0.0.1"):
        self.hub = hub
        super().__init__(
            {
                "/metrics": self._serve_metrics,
                "/health": self._serve_health,
                "/slo": self._serve_slo,
            },
            port=port,
            host=host,
            name="repro-monitor",
            server_version="repro-monitor/1",
        )

    # -- route handlers (run on the serving thread; read-only) --------------------------

    def _serve_metrics(self):
        hub = self.hub
        body = ""
        vm = hub.vm
        if vm is not None and vm.telemetry is not None:
            body += render_prometheus(vm.telemetry)
        body += render_monitor_metrics(hub)
        return 200, PROMETHEUS_CONTENT_TYPE, body

    def _serve_health(self):
        report = health_report(self.hub)
        return report["http_code"], JSON_CONTENT_TYPE, report

    def _serve_slo(self):
        # A hub with nothing armed serves what an empty set says.
        return 200, JSON_CONTENT_TYPE, (self.hub.slos or SloSet()).status()
