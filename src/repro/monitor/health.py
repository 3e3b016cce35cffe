"""Composite heap-health scoring and the machine-readable health report.

One number ("how healthy is this heap, 0–100") plus the evidence behind
it.  The score is a weighted blend of signals the repo already computes
— pause behavior and MMU from the monitor hub, occupancy and sweep debt
from the latest GC event, assertion violations and recovery activity
from telemetry — so the report is a *view*, not a new measurement.

``/health`` serves :func:`health_report` as JSON and maps
:func:`health_status` to an HTTP code: 200 while within SLO, 503 while
any burn-rate alert is firing or a budget is exhausted — the shape load
balancers and CI gates expect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.monitor.timeseries import MonitorHub

HEALTH_SCHEMA = "repro-health/1"

#: Component weights; must sum to 1.  Pauses and utilization dominate
#: because they are what the mutator actually experiences.
_WEIGHTS = {
    "pauses": 0.30,
    "utilization": 0.25,
    "occupancy": 0.15,
    "sweep_debt": 0.10,
    "violations": 0.10,
    "degradations": 0.10,
}


def _clamp(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _component_scores(hub: "MonitorHub") -> dict[str, float]:
    """Each component scored in [0, 1]; 1 is perfectly healthy."""
    scores: dict[str, float] = {}

    pauses = hub.series["pause_s"].values()
    if pauses:
        recent = pauses[-64:]
        worst = max(recent)
        # 10ms worst-case pause scores 1.0; 200ms scores 0.
        scores["pauses"] = _clamp(1.0 - (worst - 0.010) / 0.190)
    else:
        scores["pauses"] = 1.0

    scores["utilization"] = _clamp(hub.mmu(0.1))

    occupancy = hub.series["occupancy"].latest_value(0.0)
    # Healthy up to 85% occupancy, then linearly to 0 at 100%.
    scores["occupancy"] = _clamp((1.0 - occupancy) / 0.15) if occupancy > 0.85 else 1.0

    debt = hub.series["sweep_debt_chunks"].latest_value(0.0)
    scores["sweep_debt"] = _clamp(1.0 - debt / 256.0)

    violations = sum(hub.series["violations"].values())
    scores["violations"] = 1.0 if violations == 0 else _clamp(1.0 - violations / 10.0)

    degradations = sum(hub.degradations_by_kind.values())
    scores["degradations"] = (
        1.0 if degradations == 0 else _clamp(1.0 - degradations / 8.0)
    )
    return scores


def health_score(hub: "MonitorHub") -> float:
    """Composite heap health in [0, 100]."""
    scores = _component_scores(hub)
    return 100.0 * sum(_WEIGHTS[name] * score for name, score in scores.items())


def health_status(hub: "MonitorHub") -> tuple[str, int]:
    """``(state, http_code)``: SLO state decides serving health.

    The composite score is diagnostic; the *contract* is the SLO set.
    No SLO set attached means health is score-only: degraded under 50.
    """
    if hub.slos is not None:
        if not hub.slos.healthy():
            return "unhealthy", 503
        return "ok", 200
    return ("ok", 200) if health_score(hub) >= 50.0 else ("unhealthy", 503)


def health_report(hub: "MonitorHub") -> dict:
    """The machine-readable report ``/health`` serves (schema-stamped)."""
    state, http_code = health_status(hub)
    scores = _component_scores(hub)
    latest = hub.series["pause_s"].latest()
    vm = hub.vm
    telemetry = vm.telemetry if vm is not None else None

    pauses = hub.series["pause_s"].values()
    recent = pauses[-256:]
    pause_block = {
        "count": len(pauses),
        "max_s": max(recent) if recent else 0.0,
        "mean_s": (sum(recent) / len(recent)) if recent else 0.0,
        "p99_s": _quantile(recent, 0.99),
    }

    report = {
        "schema": HEALTH_SCHEMA,
        "status": state,
        "http_code": http_code,
        "score": round(health_score(hub), 2),
        "components": {name: round(score, 4) for name, score in scores.items()},
        "uptime_s": hub.uptime_s(),
        "gc_events": hub.gc_events_seen,
        "last_gc_mono": latest[0] if latest is not None else None,
        "pauses": pause_block,
        "mmu": {
            f"{int(w * 1e3)}ms": mmu_value
            for w, mmu_value in hub.mmu_points((0.01, 0.1, 1.0))
        },
        "utilization_now": hub.utilization_now(),
        "heap_live_bytes": int(hub.series["heap_live_bytes"].latest_value(0.0)),
        "occupancy": hub.series["occupancy"].latest_value(0.0),
        "sweep_debt_chunks": int(hub.series["sweep_debt_chunks"].latest_value(0.0)),
        "quarantine_depth": int(hub.series["quarantine_depth"].latest_value(0.0)),
        "violations_total": int(sum(hub.series["violations"].values())),
        "degradations": dict(hub.degradations_by_kind),
        "alerts_seen": len(hub.alerts),
        "slo": hub.slos.status() if hub.slos is not None else None,
    }
    if telemetry is not None:
        census = telemetry.census.latest()
        if census:
            top = sorted(census.items(), key=lambda kv: -kv[1][1])[:5]
            report["top_classes_by_bytes"] = [
                {"class": name, "objects": count, "bytes": nbytes}
                for name, (count, nbytes) in top
            ]
    return report


def validate_health_report(report: dict) -> list[str]:
    """Schema check for CI: returns problem strings (empty = valid)."""
    problems: list[str] = []
    if report.get("schema") != HEALTH_SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, want {HEALTH_SCHEMA!r}")
    for key, types in (
        ("status", str), ("http_code", int), ("score", (int, float)),
        ("components", dict), ("uptime_s", (int, float)), ("gc_events", int),
        ("pauses", dict), ("mmu", dict), ("utilization_now", (int, float)),
        ("heap_live_bytes", int), ("occupancy", (int, float)),
        ("sweep_debt_chunks", int), ("quarantine_depth", int),
        ("violations_total", int),
        ("degradations", dict), ("alerts_seen", int),
    ):
        if key not in report:
            problems.append(f"missing key {key!r}")
        elif not isinstance(report[key], types):
            problems.append(
                f"{key!r} has type {type(report[key]).__name__}, want {types}"
            )
    if report.get("status") not in ("ok", "unhealthy"):
        problems.append(f"bad status {report.get('status')!r}")
    if report.get("http_code") not in (200, 503):
        problems.append(f"bad http_code {report.get('http_code')!r}")
    score = report.get("score")
    if isinstance(score, (int, float)) and not 0.0 <= score <= 100.0:
        problems.append(f"score {score} outside [0, 100]")
    components = report.get("components")
    if isinstance(components, dict):
        missing = set(_WEIGHTS) - set(components)
        if missing:
            problems.append(f"components missing {sorted(missing)}")
    slo = report.get("slo")
    if slo is not None and not (
        isinstance(slo, dict) and slo.get("schema", "").startswith("repro-slo/")
    ):
        problems.append("slo block present but not a repro-slo document")
    return problems


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]
