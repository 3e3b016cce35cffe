"""Pause-SLO error budgets and multi-window burn-rate alerting.

An :class:`SloObjective` is a declarative statement of acceptable heap
behavior — "p99 of pauses under 50ms", "MMU(100ms) at least 0.5", "no
quarantined corruption, ever" — with an *error budget*: the fraction of
observations allowed to violate the threshold before the objective is
out of SLO.  Each GC event becomes one good/bad observation per
objective; :class:`BurnRateRule` watches how fast the budget burns over
a long and a short trailing window (the multi-window pattern: the long
window proves the problem is real, the short window proves it is *still
happening*) and emits a typed :class:`AlertEvent` on the transition into
and out of the firing state.

Alerts are plain frozen dataclasses with an ``event`` discriminator, so
they travel the existing telemetry sink fan-out (JSONL rows, memory
sinks, circuit breakers) like every other out-of-band event.

Observation counts — not wall-clock seconds — drive the windows.  The
workloads here run milliseconds per GC cycle; counting observations
makes trigger/clear behavior deterministic under test and in CI while
preserving the burn-rate semantics (a window of N observations *is* a
time window at any steady event rate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.monitor.timeseries import MonitorHub
    from repro.telemetry.events import GcEvent

SLO_SCHEMA = "repro-slo/1"


@dataclass(frozen=True)
class AlertEvent:
    """One burn-rate alert transition (``alert`` in the event stream)."""

    event: str               #: always "alert" (sink discriminator)
    objective: str           #: SloObjective.name
    state: str               #: "firing" | "resolved"
    severity: str            #: "page" | "ticket"
    burn_rate: float         #: long-window burn rate at transition
    short_burn_rate: float   #: short-window burn rate at transition
    budget_remaining: float  #: fraction of error budget left (can be < 0)
    seq: int                 #: GC ordinal that caused the transition
    wall_time: float         #: epoch seconds at transition
    detail: str              #: human-readable cause summary
    #: Exemplar: the distributed trace_id of a recent bad observation,
    #: so a firing alert names an exact request trace to open (None when
    #: the caller does not propagate trace context, e.g. GC-event SLOs).
    exemplar: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        line = (
            f"alert[{self.objective}] {self.state} ({self.severity}) "
            f"burn={self.burn_rate:.2f}x/{self.short_burn_rate:.2f}x "
            f"budget={self.budget_remaining:.0%}: {self.detail}"
        )
        if self.exemplar is not None:
            line += f" exemplar={self.exemplar}"
        return line


@dataclass
class SloObjective:
    """One declarative objective over the GC event stream.

    ``probe(hub, event)`` returns True when the observation is *good*; an
    objective whose owner scores it and calls ``rule.observe`` itself (the
    service's two) has none, and no GC event is an observation of it.
    ``budget`` is the allowed bad fraction: 0.01 encodes a p99 objective
    (at most 1 in 100 observations may violate the threshold), and 0.0
    encodes a zero-tolerance objective — any bad observation immediately
    exhausts the budget and fires.
    """

    name: str
    description: str
    budget: float
    probe: Optional[Callable[["MonitorHub", "GcEvent"], bool]] = None
    severity: str = "page"

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget < 1.0:
            raise ConfigurationError(
                f"SLO {self.name!r}: budget must be in [0, 1), got {self.budget}"
            )
        if self.severity not in ("page", "ticket"):
            raise ConfigurationError(
                f"SLO {self.name!r}: severity must be 'page' or 'ticket', "
                f"got {self.severity!r}"
            )


@dataclass
class BurnRateRule:
    """Multi-window burn-rate alerting state for one objective.

    Burn rate = (bad fraction in window) / budget; 1.0 means the budget
    burns exactly as fast as it accrues.  The rule **fires** on a bad
    observation that leaves the rate at least ``factor`` on both the long
    and the short window (the short window keeps a stale long window from
    paging after the problem stops, and a good observation, which cannot
    raise a rate, never fires), and **clears** after ``clear_good``
    consecutive good observations — count-based hysteresis, so a single
    good cycle in the middle of an incident does not flap the alert.

    Zero-budget objectives treat any bad observation as an infinite burn
    rate: they fire immediately and clear by the same hysteresis.
    """

    objective: SloObjective
    long_window: int = 60
    short_window: int = 12
    factor: float = 6.0
    clear_good: int = 8

    _long: deque = field(init=False, repr=False)
    _short: deque = field(init=False, repr=False)
    #: Bad observations now in each window, kept as they enter and leave.
    _long_bad: int = field(default=0, init=False, repr=False)
    _short_bad: int = field(default=0, init=False, repr=False)
    firing: bool = field(default=False, init=False)
    consecutive_good: int = field(default=0, init=False)
    total: int = field(default=0, init=False)
    bad: int = field(default=0, init=False)
    transitions: int = field(default=0, init=False)
    #: trace_id of the most recent bad observation (attached to firing
    #: alerts as the exemplar; None until a caller propagates one).
    last_bad_exemplar: Optional[str] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.short_window > self.long_window:
            raise ConfigurationError(
                f"rule for {self.objective.name!r}: short window "
                f"({self.short_window}) exceeds long window ({self.long_window})"
            )
        if self.factor <= 0 or self.clear_good < 1:
            raise ConfigurationError(
                f"rule for {self.objective.name!r}: factor must be > 0 and "
                f"clear_good >= 1"
            )
        self._long = deque(maxlen=self.long_window)
        self._short = deque(maxlen=self.short_window)

    def _rate(self, bad: int, size: int) -> float:
        """Burn rate over one window; inf when a zero budget is violated."""
        if not size:
            return 0.0
        bad_frac = bad / size
        if self.objective.budget == 0.0:
            return float("inf") if bad_frac > 0.0 else 0.0
        return bad_frac / self.objective.budget

    def burn_rates(self) -> tuple[float, float]:
        return self._rate(self._long_bad, len(self._long)), self._rate(self._short_bad, len(self._short))

    def budget_remaining(self) -> float:
        """Fraction of the error budget left over the long window."""
        burn = self._rate(self._long_bad, len(self._long))
        if self.objective.budget == 0.0:
            return 1.0 if burn == 0.0 else 0.0
        return 1.0 - burn

    def observe(
        self,
        good: bool,
        seq: int,
        wall_time: float,
        exemplar: Optional[str] = None,
    ) -> Optional[AlertEvent]:
        """Feed one observation; returns an alert on a state transition.

        ``exemplar`` is an optional distributed trace_id for this
        observation; the most recent *bad* one rides along on firing
        alerts so the operator can jump straight to the guilty request.
        """
        self.total += 1
        if good:
            self.consecutive_good += 1
        else:
            self.bad += 1
            self.consecutive_good = 0
            if exemplar is not None:
                self.last_bad_exemplar = exemplar
        bad = 0 if good else 1
        long, short = self._long, self._short
        # A full window drops its oldest observation as the new one enters.
        self._long_bad += bad - (long[0] if len(long) == self.long_window else 0)
        self._short_bad += bad - (short[0] if len(short) == self.short_window else 0)
        long.append(bad)
        short.append(bad)
        long_rate, short_rate = self.burn_rates()

        if not self.firing:
            # Only a *fresh* bad observation fires.  (Window rates would
            # re-fire on stale bads still aging out after a clear — the
            # alert must track new damage, not old history.)  A zero budget
            # makes any bad observation an infinite burn on both windows.
            if not good and long_rate >= self.factor and short_rate >= self.factor:
                self.firing = True
                self.transitions += 1
                return self._alert("firing", long_rate, short_rate, seq, wall_time)
        elif self.consecutive_good >= self.clear_good:
            self.firing = False
            self.transitions += 1
            return self._alert("resolved", long_rate, short_rate, seq, wall_time)
        return None

    def observe_good(self, count: int) -> None:
        """Feed ``count`` good observations at once: what :meth:`observe`
        does with each, for a rule that is not firing — where a good
        observation changes no state and so returns no alert."""
        if self.firing:
            raise ValueError("a firing rule takes its good observations one at a time")
        self.total += count
        self.consecutive_good += count
        self._long_bad -= _push_good(self._long, count)
        self._short_bad -= _push_good(self._short, count)

    def _alert(
        self, state: str, long_rate: float, short_rate: float,
        seq: int, wall_time: float,
    ) -> AlertEvent:
        obj = self.objective
        if state == "firing":
            rate = "inf" if long_rate == float("inf") else f"{long_rate:.2f}"
            detail = f"{obj.description}: burning budget at {rate}x"
        else:
            detail = (
                f"{obj.description}: {self.consecutive_good} consecutive "
                f"good observations"
            )
        return AlertEvent(
            event="alert",
            objective=obj.name,
            state=state,
            severity=obj.severity,
            burn_rate=long_rate,
            short_burn_rate=short_rate,
            budget_remaining=self.budget_remaining(),
            seq=seq,
            wall_time=wall_time,
            detail=detail,
            exemplar=self.last_bad_exemplar if state == "firing" else None,
        )


def _push_good(window: deque, count: int) -> int:
    """Append ``count`` good observations to a bounded ``window``; returns
    how many bad ones they pushed out of it."""
    leaving = len(window) + count - window.maxlen
    pushed_out = sum(islice(window, leaving)) if leaving > 0 else 0
    window.extend(repeat(0, count))
    return pushed_out


class SloSet:
    """A named collection of objectives with their burn-rate rules.

    ``observe`` is called by the hub once per GC event; ``status`` is the
    one builder of a ``repro-slo/1`` document — the monitor's and the
    service's ``/slo`` bodies, the service's ``stats`` reply — and
    ``healthy`` the one definition both ``/health`` endpoints and the CLI
    exit code read.  Exit-code semantics: 0 = all within budget, 1 = budget
    exhausted or an alert currently firing, 2 = configuration error
    (raised, not returned).
    """

    def __init__(self, rules: Optional[list[BurnRateRule]] = None):
        self.rules: list[BurnRateRule] = []
        for rule in rules or ():
            self.add(rule)

    def add(self, rule: BurnRateRule) -> "SloSet":
        if any(r.objective.name == rule.objective.name for r in self.rules):
            raise ConfigurationError(
                f"duplicate SLO objective {rule.objective.name!r}"
            )
        self.rules.append(rule)
        return self

    def observe(self, hub: "MonitorHub", event: "GcEvent") -> list[AlertEvent]:
        alerts = []
        for rule in self.rules:
            if rule.objective.probe is None:
                continue
            good = bool(rule.objective.probe(hub, event))
            alert = rule.observe(good, event.seq, event.wall_time)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def firing(self) -> list[BurnRateRule]:
        return [rule for rule in self.rules if rule.firing]

    def exhausted(self) -> list[BurnRateRule]:
        return [rule for rule in self.rules if rule.budget_remaining() <= 0.0]

    def healthy(self) -> bool:
        return not self.firing() and not self.exhausted()

    def exit_code(self) -> int:
        return 0 if self.healthy() else 1

    def status(self) -> dict:
        """Machine-readable SLO state (the ``/slo`` endpoint body)."""
        rows = []
        for rule in self.rules:
            long_rate, short_rate = rule.burn_rates()
            rows.append({
                "objective": rule.objective.name,
                "description": rule.objective.description,
                "severity": rule.objective.severity,
                "budget": rule.objective.budget,
                "budget_remaining": rule.budget_remaining(),
                "burn_rate_long": _json_rate(long_rate),
                "burn_rate_short": _json_rate(short_rate),
                "firing": rule.firing,
                "observations": rule.total,
                "bad_observations": rule.bad,
                "transitions": rule.transitions,
                "exemplar": rule.last_bad_exemplar if rule.firing else None,
            })
        return {
            "schema": SLO_SCHEMA,
            "healthy": self.healthy(),
            "firing": [rule.objective.name for rule in self.firing()],
            "exhausted": [rule.objective.name for rule in self.exhausted()],
            "objectives": rows,
        }


def _json_rate(rate: float) -> float:
    """JSON has no Infinity; clamp the sentinel to a large finite burn."""
    return 1e9 if rate == float("inf") else rate


# -- default objective catalog ----------------------------------------------------------


#: The stock catalog's fixed thresholds: the MMU window, the lazy-sweep
#: backlog ceiling (chunks) and the per-cycle ownership-phase ceiling.
MMU_WINDOW_S = 0.1
SWEEP_DEBT_CEILING = 64
CHECK_LATENCY_S = 0.040


def default_slos(pause_p99_s: float = 0.050, mmu_floor: float = 0.3) -> SloSet:
    """The stock objective catalog the CLI and CI arm.

    * ``pause-p99`` — pause under ``pause_p99_s``, 1% budget (a p99).
    * ``mmu-floor`` — MMU over ``MMU_WINDOW_S`` windows stays above
      ``mmu_floor``; 5% budget since early-run MMU is noisy.
    * ``sweep-debt`` — lazy-sweep backlog stays under the ceiling, 5%.
    * ``check-latency`` — assertion checking (ownership phase) stays
      under ``CHECK_LATENCY_S`` per cycle, 1% budget.
    * ``no-degradation`` — zero budget: any quarantine, engine
      disablement, OOM growth, or sink breaker trip fires immediately.
    """
    if pause_p99_s <= 0:
        raise ConfigurationError(
            f"pause objective must be > 0 seconds, got {pause_p99_s}"
        )
    if not 0.0 < mmu_floor <= 1.0:
        raise ConfigurationError(
            f"MMU floor must be in (0, 1] (a utilization), got {mmu_floor}"
        )

    def pause_ok(hub: "MonitorHub", event: "GcEvent") -> bool:
        return event.pause_s <= pause_p99_s

    def mmu_ok(hub: "MonitorHub", event: "GcEvent") -> bool:
        return hub.mmu(MMU_WINDOW_S) >= mmu_floor

    def debt_ok(hub: "MonitorHub", event: "GcEvent") -> bool:
        return event.sweep_debt_chunks <= SWEEP_DEBT_CEILING

    def checks_ok(hub: "MonitorHub", event: "GcEvent") -> bool:
        return event.ownership_s <= CHECK_LATENCY_S

    slos = SloSet()
    slos.add(BurnRateRule(SloObjective(
        "pause-p99", f"p99 GC pause under {pause_p99_s * 1e3:.0f}ms",
        budget=0.01, probe=pause_ok, severity="page",
    )))
    slos.add(BurnRateRule(SloObjective(
        "mmu-floor",
        f"MMU({MMU_WINDOW_S * 1e3:.0f}ms) at least {mmu_floor:.0%}",
        budget=0.05, probe=mmu_ok, severity="ticket",
    ), factor=3.0))
    slos.add(BurnRateRule(SloObjective(
        "sweep-debt", f"sweep backlog under {SWEEP_DEBT_CEILING} chunks",
        budget=0.05, probe=debt_ok, severity="ticket",
    ), factor=3.0))
    slos.add(BurnRateRule(SloObjective(
        "check-latency",
        f"assertion checking under {CHECK_LATENCY_S * 1e3:.0f}ms per cycle",
        budget=0.01, probe=checks_ok, severity="ticket",
    )))
    slos.add(BurnRateRule(SloObjective(
        "no-degradation",
        "no quarantine, engine disablement, OOM growth, or breaker trips",
        budget=0.0, probe=_make_degradation_probe(), severity="page",
    ), clear_good=4))
    return slos


def _make_degradation_probe() -> Callable[["MonitorHub", "GcEvent"], bool]:
    """Good while the hub has seen no *new* degradations since the last
    observation — stateful high-water mark, so one absorbed fault is one
    bad observation, not a permanently bad signal."""
    seen = {"count": 0}

    def probe(hub: "MonitorHub", event: "GcEvent") -> bool:
        now = sum(hub.degradations_by_kind.values())
        fresh = now > seen["count"]
        seen["count"] = now
        return not fresh

    return probe
