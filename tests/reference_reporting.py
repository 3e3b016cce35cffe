"""Reference oracle for violation reporting: the pipeline as it was.

Before a reported violation was made to cost what detecting it costs, every
violation paid, inside the pause, for a report nobody had asked to read yet.
The pieces ``src/`` no longer has are kept here, as they were, so the
differentials in ``tests/test_reporting_pipeline.py`` can hold the new
pipeline to the old one's output:

* :func:`reference_from_tracer` — path capture through
  ``Tracer.current_path``: a checked ``heap.get`` and a fresh
  :class:`PathEntry` for every step of every path;
* :class:`ReferenceViolationLog` — ``record`` renders the Figure-1 text on
  the spot and keeps it in a ``lines`` list;
* :func:`reference_dispatch` — the engine hands the log one violation at a
  time, and telemetry counts them one at a time;
* :class:`ReferenceSession` — the session as a *reaction handler* that
  answers ``None``: one frame, one ``_send``, one metrics lock per call,
  at ``post_mark``;
* :class:`ReferenceBurnRateRule` — burn rates re-summed over both windows
  on every observation.

:func:`reference_reporting` installs the first three for VMs built inside
it.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional
from unittest import mock

from repro.core.engine import AssertionEngine
from repro.core.reactions import Reaction
from repro.core.reporting import HeapPath, Violation, ViolationLog
from repro.errors import AssertionViolationHalt
from repro.monitor.slo import BurnRateRule
from repro.service.session import TenantSession


def reference_from_tracer(cls, tracer, tip) -> HeapPath:
    root_desc, objects = tracer.current_path(tip)
    return cls(root_desc, objects)  # a PathEntry per object, every time


class ReferenceViolationLog(ViolationLog):
    """Rendered when recorded; ``lines`` is a list somebody has to keep right."""

    lines = None  # shadows the render-on-read property

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    def record(self, violation: Violation) -> None:
        self.violations.append(violation)
        self.lines.append(violation.render())
        for sink in self.sinks:
            sink(violation)

    def clear(self) -> None:
        self.violations.clear()
        self.lines.clear()


def reference_dispatch(engine: AssertionEngine) -> None:
    engine._resolve_reactions()
    pending, engine._pending = engine._pending, []
    telemetry = engine.vm.telemetry if engine.vm is not None else None
    halt: Optional[Violation] = None
    for violation in pending:
        engine.log.record(violation)
        if telemetry is not None:
            telemetry.record_violations([violation])
        if violation.reaction == Reaction.HALT.value and halt is None:
            halt = violation
    if halt is not None:
        raise AssertionViolationHalt(halt)


@contextmanager
def reference_reporting():
    """VMs built (and run) inside report the old way."""
    with mock.patch("repro.core.engine.ViolationLog", ReferenceViolationLog), \
            mock.patch.object(HeapPath, "from_tracer", classmethod(reference_from_tracer)), \
            mock.patch.object(AssertionEngine, "_dispatch", reference_dispatch):
        yield


class ReferenceSession(TenantSession):
    """Build inside :func:`reference_reporting`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vm.engine.log.batch_sinks.remove(self.stream_violations)
        self.vm.engine.policy.add_handler(self._on_violation)

    def _on_violation(self, violation) -> None:
        self.violation_frames += 1
        self._send({
            "type": "violation",
            "session": self.session_id,
            "kind": violation.kind.value,
            "message": violation.message,
            "class": violation.type_name,
            "site": violation.site,
            "gc_number": violation.gc_number,
        })
        if self._metrics is not None:
            self._metrics.observe_violations(self.tenant, 1)
        return None


class ReferenceBurnRateRule(BurnRateRule):
    """Reads both windows in full whenever a rate is asked for."""

    def burn_rates(self) -> tuple[float, float]:
        return self._resummed(self._long), self._resummed(self._short)

    def _resummed(self, window) -> float:
        if not window:
            return 0.0
        bad_frac = sum(window) / len(window)
        if self.objective.budget == 0.0:
            return float("inf") if bad_frac > 0.0 else 0.0
        return bad_frac / self.objective.budget

    def budget_remaining(self) -> float:
        if not self._long:
            return 1.0
        bad_frac = sum(self._long) / len(self._long)
        if self.objective.budget == 0.0:
            return 1.0 if bad_frac == 0.0 else 0.0
        return 1.0 - bad_frac / self.objective.budget
