"""The chaos soak harness behind ``python -m repro chaos``.

Runs a seeded fault schedule (:meth:`FaultPlan.one_of_each`) against the
full crash-consistency matrix — (collector × sweep mode) × workload —
on hardened VMs, then asserts the contract the robustness layer makes:

* **no untyped exceptions** — a fault may surface a typed
  :class:`~repro.errors.ReproError` (that is a documented outcome), but
  anything else escaping is a harness failure;
* **the heap recovers** — after a final recovery collection and
  ``sweep_all``, :func:`~repro.gc.verify.verify_heap` finds zero
  problems (the byte, census and live-object counters against a walk of
  the table are its ``accounting-agreement`` entry);
* **coverage** — every fault kind in the plan was applied at least once
  (the injector's ``apply_remaining`` backstop guarantees this even for
  short workloads);
* **detection still works while degraded** — the injected
  ``flip-dead`` produces an assert-dead violation whose ``site`` is
  ``None``, proving assertion checking survived the fault storm;
* **every fault is caught by a named invariant** — each cell records
  which invariants observed its injected damage (sentinel repairs,
  paranoid-walker findings, violation discriminators, containment
  counters), and the report's fault → invariant
  :class:`~repro.verify.coverage.CoverageMatrix` must cover all 11
  fault kinds or the soak fails.

Each cell runs in its own VM with telemetry on, a snapshot policy
capturing every 2nd GC into a temp directory, and a growth ceiling of
2× the workload heap so the OOM ladder has headroom.  Between the
fault backstop and the recovery collection a *read-only* paranoid probe
(:func:`~repro.gc.verify.heap_findings`, both tiers,
``finish_lazy_sweep=False``) walks the damaged heap; what it flags there
is detection evidence, filed under the invariant's name, not a cell
failure.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.reporting import AssertionKind
from repro.errors import ReproError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.gc.verify import BOTH_TIERS, heap_findings, iter_spaces, verify_heap
from repro.verify.coverage import CoverageMatrix, detect_cell, detect_tenant_cell

#: The crash-consistency matrix rows: (collector, sweep_mode, gc_workers).
#: The workers=4 rows rerun the sharded collectors under parallel marking —
#: every fault kind must be caught and recovered while four workers drain
#: zones concurrently.  The injector pins its victims to one zone
#: (``CHAOS_PIN_ZONE``) so the worker that observes each corruption is the
#: same run to run.
MATRIX: tuple[tuple[str, Optional[str], int], ...] = (
    ("marksweep", "eager", 0),
    ("marksweep", "lazy", 0),
    ("generational", "eager", 0),
    ("generational", "lazy", 0),
    ("semispace", None, 0),
    ("marksweep", "eager", 4),
    ("marksweep", "lazy", 4),
    ("generational", "eager", 4),
    ("generational", "lazy", 4),
)

#: The zone fault victims are pinned to in parallel-marking cells.
CHAOS_PIN_ZONE = 1


def _chaos_workloads(quick: bool) -> dict[str, tuple[int, Callable]]:
    """name -> (heap_bytes, runner), as the service resolves them.  Quick
    mode is the CI smoke pair.  Only swapleak runs asserted: its planted
    violations are the soak's genuine ones, told from injected ones by site."""
    from repro.service.session import resolve_workload

    names = ("lusearch", "swapleak") if quick else ("lusearch", "swapleak", "db", "pseudojbb")
    return {name: resolve_workload(name, asserted=name == "swapleak") for name in names}


@dataclass
class CellResult:
    """One matrix cell: its outcome and the contract checks."""

    collector: str
    sweep_mode: Optional[str]
    workload: str
    seed: int
    gc_workers: int = 0
    #: "completed", "typed:<ErrorName>", or "untyped:<ErrorName>: <msg>".
    outcome: str = "completed"
    #: Contract-check failures; empty means the cell passed.
    failures: list[str] = field(default_factory=list)
    kinds_applied: set[str] = field(default_factory=set)
    degradations: dict[str, int] = field(default_factory=dict)
    recovery: dict[str, int] = field(default_factory=dict)
    violations: int = 0
    injected_dead_violations: int = 0
    injected_unshared_violations: int = 0
    collections: int = 0
    sink_errors: int = 0
    #: fault kind -> "invariant-name: evidence" for every kind whose injected
    #: damage was observed by a named invariant in this cell.
    detections: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def label(self) -> str:
        mode = f"/{self.sweep_mode}" if self.sweep_mode else ""
        workers = f"/workers={self.gc_workers}" if self.gc_workers else ""
        return (
            f"{self.collector}{mode}{workers} × {self.workload} "
            f"(seed {self.seed})"
        )

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = (
            f"{status:4} {self.label}: {self.outcome}, "
            f"{self.collections} GCs, {self.violations} violation(s) "
            f"({self.injected_dead_violations} injected-dead), "
            f"degradations={self.degradations or '{}'}, "
            f"invariants-fired={sorted(self.detections) or '[]'}"
        )
        return head + "".join(f"\n       !! {f}" for f in self.failures)


@dataclass
class ChaosReport:
    """The full matrix outcome; ``ok`` is the process exit-code gate."""

    cells: list[CellResult] = field(default_factory=list)
    seeds: tuple[int, ...] = (0,)
    quick: bool = False
    #: Fault → invariant coverage, aggregated over all cells by
    #: :func:`run_chaos`.  ``None`` on hand-built partial reports; when set,
    #: an uncovered fault kind fails the whole soak.
    coverage: Optional[CoverageMatrix] = None

    @property
    def ok(self) -> bool:
        cells_ok = all(cell.ok for cell in self.cells)
        if self.coverage is not None:
            return cells_ok and self.coverage.ok
        return cells_ok

    def render(self) -> str:
        lines = [
            f"chaos soak: {len(self.cells)} cell(s), "
            f"seeds={list(self.seeds)}{' (quick)' if self.quick else ''}"
        ]
        lines.extend(cell.render() for cell in self.cells)
        passed = sum(1 for cell in self.cells if cell.ok)
        lines.append(f"{passed}/{len(self.cells)} cells passed")
        if self.coverage is not None:
            lines.append(self.coverage.render())
        return "\n".join(lines)


def _pending_refusals(collector) -> int:
    """Armed-but-unconsumed allocation refusals across every space/shard."""
    return sum(space._fault_refusals for _name, space in iter_spaces(collector))


def run_cell(
    collector: str,
    sweep_mode: Optional[str],
    workload: str,
    runner: Callable,
    heap_bytes: int,
    seed: int,
    gc_workers: int = 0,
    paranoid: bool = False,
) -> CellResult:
    """One matrix cell: hardened VM, seeded faults, contract checks."""
    from repro.service.session import hardened_vm
    from repro.snapshot.capture import SnapshotPolicy

    result = CellResult(collector, sweep_mode, workload, seed, gc_workers)
    plan = FaultPlan.one_of_each(seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as snapdir:
        vm = hardened_vm(
            heap_bytes,
            collector=collector,
            sweep_mode=sweep_mode,
            gc_workers=gc_workers or None,
            paranoid=paranoid,
        )
        SnapshotPolicy(snapdir, every_n_gcs=2).attach(vm)
        injector = FaultInjector(
            vm, plan, pin_zone=CHAOS_PIN_ZONE if gc_workers else None
        ).attach()

        try:
            runner(vm)
        except ReproError as exc:
            # A typed error surfacing is a documented matrix outcome; the
            # contract is that the heap is still recoverable afterwards.
            result.outcome = f"typed:{type(exc).__name__}"
        except Exception as exc:  # the contract the whole PR exists for
            result.outcome = f"untyped:{type(exc).__name__}: {exc}"
            result.failures.append(f"untyped exception escaped: {result.outcome}")

        injector.apply_remaining()

        # Read-only detection probe: the paranoid walker sees the injected
        # damage *before* recovery repairs it.  Its findings are coverage
        # evidence for the fault → invariant matrix, never cell failures.
        probe = heap_findings(vm, BOTH_TIERS, finish_lazy_sweep=False)
        pending_refusals = _pending_refusals(vm.collector)

        # Recovery: one full collection over the (possibly corrupt) heap,
        # then exact reclamation.  The pre-GC sentinel repairs what the
        # late-applied faults broke; a typed error here is still a
        # contract failure because recovery must always succeed.
        try:
            vm.gc("chaos recovery")
            vm.collector.sweep_all()
        except Exception as exc:
            result.failures.append(
                f"recovery collection failed: {type(exc).__name__}: {exc}"
            )

        problems = verify_heap(vm, raise_on_error=False)
        if problems:
            result.failures.append(
                f"verify_heap found {len(problems)} problem(s) after recovery: "
                + "; ".join(problems[:3])
            )

        result.kinds_applied = injector.kinds_applied()
        missing = plan.kinds() - result.kinds_applied
        if missing:
            result.failures.append(f"fault kinds never applied: {sorted(missing)}")

        if vm.engine is not None:
            log = vm.engine.log
            result.violations = len(log)
            result.injected_dead_violations = sum(
                1
                for violation in log.violations
                if violation.kind is AssertionKind.DEAD and violation.site is None
            )
            result.injected_unshared_violations = sum(
                1
                for violation in log.violations
                if violation.kind is AssertionKind.UNSHARED and violation.site is None
            )
            if "flip-dead" in result.kinds_applied and not result.injected_dead_violations:
                result.failures.append(
                    "injected DEAD bit produced no assert-dead violation"
                )

        if vm.telemetry is not None:
            result.sink_errors = vm.telemetry.sink_errors
            result.degradations = dict(vm.telemetry.degradations)
            vm.telemetry.close()
        result.recovery = vm.collector.recovery.snapshot()
        result.collections = vm.stats.collections
        result.detections = detect_cell(result, probe, pending_refusals)
        injector.detach()
    return result


def run_tenant_isolation_cell(seed: int = 0) -> CellResult:
    """The service-layer chaos cell: a killed tenant perturbs nobody.

    Three tenant sessions run the same seeded workload side by side; the
    middle one gets the service fault kinds (``conn-drop`` at GC 1,
    ``session-kill`` at GC 2) injected into its VM.  The contract:

    * the victim ends ``killed`` — a session outcome, never an escape;
    * the bystanders' GC counters and violation sets are **bit-identical**
      to a solo baseline run of the same workload (the isolation claim);
    * every committed heap byte returns to the admission budget.
    """
    from repro.service.admission import AdmissionController
    from repro.service.session import TenantSession, hardened_vm, resolve_workload

    result = CellResult("service", None, "tenant-isolation", seed)
    overrides = {"swaps": 32}

    # Solo baseline: what an unperturbed run of the workload looks like.
    heap_bytes, runner = resolve_workload("swapleak", overrides=overrides)
    baseline_vm = hardened_vm(heap_bytes, assertions=True)
    runner(baseline_vm)
    baseline_vm.collector.sweep_all()
    base_counters = baseline_vm.stats.snapshot()["counters"]
    base_violations = baseline_vm.violation_lines()

    admission = AdmissionController(budget_bytes=baseline_vm.collector.max_heap_bytes * 3)
    sessions: list[TenantSession] = []
    for tenant in ("tenant-a", "tenant-b", "tenant-c"):
        _heap, tenant_runner = resolve_workload("swapleak", overrides=overrides)
        session = TenantSession(f"chaos-{tenant}", tenant, heap_bytes)
        decision = admission.try_admit(session.committed_bytes)
        if not decision.admitted:
            result.failures.append(f"{tenant} unexpectedly rejected: {decision.reason}")
        session.runner = tenant_runner
        sessions.append(session)

    victim = sessions[1]
    plan = FaultPlan(seed)
    plan.add("conn-drop", at_gc=1)
    plan.add("session-kill", at_gc=2)
    injector = FaultInjector(victim.vm, plan).attach()

    for session in sessions:
        try:
            session.run(session.runner)
        except Exception as exc:  # session.run absorbs all tenant outcomes
            result.outcome = f"untyped:{type(exc).__name__}: {exc}"
            result.failures.append(f"untyped exception escaped: {result.outcome}")
        session.evict()
        admission.release(session.committed_bytes)

    result.kinds_applied = injector.kinds_applied()
    injector.detach()
    result.collections = sum(s.vm.stats.collections for s in sessions)
    result.violations = sum(len(s.vm.violation_lines()) for s in sessions)

    if victim.outcome != "killed":
        result.failures.append(
            f"victim session ended {victim.outcome!r}, expected 'killed'"
        )
    if not victim.connection_dropped:
        result.failures.append("conn-drop never severed the victim's stream")
    missing = plan.kinds() - result.kinds_applied
    if missing:
        result.failures.append(f"fault kinds never applied: {sorted(missing)}")
    for bystander in (sessions[0], sessions[2]):
        counters = bystander.vm.stats.snapshot()["counters"]
        if counters != base_counters:
            drift = sorted(
                k for k in counters if counters[k] != base_counters[k]
            )
            result.failures.append(
                f"{bystander.tenant} GC counters perturbed by the kill: {drift}"
            )
        if bystander.vm.violation_lines() != base_violations:
            result.failures.append(
                f"{bystander.tenant} violation set perturbed by the kill"
            )
        if bystander.outcome != "completed":
            result.failures.append(
                f"{bystander.tenant} ended {bystander.outcome!r}, expected 'completed'"
            )
    snap = admission.snapshot()
    if snap["committed_bytes"] != 0 or snap["active_sessions"] != 0:
        result.failures.append(
            f"admission budget leaked: {snap['committed_bytes']} bytes, "
            f"{snap['active_sessions']} session(s) still committed"
        )
    result.detections = detect_tenant_cell(result, victim)
    return result


def run_chaos(quick: bool = False, seed: int = 0, paranoid: bool = False) -> ChaosReport:
    """Run the whole matrix; quick mode is one seed × the CI smoke pair.

    With ``paranoid=True`` every heap cell's VM additionally runs the
    paranoid wellformedness walker around each collection (the hardened
    sentinel then also scrubs free lists pre-walk, so a mid-workload
    corruption surfaces as a typed :class:`~repro.gc.verify.HeapVerificationError`
    instead of lingering until the probe).
    """
    seeds = (seed,) if quick else (seed, seed + 1)
    workloads = _chaos_workloads(quick)
    report = ChaosReport(seeds=seeds, quick=quick)
    for collector, sweep_mode, gc_workers in MATRIX:
        for workload, (heap_bytes, runner) in workloads.items():
            for cell_seed in seeds:
                report.cells.append(
                    run_cell(
                        collector,
                        sweep_mode,
                        workload,
                        runner,
                        heap_bytes,
                        cell_seed,
                        gc_workers,
                        paranoid=paranoid,
                    )
                )
    for cell_seed in seeds:
        report.cells.append(run_tenant_isolation_cell(cell_seed))
    report.coverage = CoverageMatrix()
    for cell in report.cells:
        report.coverage.merge_cell(cell.label, cell.detections)
    return report
