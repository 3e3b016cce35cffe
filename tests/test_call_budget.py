"""A deterministic gate on the mutator's hot paths: Python-level calls.

Wall-clock gates flake; the number of Python functions entered by one
allocation or one handle access does not.  ``sys.setprofile`` counts the
``call`` events (Python frames only — ``dict.get`` and ``list.pop`` are
not calls here) under the entry point, the entry point included.  The
budgets are at most one above what the paths take today, so a helper that
creeps back onto a path fails here before it shows in a benchmark.  Phase
1's worklist is gated the same way on ``c_call`` events: its pushes and
pops.  One smoke-size ``asserted_db`` unit is gated as a whole.
"""

from __future__ import annotations

import gc as host_gc
import sys

import pytest

from repro.core.reporting import AssertionKind
from repro.errors import AssertionUsageError
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine


def profiled(fn, profile) -> None:
    """Run ``fn()`` under ``profile`` with the host interpreter's collector
    held off: a host collection's callbacks are Python frames too (one test
    framework installs such a callback), and when one lands inside a counted
    call depends on what ran before it in the process."""
    was_enabled = host_gc.isenabled()
    host_gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            host_gc.enable()


def python_calls(fn) -> list[str]:
    """Qualified names of the Python functions entered while ``fn()`` runs
    (``fn`` itself left out)."""
    entered: list[str] = []

    def profile(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code.co_qualname)

    profiled(fn, profile)
    return entered[1:]


@pytest.fixture
def warm():
    """A default VM (assertions and telemetry on) whose run cache, bucket
    memo and class tables have all seen the class being allocated."""
    vm = VirtualMachine(heap_bytes=8 << 20)
    cls = vm.define_class("Thing", [("ref", FieldKind.REF), ("id", FieldKind.INT)])
    with vm.scope("call budget"):
        for _ in range(40):
            vm.new(cls, id=1)
            vm.new_array(cls, 4)
        yield vm, cls


def test_fast_path_allocate_call_budget(warm):
    vm, cls = warm
    hits = vm.stats.alloc_fast_hits
    calls = python_calls(lambda: vm.collector.allocate(cls))
    assert vm.stats.alloc_fast_hits == hits + 1, "the probe must take the fast path"
    assert len(calls) <= 6, calls


def test_vm_new_with_a_field_call_budget(warm):
    vm, cls = warm
    calls = python_calls(lambda: vm.new(cls, id=3))
    assert len(calls) <= 12, calls


def test_handle_reference_load_and_store_call_budget(warm):
    # A store is the access and the slot lookup; the barrier check, the
    # liveness test and the table probe are inline.  A load adds the Handle.
    vm, cls = warm
    holder, target, array = vm.new(cls), vm.new(cls), vm.new_array(cls, 4)
    for key, at in (("ref", holder), (2, array)):
        store = python_calls(lambda: at.__setitem__(key, target))
        assert at.ref_address(key) == target.address
        assert store == ["Handle.__setitem__", "Handle._slot_for"], store
        load = python_calls(lambda: at[key])
        assert load == ["Handle.__getitem__", "Handle._slot_for", "Handle.__init__"], load
    scalar = python_calls(lambda: holder["id"])
    assert len(scalar) <= 2, scalar


def test_generational_store_adds_only_its_barrier():
    # The barrier's own nursery tests are its business, not the store path's.
    vm = VirtualMachine(heap_bytes=1 << 20, collector="generational")
    cls = vm.define_class("Thing", [("ref", FieldKind.REF)])
    with vm.scope("call budget"):
        holder, target, array = vm.new(cls), vm.new(cls), vm.new_array(cls, 4)
        for key, at in (("ref", holder), (2, array)):
            store = python_calls(lambda: at.__setitem__(key, target))
            assert store[:3] == [
                "Handle.__setitem__", "Handle._slot_for", "GenerationalCollector.write_barrier",
            ], store
            assert set(store[3:]) == {"BumpSpace.contains"}, store


def test_warm_new_array_call_budget(warm):
    # array_of is one dict hit once the element has been seen.
    vm, cls = warm
    calls = python_calls(lambda: vm.new_array(cls, 4))
    assert len(calls) <= 12, calls
    assert "ClassDescriptor.__init__" not in calls


def test_assertion_api_call_budget(warm):
    # Tracing is off on a default VM: no lifecycle instants, no span no-ops.
    vm, cls = warm
    assert vm.span_tracer is None
    owner, first, second, doomed = (vm.new(cls) for _ in range(4))
    vm.assertions.assert_ownedby(owner, first)  # the owner's record exists
    ownedby = python_calls(lambda: vm.assertions.assert_ownedby(owner, second))
    assert vm.engine.registry.owner_of(second.address) == owner.address
    assert len(ownedby) <= 5, ownedby
    dead = python_calls(lambda: vm.assertions.assert_dead(doomed, site="budget"))
    assert vm.engine.registry.dead_sites[doomed.address].label == "budget"
    assert len(dead) <= 4, dead
    # What keeps ``calls[kind] += 1`` off the list: ``Enum.__hash__`` is a
    # Python function (two calls a count), the identity hash is not.
    assert AssertionKind.__hash__ is object.__hash__


def test_assertion_api_budget_path_still_raises_usage_errors(warm):
    vm, cls = warm
    owner, other, ownee, gone = (vm.new(cls) for _ in range(4))
    vm.assertions.assert_ownedby(owner, ownee)
    gone.obj.status |= hdr.FREED_BIT  # as the sweep leaves a reclaimed object
    api, before = vm.assertions, vm.assertions.call_counts()
    with pytest.raises(AssertionUsageError, match="was already reclaimed"):
        api.assert_dead(gone)
    with pytest.raises(AssertionUsageError, match="was already reclaimed"):
        api.assert_ownedby(owner, gone)
    with pytest.raises(AssertionUsageError, match="was already reclaimed"):
        api.assert_ownedby(gone, other)
    with pytest.raises(AssertionUsageError, match="cannot own itself"):
        api.assert_ownedby(owner, owner)
    with pytest.raises(AssertionUsageError, match="already owned by .*may not overlap"):
        api.assert_ownedby(other, ownee)
    # A refused assertion registers nothing, sets no bit and counts no call.
    assert api.call_counts() == before
    assert not other.obj.status & (hdr.OWNER_BIT | hdr.OWNEE_BIT)
    assert not gone.obj.status & (hdr.DEAD_BIT | hdr.OWNEE_BIT | hdr.OWNER_BIT)
    assert vm.engine.registry.snapshot()["ownees"] == 1


# -- a reported violation ---------------------------------------------------------------------


def python_calls_under(fn, *roots: str) -> dict[str, list[str]]:
    """Per root qualname, the Python functions entered while a frame of
    that name was on the stack (the root itself included) during ``fn()``."""
    found: dict[str, list[str]] = {root: [] for root in roots}
    open_roots: list[tuple[str, object]] = []

    def profile(frame, event, _arg):
        if event == "call":
            name = frame.f_code.co_qualname
            if name in found:
                open_roots.append((name, frame))
            for root, _frame in open_roots:
                found[root].append(name)
        elif event == "return" and open_roots and open_roots[-1][1] is frame:
            open_roots.pop()

    profiled(fn, profile)
    return found


@pytest.mark.parametrize("reported, detection_budget", [(1, 24), (2, 36)])
def test_reported_assert_dead_call_budget(reported, detection_budget):
    """``assert-dead`` violations whose paths are five objects deep, on a
    default VM (telemetry on, tracing off): Python functions entered to
    *detect* them (``on_first_encounter_slow`` and below — the path capture)
    and to *dispatch* them (``_dispatch`` and below — log, telemetry).

    One violation is the cold case, every step a table miss: 24 at
    detection (four checked ``heap.get``, five ``PathEntry.__init__`` with a
    ``hash_of`` each), 4 at dispatch.  A second one under the same parent
    shares four steps and adds 12, and nothing at dispatch.  Before reports
    went through the tracer's step table, were rendered on read and left
    the pause as one list, the counts were 27 and 54 at detection
    (``current_path``, a ``heap.get`` and a ``PathEntry`` per step per
    violation) and 22 and 42 at dispatch (``record``, ``render`` with a call
    and a generator step per path entry, ``record_violation``, two
    ``Enum.value`` descriptors per violation).
    """
    vm = VirtualMachine(heap_bytes=1 << 20)
    cls = vm.define_class(
        "Link", [("next", FieldKind.REF), ("other", FieldKind.REF), ("id", FieldKind.INT)]
    )
    with vm.scope("call budget"):
        chain = [vm.new(cls, id=index) for index in range(4)]
        for holder, held in zip(chain, chain[1:]):
            holder["next"] = held
        vm.statics.set_ref("budget.head", chain[0].address)
        for field in ("next", "other")[:reported]:
            leaf = chain[-1][field] = vm.new(cls, id=-1)
            vm.assertions.assert_dead(leaf, site="budget")
    calls = python_calls_under(  # the scope is gone: the static is the only root
        vm.gc, "AssertionEngine.on_first_encounter_slow", "AssertionEngine._dispatch"
    )
    assert [v.path.type_names() for v in vm.engine.log] == [["Link"] * 5] * reported
    detection = calls["AssertionEngine.on_first_encounter_slow"]
    dispatch = calls["AssertionEngine._dispatch"]
    assert len(detection) <= detection_budget, detection
    assert len(dispatch) <= 4, dispatch
    # The text is made when somebody reads it.
    assert all("Path to object:\nstatic 'budget.head' ->\nLink" in line
               for line in vm.violation_lines())
    assert len(vm.violation_lines()) == reported


#: Python calls at detection per ``assert-dead`` violation a later collection
#: re-reports, averaged over collections 2 onward of :func:`rereported_calls`'
#: swapleak: nine (the hook, the path capture, the record), plus a
#: ``PathEntry`` and its ``hash_of`` for a step no collection has reported
#: yet.  Each collection rebuilt every step it reported: 17.8.
REREPORTED_VIOLATION_CALLS = 10.5
#: Python calls to score a batch of good delivery lags, whatever its size:
#: the entry points, two comprehensions, one histogram pass, one bulk rule
#: update over both windows.  It was 2 + 5 per lag (``record``, ``observe``
#: and its three rate reads): 167 for 33 lags.
GOOD_LAG_BATCH_CALLS = 8


def rereported_calls() -> tuple[int, int]:
    """(Python calls at detection, violations) over collections 2 onward
    of a small swapleak that collects after every swap: most of their
    violations report what the collection before reported."""
    from repro.workloads.swapleak import SwapLeakConfig, run_swapleak

    vm = VirtualMachine(heap_bytes=256 << 10)
    detecting: list = []
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            if frame.f_code.co_qualname == "AssertionEngine.on_first_encounter_slow":
                detecting.append(frame)
            if detecting and vm.stats.collections >= 2:
                calls += 1
        elif event == "return" and detecting and detecting[-1] is frame:
            detecting.pop()

    profiled(lambda: run_swapleak(vm, SwapLeakConfig(array_size=16, swaps=12, gc_every_swaps=1)),
             profile)
    return calls, sum(1 for v in vm.engine.log if v.gc_number >= 2)


def test_a_rereported_violation_reuses_its_path_steps():
    calls, violations = rereported_calls()
    assert violations > 60
    assert calls / violations <= REREPORTED_VIOLATION_CALLS, (calls, violations)


def good_lag_batch_calls(lags: int) -> list[str]:
    """The Python calls that score one batch of ``lags`` on-time deliveries."""
    from repro.service.metrics import ServiceMetrics

    metrics = ServiceMetrics()
    metrics.observe_delivery_lags([0.0] * 40, 0.001, 0.0)  # a warm rule, not firing
    stamps = [0.001 * index for index in range(lags)]
    calls = python_calls(lambda: metrics.observe_delivery_lags(stamps, 0.05, 0.0))
    assert metrics.delivery_lag.count == 40 + lags and not metrics.slo_delivery.firing
    return calls


def test_a_good_delivery_batch_is_scored_in_bulk():
    calls = good_lag_batch_calls(33)
    assert calls == good_lag_batch_calls(1), calls
    assert "BurnRateRule.observe" not in calls and "LogHistogram.record" not in calls
    assert len(calls) <= GOOD_LAG_BATCH_CALLS, calls


def test_the_batch_budgets_ignore_the_hash_seed():
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    code = ("from tests.test_call_budget import rereported_calls, good_lag_batch_calls; "
            "print(rereported_calls(), len(good_lag_batch_calls(33)))")
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.add(done.stdout.strip())
    assert outputs == {f"{rereported_calls()} {len(good_lag_batch_calls(33))}"}, outputs


def test_a_collection_takes_one_service_metrics_lock_for_its_violations():
    from repro.service.metrics import ServiceMetrics
    from repro.service.session import TenantSession

    class CountingLock:
        def __init__(self, lock):
            self.lock, self.acquired = lock, 0

        def __enter__(self):
            self.acquired += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    metrics = ServiceMetrics()
    lock = metrics._lock = CountingLock(metrics._lock)
    session = TenantSession("s1", "acme", 1 << 20, metrics=metrics, queue_frames=10_000)
    vm = session.vm
    cls = vm.define_class("Thing", [("ref", FieldKind.REF), ("id", FieldKind.INT)])
    with vm.scope("call budget"):
        for count in (1, 7, 40):
            doomed = [vm.new(cls, id=index) for index in range(count)]
            for thing in doomed:
                vm.assertions.assert_dead(thing, site="budget")
            before = lock.acquired
            vm.gc()
            # One for the collection's violations, one for its gc-event.
            assert lock.acquired - before == 2, count
            assert metrics.tenants["acme"].violations >= count
    frames = [frame for frame, _stamp in session.queue.drain()]
    assert [f["seq"] for f in frames] == list(range(len(frames)))


# -- the ownership phase ------------------------------------------------------------------------


def _owned_region(ownees: int) -> VirtualMachine:
    """One owner -> a half-full ref array -> ``ownees`` ownees, each holding
    a plain object; a bystander is asserted dead, so the engine is armed."""
    vm = VirtualMachine(heap_bytes=8 << 20)
    cls = vm.define_class("Owned", [("ref", FieldKind.REF), ("id", FieldKind.INT)])
    with vm.scope("phase-1 budget"):
        owner, table = vm.new(cls), vm.new_array(cls, 2 * ownees)
        owner["ref"] = table
        vm.statics.set_ref("owner", owner.address)
        for index in range(ownees):
            ownee = table[index] = vm.new(cls, id=index)
            ownee["ref"] = vm.new(cls)
            vm.assertions.assert_ownedby(owner, ownee)
        vm.assertions.assert_dead(vm.new(cls), site="bystander")
    vm.gc("warm")  # the probe tables for this length are memoised
    return vm


def test_ownership_phase_enters_no_frame_per_object():
    from repro.core.ownership import run_ownership_phase

    seen = {}
    for ownees in (20, 2000):
        vm = _owned_region(ownees)
        engine, collector = vm.engine, vm.collector
        engine.gc_begin(collector)
        vm.heap.new_marks()
        before = collector.stats.ownee_lookups
        seen[ownees] = python_calls(lambda: run_ownership_phase(engine, collector))
        assert collector.stats.ownee_lookups - before == ownees
        assert len(vm.heap.marks) == 2 * ownees + 1  # the table, the ownees, what they hold
    assert seen[20] == seen[2000], seen


def c_calls(fn) -> dict[str, int]:
    """How many times each C function was called while ``fn()`` ran."""
    counts: dict[str, int] = {}

    def profile(_frame, event, arg):
        if event == "c_call":
            name = arg.__qualname__
            counts[name] = counts.get(name, 0) + 1

    profiled(fn, profile)
    return counts


@pytest.mark.parametrize("ownees", [20, 200])
def test_ownership_phase_stacks_no_leaf(ownees):
    """One owner -> a ref array -> ``ownees`` ownees, each holding an
    ``int[3]``.  Phase 1 marks the int arrays but never stacks one, since a
    leaf's pop scans nothing: one push and one pop per ownee (its queue
    entry), plus the owner, the array and the record's bookkeeping.
    Stacking the leaves too made it 2n + 3 pushes and 2n + 2 pops."""
    from repro.core.ownership import run_ownership_phase

    vm = VirtualMachine(heap_bytes=8 << 20)
    cls = vm.define_class("Holder", [("ints", FieldKind.REF)])
    with vm.scope("phase-1 leaves"):
        owner, table = vm.new(cls), vm.new_array(cls, ownees)
        vm.statics.set_ref("owner", owner.address)
        owner["ints"] = table
        for index in range(ownees):
            ownee = table[index] = vm.new(cls)
            ownee["ints"] = vm.new_array(FieldKind.INT, 3)
            vm.assertions.assert_ownedby(owner, ownee)
    engine, collector = vm.engine, vm.collector
    engine.gc_begin(collector)
    vm.heap.new_marks()
    calls = c_calls(lambda: run_ownership_phase(engine, collector))
    assert len(vm.heap.marks) == 2 * ownees + 1  # the table, the ownees, their ints
    assert calls["list.append"] == ownees + 3, calls
    assert calls["list.pop"] == ownees + 2, calls


# -- one workload unit ---------------------------------------------------------------------------

#: The benchmark's smoke-size ``asserted_db`` script (``benchmarks/e2e/workloads.py``),
#: script seed 1.
DB_SMOKE = dict(initial_entries=120, operations=80, key_space=1200, add_weight=5,
                delete_weight=5, find_weight=1, sort_every=0, gc_every=20, seed=1)
#: What one Base unit of it takes.  It was 43,058 while every reference store
#: called a no-op barrier through ``VirtualMachine.write_ref`` and
#: ``Handle._check``, and every reference load called ``ObjectHeap.get``;
#: 31,469 while the root scan called a method and ``ObjectHeap.get`` per root.
DB_BASE_UNIT_CALLS = 31_463


def db_base_unit_calls() -> list[str]:
    """The Python calls of one smoke-size ``asserted_db`` Base unit, after
    one warm-up unit (a cold first unit makes more)."""
    from repro.workloads.db import DbConfig, run_db

    config = DbConfig(**DB_SMOKE)

    def unit():
        run_db(VirtualMachine(heap_bytes=8 << 20, assertions=False), config)

    unit()
    return python_calls(unit)


def test_asserted_db_base_unit_call_budget():
    calls = db_base_unit_calls()
    barrier = [name for name in calls
               if name.endswith(".write_barrier") or name == "VirtualMachine.write_ref"]
    assert barrier == [], "a mark-sweep store runs no barrier"
    assert len(calls) <= DB_BASE_UNIT_CALLS


def test_asserted_db_base_unit_calls_ignore_the_hash_seed():
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    code = ("from tests.test_call_budget import db_base_unit_calls; "
            "print(len(db_base_unit_calls()))")
    totals = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        totals.add(int(done.stdout))
    assert totals == {len(db_base_unit_calls())}, totals


# -- the hardened pass before the trace ----------------------------------------------------------


def _hardened_program(objects: int, hardened: bool = True, **options) -> VirtualMachine:
    """A (hardened) VM holding a rooted chain of ``objects`` nodes, every
    fourth with a ref array beside it, an owner with two ownees, an unshared
    node and a dead site on a reachable node."""
    vm = VirtualMachine(heap_bytes=8 << 20, hardened=hardened, **options)
    cls = vm.define_class("Node", [("next", FieldKind.REF), ("items", FieldKind.REF),
                                   ("id", FieldKind.INT)])
    with vm.scope("hardened program"):
        nodes = [vm.new(cls, id=index) for index in range(objects)]
        vm.statics.set_ref("head", nodes[0].address)
        for prev, node in zip(nodes, nodes[1:]):
            prev["next"] = node
        for node in nodes[::4]:
            node["items"] = vm.new_array(cls, 3)
        owner, first, second = vm.new(cls), vm.new(cls), vm.new(cls)
        vm.statics.set_ref("owner", owner.address)
        owner["next"] = first
        first["next"] = second
        vm.assertions.assert_ownedby(owner, first, site="region")
        vm.assertions.assert_ownedby(owner, second, site="region")
        vm.assertions.assert_unshared(nodes[1], site="chain")
        vm.assertions.assert_dead(nodes[objects // 2], site="planted")
        for _ in range(objects // 4):
            vm.new(cls)  # garbage
    return vm


def test_the_pre_trace_pass_costs_the_registry_not_the_heap():
    python, c_level = {}, {}
    for objects in (100, 2000):
        vm = _hardened_program(objects)
        vm.gc("settle")
        check = lambda: vm.collector._sentinel_check("pre-gc")  # noqa: E731
        python[objects] = python_calls(check)
        c_level[objects] = c_calls(check)
        assert len(vm.heap.live()) > objects
    assert python[100] == python[2000], python
    assert c_level[100] == c_level[2000], c_level


#: Every collector and sweep mode, as ``VirtualMachine`` options.
SWEEP_CONFIGS = [
    dict(collector="marksweep", sweep_mode="eager"),
    dict(collector="marksweep", sweep_mode="lazy"),
    dict(collector="generational", sweep_mode="eager"),
    dict(collector="generational", sweep_mode="lazy"),
    dict(collector="semispace"),
    dict(collector="marksweep", gc_workers=2),
]


def _run_recording_marks(vm: VirtualMachine) -> list:
    """Three collections; the mark set each one reclaims by."""
    marks: list = []
    collector = vm.collector
    reclaim = collector._reclaim

    def recorded():
        marks.append(frozenset(vm.heap.marks))
        return reclaim()

    collector._reclaim = recorded
    for round_no in range(3):
        vm.gc(f"round {round_no}")
    collector.sweep_all()
    return marks


@pytest.mark.parametrize("options", SWEEP_CONFIGS, ids=lambda o: "-".join(map(str, o.values())))
def test_a_clean_hardened_collection_is_an_unhardened_one(options):
    runs = {}
    for hardened in (False, True):
        vm = _hardened_program(300, hardened, **options)
        marks = _run_recording_marks(vm)
        runs[hardened] = (vm.stats.snapshot()["counters"], marks, vm.violation_lines())
        assert vm.collector.recovery.total() == 0
    assert runs[True][2], "the planted violation must be reported"
    assert runs[True] == runs[False]
