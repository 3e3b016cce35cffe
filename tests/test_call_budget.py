"""A deterministic gate on the mutator's hot paths: Python-level calls.

Wall-clock gates flake; the number of Python functions entered by one
allocation or one handle access does not.  ``sys.setprofile`` counts the
``call`` events (Python frames only — ``dict.get`` and ``list.pop`` are
not calls here) under the entry point, the entry point included.  The
budgets are one above what the paths take today, so a helper that creeps
back onto a path fails here before it shows in a benchmark.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.reporting import AssertionKind
from repro.errors import AssertionUsageError
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine


def python_calls(fn) -> list[str]:
    """Qualified names of the Python functions entered while ``fn()`` runs
    (``fn`` itself left out)."""
    entered: list[str] = []

    def profile(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
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
    vm, cls = warm
    holder, target = vm.new(cls), vm.new(cls)
    store = python_calls(lambda: holder.__setitem__("ref", target))
    assert holder.ref_address("ref") == target.address
    assert len(store) <= 5, store
    load = python_calls(lambda: holder["ref"])
    assert len(load) <= 5, load
    scalar = python_calls(lambda: holder["id"])
    assert len(scalar) <= 2, scalar


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

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
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
