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
