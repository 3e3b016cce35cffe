"""Reaction policies (§2.6): LOG, HALT, FORCE, and programmatic handlers."""

import pytest

from repro.core.reactions import Reaction, ReactionPolicy
from repro.core.reporting import AssertionKind
from repro.errors import AssertionViolationHalt
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class


def make_vm(policy=None):
    return VirtualMachine(heap_bytes=1 << 20, policy=policy)


class TestLogPolicy:
    def test_log_is_default_and_continues(self):
        vm = make_vm()
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 1)
        vm.assertions.assert_dead(nodes[0])
        vm.gc()  # no exception
        assert vm.engine.log.violations[0].reaction == "log"
        assert nodes[0].is_live  # program semantics untouched


class TestHaltPolicy:
    def test_halt_raises_after_collection(self):
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.DEAD, Reaction.HALT)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 1)
        vm.assertions.assert_dead(nodes[0])
        with pytest.raises(AssertionViolationHalt) as exc:
            vm.gc()
        assert exc.value.violation.kind is AssertionKind.DEAD

    def test_halt_leaves_heap_consistent(self):
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.DEAD, Reaction.HALT)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[2])
        with pytest.raises(AssertionViolationHalt):
            vm.gc()
        # The collection completed before the halt surfaced.
        assert all(n.is_live for n in nodes)
        assert not vm.heap.marks

    def test_halt_only_for_configured_kind(self):
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.INSTANCES, Reaction.HALT)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 1)
        vm.assertions.assert_dead(nodes[0])
        vm.gc()  # DEAD still logs

    def test_force_cannot_be_default(self):
        policy = ReactionPolicy()
        with pytest.raises(ValueError):
            policy.set_default(Reaction.FORCE)


class TestForcePolicy:
    def test_force_reclaims_asserted_dead_object(self):
        """'The garbage collector can force objects to be reclaimed by
        nulling out all incoming references.'"""
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.DEAD, Reaction.FORCE)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[2], site="forced")
        vm.gc()
        assert not nodes[2].is_live
        assert nodes[1]["next"] is None  # the incoming reference was nulled
        assert vm.engine.log.violations[0].reaction == "force"

    def test_force_nulls_root_references(self):
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.DEAD, Reaction.FORCE)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        with vm.scope():
            victim = vm.new(cls)
            vm.statics.set_ref("v", victim.address)
            vm.assertions.assert_dead(victim)
        vm.gc()
        assert not victim.is_live
        assert vm.statics.get_ref("v") == 0

    def test_force_risks_null_pointer_exception(self):
        """The paper's warning: forcing 'risks introducing a null pointer
        exception' — the mutator now sees null where it expected an object."""
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.DEAD, Reaction.FORCE)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 2)
        vm.assertions.assert_dead(nodes[1])
        vm.gc()
        assert nodes[0]["next"] is None  # mutator must now handle null

    def test_forced_subgraph_floats_one_gc(self):
        policy = ReactionPolicy()
        policy.set_reaction(AssertionKind.DEAD, Reaction.FORCE)
        vm = make_vm(policy)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[1], site="mid")
        vm.gc()
        assert not nodes[1].is_live
        assert nodes[2].is_live  # was only reachable via the victim: floats
        vm.gc()
        assert not nodes[2].is_live

    def test_force_rejected_for_non_lifetime_kinds(self):
        policy = ReactionPolicy()
        with pytest.raises(ValueError):
            policy.set_reaction(AssertionKind.UNSHARED, Reaction.FORCE)
        with pytest.raises(ValueError):
            policy.set_reaction(AssertionKind.INSTANCES, Reaction.FORCE)


class TestProgrammaticHandlers:
    """§2.6 future work: 'a programmatic interface that would allow the
    programmer to test the conditions directly and take action.'"""

    def test_handler_sees_violations(self):
        vm = make_vm()
        seen = []
        vm.engine.policy.add_handler(lambda v: seen.append(v.kind) or None)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 1)
        vm.assertions.assert_dead(nodes[0])
        vm.gc()
        assert seen == [AssertionKind.DEAD]

    def test_handler_overrides_reaction(self):
        vm = make_vm()
        vm.engine.policy.add_handler(
            lambda v: Reaction.HALT if v.kind is AssertionKind.DEAD else None
        )
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 1)
        vm.assertions.assert_dead(nodes[0])
        with pytest.raises(AssertionViolationHalt):
            vm.gc()

    def test_handler_can_force_lifetime_assertion(self):
        vm = make_vm()
        vm.engine.policy.add_handler(
            lambda v: Reaction.FORCE if v.kind is AssertionKind.DEAD else None
        )
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 2)
        vm.assertions.assert_dead(nodes[1])
        vm.gc()
        assert not nodes[1].is_live

    def test_handler_cannot_force_non_lifetime(self):
        vm = make_vm()
        vm.engine.policy.add_handler(lambda v: Reaction.FORCE)
        cls = make_node_class(vm)
        build_chain(vm, cls, 2)
        vm.assertions.assert_instances(cls, 1)
        with pytest.raises(ValueError):
            vm.gc()

    def test_log_sink_called_on_record(self):
        vm = make_vm()
        lines = []
        vm.engine.log.sinks.append(lambda v: lines.append(v.message))
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 1)
        vm.assertions.assert_dead(nodes[0])
        vm.gc()
        assert len(lines) == 1
